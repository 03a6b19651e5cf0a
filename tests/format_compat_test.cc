// Format compatibility: tests/data/format_v1 is a data dir (MANIFEST,
// snapshot, WAL tail) written by an earlier build of this code base —
// one publication installed and snapshotted, a restart, a second
// publication installed in the WAL and a third left open. Recovering it
// must give exactly the store and the query answer that build recovered,
// and re-encoding its snapshot and WAL frames must give the same bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/server.h"
#include "crypto/sha256.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "net/payloads.h"

namespace fresque {
namespace {

namespace fs = std::filesystem;

const std::string kFixture =
    std::string(FRESQUE_SOURCE_DIR) + "/tests/data/format_v1";
const Bytes kMacKey(32, 0x42);

std::string FreshCopy(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::copy(kFixture, dir);
  return dir;
}

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), {});
}

std::string Sha256Hex(const Bytes& b) {
  const auto d = crypto::Sha256::Hash(b);
  return ToHex(Bytes(d.begin(), d.end()));
}

/// SHA-256 over the result's three record lists, each sorted, so the
/// digest does not depend on hash-map iteration order.
std::string ResultDigest(const cloud::QueryResult& result) {
  BinaryWriter w;
  for (const auto* list : {&result.indexed_records, &result.overflow_records,
                           &result.unindexed_records}) {
    std::vector<std::pair<uint64_t, Bytes>> records;
    for (const auto& r : *list) records.emplace_back(r.pn, r.e_record);
    std::sort(records.begin(), records.end());
    w.PutU64(records.size());
    for (const auto& [pn, bytes] : records) {
      w.PutU64(pn);
      w.PutBytes(bytes);
    }
  }
  return Sha256Hex(w.buffer());
}

TEST(FormatCompatTest, RecoversFixtureToPinnedStoreAndResult) {
  const std::string dir = FreshCopy("format_v1_recover");
  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->stats.snapshot_loaded);
  EXPECT_EQ(recovered->stats.installs_replayed, 1u);
  EXPECT_EQ(recovered->stats.records_replayed, 12u);
  cloud::CloudServer& server = *recovered->server;
  EXPECT_EQ(server.num_publications(), 3u);

  // The whole recovered store, as its snapshot encoding.
  const std::string snap = dir + "/resnapshot.bin";
  ASSERT_TRUE(server.SaveSnapshot(snap).ok());
  const Bytes store = ReadFile(snap);
  EXPECT_EQ(store.size(), 6583u);
  EXPECT_EQ(Sha256Hex(store),
            "e41ac2f1edda430568897180ad2b845fb3378c0382e2f4540ce917383df973b6");

  auto result = server.ExecuteQuery(index::RangeQuery{0, 10});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->indexed_records.size(), 21u);
  EXPECT_EQ(result->overflow_records.size(), 40u);
  EXPECT_EQ(result->unindexed_records.size(), 3u);
  EXPECT_EQ(ResultDigest(*result),
            "8ea8fb65c4140258829c1f797a6f849da47f6fa171978e3ba0e313dc2dbcfe44");

  // Both installed publications keep verifiable evidence: one recovered
  // from the snapshot, one replayed from the WAL.
  for (uint64_t pn : {0, 1}) {
    auto evidence = server.PublicationEvidence(pn);
    ASSERT_TRUE(evidence.ok()) << pn;
    EXPECT_TRUE(net::VerifyIndexPublicationPayload(*evidence, kMacKey).ok())
        << pn;
  }
}

TEST(FormatCompatTest, SnapshotReencodesByteIdentically) {
  auto manifest = durability::ReadManifest(kFixture);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::string path = kFixture + "/" + manifest->snapshot_file;
  auto server = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string out =
      std::string(::testing::TempDir()) + "/format_v1_resave.bin";
  ASSERT_TRUE((*server)->SaveSnapshot(out).ok());
  EXPECT_EQ(ReadFile(out), ReadFile(path));
}

TEST(FormatCompatTest, WalFramesReencodeByteIdentically) {
  // Replays the fixture's WAL and issues the same appends, commits where
  // the cloud node committed (after the meta frame and each install), to
  // a fresh log: every frame body must come out the same.
  std::vector<durability::Wal::Frame> original;
  auto replay = durability::Wal::Replay(
      kFixture, 0, [&](const durability::Wal::Frame& f) {
        original.push_back(f);
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_FALSE(original.empty());

  const std::string dir =
      std::string(::testing::TempDir()) + "/format_v1_rewal";
  fs::remove_all(dir);
  durability::WalOptions opts;
  opts.dir = dir;
  opts.fsync_policy = durability::FsyncPolicy::kNever;
  opts.batch_records = 4;
  {
    auto wal = durability::Wal::Open(opts);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    durability::Wal& w = **wal;
    for (const auto& f : original) {
      switch (f.op) {
        case durability::WalOp::kMeta: {
          auto meta = durability::DecodeWalMeta(f.body);
          ASSERT_TRUE(meta.ok());
          ASSERT_TRUE(w.AppendMeta(meta->domain_min, meta->domain_max,
                                   meta->bin_width)
                          .ok());
          ASSERT_TRUE(w.Commit().ok());
          break;
        }
        case durability::WalOp::kStart: {
          auto pn = durability::DecodeWalStart(f.body);
          ASSERT_TRUE(pn.ok());
          ASSERT_TRUE(w.AppendStart(*pn).ok());
          break;
        }
        case durability::WalOp::kRecordBatch: {
          auto batch = durability::DecodeWalRecordBatch(f.body);
          ASSERT_TRUE(batch.ok());
          for (const auto& [leaf, rec] : batch->records) {
            ASSERT_TRUE(w.AppendRecord(batch->pn, leaf, rec).ok());
          }
          break;
        }
        case durability::WalOp::kInstall: {
          auto ins = durability::DecodeWalInstall(f.op, f.body);
          ASSERT_TRUE(ins.ok());
          ASSERT_TRUE(w.AppendInstall(ins->pn, ins->publication).ok());
          ASSERT_TRUE(w.Commit().ok());
          break;
        }
        default:
          FAIL() << "unexpected op in fixture WAL";
      }
    }
    ASSERT_TRUE(w.Commit().ok());
  }
  std::vector<durability::Wal::Frame> rewritten;
  ASSERT_TRUE(durability::Wal::Replay(dir, 0,
                                      [&](const durability::Wal::Frame& f) {
                                        rewritten.push_back(f);
                                        return Status::OK();
                                      })
                  .ok());
  ASSERT_EQ(rewritten.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rewritten[i].op, original[i].op) << "frame " << i;
    EXPECT_EQ(rewritten[i].body, original[i].body) << "frame " << i;
  }
}

}  // namespace
}  // namespace fresque
