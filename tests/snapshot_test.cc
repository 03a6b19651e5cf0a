#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "record/dataset.h"

namespace fresque {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SnapshotTest, QueriesSurviveSaveAndLoad) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x70));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 9;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 12);
  std::vector<record::Record> truth;
  for (int i = 0; i < 1200; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok());
    truth.push_back(std::move(*rec));
    ASSERT_TRUE(collector.Ingest(line).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  // Leave some records in an open (unpublished) second publication too.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok());

  // The "cloud restarts": persist, reload, compare query answers.
  std::string path = TempPath("cloud_snapshot.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto before = client.Query(server, q);
  auto after = client.Query(**restored, q);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
  EXPECT_GT(after->size(), 0u);

  // Integrity evidence survives too.
  EXPECT_TRUE(client.VerifyPublication(**restored, 0).ok());
  EXPECT_EQ((*restored)->num_publications(), server.num_publications());
  EXPECT_EQ((*restored)->total_records(), server.total_records());
  std::remove(path.c_str());
}

// SaveSnapshot does its file I/O with the server lock released, so a
// snapshot whose write blocks must not stall queries. A FIFO makes the I/O block
// deterministically: the writer's open() waits for a reader, and after
// the reader opens, the writer blocks in write() as soon as the pipe is
// full (the snapshot is larger than the pipe) until the reader drains it.
TEST(SnapshotTest, QueriesProceedWhileSnapshotWriteBlocks) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  crypto::KeyManager keys(Bytes(32, 0x71));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 10;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  // An open publication too: queries take the server lock to read it.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok());

  const std::string fifo = TempPath("snapshot_fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto save = std::async(std::launch::async,
                         [&] { return server.SaveSnapshot(fifo); });
  // Returns once the snapshot writer has opened its end.
  const int rfd = ::open(fifo.c_str(), O_RDONLY);
  ASSERT_GE(rfd, 0);
  const int pipe_size = ::fcntl(rfd, F_GETPIPE_SZ);

  const index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto query = std::async(std::launch::async,
                          [&] { return server.ExecuteQuery(q); });
  const bool query_finished =
      query.wait_for(std::chrono::seconds(10)) == std::future_status::ready;

  // Drain whatever happened, so a failing run still unblocks the writer.
  Bytes drained;
  uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(rfd, chunk, sizeof(chunk));
    if (n <= 0) break;
    drained.insert(drained.end(), chunk, chunk + n);
  }
  ::close(rfd);
  std::remove(fifo.c_str());
  EXPECT_TRUE(query_finished) << "query stalled behind a snapshot write";
  ASSERT_TRUE(save.get().ok());
  ASSERT_TRUE(query.get().ok());
  ASSERT_GT(pipe_size, 0);
  ASSERT_GT(drained.size(), static_cast<size_t>(pipe_size))
      << "snapshot fits in the pipe: the writer never blocked";

  // What went through the FIFO is a complete, loadable snapshot.
  const std::string path = TempPath("fifo_snapshot.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(drained.data()),
              static_cast<std::streamsize>(drained.size()));
  }
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_publications(), server.num_publications());
  EXPECT_EQ((*restored)->total_records(), server.total_records());
  client::Client client(keys, &spec->parser->schema());
  auto before = client.Query(server, q);
  auto after = client.Query(**restored, q);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
  EXPECT_TRUE(client.VerifyPublication(**restored, 0).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptSnapshots) {
  std::string path = TempPath("bad_snapshot.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a snapshot", f);
    std::fclose(f);
  }
  EXPECT_FALSE(cloud::CloudServer::LoadSnapshot(path).ok());
  EXPECT_FALSE(cloud::CloudServer::LoadSnapshot("/nonexistent/nope").ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyServerRoundTrips) {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  std::string path = TempPath("empty_snapshot.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->num_publications(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fresque
