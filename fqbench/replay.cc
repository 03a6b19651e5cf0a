// Replay pass of the traced run: feeds one workload's lines through each
// layer's public functions on a single thread, at the pipeline's batch
// size, so every layer's self time is measured without the others
// contending for the cores. The simulator then predicts the live rate
// from these costs.

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "cloud/server.h"
#include "crypto/chacha20.h"
#include "crypto/key_manager.h"
#include "dp/laplace.h"
#include "durability/wal.h"
#include "engine/config.h"
#include "engine/randomer.h"
#include "index/al.h"
#include "index/binning.h"
#include "index/index.h"
#include "net/message.h"
#include "record/secure_codec.h"
#include "shard/router.h"
#include "sim/cost_model.h"
#include "sim/pipeline.h"

namespace fqbench {

namespace {

namespace fq = fresque;

/// Times one layer: `fn` runs over all `items`; returns ns per item and
/// records the loop as one span of the replay pass.
template <typename Fn>
double TimeLayer(SpanLog* spans, const char* name, size_t items, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  spans->Add(name, t0, t1, 0, 0, 3);
  return items == 0 ? 0
                    : static_cast<double>(t1 - t0) / static_cast<double>(items);
}

}  // namespace

ReplayCosts ReplayPass(const fq::record::DatasetSpec& spec,
                       const std::vector<std::string>& lines,
                       const std::string& scratch_dir, SpanLog* spans) {
  ReplayCosts c;
  const fq::engine::CollectorConfig defaults;
  const size_t n = lines.size();
  const size_t batch = defaults.pipeline_batch_size;
  const auto& schema = spec.parser->schema();
  auto binning = fq::index::DomainBinning::Create(
      spec.domain_min, spec.domain_max, spec.bin_width);
  fq::crypto::SecureRandom rng(99);
  double input_bytes = 0;
  for (const auto& l : lines) input_bytes += static_cast<double>(l.size());

  // record: full parse into one reused Record (the computing nodes' path),
  // then the router's cheap indexed-value extraction.
  {
    fq::record::Record scratch;
    c.parse_ns = TimeLayer(spans, "replay.record.ParseInto", n, [&] {
      for (const auto& l : lines) (void)spec.parser->ParseInto(l, &scratch);
    });
  }
  std::vector<double> values(n, spec.domain_min);
  c.extract_ns = TimeLayer(spans, "replay.record.IndexedValue", n, [&] {
    for (size_t i = 0; i < n; ++i) {
      auto v = spec.parser->IndexedValue(lines[i]);
      if (v.ok()) values[i] = *v;
    }
  });
  std::vector<fq::record::Record> records(n);
  for (size_t i = 0; i < n; ++i) (void)spec.parser->ParseInto(lines[i], &records[i]);

  // index: leaf offsets, template sampling, AL admits, merge.
  std::vector<size_t> leaves(n, 0);
  c.leaf_offset_ns = TimeLayer(spans, "replay.index.LeafOffset", n, [&] {
    for (size_t i = 0; i < n; ++i) leaves[i] = binning->LeafOffset(values[i]);
  });
  constexpr size_t kTemplates = 20;
  std::vector<fq::index::IndexTemplate> templates;
  c.template_us = TimeLayer(spans, "replay.index.IndexTemplate::Create",
                            kTemplates, [&] {
    for (size_t i = 0; i < kTemplates; ++i) {
      templates.push_back(*fq::index::IndexTemplate::Create(
          *binning, defaults.fanout, defaults.epsilon, &rng));
    }
  }) * 1e-3;
  fq::index::LeafArrays al(templates.front().leaf_noise());
  c.al_admit_ns = TimeLayer(spans, "replay.index.LeafArrays::Admit", n, [&] {
    for (size_t i = 0; i < n; ++i) (void)al.Admit(leaves[i]);
  });
  c.merge_us = TimeLayer(spans, "replay.index.MergeWithCounts", kTemplates, [&] {
    for (const auto& t : templates) (void)t.MergeWithCounts(al.al_snapshot());
  }) * 1e-3;

  // crypto: batch encryption of records and dummies, then decryption.
  fq::crypto::KeyManager keys(fq::Bytes(32, 0x5C));
  auto codec = fq::record::SecureRecordCodec::Create(keys.RecordKey(0), &schema,
                                                     &rng);
  std::vector<fq::Bytes> cts(n);
  {
    fq::record::SecureRecordCodec::BatchEncryptor enc(&*codec);
    c.encrypt_ns = TimeLayer(spans, "replay.crypto.BatchEncryptor", n, [&] {
      for (size_t i = 0; i < n; ++i) {
        (void)enc.StageRecord(records[i], &cts[i]);
        if (enc.staged() == batch) (void)enc.Flush();
      }
      (void)enc.Flush();
    });
    std::vector<fq::Bytes> dummies(batch);
    c.dummy_encrypt_ns = TimeLayer(spans, "replay.crypto.BatchEncryptor.dummy", n, [&] {
      for (size_t i = 0; i < n; ++i) {
        enc.StageDummy(defaults.dummy_padding_len, &dummies[i % batch]);
        if (enc.staged() == batch) (void)enc.Flush();
      }
      (void)enc.Flush();
    });
  }
  c.decrypt_ns = TimeLayer(spans, "replay.crypto.Decrypt", n, [&] {
    for (const auto& ct : cts) (void)codec->Decrypt(ct);
  });

  // engine: randomer at the checking node's buffer size.
  {
    const auto& layout = templates.front().noise_index().layout();
    const double scale = fq::index::IndexPerturber::LevelScale(
        defaults.epsilon, layout.num_levels());
    auto size = fq::dp::RandomerBufferSize(scale, defaults.delta,
                                           layout.num_leaves(), defaults.alpha);
    fq::engine::Randomer randomer(size.ok() ? *size : 16, &rng);
    std::vector<fq::net::Message> msgs(n);
    for (size_t i = 0; i < n; ++i) {
      msgs[i].type = fq::net::MessageType::kTaggedRecord;
      msgs[i].leaf = leaves[i];
      msgs[i].payload = cts[i];
    }
    c.randomer_push_ns = TimeLayer(spans, "replay.engine.Randomer::Push", n, [&] {
      for (auto& m : msgs) (void)randomer.Push(std::move(m));
    });
  }

  // net: uncontended PushBatch + PopBatch of one mailbox hop.
  {
    auto box = fq::net::MakeMailbox(defaults.mailbox_capacity);
    std::vector<fq::net::Message> out;
    out.reserve(batch);
    std::vector<fq::net::Message> in(batch);
    c.hop_ns = TimeLayer(spans, "replay.net.PushBatch+PopBatch", n, [&] {
      for (size_t i = 0; i < n; i += batch) {
        const size_t m = std::min(batch, n - i);
        for (size_t j = 0; j < m; ++j) {
          in[j].type = fq::net::MessageType::kCloudRecord;
          in[j].leaf = leaves[i + j];
          in[j].payload = std::move(cts[i + j]);
        }
        box->PushBatch(in.data(), m);
        out.clear();
        box->PopBatch(&out, m);
        for (size_t j = 0; j < out.size(); ++j) cts[i + j] = std::move(out[j].payload);
      }
    });
  }

  // cloud: streaming ingest into an open publication.
  {
    fq::cloud::CloudServer server(*binning);
    (void)server.StartPublication(0);
    c.cloud_ingest_ns = TimeLayer(spans, "replay.cloud.IngestRecord", n, [&] {
      for (size_t i = 0; i < n; ++i) {
        (void)server.IngestRecord(0, static_cast<uint32_t>(leaves[i]), cts[i]);
      }
    });
  }

  // durability: WAL record appends (staged, written at Commit; no fsync so
  // the figure is the append path, not the disk).
  {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
    fq::durability::WalOptions wopts;
    wopts.dir = scratch_dir;
    wopts.fsync_policy = fq::durability::FsyncPolicy::kNever;
    auto wal = fq::durability::Wal::Open(std::move(wopts));
    if (wal.ok()) {
      (void)(*wal)->AppendStart(0);
      c.wal_append_ns = TimeLayer(spans, "replay.durability.AppendRecord", n, [&] {
        for (size_t i = 0; i < n; ++i) {
          (void)(*wal)->AppendRecord(0, static_cast<uint32_t>(leaves[i]), cts[i]);
        }
        (void)(*wal)->Commit();
      });
      c.wal_bytes_per_input_byte =
          static_cast<double>((*wal)->flushed_bytes()) / input_bytes;
    }
    std::filesystem::remove_all(scratch_dir, ec);
  }

  // shard: router placement over a 4-way range split.
  {
    fq::shard::ShardOptions so;
    so.num_shards = 4;
    auto placement = fq::shard::ShardPlacement::Create(spec, so);
    fq::shard::ShardRouter router(*placement, spec.parser);
    volatile size_t sink = 0;
    c.route_ns = TimeLayer(spans, "replay.shard.ShardRouter::Route", n, [&] {
      for (const auto& l : lines) sink = router.Route(l).shard;
    });
    (void)sink;
  }
  return c;
}

SimPrediction PredictRate(const ReplayCosts& c, const std::string& dataset,
                          size_t shards, size_t computing_nodes,
                          double dummies_per_real,
                          const std::vector<double>& shard_weights) {
  fq::sim::CostModel cm;
  cm.dataset = dataset;
  cm.parse_ns = c.parse_ns;
  cm.leaf_offset_ns = c.leaf_offset_ns;
  cm.encrypt_ns = c.encrypt_ns;
  cm.encrypt_dummy_ns = c.dummy_encrypt_ns;
  cm.al_update_ns = c.al_admit_ns;
  cm.randomer_push_ns = c.randomer_push_ns;
  cm.hop_ns = c.hop_ns;
  cm.cloud_store_ns = c.cloud_ingest_ns;
  cm.route_extract_ns = c.route_ns;
  fq::sim::SimConfig cfg;
  cfg.num_records = 200000;
  cfg.dummies_per_real = dummies_per_real;
  const auto r = shards > 1
                     ? fq::sim::SimulateShardedFresque(cm, computing_nodes, shards,
                                                       cfg, shard_weights)
                     : fq::sim::SimulateFresque(cm, computing_nodes, cfg);
  return {r.throughput_rps, r.bottleneck};
}

}  // namespace fqbench
