// Metric-name hygiene golden test (DESIGN.md §16): drives a miniature
// pipeline plus the query engine and the obs sampler so the telemetry
// registry is populated the way a live process populates it, then asserts
//   1. every registered metric name matches ^[a-z0-9_.]+$ (the exporter
//      sanitizer is then a pure '.'->'_' rewrite, collision-free), and
//   2. every `query.*`, `pipeline.*`, `slo.*` and `shard.*` metric is
//      documented in docs/METRICS.md — adding a metric in those families
//      without documenting it fails this test.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "obs/sampler.h"
#include "query/executor.h"
#include "record/dataset.h"
#include "shard/pipeline.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

#ifndef FRESQUE_SOURCE_DIR
#error "metrics_doc_test needs FRESQUE_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace fresque {
namespace {

bool NameIsClean(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool HasDocPrefix(const std::string& name) {
  return name.rfind("query.", 0) == 0 || name.rfind("pipeline.", 0) == 0 ||
         name.rfind("slo.", 0) == 0 || name.rfind("shard.", 0) == 0;
}

/// Doc-lookup form of a metric name: the per-shard families embed the
/// shard index (`shard.3.records_in`), documented once as
/// `shard.i.records_in`, and the per-node gauges embed the node name
/// (`shard.0.node.cn1.queue_depth`), documented once as
/// `shard.i.node.<name>.queue_depth`. Everything else passes through
/// unchanged.
std::string CanonicalName(const std::string& name) {
  constexpr const char kShard[] = "shard.";
  if (name.rfind(kShard, 0) != 0) return name;
  const size_t start = sizeof(kShard) - 1;
  const size_t dot = name.find('.', start);
  if (dot == std::string::npos || dot == start) return name;
  for (size_t i = start; i < dot; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return name;
  }
  std::string canon = "shard.i";
  canon.append(name, dot, std::string::npos);
  constexpr const char kNode[] = "shard.i.node.";
  if (canon.rfind(kNode, 0) == 0) {
    const size_t node = sizeof(kNode) - 1;
    const size_t end = canon.find('.', node);
    if (end != std::string::npos) canon.replace(node, end - node, "<name>");
  }
  return canon;
}

class MetricsDocTest : public ::testing::Test {
 protected:
  // One full pipeline + query + sampler pass, run once for the suite.
  static void SetUpTestSuite() {
    telemetry::Registry::Global()->ResetForTest();
    obs::ResetE2eStateForTest();
    obs::SetSloE2eTargetNs(1);  // everything violates: exercises slo.*
    obs::SetE2eSamplingActive(true);

    auto spec = record::GowallaDataset();
    ASSERT_TRUE(spec.ok());
    auto binning = index::DomainBinning::Create(
        spec->domain_min, spec->domain_max, spec->bin_width);
    cloud::CloudServer server(std::move(binning).ValueOrDie());
    engine::CloudNode cloud_node(&server);
    cloud_node.Start();

    crypto::KeyManager keys(Bytes(32, 0x21));
    engine::CollectorConfig cfg;
    cfg.dataset = *spec;
    cfg.num_computing_nodes = 2;
    cfg.seed = 7;
    engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
    cloud_node.RouteAcksTo(collector.publication_acks());
    ASSERT_TRUE(collector.Start().ok());
    auto gen = record::MakeGenerator(*spec, 99);
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
    }
    ASSERT_TRUE(collector.Publish().ok());
    ASSERT_TRUE(collector.Shutdown().ok());
    cloud_node.Shutdown();
    ASSERT_TRUE(cloud_node.first_error().ok());

    // Query engine: registers the query.* family.
    query::QueryExecutor executor(
        [&server](const index::RangeQuery& q,
                  const query::QueryContext& ctx) {
          return server.ExecuteQuery(q, ctx);
        },
        query::ExecutorOptions{});
    auto result = executor.Execute(
        index::RangeQuery{spec->domain_min, spec->domain_max});
    ASSERT_TRUE(result.ok());
    executor.Shutdown();

    // Sharded mini-pipeline: registers the shard.* family the way every
    // CLI deployment does (router counters + ExportTelemetry gauges,
    // per-shard node/collector/WAL state included, DESIGN.md §17).
    {
      const std::string dd =
          std::string(::testing::TempDir()) + "/metrics_doc_dd";
      std::filesystem::remove_all(dd);
      shard::ShardedPipelineConfig scfg;
      scfg.collector.dataset = *spec;
      scfg.collector.num_computing_nodes = 2;
      scfg.collector.seed = 8;
      scfg.shard.num_shards = 2;
      scfg.durability.data_dir = dd;
      scfg.durability.fsync_policy = durability::FsyncPolicy::kNever;
      shard::ShardedPipeline pipe(scfg, keys);
      ASSERT_TRUE(pipe.Start().ok());
      for (uint64_t i = 0; i < 200; ++i) {
        ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
      }
      ASSERT_TRUE(pipe.Shutdown().ok());
      pipe.ExportTelemetry();
      std::filesystem::remove_all(dd);
    }

    // Sampler fold: registers pipeline.e2e_p* / ingest.lag_ms / slo.*.
    obs::ObsSampler sampler(3600 * 1000);
    sampler.FoldOnce();
    obs::SetE2eSamplingActive(false);
  }

  static void TearDownTestSuite() {
    obs::ResetE2eStateForTest();
    telemetry::Registry::Global()->ResetForTest();
  }

  static std::vector<std::string> AllNames() {
    auto snap = telemetry::Registry::Global()->Snapshot();
    std::vector<std::string> names;
    for (const auto& [name, v] : snap.counters) {
      (void)v;
      names.push_back(name);
    }
    for (const auto& [name, v] : snap.gauges) {
      (void)v;
      names.push_back(name);
    }
    for (const auto& h : snap.histograms) names.push_back(h.name);
    return names;
  }
};

TEST_F(MetricsDocTest, PipelinePopulatedTheFamiliesUnderTest) {
#if !FRESQUE_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out: hot-path macros register nothing";
#endif
  bool saw_query = false, saw_pipeline = false, saw_slo = false;
  bool saw_shard = false, saw_per_shard = false;
  for (const auto& name : AllNames()) {
    if (name.rfind("query.", 0) == 0) saw_query = true;
    if (name.rfind("pipeline.", 0) == 0) saw_pipeline = true;
    if (name.rfind("slo.", 0) == 0) saw_slo = true;
    if (name.rfind("shard.", 0) == 0) saw_shard = true;
    if (CanonicalName(name).rfind("shard.i.", 0) == 0) saw_per_shard = true;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_slo);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_per_shard);
}

TEST_F(MetricsDocTest, EveryNameMatchesTheCharterRegex) {
  for (const auto& name : AllNames()) {
    EXPECT_TRUE(NameIsClean(name))
        << "metric name '" << name << "' violates ^[a-z0-9_.]+$";
  }
}

TEST_F(MetricsDocTest, QueryPipelineSloFamiliesAreDocumented) {
  const std::string doc_path =
      std::string(FRESQUE_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(doc_path);
  ASSERT_TRUE(in) << "cannot open " << doc_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();

  for (const auto& name : AllNames()) {
    if (!HasDocPrefix(name)) continue;
    // Documented means the exact name appears in backticks, the table-row
    // convention of docs/METRICS.md. Per-shard names look up their
    // `shard.i.` canonical row.
    std::string needle = "`";
    needle += CanonicalName(name);
    needle += '`';
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "metric '" << name
        << "' is not documented in docs/METRICS.md — add a row describing"
           " it (family query./pipeline./slo./shard. is doc-mandatory)";
  }
}

}  // namespace
}  // namespace fresque
