#ifndef FQBENCH_BENCH_H_
#define FQBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "record/dataset.h"
#include "spans.h"

namespace fqbench {

/// One workload's fixed shape. Everything here is written down in the
/// README; only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  Dataset dataset = Dataset::kNasa;
  size_t shards = 1;  // 1 = one FresqueCollector, >1 = ShardedPipeline
  size_t computing_nodes = 4;  // per shard
  /// Per-shard WAL + snapshots, fsync=always (sharded workloads only).
  bool durable = false;
  size_t lines_per_round = 0;
  size_t lines_per_publication = 0;
  /// Queries a round issues, one after another, once the ingest drained.
  size_t queries_per_round = 0;
  /// Whole checked rounds a run always completes (so its checked rounds
  /// alone publish at least 100 times and query at least 1000 times).
  size_t min_rounds = 1;
};

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

/// Attempted/failed counts of one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What a run hands back to main(): the metrics by name (value, unit) and
/// the run record.
struct RunOutput {
  bool correct = true;
  std::vector<std::string> problems;  // oracle findings, first few
  OpCount lines, publications, queries;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> notes;  // run record extras
  size_t rounds = 0;
};

/// Runs one workload for the configured time (untraced: end-to-end
/// metrics; traced: per-layer metrics).
RunOutput RunWorkload(const WorkloadSpec& w, const Options& opt);

/// Runs a durable workload whose Start() cannot succeed and checks that
/// the run reports itself incorrect, with its lines failed and no
/// non-finite metric. Returns 0 on pass; prints one line.
int StartFailureSelfTest(const Options& opt);

/// Per-layer self times from feeding `lines` through each layer's public
/// functions on one thread, at the pipeline's batch size.
struct ReplayCosts {
  double parse_ns = 0, extract_ns = 0, leaf_offset_ns = 0, al_admit_ns = 0;
  double template_us = 0, merge_us = 0;
  double encrypt_ns = 0, dummy_encrypt_ns = 0, decrypt_ns = 0;
  double randomer_push_ns = 0, hop_ns = 0, cloud_ingest_ns = 0;
  double wal_append_ns = 0, wal_bytes_per_input_byte = 0, route_ns = 0;
};
ReplayCosts ReplayPass(const fresque::record::DatasetSpec& spec,
                       const std::vector<std::string>& lines,
                       const std::string& scratch_dir, SpanLog* spans);

/// Simulator prediction for a topology from replay costs.
struct SimPrediction {
  double rps = 0;
  std::string bottleneck;
};
SimPrediction PredictRate(const ReplayCosts& c, const std::string& dataset,
                          size_t shards, size_t computing_nodes,
                          double dummies_per_real,
                          const std::vector<double>& shard_weights);

}  // namespace fqbench

#endif  // FQBENCH_BENCH_H_
