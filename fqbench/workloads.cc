// The workloads: one round = set up the program, ingest a seeded
// batch of lines, drain, query, verify, shut down and (durable workloads)
// recover. A run repeats whole rounds until its time is up; an untraced
// run follows each such checked round with an ingest-only round.

#include <dirent.h>
#include <sys/wait.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "crypto/key_manager.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "index/binning.h"
#include "shard/pipeline.h"
#include "telemetry/metrics.h"

namespace fqbench {

namespace {

using fresque::Result;
using fresque::Status;
namespace cloud = fresque::cloud;
namespace durability = fresque::durability;
namespace engine = fresque::engine;
namespace index = fresque::index;
namespace record = fresque::record;
namespace shard = fresque::shard;
namespace telemetry = fresque::telemetry;

// ---------------------------------------------------------------------------
// Workload table (README "Workloads" lists the same numbers).

std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec nasa;
  nasa.name = "ingest-nasa";
  nasa.dataset = Dataset::kNasa;
  nasa.shards = 1;
  nasa.computing_nodes = 4;
  nasa.durable = false;
  nasa.lines_per_round = 100000;
  nasa.lines_per_publication = 10000;
  nasa.queries_per_round = 100;
  nasa.min_rounds = 10;

  WorkloadSpec sharded = nasa;
  sharded.name = "shard-nasa";
  sharded.shards = 4;
  sharded.computing_nodes = 1;
  sharded.durable = true;
  return {nasa, sharded};
}

// ---------------------------------------------------------------------------
// Process and thread accounting.

double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TvSeconds(ru.ru_utime) + TvSeconds(ru.ru_stime);
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

/// CPU nanoseconds of every live thread of this process, by tid
/// (/proc/self/task/<tid>/schedstat, first field).
std::map<int, double> TaskCpuNs() {
  std::map<int, double> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/schedstat");
    double ns = 0;
    if (in >> ns) out[std::atoi(e->d_name)] = ns;
  }
  closedir(dir);
  return out;
}

/// Steal and total CPU ticks of this VM's CPUs (/proc/stat, first
/// line). Steal is the time the hypervisor ran something else while one
/// of this VM's CPUs wanted to run.
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0, total = 0, v = 0;
  // user nice system idle iowait irq softirq steal (guest time is part of
  // user and nice, so it is not added again).
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double StatusMib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}


// ---------------------------------------------------------------------------
// Statistics.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Registry histograms and counters as deltas over a window: the
/// registry is process-wide and outlives every round.
class RegistryWindow {
 public:
  RegistryWindow() : before_(telemetry::Registry::Global()->Snapshot()) {}

  void Close() { after_ = telemetry::Registry::Global()->Snapshot(); }

  /// Sum and count of every histogram whose name starts with `prefix`
  /// and ends with `suffix`.
  std::pair<double, double> Hist(const std::string& prefix,
                                 const std::string& suffix = "") const {
    auto match = [&](const std::string& n) {
      return n.rfind(prefix, 0) == 0 && n.size() >= suffix.size() &&
             n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    double sum = 0, count = 0;
    for (const auto& h : after_.histograms) {
      if (!match(h.name)) continue;
      sum += static_cast<double>(h.sum);
      count += static_cast<double>(h.count);
    }
    for (const auto& h : before_.histograms) {
      if (!match(h.name)) continue;
      sum -= static_cast<double>(h.sum);
      count -= static_cast<double>(h.count);
    }
    return {sum, count};
  }
  double HistMean(const std::string& prefix,
                  const std::string& suffix = "") const {
    auto [sum, count] = Hist(prefix, suffix);
    return count > 0 ? sum / count : 0;
  }
  double Counter(const std::string& name) const {
    double v = 0;
    for (const auto& c : after_.counters) {
      if (c.first == name) v += static_cast<double>(c.second);
    }
    for (const auto& c : before_.counters) {
      if (c.first == name) v -= static_cast<double>(c.second);
    }
    return v;
  }

 private:
  telemetry::MetricsSnapshot before_;
  telemetry::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------------
// The program under test behind one interface: one FresqueCollector with
// its CloudNode and an in-memory store, or a ShardedPipeline.

class Target {
 public:
  virtual ~Target() = default;
  virtual Status Start() = 0;
  virtual Status Ingest(std::string_view line) = 0;
  virtual uint64_t OpenPublication() const = 0;
  virtual Status Publish() = 0;
  virtual Status Wait(uint64_t pn) = 0;
  virtual Result<cloud::QueryResult> Query(const index::RangeQuery& q,
                                           size_t* probed) const = 0;
  virtual Status Shutdown() = 0;
  virtual uint64_t OverflowDrops() const = 0;
  virtual std::vector<const cloud::CloudServer*> Stores() const = 0;
  virtual std::vector<double> MatchingMs() const { return {}; }
  virtual std::vector<uint64_t> RoutedPerShard() const { return {}; }
  virtual uint64_t Routed() const { return 0; }
  /// Span name of this target's cloud-side query evaluation.
  virtual const char* query_span() const = 0;

};

class SingleTarget : public Target {
 public:
  SingleTarget(engine::CollectorConfig cfg, fresque::crypto::KeyManager keys)
      : cfg_(std::move(cfg)), keys_(std::move(keys)) {}

  Status Start() override {
    auto binning = index::DomainBinning::Create(
        cfg_.dataset.domain_min, cfg_.dataset.domain_max,
        cfg_.dataset.bin_width);
    if (!binning.ok()) return binning.status();
    server_ = std::make_unique<cloud::CloudServer>(*binning);
    node_ = std::make_unique<engine::CloudNode>(server_.get());
    node_->Start();
    collector_ = std::make_unique<engine::FresqueCollector>(cfg_, keys_,
                                                            node_->inbox());
    node_->RouteAcksTo(collector_->publication_acks());
    return collector_->Start();
  }
  Status Ingest(std::string_view line) override {
    return collector_->Ingest(line);
  }
  uint64_t OpenPublication() const override {
    return collector_->current_publication();
  }
  Status Publish() override { return collector_->Publish(); }
  Status Wait(uint64_t pn) override {
    return collector_->WaitForPublication(pn, std::chrono::seconds(60));
  }
  Result<cloud::QueryResult> Query(const index::RangeQuery& q,
                                   size_t* probed) const override {
    *probed = 1;
    return server_->ExecuteQuery(q);
  }
  Status Shutdown() override {
    Status st = collector_->Shutdown();
    node_->Shutdown();
    if (st.ok()) st = node_->first_error();
    return st;
  }
  uint64_t OverflowDrops() const override {
    return collector_->overflow_drops();
  }
  std::vector<const cloud::CloudServer*> Stores() const override {
    return {server_.get()};
  }
  std::vector<double> MatchingMs() const override {
    std::vector<double> out;
    for (const auto& s : node_->matching_stats()) out.push_back(s.matching_millis);
    return out;
  }
  const char* query_span() const override { return "cloud.ExecuteQuery"; }

 private:
  engine::CollectorConfig cfg_;
  fresque::crypto::KeyManager keys_;
  // Declaration order is teardown order reversed: the collector goes
  // first, then the cloud node, then the store it fills.
  std::unique_ptr<cloud::CloudServer> server_;
  std::unique_ptr<engine::CloudNode> node_;
  std::unique_ptr<engine::FresqueCollector> collector_;
};

std::vector<const cloud::CloudServer*> ShardStores(
    const shard::ShardedCloudServer& c) {
  std::vector<const cloud::CloudServer*> out;
  for (size_t i = 0; i < c.num_shards(); ++i) out.push_back(c.shard(i));
  return out;
}

class ShardedTarget : public Target {
 public:
  ShardedTarget(shard::ShardedPipelineConfig cfg,
                fresque::crypto::KeyManager keys)
      : cfg_(std::move(cfg)), keys_(std::move(keys)) {}

  Status Start() override {
    pipeline_ = std::make_unique<shard::ShardedPipeline>(cfg_, keys_);
    return pipeline_->Start();
  }
  Status Ingest(std::string_view line) override {
    return pipeline_->Ingest(line);
  }
  uint64_t OpenPublication() const override {
    return pipeline_->current_publication();
  }
  Status Publish() override { return pipeline_->Publish(); }
  Status Wait(uint64_t pn) override {
    return pipeline_->WaitForPublication(pn, std::chrono::seconds(60));
  }
  Result<cloud::QueryResult> Query(const index::RangeQuery& q,
                                   size_t* probed) const override {
    shard::FanoutStats fan;
    auto r = pipeline_->cloud()->ExecuteQuery(q, &fan);
    *probed = fan.probed.size();
    return r;
  }
  Status Shutdown() override { return pipeline_->Shutdown(); }
  uint64_t OverflowDrops() const override {
    uint64_t n = 0;
    for (const auto& s : pipeline_->Metrics().shards) {
      n += s.collector.overflow_drops;
    }
    return n;
  }
  std::vector<const cloud::CloudServer*> Stores() const override {
    return ShardStores(*pipeline_->cloud());
  }
  std::vector<uint64_t> RoutedPerShard() const override {
    return pipeline_->Metrics().router.per_shard;
  }
  uint64_t Routed() const override { return pipeline_->Metrics().router.routed; }
  const char* query_span() const override { return "shard.ExecuteQuery"; }

 private:
  shard::ShardedPipelineConfig cfg_;
  fresque::crypto::KeyManager keys_;
  std::unique_ptr<shard::ShardedPipeline> pipeline_;
};

/// The sharded store rebuilt from its durability directories (the
/// restart check).
Result<std::unique_ptr<shard::ShardedCloudServer>> RecoverStore(
    const WorkloadSpec& w, const record::DatasetSpec& spec,
    const std::string& dir) {
  shard::ShardOptions so;
  so.num_shards = w.shards;
  so.shard_by = shard::ShardBy::kRange;
  auto rec = shard::RecoverShardedCloud(dir, spec, so);
  if (!rec.ok()) return rec.status();
  return std::move(rec->cloud);
}


/// Publication count, record count and stored bytes of a store.
struct StoreTotals {
  size_t publications = 0, records = 0, bytes = 0;
  bool operator==(const StoreTotals&) const = default;
  std::string ToString() const {
    return std::to_string(publications) + " publications, " +
           std::to_string(records) + " records, " + std::to_string(bytes) +
           " bytes";
  }
};

StoreTotals TotalsOf(const std::vector<const cloud::CloudServer*>& stores) {
  StoreTotals t;
  for (const auto* s : stores) {
    t.publications = std::max(t.publications, s->num_publications());
    t.records += s->total_records();
    t.bytes += s->total_bytes();
  }
  return t;
}

// ---------------------------------------------------------------------------
// Helper threads.

/// Waits for each publication's terminal ack in order and records
/// Publish() -> WaitForPublication() latency.
class AckWaiter {
 public:
  AckWaiter(Target* target, SpanLog* spans)
      : target_(target), spans_(spans), thread_([this] { Loop(); }) {}
  ~AckWaiter() { Finish(); }
  AckWaiter(const AckWaiter&) = delete;
  AckWaiter& operator=(const AckWaiter&) = delete;

  void Expect(uint64_t pn, int64_t published_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({pn, published_ns});
    cv_.notify_one();
  }
  /// Blocks until at least `count` expected publications resolved.
  void WaitResolved(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    resolved_cv_.wait(lock, [&] { return resolved_ >= count; });
  }
  /// Waits until every expected publication resolved; joins the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> latencies_ms;
  uint64_t failed = 0;
  int64_t last_done_ns = 0;
  std::atomic<int> tid{0};

 private:
  void Loop() {
    tid = CurrentTid();
    for (;;) {
      std::pair<uint64_t, int64_t> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
        if (pending_.empty()) return;
        item = pending_.front();
        pending_.pop_front();
      }
      const int64_t t0 = NowNs();
      Status st = target_->Wait(item.first);
      const int64_t t1 = NowNs();
      spans_->Add("engine.WaitForPublication", t0, t1, 0,
                  static_cast<uint32_t>(item.first), 1);
      last_done_ns = t1;
      if (st.ok()) {
        latencies_ms.push_back(static_cast<double>(t1 - item.second) * 1e-6);
      } else {
        ++failed;
        std::fprintf(stderr, "publication %llu: %s\n",
                     static_cast<unsigned long long>(item.first),
                     st.ToString().c_str());
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++resolved_;
      resolved_cv_.notify_all();
    }
  }

  Target* target_;
  SpanLog* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<uint64_t, int64_t>> pending_;
  bool closed_ = false;
  std::condition_variable resolved_cv_;
  size_t resolved_ = 0;
  std::thread thread_;  // last: started after the members it uses
};

// ---------------------------------------------------------------------------
// One round.

/// Publications a closed-loop load thread keeps awaiting their ack.
constexpr size_t kPublicationsInFlight = 2;

/// Fresh-process ingest rounds whose VmHWM median is peak_rss_mib.
constexpr size_t kRssProbes = 3;

/// Set-up-only cycles a run times after its rounds; setup_s is their
/// median. The rounds' own set-ups are left out: they follow the
/// generation of the round's inputs and the previous round's teardown,
/// and read 1.2-1.6x slower than a cycle.
constexpr size_t kSetupCycles = 200;

/// Ingest-only rounds an untraced run adds after each checked round. They
/// run the same code on fresh seeded lines and skip the queries,
/// verification and restart check, which take about four fifths of a
/// checked round, so a run measures more ingest in the same time.
constexpr size_t kIngestOnlyRounds = 1;

struct RoundStats {
  bool started = false;  // Start() succeeded; the round's figures are valid
  bool checked = false;  // queries, verification and restart check ran
  bool traced = false;
  double steal = 0;  // share of the VM's CPU time stolen during the ingest
  double setup_s = 0;
  double ingest_s = 0;
  double cpu_s = 0;
  double lines = 0;
  double input_bytes = 0;
  double cloud_bytes = 0;
  double cloud_records = 0;
  std::vector<double> publish_ms;
  std::vector<double> query_ms;
  double busiest_util = 0;
  uint64_t overflow_drops = 0;
  uint64_t publications = 0;
  double recover_ms = -1;
  std::vector<double> matching_ms;
  double imbalance = 1;
  std::vector<double> routed_per_shard;
  double probed_sum = 0, probed_n = 0;
  double returned_ciphertexts = 0, returned_real = 0, expected_real = 0;
  /// CPU share of the ingest phase per program thread, by role.
  std::vector<std::pair<std::string, double>> thread_util;
  std::string busiest_role;
  double recall = 0;  // reachable share of the ingested lines (DP pruning)
  /// Wall time of each phase of the round, for the round log.
  std::vector<std::pair<const char*, double>> phases_ms;
};

struct Budget {
  OpCount lines, publications, queries;
  bool correct = true;
  std::vector<std::string> problems;
  void Problem(const std::string& p) {
    correct = false;
    if (problems.size() < 8) problems.push_back(p);
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
};

/// The range a query on anchor value `v` asks for. Ranges are aligned to
/// the leaf holding the anchor, so a query touches a fixed number of
/// leaves: narrow ones the inner half of that leaf, wide ones from inside
/// the leaf two below to inside the leaf above (four leaves).
index::RangeQuery RangeAt(const record::DatasetSpec& spec, double v, bool wide) {
  const double w = spec.bin_width;
  const double leaves = std::floor((spec.domain_max - spec.domain_min) / w);
  const double leaf = std::min(leaves - 1, std::floor((v - spec.domain_min) / w));
  const double low = spec.domain_min + leaf * w;
  if (!wide) return {low + 0.25 * w, low + 0.75 * w};
  return {std::max(spec.domain_min, low - 1.75 * w),
          std::min(spec.domain_max, low + 1.75 * w)};
}

/// Every 8th query is wide.
bool IsWide(size_t j) { return j % 8 == 7; }

/// A round's query set: one anchor from each of `count` equal slices of
/// the round's sorted values (stratified, so the set covers the data's
/// distribution evenly and its latency quantiles do not hinge on which few
/// leaves a small random draw happens to hit), in a seeded random order.
std::vector<index::RangeQuery> StratifiedQueries(const record::DatasetSpec& spec,
                                                 const GroundTruth& truth,
                                                 size_t count,
                                                 fresque::Xoshiro256* rng) {
  std::vector<index::RangeQuery> out;
  const size_t n = truth.size();
  for (size_t j = 0; j < count && n > 0; ++j) {
    const double pos = (static_cast<double>(j) + rng->NextDouble()) /
                       static_cast<double>(count) * static_cast<double>(n);
    const size_t rank = std::min(n - 1, static_cast<size_t>(pos));
    out.push_back(RangeAt(spec, truth.ValueAtRank(rank), IsWide(j)));
  }
  for (size_t j = out.size(); j > 1; --j) {
    std::swap(out[j - 1], out[rng->NextBounded(j)]);
  }
  return out;
}

/// Runs one client query end to end (cloud evaluation, decryption,
/// dummy filtering, exact post-filter) and checks it. Returns false when
/// the operation itself failed.
bool RunQuery(const Target& target, fresque::client::Client* client,
              const GroundTruth& truth, const index::RangeQuery& q,
              const Reachability* reach, uint64_t drops, SpanLog* spans,
              uint32_t trace, uint32_t tid, RoundStats* rs, Budget* b,
              int64_t* done_ns) {
  const uint32_t parent = spans->enabled() ? spans->NextId() : 0;
  const int64_t t0 = NowNs();
  size_t probed = 0;
  auto raw = target.Query(q, &probed);
  const int64_t t1 = NowNs();
  spans->Add(target.query_span(), t0, t1, parent, trace, tid);
  if (!raw.ok()) {
    std::fprintf(stderr, "query: %s\n", raw.status().ToString().c_str());
    *done_ns = t1;
    return false;
  }
  auto recs = client->Decrypt(*raw, q);
  const int64_t t2 = NowNs();
  spans->Add("client.Decrypt", t1, t2, parent, trace, tid);
  spans->AddWithId(parent, "client.Query", t0, t2, 0, trace, tid);
  *done_ns = t2;
  if (!recs.ok()) {
    std::fprintf(stderr, "decrypt: %s\n", recs.status().ToString().c_str());
    return false;
  }
  rs->probed_sum += static_cast<double>(probed);
  rs->probed_n += 1;
  rs->returned_ciphertexts += static_cast<double>(raw->TotalRecords());
  rs->returned_real += static_cast<double>(recs->size());
  auto verdict = CheckQuery(truth, *raw, *recs, q, reach, drops);
  rs->expected_real += static_cast<double>(verdict.expected);
  if (!verdict.ok()) b->Problem(verdict.why);
  return true;
}

/// Deterministic input lines of one round of a workload.
std::vector<std::string> GenerateRoundLines(const WorkloadSpec& w,
                                            uint64_t seed, size_t round,
                                            size_t count) {
  auto spec = w.dataset == Dataset::kNasa ? record::NasaDataset()
                                          : record::GowallaDataset();
  auto gen = record::MakeGenerator(*spec, seed * 1000003 + round * 7 + 1);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (size_t i = 0; i < count; ++i) lines.push_back((*gen)->NextLine());
  return lines;
}

std::string RoundDir(const Options& opt, const WorkloadSpec& w, size_t round) {
  return opt.work_dir + "/" + w.name + "-s" + std::to_string(opt.seed) + "-r" +
         std::to_string(round) + "-p" + std::to_string(getpid());
}

engine::CollectorConfig MakeConfig(const record::DatasetSpec& spec, size_t k,
                                   uint64_t seed, size_t round) {
  engine::CollectorConfig cfg;  // paper defaults: eps 1, alpha 2, delta 0.99, fanout 16
  cfg.dataset = spec;
  cfg.num_computing_nodes = k;
  cfg.seed = seed * 1000003 + round;
  return cfg;
}

fresque::crypto::KeyManager MakeKeys(uint64_t seed, size_t round) {
  fresque::Bytes master(32, 0);
  for (size_t i = 0; i < master.size(); ++i) {
    master[i] = static_cast<uint8_t>((seed * 131 + round * 7 + i) & 0xff);
  }
  return fresque::crypto::KeyManager(master);
}

/// The program under test for one round, not yet started.
std::unique_ptr<Target> MakeTarget(const WorkloadSpec& w,
                                   const engine::CollectorConfig& cfg,
                                   const fresque::crypto::KeyManager& keys,
                                   const std::string& dir) {
  if (w.shards == 1) return std::make_unique<SingleTarget>(cfg, keys);
  shard::ShardedPipelineConfig scfg;
  scfg.collector = cfg;
  scfg.shard.num_shards = w.shards;
  scfg.shard.shard_by = shard::ShardBy::kRange;
  scfg.durability.data_dir = dir;
  scfg.durability.fsync_policy = durability::FsyncPolicy::kAlways;
  return std::make_unique<ShardedTarget>(scfg, keys);
}

/// One set-up alone (Start, then Shutdown with nothing ingested); returns
/// its seconds, or -1 when Start() failed.
double SetupCycle(const WorkloadSpec& w, const record::DatasetSpec& spec,
                  const Options& opt, size_t index) {
  const std::string dir = w.durable ? RoundDir(opt, w, index) : std::string();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  const engine::CollectorConfig cfg = MakeConfig(spec, w.computing_nodes, opt.seed, index);
  const int64_t s0 = NowNs();
  std::unique_ptr<Target> target = MakeTarget(w, cfg, MakeKeys(opt.seed, index), dir);
  Status st = target->Start();
  const double seconds = static_cast<double>(NowNs() - s0) * 1e-9;
  (void)target->Shutdown();
  target.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  return st.ok() ? seconds : -1;
}

/// One round. `k` overrides the computing-node count (the traced k-sweep);
/// `full` runs the queries and every check (the sweep only ingests).
RoundStats RunRound(const WorkloadSpec& w, const record::DatasetSpec& spec,
                    const Options& opt, size_t round, bool traced, size_t k,
                    bool full, SpanLog* spans, Budget* b) {
  RoundStats rs;
  rs.traced = traced;
  spans->set_enabled(traced);
  int64_t phase_start = NowNs();
  auto phase = [&](const char* name) {
    const int64_t now = NowNs();
    rs.phases_ms.emplace_back(name, static_cast<double>(now - phase_start) * 1e-6);
    phase_start = now;
  };

  // Inputs first: generation is outside every timed phase. The ground
  // truth is built only for rounds that check outputs, so the ingest-only
  // rounds (peak RSS probe, k-sweep) hold nothing the program does not.
  const auto lines = GenerateRoundLines(w, opt.seed, round, w.lines_per_round);
  std::optional<GroundTruth> truth;
  if (full) {
    truth.emplace(w.dataset, lines);
    if (truth->unsplittable() != 0) {
      b->Problem("oracle could not split " + std::to_string(truth->unsplittable()) +
                 " generated lines");
    }
  }
  for (const auto& l : lines) rs.input_bytes += static_cast<double>(l.size());
  rs.lines = static_cast<double>(lines.size());

  const engine::CollectorConfig cfg = MakeConfig(spec, k, opt.seed, round);
  const fresque::crypto::KeyManager keys = MakeKeys(opt.seed, round);
  const std::string dir = w.durable ? RoundDir(opt, w, round) : std::string();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);

  phase("generate");
  // Set-up: stores, nodes, WAL/snapshot directories, Start().
  const int64_t s0 = NowNs();
  std::unique_ptr<Target> target = MakeTarget(w, cfg, keys, dir);
  Status started = target->Start();
  const int64_t s1 = NowNs();
  spans->Add("setup", s0, s1, 0, 0, 0);
  rs.setup_s = static_cast<double>(s1 - s0) * 1e-9;
  if (!started.ok()) {
    // The round's lines count as failed; the caller ends the run.
    b->Problem("start: " + started.ToString());
    b->lines.attempted += lines.size();
    b->lines.failed += lines.size();
    (void)target->Shutdown();
    target.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    return rs;
  }
  rs.started = true;

  fresque::client::Client client(keys, &spec.parser->schema());
  const index::RangeQuery all{spec.domain_min, spec.domain_max};

  // Ingest phase: first Ingest() -> terminal ack of the last publication.
  const int my_tid = CurrentTid();
  const auto cpu_before = TaskCpuNs();
  const double proc_cpu0 = ProcessCpuSeconds();
  const auto steal0 = StealTicks();
  const int64_t t0 = NowNs();
  AckWaiter acks(target.get(), spans);

  const size_t n = lines.size();
  const size_t per_pub = w.lines_per_publication;
  size_t expected_acks = 0;  // publications handed to the ack waiter
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = spans->enabled() ? NowNs() : 0;
    Status st = target->Ingest(lines[i]);
    if (spans->enabled()) {
      spans->Add(w.shards > 1 ? "shard.Ingest" : "engine.Ingest", a, NowNs(), 0,
                 static_cast<uint32_t>(i), 0);
    }
    b->lines.attempted++;
    if (!st.ok()) b->lines.failed++;
    if ((i + 1) % per_pub != 0) continue;
    // Closed loop: at most kPublicationsInFlight publications await their
    // ack; closing the next one first waits for the oldest.
    if (expected_acks >= kPublicationsInFlight) {
      acks.WaitResolved(expected_acks + 1 - kPublicationsInFlight);
    }
    const uint64_t pn = target->OpenPublication();
    const int64_t p0 = NowNs();
    Status ps = target->Publish();
    spans->Add(w.shards > 1 ? "shard.Publish" : "engine.Publish", p0, NowNs(),
               0, static_cast<uint32_t>(pn), 0);
    b->publications.attempted++;
    if (ps.ok()) {
      acks.Expect(pn, p0);
      ++expected_acks;
    } else {
      b->publications.failed++;
    }
  }
  acks.Finish();
  const int64_t t_end = std::max(acks.last_done_ns, t0 + 1);
  const double proc_cpu1 = ProcessCpuSeconds();
  const auto steal1 = StealTicks();
  rs.steal = (steal1.first - steal0.first) /
             std::max(1.0, steal1.second - steal0.second);
  const auto cpu_after = TaskCpuNs();
  rs.ingest_s = static_cast<double>(t_end - t0) * 1e-9;
  rs.cpu_s = proc_cpu1 - proc_cpu0;
  rs.publish_ms = acks.latencies_ms;
  rs.publications = acks.latencies_ms.size() + acks.failed;
  b->publications.failed += acks.failed;
  {
    // Program threads are unnamed; their roles follow from the order in
    // which Start() creates them (tids ascend in creation order).
    std::vector<std::string> roles;
    if (w.shards > 1) {
      for (size_t i = 0; i < w.shards; ++i) roles.push_back("cloud" + std::to_string(i));
      for (size_t i = 0; i < w.shards; ++i) roles.push_back("worker" + std::to_string(i));
    } else {
      roles = {"cloud", "merger", "checking"};
      for (size_t i = 0; i < k; ++i) roles.push_back("cn" + std::to_string(i));
      roles.push_back("acks");
    }
    size_t rank = 0;
    for (const auto& [tid, ns] : cpu_after) {
      if (tid == acks.tid) continue;
      auto it = cpu_before.find(tid);
      const double used = ns - (it == cpu_before.end() ? 0.0 : it->second);
      const double util = used * 1e-9 / rs.ingest_s;
      std::string role = "load";
      if (tid != my_tid) {
        role = rank < roles.size() ? roles[rank] : "collector";
        ++rank;
      }
      rs.thread_util.emplace_back(role, util);
      if (util > rs.busiest_util) {
        rs.busiest_util = util;
        rs.busiest_role = role;
      }
    }
  }
  if (w.shards > 1) {
    const auto per = target->RoutedPerShard();
    double mx = 0, sum = 0;
    for (auto v : per) {
      mx = std::max(mx, static_cast<double>(v));
      sum += static_cast<double>(v);
    }
    rs.imbalance = sum > 0 ? mx / (sum / static_cast<double>(per.size())) : 1;
    rs.routed_per_shard.assign(per.begin(), per.end());
    if (target->Routed() != n || sum != static_cast<double>(n)) {
      b->Problem("router ledger: routed " + std::to_string(target->Routed()) +
                 ", per-shard sum " + std::to_string(static_cast<uint64_t>(sum)) +
                 ", ingested " + std::to_string(n));
    }
  }
  if (!full) {
    // The cheap checks of an ingest-only round: besides every call's
    // status and the router ledger, the stores hold every ingested line
    // that was not an overflow drop.
    const uint64_t drops = target->OverflowDrops();
    const StoreTotals held = TotalsOf(target->Stores());
    if (static_cast<double>(held.records) + static_cast<double>(drops) <
        static_cast<double>(n)) {
      b->Problem("stores hold " + held.ToString() + " after ingesting " +
                 std::to_string(n) + " lines with " + std::to_string(drops) +
                 " overflow drops");
    }
    (void)target->Shutdown();
    target.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    return rs;
  }

  rs.checked = true;
  phase("setup+ingest");
  // Closed-loop queries on the drained store.
  const uint64_t drops = target->OverflowDrops();
  rs.overflow_drops = drops;
  const Reachability reach(target->Stores(), per_pub);
  {
    fresque::Xoshiro256 rng(opt.seed * 7919 + round);
    const auto queries = StratifiedQueries(spec, *truth, w.queries_per_round, &rng);
    for (size_t j = 0; j < queries.size(); ++j) {
      const auto& q = queries[j];
      b->queries.attempted++;
      const int64_t q0 = NowNs();
      int64_t done = 0;
      if (!RunQuery(*target, &client, *truth, q, &reach, drops, spans,
                    static_cast<uint32_t>(j), 0, &rs, b, &done)) {
        b->queries.failed++;
        continue;
      }
      rs.query_ms.push_back(static_cast<double>(done - q0) * 1e-6);
    }
  }

  phase("queries");
  // Conservation on the drained store: a full-domain query returns every
  // ingested line that DP pruning does not hide, less at most the overflow
  // drops; every publication's HMAC holds.
  {
    b->queries.attempted++;
    RoundStats scratch;
    int64_t done = 0;
    if (!RunQuery(*target, &client, *truth, all, &reach, drops, spans, 0, 0,
                  &scratch, b, &done)) {
      b->queries.failed++;
    }
    rs.recall = scratch.expected_real / static_cast<double>(n);
    const int64_t v0 = NowNs();
    for (const auto* store : target->Stores()) {
      for (uint64_t pn = 0; pn < rs.publications; ++pn) {
        Status st = client.VerifyPublication(*store, pn);
        if (!st.ok()) {
          b->Problem("publication " + std::to_string(pn) +
                     " fails verification: " + st.ToString());
        }
      }
    }
    spans->Add("client.VerifyPublication", v0, NowNs(), 0, 0, 0);
  }
  for (const auto* store : target->Stores()) {
    rs.cloud_bytes += static_cast<double>(store->total_bytes());
    rs.cloud_records += static_cast<double>(store->total_records());
  }
  rs.matching_ms = target->MatchingMs();

  phase("verify");
  Status down = target->Shutdown();
  if (!down.ok()) b->Problem("shutdown: " + down.ToString());

  phase("shutdown");
  // Restart check: the store rebuilt from the WAL and snapshots equals
  // the live one. The live store is released before recovery so the two
  // never sit in memory together; its full-domain result stays for the
  // byte comparison.
  if (w.durable) {
    const StoreTotals live = TotalsOf(target->Stores());
    size_t probed = 0;
    auto live_all = target->Query(all, &probed);
    target.reset();
    const int64_t r0 = NowNs();
    auto rec = RecoverStore(w, spec, dir);
    const int64_t r1 = NowNs();
    spans->Add("durability.Recover", r0, r1, 0, 0, 0);
    rs.recover_ms = static_cast<double>(r1 - r0) * 1e-6;
    auto rec_all = rec.ok() ? (*rec)->ExecuteQuery(all)
                            : Result<cloud::QueryResult>(rec.status());
    if (!live_all.ok() || !rec_all.ok()) {
      b->Problem("restart check: " +
                 (live_all.ok() ? rec_all.status() : live_all.status()).ToString());
    } else if (const StoreTotals got = TotalsOf(ShardStores(**rec)); !(got == live)) {
      b->Problem("recovered store has " + got.ToString() + "; live store had " +
                 live.ToString());
    } else if (!SameCiphertexts(*live_all, *rec_all)) {
      b->Problem("recovered full-domain ciphertexts differ from the live store");
    }
  }
  phase("restart-check");
  target.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  phase("teardown");
  return rs;
}

/// Peak resident set (VmHWM) of one ingest-only round in a fresh child
/// process: the program's footprint with the round's input lines, free of
/// what earlier rounds left in the allocator and of the verification's
/// copies of the store. Must run before this process starts any thread.
double ProbePeakRss(const WorkloadSpec& w, const record::DatasetSpec& spec,
                    const Options& opt, size_t index) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    SpanLog spans(0);
    Budget b;
    (void)RunRound(w, spec, opt, index, false, w.computing_nodes, false,
                   &spans, &b);
    const double hwm = b.lines.failed == 0 ? StatusMib("VmHWM:") : -1;
    ssize_t n = write(fds[1], &hwm, sizeof(hwm));
    _exit(n == sizeof(hwm) ? 0 : 1);
  }
  close(fds[1]);
  double hwm = -1;
  if (read(fds[0], &hwm, sizeof(hwm)) != sizeof(hwm)) hwm = -1;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return hwm;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const auto& w : Workloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const auto& w : Workloads()) out.push_back(w.name);
  return out;
}

RunOutput RunWorkload(const WorkloadSpec& w, const Options& opt) {
  RunOutput out;
  auto spec_r = w.dataset == Dataset::kNasa ? record::NasaDataset()
                                            : record::GowallaDataset();
  const record::DatasetSpec spec = *spec_r;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  Budget budget;
  // Peak RSS first, while this process has no threads to fork with.
  double peak_rss = 0;
  if (!opt.trace) {
    std::vector<double> probes;
    for (size_t i = 0; i < kRssProbes; ++i) {
      const double hwm = ProbePeakRss(w, spec, opt, 3000 + i);
      if (hwm < 0) budget.Problem("peak RSS probe round failed");
      probes.push_back(hwm);
    }
    peak_rss = Median(probes);
  }
  SpanLog spans(opt.trace ? 2000000 : 0);
  std::vector<RoundStats> rounds;
  // Warm-up: one ingest-only round (not measured) pages in the code, the
  // allocator's arenas and the lazily built tables.
  {
    Budget warm;
    (void)RunRound(w, spec, opt, 999, false, w.computing_nodes, false, &spans,
                   &warm);
  }
  RegistryWindow window;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  // Untraced runs trace nothing; traced runs alternate untraced and
  // traced rounds, so the two ingest rates compare under equal conditions.
  // Untraced runs follow each checked round with ingest-only rounds.
  auto log_round = [](const RoundStats& rs, size_t r) {
    // Round log (stderr): the figures behind the metrics, per round.
    std::fprintf(stderr,
                 "round %zu%s: setup %.4f s, ingest %.3f s (%.0f lines/s, "
                 "steal %.3f), cpu %.2f us/line, query p50 %.3f ms, publish "
                 "p50 %.1f p90 %.1f ms; thread CPU share:",
                 r, rs.traced ? " (traced)" : rs.checked ? "" : " (ingest only)",
                 rs.setup_s, rs.ingest_s, rs.lines / rs.ingest_s, rs.steal,
                 rs.cpu_s * 1e6 / rs.lines, Quantile(rs.query_ms, 0.5),
                 Quantile(rs.publish_ms, 0.5), Quantile(rs.publish_ms, 0.9));
    for (const auto& [role, u] : rs.thread_util) {
      if (u >= 0.05) std::fprintf(stderr, " %s %.2f", role.c_str(), u);
    }
    std::fprintf(stderr, "; phases:");
    for (const auto& [name, ms] : rs.phases_ms) {
      std::fprintf(stderr, " %s %.0f ms", name, ms);
    }
    std::fprintf(stderr, "\n");
  };
  size_t checked_rounds = 0;
  for (size_t r = 0;; ++r) {
    const bool traced = opt.trace && (r % 2 == 1);
    const bool checked = opt.trace || r % (1 + kIngestOnlyRounds) == 0;
    if (checked && checked_rounds >= w.min_rounds && NowNs() >= deadline) break;
    RoundStats round = RunRound(w, spec, opt, r, traced, w.computing_nodes,
                                checked, &spans, &budget);
    // A program that cannot start ends the run; the round's figures are
    // left out of every metric.
    if (!round.started) break;
    log_round(round, r);
    rounds.push_back(std::move(round));
    if (checked) ++checked_rounds;
  }
  window.Close();
  spans.set_enabled(false);
  out.rounds = rounds.size();
  out.correct = budget.correct;
  out.problems = budget.problems;
  out.lines = budget.lines;
  out.publications = budget.publications;
  out.queries = budget.queries;
  if (rounds.empty()) return out;  // correct is false: Start() failed

  auto per_round = [&](auto fn) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(fn(r));
    return v;
  };
  auto pooled = [&](auto member) {
    std::vector<double> v;
    for (const auto& r : rounds) {
      v.insert(v.end(), (r.*member).begin(), (r.*member).end());
    }
    return v;
  };
  auto set = [&](const std::string& name, double v, const std::string& unit) {
    out.metrics[name] = {v, unit};
  };

  const auto publish_ms = pooled(&RoundStats::publish_ms);
  const auto query_ms = pooled(&RoundStats::query_ms);
  // How much CPU time the hypervisor took from this VM during the ingest
  // phases: the figure that explains a slow run on a shared host.
  out.notes["steal_share"] = std::to_string(
      Median(per_round([](const RoundStats& r) { return r.steal; })));
  out.notes["publish_samples"] = std::to_string(publish_ms.size());
  out.notes["query_samples"] = std::to_string(query_ms.size());

  if (!opt.trace) {
    std::vector<double> setups;
    for (size_t i = 0; i < kSetupCycles; ++i) {
      const double t = SetupCycle(w, spec, opt, 2000 + i);
      if (t < 0) {
        budget.Problem("set-up cycle failed");
        out.problems = budget.problems;
        out.correct = false;
      } else {
        setups.push_back(t);
      }
    }
    set("setup_s", Median(setups), "s");
    set("ingest_rps", Median(per_round([](const RoundStats& r) {
          return r.lines / r.ingest_s;
        })), "1/s");
    set("ingest_cpu_us_per_rec", Median(per_round([](const RoundStats& r) {
          return r.cpu_s * 1e6 / r.lines;
        })), "us");
    set("publish_p50_ms", Quantile(publish_ms, 0.5), "ms");
    set("publish_p90_ms", Quantile(publish_ms, 0.9), "ms");
    set("query_p50_ms", Quantile(query_ms, 0.5), "ms");
    set("query_p99_ms", Quantile(query_ms, 0.99), "ms");
    std::vector<double> cloud_ratio;
    for (const auto& r : rounds) {
      if (r.checked) cloud_ratio.push_back(r.cloud_bytes / r.input_bytes);
    }
    set("cloud_bytes_per_input_byte", Median(cloud_ratio), "ratio");
    set("peak_rss_mib", peak_rss, "MiB");
    return out;
  }

  // ---- Traced run: per-layer metrics. ----
  const double pubs = static_cast<double>(budget.publications.attempted);
  const double lines_total = static_cast<double>(budget.lines.attempted);
  auto rps_of = [](const RoundStats& r) { return r.lines / r.ingest_s; };
  double rps_traced = 0;
  {
    std::vector<double> t, u;
    for (const auto& r : rounds) (r.traced ? t : u).push_back(rps_of(r));
    rps_traced = Median(t);
    const double base = Median(u);
    set("trace.overhead_pct", base > 0 ? (base - rps_traced) / base * 100 : 0,
        "%");
  }

  // Replay pass over round 0's inputs.
  const auto replay_lines =
      GenerateRoundLines(w, opt.seed, 0, std::min<size_t>(w.lines_per_round, 50000));
  const std::string replay_dir = RoundDir(opt, w, 999999);
  const ReplayCosts c = ReplayPass(spec, replay_lines, replay_dir, &spans);
  std::filesystem::remove_all(replay_dir, ec);
  set("record.parse_ns", c.parse_ns, "ns");
  set("record.extract_ns", c.extract_ns, "ns");
  set("index.leaf_offset_ns", c.leaf_offset_ns, "ns");
  set("index.al_admit_ns", c.al_admit_ns, "ns");
  set("index.template_us", c.template_us, "us");
  set("index.merge_us", c.merge_us, "us");
  set("crypto.encrypt_ns", c.encrypt_ns, "ns");
  set("crypto.dummy_encrypt_ns", c.dummy_encrypt_ns, "ns");
  set("crypto.decrypt_ns", c.decrypt_ns, "ns");
  set("engine.randomer_push_ns", c.randomer_push_ns, "ns");
  set("net.hop_ns", c.hop_ns, "ns");
  set("cloud.ingest_ns", c.cloud_ingest_ns, "ns");
  set("durability.append_ns", c.wal_append_ns, "ns");
  set("durability.wal_bytes_per_input_byte", c.wal_bytes_per_input_byte, "ratio");
  set("shard.route_ns", c.route_ns, "ns");

  // Program counters over the measured rounds.
  set("engine.checking_flush_us", window.HistMean("checking.flush_ns") * 1e-3, "us");
  set("engine.merger_build_us", window.HistMean("merger.build_ns") * 1e-3, "us");
  const double dummies = window.Counter("ingest.dummy_records");
  set("engine.dummies_per_pub", pubs > 0 ? dummies / pubs : 0, "count");
  double drops = 0;
  for (const auto& r : rounds) drops += static_cast<double>(r.overflow_drops);
  set("engine.overflow_drops", lines_total > 0 ? drops / lines_total * 1e6 : 0,
      "count");
  set("engine.busiest_thread_util",
      Median(per_round([](const RoundStats& r) { return r.busiest_util; })),
      "ratio");
  set("net.wait_us.cn", window.HistMean("queue.cn", ".wait_ns") * 1e-3, "us");
  set("net.wait_us.checking", window.HistMean("queue.checking.wait_ns") * 1e-3, "us");
  set("net.wait_us.merger", window.HistMean("queue.merger.wait_ns") * 1e-3, "us");
  set("net.wait_us.cloud", window.HistMean("queue.cloud.wait_ns") * 1e-3, "us");
  set("cloud.matching_ms", Mean(pooled(&RoundStats::matching_ms)), "ms");
  {
    double real = 0, stored = 0;
    for (const auto& r : rounds) {
      real += r.lines - static_cast<double>(r.overflow_drops);
      stored += r.cloud_records;
    }
    set("cloud.real_share", stored > 0 ? real / stored : 0, "ratio");
  }
  set("durability.commit_us", window.HistMean("wal.commit_ns") * 1e-3, "us");
  set("durability.snapshot_ms", window.HistMean("snapshot.write_ns") * 1e-6, "ms");
  {
    std::vector<double> rec;
    for (const auto& r : rounds) {
      if (r.recover_ms >= 0) rec.push_back(r.recover_ms);
    }
    set("durability.recover_ms", Median(rec), "ms");
  }
  const auto summary = spans.Summarize();
  auto span_mean_us = [&](const std::string& name) {
    auto it = summary.find(name);
    return it == summary.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ns / static_cast<double>(it->second.count) * 1e-3;
  };
  set("query.scan_us",
      span_mean_us(w.shards > 1 ? "shard.ExecuteQuery" : "cloud.ExecuteQuery"), "us");
  set("client.decrypt_us", span_mean_us("client.Decrypt"), "us");
  {
    double ct = 0, real = 0, probed = 0, probed_n = 0;
    for (const auto& r : rounds) {
      ct += r.returned_ciphertexts;
      real += r.returned_real;
      probed += r.probed_sum;
      probed_n += r.probed_n;
    }
    set("query.overreturn", real > 0 ? ct / real : 0, "ratio");
    set("shard.probed_per_query", probed_n > 0 ? probed / probed_n : 0, "count");
  }
  {
    const double hits = window.Counter("query.leaf_cache.hits");
    const double misses = window.Counter("query.leaf_cache.misses");
    set("query.leaf_cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  }
  set("query.recall",
      Median(per_round([](const RoundStats& r) { return r.recall; })), "ratio");
  set("shard.imbalance",
      Median(per_round([](const RoundStats& r) { return r.imbalance; })), "ratio");

  // Simulator cross-check for this workload's topology.
  const double dummies_per_real = lines_total > 0 ? dummies / lines_total : 0;
  // Shard weights: the lines each shard received (router ledger).
  const std::vector<double>& weights = rounds.back().routed_per_shard;
  const SimPrediction pred = PredictRate(c, spec.name, w.shards,
                                         w.computing_nodes, dummies_per_real,
                                         weights);
  set("sim.predicted_rps", pred.rps, "1/s");
  out.notes["sim_bottleneck"] = pred.bottleneck;
  out.notes["traced_ingest_rps"] = std::to_string(rps_traced);
  {
    std::map<std::string, int> votes;
    for (const auto& r : rounds) ++votes[r.busiest_role];
    std::string role;
    for (const auto& [name, n] : votes) {
      if (role.empty() || n > votes[role]) role = name;
    }
    out.notes["busiest_thread"] =
        role + " (busiest in " + std::to_string(votes[role]) + " of " +
        std::to_string(rounds.size()) + " rounds)";
  }

  // Live k-sweep beside the simulator (ingest-nasa only).
  for (size_t k = 1; k <= 4; ++k) {
    double live = 0, sim = 0;
    if (w.name == "ingest-nasa") {
      Budget sweep_budget;
      auto r = RunRound(w, spec, opt, 1000 + k, false, k, false, &spans,
                        &sweep_budget);
      live = r.started ? r.lines / r.ingest_s : 0;
      auto p = PredictRate(c, spec.name, 1, k, dummies_per_real, {});
      sim = p.rps;
      out.notes["sweep_k" + std::to_string(k)] =
          "live " + std::to_string(static_cast<int64_t>(live)) + " rps, sim " +
          std::to_string(static_cast<int64_t>(sim)) + " rps (bottleneck " +
          p.bottleneck + "), busiest thread " +
          std::to_string(r.busiest_util);
      if (!sweep_budget.correct || sweep_budget.lines.failed != 0) {
        out.problems.push_back("k-sweep round failed");
        out.correct = false;
      }
    }
    set("sweep.live_rps.k" + std::to_string(k), live, "1/s");
    set("sweep.sim_rps.k" + std::to_string(k), sim, "1/s");
  }

  const std::string trace_path = opt.work_dir + "/trace-" + w.name + "-s" +
                                 std::to_string(opt.seed) + ".json";
  if (spans.WriteChromeTrace(trace_path)) {
    out.notes["spans_file"] = trace_path;
    out.notes["spans"] = std::to_string(spans.size());
    out.notes["spans_dropped"] = std::to_string(spans.dropped());
  }
  return out;
}

int StartFailureSelfTest(const Options& opt) {
  // A durable workload whose data directory lies under a regular file:
  // the WAL cannot be opened, so Start() fails on every round.
  WorkloadSpec w;
  FindWorkload("shard-nasa", &w);
  w.lines_per_round = 2000;
  w.lines_per_publication = 1000;
  w.queries_per_round = 10;
  w.min_rounds = 1;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  const std::string blocker = opt.work_dir + "/self-test-blocker";
  std::ofstream(blocker) << "not a directory\n";
  Options o = opt;
  o.work_dir = blocker + "/work";
  o.seconds = 0.01;
  o.trace = false;
  const RunOutput out = RunWorkload(w, o);
  std::filesystem::remove(blocker, ec);

  bool finite = true;
  for (const auto& [name, vu] : out.metrics) finite = finite && std::isfinite(vu.first);
  bool named = false;
  for (const auto& p : out.problems) named = named || p.rfind("start: ", 0) == 0;
  const bool ok = !out.correct && named && out.lines.failed > 0 &&
                  out.lines.failed == out.lines.attempted && finite;
  std::printf("self-test: %-58s %s\n", "a failed Start() makes the run incorrect",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace fqbench
