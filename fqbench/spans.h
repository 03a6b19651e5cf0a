#ifndef FQBENCH_SPANS_H_
#define FQBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fqbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log for the traced run. Spans are recorded by the
/// benchmark around its calls into the program's public functions; they
/// stay in memory (bounded) and are written out once, when the run ends.
/// Disabled recorders cost one branch per call site.
class SpanLog {
 public:
  struct Span {
    const char* name;  // static string
    int64_t start_ns;
    int64_t end_ns;
    uint32_t id;
    uint32_t parent;  // 0 = root
    uint32_t trace;   // spans of one operation share this id
    uint32_t tid;     // 0 = load thread, 1 = ack waiter, 2 = query client
  };

  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span (no-op when disabled). Spans past the
  /// capacity are counted, not kept.
  void Add(const char* name, int64_t start, int64_t end, uint32_t parent,
           uint32_t trace, uint32_t tid) {
    if (enabled_) AddWithId(NextId(), name, start, end, parent, trace, tid);
  }

  /// Reserves an id for a parent span whose children finish first.
  uint32_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void AddWithId(uint32_t id, const char* name, int64_t start, int64_t end,
                 uint32_t parent, uint32_t trace, uint32_t tid) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < capacity_) {
      spans_.push_back({name, start, end, id, parent, trace, tid});
    } else {
      ++dropped_;
    }
  }

  struct SelfTime {
    uint64_t count = 0;
    double total_ns = 0;  // span durations
    double self_ns = 0;   // minus the time child spans cover
  };

  /// Per-name totals: self time is a span's duration minus its direct
  /// children's durations (children never overlap their siblings here).
  std::map<std::string, SelfTime> Summarize() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint32_t, double> child_ns;
    for (const auto& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
    }
    std::map<std::string, SelfTime> out;
    for (const auto& s : spans_) {
      auto& t = out[s.name];
      const double d = double(s.end_ns - s.start_ns);
      ++t.count;
      t.total_ns += d;
      auto it = child_ns.find(s.id);
      t.self_ns += d - (it == child_ns.end() ? 0.0 : it->second);
    }
    return out;
  }

  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const auto& s : spans_) t0 = std::min(t0, s.start_ns);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& s : spans_) {
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << double(s.start_ns - t0) / 1000.0
          << ",\"dur\":" << double(s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"trace\":" << s.trace << "}}";
      first = false;
    }
    out << "\n],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
    return static_cast<bool>(out);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  const size_t capacity_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint32_t next_id_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace fqbench

#endif  // FQBENCH_SPANS_H_
