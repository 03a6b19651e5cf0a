#ifndef FQBENCH_ORACLE_H_
#define FQBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cloud/server.h"
#include "index/index.h"
#include "record/record.h"

namespace fqbench {

/// Which of the two paper workloads a line belongs to. The oracle reads
/// lines with its own field split and never calls record::LineParser, so
/// a parser fault cannot hide itself from the check.
enum class Dataset { kNasa, kGowalla };

/// Indexed value and identity fingerprint of one generated line, from the
/// oracle's own split:
///   NASA    `host - - [dd/Mon/yyyy:HH:MM:SS tz] "request" status bytes`
///           identity = host, time of day, request, status, bytes;
///           indexed value = bytes.
///   Gowalla `user,checkin_time,location`
///           identity = all three cells; indexed value = checkin_time.
struct LineFacts {
  double value = 0;
  uint64_t fingerprint = 0;
};
bool SplitLine(Dataset ds, std::string_view line, LineFacts* out);

/// The same facts read from a decrypted record (typed values, as the
/// program's client returns them).
bool RecordFacts(Dataset ds, const fresque::record::Record& rec,
                 LineFacts* out);

/// Which records a drained store can return. PINED-RQ's query traversal
/// skips every index node whose noisy count is negative, so the records of
/// a leaf under such a node are not returned: DP pruning, by design. The
/// oracle rebuilds that rule from the published (public) noisy counts of
/// every installed publication; it never calls the program's traversal.
class Reachability {
 public:
  /// `stores`: one per shard, each with its own slice of the domain.
  /// Line i of the ingest belongs to publication i / lines_per_publication
  /// (publications are cut by line count).
  Reachability(const std::vector<const fresque::cloud::CloudServer*>& stores,
               size_t lines_per_publication);
  bool Reachable(size_t line_index, double value) const;

 private:
  struct Store {
    double min = 0, max = 0, width = 1;
    size_t leaves = 0;
    std::unordered_map<uint64_t, std::vector<bool>> pubs;  // pn -> leaf
  };
  std::vector<Store> stores_;
  size_t per_pub_;
};

/// Ground truth of one ingest: the multiset of ingested lines, searchable
/// by value range and by identity.
class GroundTruth {
 public:
  GroundTruth(Dataset ds, const std::vector<std::string>& lines);

  Dataset dataset() const { return ds_; }
  size_t size() const { return sorted_.size(); }
  /// Lines whose indexed value lies in [lo, hi] and that the store can
  /// return (see Reachability).
  size_t CountReachable(double lo, double hi, const Reachability& r) const;
  /// How many ingested lines carry this identity.
  uint32_t Multiplicity(uint64_t fingerprint) const;
  /// Lines the oracle could not split (a generator fault; must be 0).
  size_t unsplittable() const { return unsplittable_; }
  const std::vector<double>& values_in_order() const { return values_; }
  /// The r-th smallest ingested value.
  double ValueAtRank(size_t r) const { return sorted_[r].first; }

 private:
  Dataset ds_;
  std::vector<double> values_;         // ingest order (query anchors)
  std::vector<std::pair<double, uint32_t>> sorted_;  // (value, line index)
  std::unordered_map<uint64_t, uint32_t> multiplicity_;
  size_t unsplittable_ = 0;
};

/// What one query check found. `why` is empty when the check passed.
struct QueryVerdict {
  std::string why;
  size_t expected = 0;  // ground-truth matches (complete checks only)
  size_t returned = 0;  // real records the client returned
  bool ok() const { return why.empty(); }
};

/// Checks one query's output against the ground truth:
///  - no ciphertext occurs twice in the cloud's raw result;
///  - every decrypted real record lies in [q.lo, q.hi] and occurs in the
///    ground truth, never more often than it was ingested;
///  - when `reach` is given (the ingest has drained), the real records
///    returned are at most the reachable in-range lines and fall short of
///    them by at most `overflow_drops`.
/// A full-domain query on a drained store is the conservation check:
/// every ingested line comes back unless DP pruning hides it or it is an
/// overflow drop.
QueryVerdict CheckQuery(const GroundTruth& truth,
                        const fresque::cloud::QueryResult& raw,
                        const std::vector<fresque::record::Record>& decrypted,
                        const fresque::index::RangeQuery& q,
                        const Reachability* reach, uint64_t overflow_drops);

/// True when two query results hold the same multiset of (publication,
/// ciphertext) pairs, compared byte for byte: the restart check.
bool SameCiphertexts(const fresque::cloud::QueryResult& a,
                     const fresque::cloud::QueryResult& b);

/// Runs the oracle against a small real ingest and against tampered
/// copies of its output (a dropped record, an out-of-range record, a
/// duplicate). Returns the number of failed expectations (0 = pass) and
/// prints one line per case.
int SelfTest();

}  // namespace fqbench

#endif  // FQBENCH_ORACLE_H_
