#ifndef FRESQUE_INDEX_INDEX_H_
#define FRESQUE_INDEX_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "dp/laplace.h"
#include "index/binning.h"
#include "index/layout.h"

namespace fresque {
namespace index {

/// Closed range predicate over the indexed attribute:
/// SELECT * WHERE Aq >= lo AND Aq <= hi.
struct RangeQuery {
  double lo = 0;
  double hi = 0;
};

/// PINED-RQ histogram index: a B+-tree-shaped hierarchy of counts over the
/// binned domain (paper §4.1, Figure 2). Counts may be true (clear index),
/// noise-only (index template) or noisy (published secure index) — the
/// structure is the same, which is what makes template merging trivial.
class HistogramIndex {
 public:
  /// Index with all counts zero.
  HistogramIndex(IndexLayout layout, DomainBinning binning);

  /// Builds a clear index: leaf counts as given, internal counts
  /// aggregated bottom-up. `leaf_counts.size()` must equal num_leaves.
  static Result<HistogramIndex> FromLeafCounts(
      IndexLayout layout, DomainBinning binning,
      const std::vector<int64_t>& leaf_counts);

  const IndexLayout& layout() const { return layout_; }
  const DomainBinning& binning() const { return binning_; }

  int64_t count(size_t level, size_t i) const { return counts_[level][i]; }
  void set_count(size_t level, size_t i, int64_t c) { counts_[level][i] = c; }
  void add_count(size_t level, size_t i, int64_t d) { counts_[level][i] += d; }

  int64_t leaf_count(size_t i) const { return counts_[0][i]; }
  int64_t root_count() const { return counts_.back()[0]; }
  const std::vector<int64_t>& leaf_counts() const { return counts_[0]; }

  /// Recomputes every internal count as the sum of its children.
  void AggregateUp();

  /// Adds `delta` to every node on the root-to-leaf path of `leaf` — the
  /// O(log_k n) per-record update PINED-RQ++'s updater performs on its
  /// index template (and that FRESQUE's AL arrays replace with O(1)).
  void AddAlongPath(size_t leaf, int64_t delta);

  /// Element-wise sum of this index's counts and `other`'s (same layout).
  /// Used to merge a noise-only template with true counts (FRESQUE merger).
  Result<HistogramIndex> Plus(const HistogramIndex& other) const;

  /// PINED-RQ query traversal: descends from the root through children
  /// whose count is non-negative and whose value range intersects `q`;
  /// returns the offsets of the leaves reached.
  std::vector<size_t> Traverse(const RangeQuery& q) const;

  /// Differentially-private approximate COUNT(*) for `q`, answered from
  /// the index alone (no record access): decomposes the query into the
  /// minimal set of whole subtrees it covers plus boundary leaves and
  /// sums their noisy counts. Using high internal nodes instead of
  /// summing leaves pays O(log n) noise terms instead of O(range width)
  /// — the classic accuracy win of hierarchical DP histograms.
  int64_t NoisyRangeCount(const RangeQuery& q) const;

  /// B+-tree-style root-to-leaf descent locating the leaf covering `v`:
  /// at each internal node the children are scanned for the one whose
  /// range contains the value. This is the O(log_k n) lookup the
  /// PINED-RQ++ checker performs per record; kept deliberately as a walk
  /// (not arithmetic) so baseline costs are honest.
  size_t WalkToLeaf(double v) const;

  /// Serialized form published to the cloud.
  Bytes Serialize() const;
  /// Appends the same bytes to `w`.
  void SerializeTo(BinaryWriter* w) const;
  static Result<HistogramIndex> Deserialize(ByteSpan data);

  /// In-memory footprint of the counts (for storage-overhead reporting).
  size_t CountBytes() const;

 private:
  IndexLayout layout_;
  DomainBinning binning_;
  // counts_[level][i]; level 0 = leaves.
  std::vector<std::vector<int64_t>> counts_;
};

/// Draws and applies Laplace noise to every node of an index.
///
/// A record contributes to exactly one node per level, so publishing all
/// L levels with per-level budget eps/L gives eps-DP overall (sequential
/// composition, Theorem 1). Each count receives integer-rounded
/// Lap(L/eps) noise.
class IndexPerturber {
 public:
  /// `epsilon` > 0; `rng` must outlive the perturber.
  IndexPerturber(double epsilon, crypto::SecureRandom* rng);

  /// Samples noise for every node of `layout`. Returns the noise, laid out
  /// like the index counts (level-major). Deterministic given the rng.
  std::vector<std::vector<int64_t>> SampleNoise(const IndexLayout& layout);

  /// Adds freshly-sampled noise to `index` in place and returns the
  /// per-leaf noise that was applied (needed for dummy/removal handling).
  std::vector<int64_t> Perturb(HistogramIndex* index);

  double epsilon() const { return epsilon_; }

  /// Noise scale used per level for a layout with `num_levels` levels.
  static double LevelScale(double epsilon, size_t num_levels);

 private:
  double epsilon_;
  crypto::SecureRandom* rng_;
};

/// Index template (PINED-RQ++ §4.1 / FRESQUE §5): the noise-only index
/// created at the start of a publishing interval. Leaf noise seeds the
/// ALN array; at publish time the template is merged with the true counts
/// (AL) to produce the secure index.
class IndexTemplate {
 public:
  /// Samples a fresh template for one publication.
  static Result<IndexTemplate> Create(const DomainBinning& binning,
                                      size_t fanout, double epsilon,
                                      crypto::SecureRandom* rng);

  const HistogramIndex& noise_index() const { return noise_; }

  /// Per-leaf noise; element i initializes ALN[i].
  const std::vector<int64_t>& leaf_noise() const {
    return noise_.leaf_counts();
  }

  size_t num_leaves() const { return noise_.layout().num_leaves(); }

  /// Total dummy records this publication owes: sum of positive leaf
  /// noise.
  int64_t TotalPositiveNoise() const;

  /// Secure index = template noise + true leaf counts aggregated up.
  /// `al[i]` is the number of real records that hit leaf i (including the
  /// ones diverted to overflow arrays).
  Result<HistogramIndex> MergeWithCounts(const std::vector<int64_t>& al) const;

 private:
  explicit IndexTemplate(HistogramIndex noise) : noise_(std::move(noise)) {}

  HistogramIndex noise_;
};

}  // namespace index
}  // namespace fresque

#endif  // FRESQUE_INDEX_INDEX_H_
