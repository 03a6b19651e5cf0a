#include "index/index.h"

#include <algorithm>

namespace fresque {
namespace index {

HistogramIndex::HistogramIndex(IndexLayout layout, DomainBinning binning)
    : layout_(std::move(layout)), binning_(std::move(binning)) {
  counts_.resize(layout_.num_levels());
  for (size_t l = 0; l < layout_.num_levels(); ++l) {
    counts_[l].assign(layout_.level_size(l), 0);
  }
}

Result<HistogramIndex> HistogramIndex::FromLeafCounts(
    IndexLayout layout, DomainBinning binning,
    const std::vector<int64_t>& leaf_counts) {
  if (leaf_counts.size() != layout.num_leaves()) {
    return Status::InvalidArgument(
        "leaf count vector does not match layout");
  }
  HistogramIndex idx(std::move(layout), std::move(binning));
  idx.counts_[0] = leaf_counts;
  idx.AggregateUp();
  return idx;
}

void HistogramIndex::AggregateUp() {
  for (size_t l = 1; l < layout_.num_levels(); ++l) {
    for (size_t i = 0; i < layout_.level_size(l); ++i) {
      int64_t sum = 0;
      for (size_t c = layout_.ChildBegin(l, i); c < layout_.ChildEnd(l, i);
           ++c) {
        sum += counts_[l - 1][c];
      }
      counts_[l][i] = sum;
    }
  }
}

void HistogramIndex::AddAlongPath(size_t leaf, int64_t delta) {
  size_t idx = leaf;
  for (size_t l = 0; l < layout_.num_levels(); ++l) {
    counts_[l][idx] += delta;
    idx /= layout_.fanout();
  }
}

Result<HistogramIndex> HistogramIndex::Plus(
    const HistogramIndex& other) const {
  if (layout_.num_leaves() != other.layout_.num_leaves() ||
      layout_.fanout() != other.layout_.fanout()) {
    return Status::InvalidArgument("cannot add indexes of different shape");
  }
  HistogramIndex out = *this;
  for (size_t l = 0; l < counts_.size(); ++l) {
    for (size_t i = 0; i < counts_[l].size(); ++i) {
      out.counts_[l][i] += other.counts_[l][i];
    }
  }
  return out;
}

std::vector<size_t> HistogramIndex::Traverse(const RangeQuery& q) const {
  std::vector<size_t> result;
  const size_t root_level = layout_.num_levels() - 1;

  // Iterative DFS over (level, node) pairs.
  std::vector<std::pair<size_t, size_t>> stack;
  // Root participates only if non-negative, like any other node.
  if (counts_[root_level][0] >= 0) stack.emplace_back(root_level, 0);

  while (!stack.empty()) {
    auto [level, i] = stack.back();
    stack.pop_back();

    size_t leaf_begin, leaf_end;
    layout_.LeafSpan(level, i, &leaf_begin, &leaf_end);
    double lo = binning_.LeafLow(leaf_begin);
    double hi = binning_.LeafLow(leaf_end);
    // Intersect [lo, hi) with the closed query [q.lo, q.hi].
    if (hi <= q.lo || lo > q.hi) continue;

    if (level == 0) {
      result.push_back(i);
      continue;
    }
    for (size_t c = layout_.ChildBegin(level, i);
         c < layout_.ChildEnd(level, i); ++c) {
      if (counts_[level - 1][c] >= 0) stack.emplace_back(level - 1, c);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

int64_t HistogramIndex::NoisyRangeCount(const RangeQuery& q) const {
  // The estimate is bin-granular, like record retrieval: the query maps
  // to the contiguous leaf interval [first, last] it intersects, and the
  // greedy cover takes any node whose leaf span sits fully inside it,
  // recursing only into straddling nodes.
  if (q.hi < binning_.domain_min() || q.lo >= binning_.domain_max() ||
      q.lo > q.hi) {
    return 0;
  }
  const size_t first = binning_.LeafOffset(std::max(q.lo,
                                                    binning_.domain_min()));
  const size_t last = binning_.LeafOffset(q.hi);

  int64_t total = 0;
  std::vector<std::pair<size_t, size_t>> stack;
  stack.emplace_back(layout_.num_levels() - 1, 0);
  while (!stack.empty()) {
    auto [level, i] = stack.back();
    stack.pop_back();
    size_t leaf_begin, leaf_end;
    layout_.LeafSpan(level, i, &leaf_begin, &leaf_end);
    if (leaf_end <= first || leaf_begin > last) continue;  // disjoint
    if (leaf_begin >= first && leaf_end <= last + 1) {
      total += counts_[level][i];  // whole subtree inside the query
      continue;
    }
    // level == 0 nodes are single leaves: inside or disjoint, never
    // straddling, so recursion below only happens on internal nodes.
    for (size_t c = layout_.ChildBegin(level, i);
         c < layout_.ChildEnd(level, i); ++c) {
      stack.emplace_back(level - 1, c);
    }
  }
  return total;
}

size_t HistogramIndex::WalkToLeaf(double v) const {
  size_t level = layout_.num_levels() - 1;
  size_t node = 0;
  while (level > 0) {
    size_t chosen = layout_.ChildEnd(level, node) - 1;
    for (size_t c = layout_.ChildBegin(level, node);
         c < layout_.ChildEnd(level, node); ++c) {
      size_t b, e;
      layout_.LeafSpan(level - 1, c, &b, &e);
      // Child covers [LeafLow(b), LeafLow(e)).
      if (v < binning_.LeafLow(e) || c + 1 == layout_.ChildEnd(level, node)) {
        chosen = c;
        break;
      }
    }
    node = chosen;
    --level;
  }
  return node;
}

Bytes HistogramIndex::Serialize() const {
  BinaryWriter w;
  SerializeTo(&w);
  return w.Release();
}

void HistogramIndex::SerializeTo(BinaryWriter* w) const {
  w->PutU64(layout_.num_leaves());
  w->PutU32(static_cast<uint32_t>(layout_.fanout()));
  w->PutF64(binning_.domain_min());
  w->PutF64(binning_.domain_max());
  w->PutF64(binning_.bin_width());
  w->PutU32(static_cast<uint32_t>(counts_.size()));
  for (const auto& level : counts_) {
    w->PutU64(level.size());
    for (int64_t c : level) w->PutI64(c);
  }
}

Result<HistogramIndex> HistogramIndex::Deserialize(ByteSpan data) {
  BinaryReader r(data.data(), data.size());
  auto leaves = r.GetU64();
  auto fanout = r.GetU32();
  auto dmin = r.GetF64();
  auto dmax = r.GetF64();
  auto width = r.GetF64();
  if (!leaves.ok() || !fanout.ok() || !dmin.ok() || !dmax.ok() ||
      !width.ok()) {
    return Status::Corruption("truncated index header");
  }
  // Leaf counts alone need 8 bytes each; a corrupt header must not
  // drive allocation past the payload it arrived in.
  if (*leaves > r.remaining() / sizeof(int64_t)) {
    return Status::Corruption("index leaf count exceeds payload");
  }
  auto layout = IndexLayout::Create(*leaves, *fanout);
  if (!layout.ok()) return layout.status();
  auto binning = DomainBinning::Create(*dmin, *dmax, *width);
  if (!binning.ok()) return binning.status();
  HistogramIndex idx(std::move(layout).ValueOrDie(),
                     std::move(binning).ValueOrDie());

  auto num_levels = r.GetU32();
  if (!num_levels.ok() || *num_levels != idx.layout_.num_levels()) {
    return Status::Corruption("index level count mismatch");
  }
  for (size_t l = 0; l < idx.layout_.num_levels(); ++l) {
    auto n = r.GetU64();
    if (!n.ok() || *n != idx.layout_.level_size(l)) {
      return Status::Corruption("index level size mismatch");
    }
    for (size_t i = 0; i < *n; ++i) {
      auto c = r.GetI64();
      if (!c.ok()) return Status::Corruption("truncated index counts");
      idx.counts_[l][i] = *c;
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after index payload");
  }
  return idx;
}

size_t HistogramIndex::CountBytes() const {
  size_t n = 0;
  for (const auto& level : counts_) n += level.size() * sizeof(int64_t);
  return n;
}

IndexPerturber::IndexPerturber(double epsilon, crypto::SecureRandom* rng)
    : epsilon_(epsilon), rng_(rng) {}

double IndexPerturber::LevelScale(double epsilon, size_t num_levels) {
  // Per-level budget eps/L; one record touches one node per level, so the
  // per-level sensitivity is 1 and the scale is L/eps.
  return static_cast<double>(num_levels) / epsilon;
}

std::vector<std::vector<int64_t>> IndexPerturber::SampleNoise(
    const IndexLayout& layout) {
  dp::LaplaceSampler sampler(LevelScale(epsilon_, layout.num_levels()), rng_);
  std::vector<std::vector<int64_t>> noise(layout.num_levels());
  for (size_t l = 0; l < layout.num_levels(); ++l) {
    noise[l].resize(layout.level_size(l));
    for (auto& v : noise[l]) v = sampler.SampleInteger();
  }
  return noise;
}

std::vector<int64_t> IndexPerturber::Perturb(HistogramIndex* index) {
  auto noise = SampleNoise(index->layout());
  for (size_t l = 0; l < noise.size(); ++l) {
    for (size_t i = 0; i < noise[l].size(); ++i) {
      index->add_count(l, i, noise[l][i]);
    }
  }
  return noise[0];
}

Result<IndexTemplate> IndexTemplate::Create(const DomainBinning& binning,
                                            size_t fanout, double epsilon,
                                            crypto::SecureRandom* rng) {
  if (epsilon <= 0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  auto layout = IndexLayout::Create(binning.num_bins(), fanout);
  if (!layout.ok()) return layout.status();
  HistogramIndex noise_index(std::move(layout).ValueOrDie(), binning);
  IndexPerturber perturber(epsilon, rng);
  perturber.Perturb(&noise_index);
  return IndexTemplate(std::move(noise_index));
}

int64_t IndexTemplate::TotalPositiveNoise() const {
  int64_t total = 0;
  for (int64_t n : noise_.leaf_counts()) {
    if (n > 0) total += n;
  }
  return total;
}

Result<HistogramIndex> IndexTemplate::MergeWithCounts(
    const std::vector<int64_t>& al) const {
  auto true_index = HistogramIndex::FromLeafCounts(noise_.layout(),
                                                   noise_.binning(), al);
  if (!true_index.ok()) return true_index.status();
  return noise_.Plus(*true_index);
}

}  // namespace index
}  // namespace fresque
