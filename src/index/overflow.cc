#include "index/overflow.h"

namespace fresque {
namespace index {

OverflowArrays::OverflowArrays(size_t num_leaves, size_t slots_per_leaf)
    : slots_per_leaf_(slots_per_leaf),
      slots_(num_leaves),
      used_(num_leaves, 0) {
  for (auto& leaf : slots_) leaf.resize(slots_per_leaf);
}

Status OverflowArrays::Insert(size_t i, Bytes e_record,
                              crypto::SecureRandom* rng) {
  if (i >= slots_.size()) {
    return Status::OutOfRange("overflow leaf index out of range");
  }
  auto& leaf = slots_[i];
  if (used_[i] >= slots_per_leaf_) {
    return Status::ResourceExhausted(
        "overflow array full for leaf " + std::to_string(i));
  }
  // Place at a uniformly random empty slot so position reveals nothing
  // about arrival order.
  size_t free_count = slots_per_leaf_ - used_[i];
  size_t target = rng->NextBounded(free_count);
  for (auto& slot : leaf) {
    if (!slot.empty()) continue;
    if (target == 0) {
      slot = std::move(e_record);
      ++used_[i];
      return Status::OK();
    }
    --target;
  }
  return Status::Internal("overflow free-slot bookkeeping out of sync");
}

size_t OverflowArrays::total_used() const {
  size_t t = 0;
  for (size_t u : used_) t += u;
  return t;
}

Bytes OverflowArrays::Serialize() const {
  BinaryWriter w;
  w.Reserve(SerializedSize());
  SerializeTo(&w);
  return w.Release();
}

void OverflowArrays::SerializeTo(BinaryWriter* w) const {
  w->PutU64(slots_.size());
  w->PutU64(slots_per_leaf_);
  for (const auto& leaf : slots_) {
    for (const auto& slot : leaf) {
      w->PutBytes(slot);
    }
  }
}

size_t OverflowArrays::SerializedSize() const {
  // Two u64 geometry words, then a u32 length prefix per slot.
  return 2 * sizeof(uint64_t) +
         slots_.size() * slots_per_leaf_ * sizeof(uint32_t) + PayloadBytes();
}

Result<OverflowArrays> OverflowArrays::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  auto leaves = r.GetU64();
  auto per_leaf = r.GetU64();
  if (!leaves.ok() || !per_leaf.ok()) {
    return Status::Corruption("truncated overflow header");
  }
  // Each slot costs at least a 4-byte length prefix; reject headers
  // whose claimed geometry cannot fit in the remaining bytes (corrupt
  // input must not drive allocation).
  uint64_t min_bytes_per_slot = 4;
  if (*per_leaf != 0 &&
      *leaves > r.remaining() / (min_bytes_per_slot * *per_leaf) + 1) {
    return Status::Corruption("overflow geometry exceeds payload");
  }
  if (*leaves * *per_leaf > r.remaining() / min_bytes_per_slot) {
    return Status::Corruption("overflow geometry exceeds payload");
  }
  OverflowArrays out(*leaves, *per_leaf);
  for (size_t i = 0; i < *leaves; ++i) {
    for (size_t s = 0; s < *per_leaf; ++s) {
      auto slot = r.GetBytes();
      if (!slot.ok()) return Status::Corruption("truncated overflow slot");
      out.slots_[i][s] = std::move(*slot);
    }
    out.used_[i] = *per_leaf;  // after deserialize, fill state is opaque
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after overflow arrays");
  }
  return out;
}

size_t OverflowArrays::PayloadBytes() const {
  size_t t = 0;
  for (const auto& leaf : slots_) {
    for (const auto& slot : leaf) t += slot.size();
  }
  return t;
}

}  // namespace index
}  // namespace fresque
