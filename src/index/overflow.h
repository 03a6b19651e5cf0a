#ifndef FRESQUE_INDEX_OVERFLOW_H_
#define FRESQUE_INDEX_OVERFLOW_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/chacha20.h"

namespace fresque {
namespace index {

/// Per-leaf fixed-size arrays of encrypted slots that hide the records
/// removed to satisfy negative leaf noise (paper §4.1).
///
/// Every leaf's array has the same capacity regardless of how many real
/// records were actually removed; unused slots carry dummy ciphertexts,
/// so the array's size reveals only the public bound, not the noise.
class OverflowArrays {
 public:
  /// `num_leaves` arrays of `slots_per_leaf` slots each.
  OverflowArrays(size_t num_leaves, size_t slots_per_leaf);

  size_t num_leaves() const { return slots_.size(); }
  size_t slots_per_leaf() const { return slots_per_leaf_; }

  /// Inserts a removed record's ciphertext into leaf `i`'s array at a
  /// random free slot. Fails with ResourceExhausted when the array is
  /// full (the realized negative noise exceeded the public bound — a
  /// delta-probability event).
  Status Insert(size_t i, Bytes e_record, crypto::SecureRandom* rng);

  /// Fills every remaining empty slot with `make_dummy()` ciphertexts.
  /// `make_dummy` may return Bytes or Result<Bytes>; the first failure
  /// aborts the pad and is returned, leaving later slots empty. A
  /// partially padded array must not ship — an empty slot would reveal
  /// which slots hold real removed records — so callers fail the whole
  /// publication on error instead of publishing.
  template <typename DummyFn>
  Status PadWithDummies(DummyFn&& make_dummy) {
    for (auto& leaf : slots_) {
      for (auto& slot : leaf) {
        if (!slot.empty()) continue;
        Result<Bytes> d = make_dummy();
        if (!d.ok()) return d.status();
        slot = std::move(*d);
      }
    }
    return Status::OK();
  }

  /// Visits every still-empty slot as a mutable Bytes*. Slot storage is
  /// stable, so callers may retain the pointers until the arrays are
  /// next mutated — this is what lets the merger stage all dummies into
  /// one hardware-interleaved batch encrypt instead of one call per slot.
  template <typename Fn>
  void ForEachEmptySlot(Fn&& fn) {
    for (auto& leaf : slots_) {
      for (auto& slot : leaf) {
        if (slot.empty()) fn(&slot);
      }
    }
  }

  const std::vector<Bytes>& leaf(size_t i) const { return slots_[i]; }

  /// Number of real (inserted) slots in leaf `i`.
  size_t used(size_t i) const { return used_[i]; }
  size_t total_used() const;

  /// Serialized bytes of all arrays (what the merger publishes).
  Bytes Serialize() const;
  /// Appends the Serialize() bytes to `w`.
  void SerializeTo(BinaryWriter* w) const;
  /// Length of the Serialize() bytes, computed without serializing.
  size_t SerializedSize() const;
  static Result<OverflowArrays> Deserialize(const Bytes& data);

  /// Total payload bytes across all slots (storage-overhead reporting).
  size_t PayloadBytes() const;

 private:
  size_t slots_per_leaf_;
  std::vector<std::vector<Bytes>> slots_;
  std::vector<size_t> used_;
};

}  // namespace index
}  // namespace fresque

#endif  // FRESQUE_INDEX_OVERFLOW_H_
