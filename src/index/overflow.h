#ifndef FRESQUE_INDEX_OVERFLOW_H_
#define FRESQUE_INDEX_OVERFLOW_H_

#include <cstdint>
#include <memory>
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
///
/// Storage is the serialized segment itself — `u64 leaves, u64
/// slots_per_leaf`, then every slot as `u32 len, bytes`, leaf-major —
/// held in one buffer, plus a table of slot offsets into it. A decoded
/// publication's arrays point into the publication payload they arrived
/// in (one copy of the bytes, shared with whoever else holds the
/// payload); locally padded arrays own a buffer holding only the segment.
/// Records inserted since the last lay-out are staged beside the buffer
/// until PadWithDummies or a serialization writes them into place. A
/// zero-length slot is free.
class OverflowArrays {
 public:
  /// `num_leaves` arrays of `slots_per_leaf` free slots each.
  OverflowArrays(size_t num_leaves, size_t slots_per_leaf);

  size_t num_leaves() const { return num_leaves_; }
  size_t slots_per_leaf() const { return slots_per_leaf_; }

  /// Stages a removed record's ciphertext into leaf `i`'s array at a
  /// random free slot. Fails with ResourceExhausted when the array is
  /// full (the realized negative noise exceeded the public bound — a
  /// delta-probability event).
  Status Insert(size_t i, Bytes e_record, crypto::SecureRandom* rng);

  /// Fills every free slot, in slot order, with a `make_dummy()`
  /// ciphertext, then lays the arrays out in a buffer of their own.
  /// `make_dummy` may return Bytes or Result<Bytes>; the first failure
  /// aborts the pad and is returned, leaving later slots free. A
  /// partially padded array must not ship — a free slot would reveal
  /// which slots hold real removed records — so callers fail the whole
  /// publication on error instead of publishing.
  template <typename DummyFn>
  Status PadWithDummies(DummyFn&& make_dummy) {
    for (size_t s = 0; s < num_slots(); ++s) {
      if (occupied(s)) continue;
      Result<Bytes> d = make_dummy();
      if (!d.ok()) return d.status();
      Stage(s, std::move(*d));
    }
    return LayOut();
  }

  /// Slot `s` of leaf `i`: its staged record, else its bytes in the
  /// buffer; empty when free.
  ByteSpan slot(size_t i, size_t s) const;

  /// Number of occupied (non-empty) slots in leaf `i`.
  size_t used(size_t i) const;

  /// Serialized bytes of all arrays (what the merger publishes).
  Bytes Serialize() const;

  /// Appends the Serialize() bytes to `w`.
  void SerializeTo(BinaryWriter* w) const;

  /// Appends the serialized arrays to `w` with every free slot
  /// `free_size` bytes long instead of empty: each free slot's bytes are
  /// zeroed and handed to `fill(uint8_t* slot, size_t len)` in slot
  /// order. `w` is reserved for the whole segment first, so the pointers
  /// stay valid until `w` next grows past it — a batch encryptor can
  /// stage them all and write every slot in one flush afterwards. When
  /// the buffer already is that segment, it is appended as one copy.
  template <typename FillFn>
  void SerializeTo(BinaryWriter* w, size_t free_size, FillFn&& fill) const {
    w->Reserve(w->size() + SerializedSize(free_size));
    if (buf_ != nullptr && staged_.empty() &&
        (free_size == 0 || laid_out_used_ == num_slots())) {
      w->PutRaw(buf_->data() + begin_, offsets_.back());
      return;
    }
    w->PutU64(num_leaves_);
    w->PutU64(slots_per_leaf_);
    for (size_t s = 0; s < num_slots(); ++s) {
      if (const Bytes* staged = staged_at(s)) {
        w->PutBytes(*staged);
      } else if (ByteSpan framed = framed_slot(s); framed.size() > 4) {
        w->PutRaw(framed.data(), framed.size());
      } else {
        w->PutU32(static_cast<uint32_t>(free_size));
        fill(w->PutZeros(free_size), free_size);
      }
    }
  }

  /// Length of the serialized arrays, free slots counted at `free_size`
  /// bytes each, computed without serializing.
  size_t SerializedSize(size_t free_size = 0) const;

  /// Wraps the serialized arrays at `buf[begin, begin + len)` without
  /// copying: checks the geometry, scans the slot length prefixes into
  /// the offset table and keeps `buf` alive. Corruption when the bytes
  /// are not exactly one well-formed segment, including a geometry whose
  /// slots cannot fit in `len` or whose leaves hold no slots (no writer
  /// produces zero-capacity arrays).
  static Result<OverflowArrays> Parse(std::shared_ptr<const Bytes> buf,
                                      size_t begin, size_t len);
  /// Parse over a private copy of `data`.
  static Result<OverflowArrays> Deserialize(ByteSpan data);

  /// Total payload bytes across all slots (storage-overhead reporting).
  size_t PayloadBytes() const;

 private:
  size_t num_slots() const { return num_leaves_ * slots_per_leaf_; }
  /// Slot `s` in the buffer with its u32 length prefix; empty when the
  /// arrays have no buffer yet (every slot free).
  ByteSpan framed_slot(size_t s) const;
  const Bytes* staged_at(size_t s) const;
  bool occupied(size_t s) const;
  void Stage(size_t s, Bytes e_record);
  /// Writes the buffer and staged records into one new owned buffer and
  /// clears the stage.
  Status LayOut();

  size_t num_leaves_;
  size_t slots_per_leaf_;
  /// Holds the serialized segment at [begin_, begin_ + offsets_.back());
  /// null until the first lay-out or parse.
  std::shared_ptr<const Bytes> buf_;
  size_t begin_ = 0;
  /// num_slots() + 1 entries: slot s's length prefix starts at
  /// begin_ + offsets_[s]; the last entry is the segment length.
  std::vector<uint32_t> offsets_;
  /// Non-empty slots in the buffer.
  size_t laid_out_used_ = 0;
  /// Records staged by Insert/PadWithDummies and not yet laid out (each
  /// in a slot that is free in the buffer); stage_of_[s] indexes staged_
  /// or is kNotStaged, and is sized on the first stage.
  static constexpr uint32_t kNotStaged = UINT32_MAX;
  std::vector<Bytes> staged_;
  std::vector<uint32_t> stage_of_;
  size_t staged_bytes_ = 0;
};

}  // namespace index
}  // namespace fresque

#endif  // FRESQUE_INDEX_OVERFLOW_H_
