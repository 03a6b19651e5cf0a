#ifndef FRESQUE_RECORD_SECURE_CODEC_H_
#define FRESQUE_RECORD_SECURE_CODEC_H_

#include <memory>

#include "common/bytes.h"
#include "common/hot.h"
#include "common/result.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "record/record.h"

namespace fresque {
namespace record {

/// Produces and opens e-records: AES-CBC ciphertexts of
///   u8 kind || body
/// where kind 0 marks a real record (body = RecordCodec bytes) and kind 1
/// marks a dummy (body = random padding). The kind byte is *inside* the
/// ciphertext: the cloud cannot tell dummies from real records
/// (semantic security), while the trusted client discards them after
/// decryption.
class SecureRecordCodec {
 public:
  static constexpr uint8_t kKindReal = 0;
  static constexpr uint8_t kKindDummy = 1;

  /// `key` is an AES key (16/24/32 bytes); `schema` must outlive the
  /// codec; `rng` supplies IVs and dummy padding.
  static Result<SecureRecordCodec> Create(const Bytes& key,
                                          const Schema* schema,
                                          crypto::SecureRandom* rng);

  /// Encrypts a real record.
  Result<Bytes> EncryptRecord(const Record& rec);

  /// Encrypts a record already serialized with RecordCodec (the form a
  /// parsed record travels in between collector components).
  Result<Bytes> EncryptSerializedRecord(const Bytes& body);

  /// Encrypts a dummy of `padding_len` random bytes. Choosing padding_len
  /// near the typical record size keeps dummy ciphertext lengths in the
  /// same distribution as real ones.
  Result<Bytes> EncryptDummy(size_t padding_len);

  /// Stages many records and encrypts them in one AES batch call, letting
  /// hardware backends interleave the CBC chains across the instruction
  /// pipeline. All plaintexts accumulate in one reusable arena, so the
  /// steady-state stage/flush cycle performs zero heap allocations (the
  /// arena, item lists and every `out` buffer retain their capacity).
  ///
  /// Usage: Stage* each record with the Bytes* that should receive its
  /// ciphertext, then Flush() once per batch. The out pointers must stay
  /// valid until Flush returns; a failed Flush leaves the out buffers
  /// unspecified and clears the batch.
  class BatchEncryptor {
   public:
    explicit BatchEncryptor(SecureRecordCodec* codec) : codec_(codec) {}

    /// Serializes and stages a real record. Serialization errors surface
    /// here (the record is not staged); crypto errors surface at Flush.
    FRESQUE_HOT Status StageRecord(const Record& rec, Bytes* out);

    /// Stages an already-serialized real record body.
    FRESQUE_HOT void StageSerializedRecord(const Bytes& body, Bytes* out);

    /// Stages a dummy of `padding_len` random bytes.
    FRESQUE_HOT void StageDummy(size_t padding_len, Bytes* out);

    /// Stages a dummy that is built and encrypted in place in `out`,
    /// which must hold DummyCiphertextSize(padding_len) bytes — a slot
    /// inside a larger buffer, so padding needs no per-slot buffer. The
    /// padding is drawn now, the IV at Flush, as for the other overloads.
    FRESQUE_HOT void StageDummy(size_t padding_len, uint8_t* out);

    /// Records currently staged and not yet flushed.
    size_t staged() const { return items_.size(); }

    /// Encrypts everything staged (no-op when empty) and resets.
    FRESQUE_HOT Status Flush();

   private:
    /// Appends `plain_len` bytes to the arena for one staged item whose
    /// ciphertext goes to `out`; returns where they start.
    uint8_t* StageItem(size_t plain_len, Bytes* out);

    SecureRecordCodec* codec_;
    Bytes arena_;  ///< kind||body plaintexts, back to back
    /// Start in arena_ of each arena item's plaintext, in staging order.
    std::vector<size_t> offsets_;
    /// One per staged record, in staging order; arena plaintext pointers
    /// are resolved at Flush, when the arena can no longer reallocate.
    std::vector<crypto::CbcBatchItem> items_;
    crypto::CbcBatchScratch scratch_;
  };

  /// Length of an EncryptDummy(padding_len) ciphertext.
  static size_t DummyCiphertextSize(size_t padding_len) {
    return crypto::AesCbc::CiphertextSize(1 + padding_len);
  }

  /// Decryption outcome: a real record or a recognized dummy.
  struct Opened {
    bool is_dummy = false;
    Record rec;
  };

  /// Decrypts and classifies an e-record.
  Result<Opened> Decrypt(const Bytes& e_record) const;

  const Schema& schema() const { return codec_.schema(); }

  /// AES backend the codec's cipher dispatches to.
  const char* crypto_backend_name() const { return cbc_.backend_name(); }

 private:
  SecureRecordCodec(crypto::AesCbc cbc, const Schema* schema,
                    crypto::SecureRandom* rng)
      : cbc_(std::move(cbc)), codec_(schema), rng_(rng) {}

  crypto::AesCbc cbc_;
  RecordCodec codec_;
  crypto::SecureRandom* rng_;
};

}  // namespace record
}  // namespace fresque

#endif  // FRESQUE_RECORD_SECURE_CODEC_H_
