#ifndef FRESQUE_CRYPTO_AES_H_
#define FRESQUE_CRYPTO_AES_H_

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes_backend.h"
#include "crypto/backend.h"

namespace fresque {
namespace crypto {

/// AES block cipher (FIPS 197) for 128/192/256-bit keys.
///
/// The implementation is picked once per process from the best backend
/// the CPU offers — x86 AES-NI, ARMv8 Crypto Extensions, or the portable
/// software tables — and every backend produces byte-identical output
/// (enforced by known-answer and cross-check tests). Setting the
/// environment variable `FRESQUE_FORCE_SOFT_CRYPTO` (see crypto/backend.h)
/// pins the software path.
///
/// This is the primitive under AesCbc; callers encrypting records should
/// use AesCbc, which adds chaining and padding.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// kHardware means AES-NI / ARMv8-CE; Create fails if unavailable.
  using Backend = crypto::Backend;

  /// `key` must be 16, 24 or 32 bytes.
  static Result<Aes> Create(const Bytes& key, Backend backend = Backend::kAuto);

  /// Encrypts one 16-byte block from `in` to `out` (may alias).
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const {
    backend_->encrypt_block(key_, in, out);
  }

  /// Decrypts one 16-byte block.
  void DecryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const {
    backend_->decrypt_block(key_, in, out);
  }

  /// CBC-encrypts independent full-block streams in one call, letting
  /// hardware backends interleave the (per-stream serial) CBC chains
  /// across the instruction pipeline. Low-level: AesCbc::EncryptBatch
  /// handles padding/IVs and is what record code should call.
  void CbcEncryptStreams(internal::CbcStream* streams, size_t n) const {
    backend_->cbc_encrypt_multi(key_, streams, n);
  }

  int rounds() const { return key_.rounds; }

  /// Name of the backend this instance dispatches to ("aesni", "armv8",
  /// "soft").
  const char* backend_name() const { return backend_->name; }

  /// Name of the backend Backend::kAuto resolves to right now.
  static const char* ActiveBackendName();

  /// True when a hardware backend is compiled in and the CPU supports it
  /// (independent of the FRESQUE_FORCE_SOFT_CRYPTO override).
  static bool HardwareBackendAvailable();

 private:
  Aes() = default;

  Status Init(const Bytes& key, Backend backend);

  internal::AesScheduledKey key_;
  const internal::AesBackend* backend_ = nullptr;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_AES_H_
