#ifndef FRESQUE_CRYPTO_SHA256_H_
#define FRESQUE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "common/bytes.h"
#include "crypto/backend.h"

namespace fresque {
namespace crypto {
namespace internal {

/// One SHA-256 compression implementation. Stateless: the chaining value
/// lives in the caller, so a backend pointer is shared process-wide.
struct Sha256Backend {
  const char* name;
  /// Compresses `n_blocks` consecutive 64-byte blocks into `state`.
  void (*compress)(uint32_t state[8], const uint8_t* blocks, size_t n_blocks);
};

/// x86 SHA-NI compression, or nullptr when not compiled in or the CPU
/// lacks the SHA extensions.
const Sha256Backend* ShaNiBackend();

}  // namespace internal

/// Incremental SHA-256 (FIPS 180-4). Used for key derivation fingerprints
/// and as the compression function inside HMAC-SHA-256.
///
/// The compression function is picked like AES's (crypto/backend.h):
/// x86 SHA-NI when the CPU has it, the portable code otherwise or under
/// `FRESQUE_FORCE_SOFT_CRYPTO`. Every backend gives identical digests.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  /// kHardware falls back to the portable code when
  /// HardwareBackendAvailable() is false.
  explicit Sha256(Backend backend = Backend::kAuto);

  /// Returns the hasher to its initial state.
  void Reset();

  /// Absorbs `len` bytes. Whole blocks go to the backend in one call.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finishes the hash. The object must be Reset() before reuse.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const uint8_t* data,
                                               size_t len);
  static std::array<uint8_t, kDigestSize> Hash(const Bytes& data) {
    return Hash(data.data(), data.size());
  }

  const char* backend_name() const { return backend_->name; }

  /// Name of the backend Backend::kAuto resolves to ("shani", "soft").
  static const char* ActiveBackendName();

  /// True when a hardware backend is compiled in and the CPU supports it
  /// (independent of the FRESQUE_FORCE_SOFT_CRYPTO override).
  static bool HardwareBackendAvailable();

 private:
  const internal::Sha256Backend* backend_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_SHA256_H_
