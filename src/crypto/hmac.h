#ifndef FRESQUE_CRYPTO_HMAC_H_
#define FRESQUE_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace fresque {
namespace crypto {

/// HMAC-SHA-256 (RFC 2104). Used for per-publication key derivation and
/// record tags.
class HmacSha256 {
 public:
  static constexpr size_t kDigestSize = Sha256::kDigestSize;

  /// Keys longer than the block size are pre-hashed, per RFC 2104.
  /// `backend` picks the SHA-256 compression (see Sha256).
  explicit HmacSha256(const Bytes& key, Backend backend = Backend::kAuto);

  /// Absorbs message bytes; may be called repeatedly, e.g. to MAC a
  /// prefix of a larger buffer in place.
  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }

  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Mac(const Bytes& key,
                                              const Bytes& message);

 private:
  Sha256 inner_;  ///< has absorbed key ^ ipad
  Sha256 outer_;  ///< has absorbed key ^ opad
};

/// Compares two byte ranges without data-dependent branching. Returns true
/// iff equal. Lengths must match for equality.
bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len);

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_HMAC_H_
