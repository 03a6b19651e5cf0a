#ifndef FRESQUE_CRYPTO_BACKEND_H_
#define FRESQUE_CRYPTO_BACKEND_H_

#include <cstdint>

namespace fresque {
namespace crypto {

/// Which implementation of a primitive (AES, SHA-256, ChaCha20) an
/// instance dispatches to. Every backend of a primitive produces
/// byte-identical output; known-answer and cross-check tests enforce it.
enum class Backend : uint8_t {
  kAuto = 0,      ///< env override, else hardware if present, else soft
  kSoftware = 1,  ///< portable code, always available
  kHardware = 2,  ///< the best ISA-accelerated kernel this CPU supports
};

/// True when the environment variable `FRESQUE_FORCE_SOFT_CRYPTO` is set
/// to anything but "" or "0": Backend::kAuto then resolves to the
/// portable code for every primitive, e.g. to reproduce a result from a
/// machine without the hardware ISA. Read once per primitive, at its
/// first kAuto dispatch.
bool ForceSoftCrypto();

namespace internal {

/// What Backend::kAuto resolves to for one primitive: the portable `soft`
/// under FRESQUE_FORCE_SOFT_CRYPTO or when `hw` is null, else `hw`.
/// Callers keep the answer in a function-local static.
template <typename Impl>
const Impl* AutoPick(const Impl* soft, const Impl* hw) {
  return ForceSoftCrypto() || hw == nullptr ? soft : hw;
}

}  // namespace internal

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_BACKEND_H_
