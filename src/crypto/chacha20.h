#ifndef FRESQUE_CRYPTO_CHACHA20_H_
#define FRESQUE_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "common/bytes.h"
#include "crypto/backend.h"

namespace fresque {
namespace crypto {
namespace internal {

/// One ChaCha20 block-function implementation. Stateless: the input
/// state lives in the caller, so a backend pointer is shared
/// process-wide.
struct ChaCha20Backend {
  const char* name;
  /// Writes the 64-byte keystream blocks for block counters
  /// state[12], state[12]+1, ..., state[12]+n_blocks-1 (mod 2^32, as in
  /// RFC 8439) to `out`. Does not modify `state`.
  void (*keystream)(const uint32_t state[16], uint8_t* out, size_t n_blocks);
};

/// Portable one-block-at-a-time code; always available.
const ChaCha20Backend* SoftChaCha20Backend();

/// x86 SSE2 4-block kernel (baseline on x86-64), or nullptr when not
/// compiled in.
const ChaCha20Backend* Sse2ChaCha20Backend();

/// x86 AVX2 8-block kernel, or nullptr when not compiled in or the CPU
/// lacks AVX2.
const ChaCha20Backend* Avx2ChaCha20Backend();

}  // namespace internal

/// ChaCha20 stream cipher core (RFC 8439). Used here as the expansion
/// function of SecureRandom, not for record encryption.
///
/// The block function is picked like AES's (crypto/backend.h): the
/// widest SIMD kernel the CPU offers (AVX2 8-way, else SSE2 4-way), the
/// portable code otherwise or under `FRESQUE_FORCE_SOFT_CRYPTO`. Every
/// backend gives an identical keystream.
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  /// `key` is 32 bytes; `nonce` 12 bytes; `counter` the initial block
  /// count. kHardware falls back to the portable code when
  /// HardwareBackendAvailable() is false.
  ChaCha20(const std::array<uint8_t, kKeySize>& key,
           const std::array<uint8_t, kNonceSize>& nonce, uint32_t counter,
           Backend backend = Backend::kAuto);

  /// Produces the next 64-byte keystream block and advances the counter.
  void NextBlock(uint8_t out[kBlockSize]) { Keystream(out, 1); }

  /// Produces the next `n_blocks` keystream blocks (64 * n_blocks bytes)
  /// in one backend call and advances the counter past them.
  void Keystream(uint8_t* out, size_t n_blocks);

  const char* backend_name() const { return backend_->name; }

  /// Name of the backend Backend::kAuto resolves to ("avx2", "sse2",
  /// "soft").
  static const char* ActiveBackendName();

  /// True when a SIMD backend is compiled in and the CPU supports it
  /// (independent of the FRESQUE_FORCE_SOFT_CRYPTO override).
  static bool HardwareBackendAvailable();

 private:
  const internal::ChaCha20Backend* backend_;
  uint32_t state_[16];
};

/// Deterministic random byte generator: ChaCha20 keyed by a seed. With a
/// secret high-entropy seed this is a CSPRNG; with a fixed seed it gives
/// reproducible "randomness" for tests and simulations.
///
/// Keystream is drawn kBufferBlocks blocks at a time (one wide SIMD
/// call), and whole blocks of requests of a buffer's worth or more are
/// written straight to the caller's buffer; the byte stream is the same
/// however it is consumed.
class SecureRandom {
 public:
  static constexpr size_t kBufferBlocks = 8;

  /// Seeds from the OS entropy source (std::random_device).
  SecureRandom();

  /// Deterministic stream derived from `seed` (for tests/simulations).
  explicit SecureRandom(uint64_t seed, Backend backend = Backend::kAuto);

  void Fill(uint8_t* out, size_t len);
  Bytes RandomBytes(size_t len);

  uint64_t NextU64();
  /// Uniform double in [0, 1).
  double NextDouble();
  /// Uniform double in (0, 1]; safe as a log() argument.
  double NextDoubleOpenLow();
  /// Uniform integer in [0, bound); 0 if bound == 0.
  uint64_t NextBounded(uint64_t bound);

 private:
  void Refill();

  static constexpr size_t kBufferSize = kBufferBlocks * ChaCha20::kBlockSize;

  ChaCha20 cipher_;
  uint8_t buffer_[kBufferSize];
  size_t buffer_pos_ = kBufferSize;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_CHACHA20_H_
