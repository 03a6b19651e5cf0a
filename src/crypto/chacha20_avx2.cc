// x86 AVX2 ChaCha20 kernel: eight blocks per call. This translation unit
// is compiled with -mavx2 (see src/crypto/CMakeLists.txt); every function
// here is only reachable after the runtime CPU probe in
// Avx2ChaCha20Backend() succeeds, so the ISA extension never leaks onto
// machines without it.

#include "crypto/chacha20.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstring>

namespace fresque {
namespace crypto {
namespace internal {
namespace {

constexpr size_t kLanes = 8;

// Vector x[i] holds state word i of eight consecutive blocks, one per
// 32-bit lane. Rotations by 16 and 8 are byte shuffles; the rest shifts.
template <int N>
inline __m256i Rotl8(__m256i v) {
  return _mm256_or_si256(_mm256_slli_epi32(v, N),
                         _mm256_srli_epi32(v, 32 - N));
}

inline void QuarterRound8(__m256i& a, __m256i& b, __m256i& c, __m256i& d,
                          __m256i rot16, __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = Rotl8<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = Rotl8<7>(_mm256_xor_si256(b, c));
}

void Avx2EightBlocks(const uint32_t state[16], uint32_t counter,
                     uint8_t out[kLanes * ChaCha20::kBlockSize]) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);

  __m256i in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  in[12] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int r = 0; r < 10; ++r) {
    QuarterRound8(x[0], x[4], x[8], x[12], rot16, rot8);
    QuarterRound8(x[1], x[5], x[9], x[13], rot16, rot8);
    QuarterRound8(x[2], x[6], x[10], x[14], rot16, rot8);
    QuarterRound8(x[3], x[7], x[11], x[15], rot16, rot8);
    QuarterRound8(x[0], x[5], x[10], x[15], rot16, rot8);
    QuarterRound8(x[1], x[6], x[11], x[12], rot16, rot8);
    QuarterRound8(x[2], x[7], x[8], x[13], rot16, rot8);
    QuarterRound8(x[3], x[4], x[9], x[14], rot16, rot8);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);
  // The unpacks work within each 128-bit half, so transposing a 4x4 tile
  // of (word, block) leaves block j's four words in the low half and
  // block j+4's in the high half of the same register.
  for (int i = 0; i < 16; i += 4) {
    const __m256i t0 = _mm256_unpacklo_epi32(x[i], x[i + 1]);
    const __m256i t1 = _mm256_unpacklo_epi32(x[i + 2], x[i + 3]);
    const __m256i t2 = _mm256_unpackhi_epi32(x[i], x[i + 1]);
    const __m256i t3 = _mm256_unpackhi_epi32(x[i + 2], x[i + 3]);
    const __m256i blocks[4] = {
        _mm256_unpacklo_epi64(t0, t1), _mm256_unpackhi_epi64(t0, t1),
        _mm256_unpacklo_epi64(t2, t3), _mm256_unpackhi_epi64(t2, t3)};
    for (int j = 0; j < 4; ++j) {
      uint8_t* lo = out + j * ChaCha20::kBlockSize + 4 * i;
      uint8_t* hi = out + (j + 4) * ChaCha20::kBlockSize + 4 * i;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lo),
                       _mm256_castsi256_si128(blocks[j]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(hi),
                       _mm256_extracti128_si256(blocks[j], 1));
    }
  }
}

void Avx2Keystream(const uint32_t state[16], uint8_t* out, size_t n_blocks) {
  size_t b = 0;
  for (; b + kLanes <= n_blocks; b += kLanes) {
    Avx2EightBlocks(state, state[12] + static_cast<uint32_t>(b),
                    out + b * ChaCha20::kBlockSize);
  }
  if (b < n_blocks) {
    uint8_t tail[kLanes * ChaCha20::kBlockSize];
    Avx2EightBlocks(state, state[12] + static_cast<uint32_t>(b), tail);
    std::memcpy(out + b * ChaCha20::kBlockSize, tail,
                (n_blocks - b) * ChaCha20::kBlockSize);
  }
}

constexpr ChaCha20Backend kAvx2Backend = {"avx2", Avx2Keystream};

}  // namespace

const ChaCha20Backend* Avx2ChaCha20Backend() {
  static const bool kSupported = __builtin_cpu_supports("avx2") != 0;
  return kSupported ? &kAvx2Backend : nullptr;
}

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#else  // no AVX2 in this build, or non-x86 target

namespace fresque {
namespace crypto {
namespace internal {

const ChaCha20Backend* Avx2ChaCha20Backend() { return nullptr; }

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#endif
