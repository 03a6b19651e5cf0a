// x86 SHA-NI SHA-256 compression. This translation unit is compiled with
// -msha -msse4.1 (see src/crypto/CMakeLists.txt); every function here is
// only reachable after the runtime CPU probe in ShaNiBackend() succeeds,
// so the ISA extensions never leak onto machines without them.

#include "crypto/sha256.h"

#if defined(__SHA__) && defined(__SSE4_1__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace fresque {
namespace crypto {
namespace internal {
namespace {

// FIPS 180-4 round constants, four per 128-bit group, lowest round in the
// lowest lane (the order SHA256RNDS2 consumes them).
alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Four rounds of group g (rounds 4g..4g+3). The message schedule lives in
// four registers m[0..3] that rotate: m[g % 4] holds W[4g..4g+3] when the
// group runs. SHA256MSG1/MSG2 compute the next words in place, MSG2 one
// group ahead (groups 3..14 finish W for group g+1) and MSG1 three groups
// ahead (groups 1..12 start W for group g+3). g is a constant after the
// unrolled loop below, so the branches and indices fold away.
inline void RoundGroup(int g, __m128i m[4], __m128i* abef, __m128i* cdgh) {
  const __m128i k =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
  __m128i msg = _mm_add_epi32(m[g & 3], k);
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, msg);
  if (g >= 3 && g <= 14) {
    const __m128i tmp = _mm_alignr_epi8(m[g & 3], m[(g - 1) & 3], 4);
    m[(g + 1) & 3] = _mm_sha256msg2_epu32(
        _mm_add_epi32(m[(g + 1) & 3], tmp), m[g & 3]);
  }
  msg = _mm_shuffle_epi32(msg, 0x0E);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, msg);
  if (g >= 1 && g <= 12) {
    m[(g - 1) & 3] = _mm_sha256msg1_epu32(m[(g - 1) & 3], m[g & 3]);
  }
}

void ShaNiCompress(uint32_t state[8], const uint8_t* blocks,
                   size_t n_blocks) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // SHA256RNDS2 wants the state as {A,B,E,F} and {C,D,G,H}.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);             // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);           // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);   // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);        // CDGH

  for (size_t b = 0; b < n_blocks; ++b, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kBswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) RoundGroup(g, m, &abef, &cdgh);
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);            // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);           // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);        // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

constexpr Sha256Backend kShaNiBackend = {"shani", ShaNiCompress};

}  // namespace

const Sha256Backend* ShaNiBackend() {
  static const bool kSupported = __builtin_cpu_supports("sha") != 0 &&
                                 __builtin_cpu_supports("sse4.1") != 0;
  return kSupported ? &kShaNiBackend : nullptr;
}

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#else  // no SHA-NI in this build, or non-x86 target

namespace fresque {
namespace crypto {
namespace internal {

const Sha256Backend* ShaNiBackend() { return nullptr; }

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#endif
