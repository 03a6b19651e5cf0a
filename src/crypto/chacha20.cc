#include "crypto/chacha20.h"

#include <cstring>
#include <random>

#include "crypto/sha256.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fresque {
namespace crypto {

namespace {
inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void SoftBlock(const uint32_t state[16], uint32_t counter,
               uint8_t out[ChaCha20::kBlockSize]) {
  uint32_t in[16];
  std::memcpy(in, state, sizeof(in));
  in[12] = counter;
  uint32_t x[16];
  std::memcpy(x, in, sizeof(x));
  for (int i = 0; i < 10; ++i) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = x[i] + in[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

void SoftKeystream(const uint32_t state[16], uint8_t* out, size_t n_blocks) {
  for (size_t b = 0; b < n_blocks; ++b) {
    SoftBlock(state, state[12] + static_cast<uint32_t>(b),
              out + b * ChaCha20::kBlockSize);
  }
}

constexpr internal::ChaCha20Backend kSoftBackend = {"soft", SoftKeystream};

#if defined(__SSE2__)

// Four blocks at once: vector x[i] holds state word i of blocks
// counter..counter+3, one per 32-bit lane, so each quarter round is four
// independent scalar quarter rounds.
template <int N>
inline __m128i Rotl4(__m128i v) {
  return _mm_or_si128(_mm_slli_epi32(v, N), _mm_srli_epi32(v, 32 - N));
}

inline void QuarterRound4(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  a = _mm_add_epi32(a, b);
  d = Rotl4<16>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d);
  b = Rotl4<12>(_mm_xor_si128(b, c));
  a = _mm_add_epi32(a, b);
  d = Rotl4<8>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d);
  b = Rotl4<7>(_mm_xor_si128(b, c));
}

void Sse2FourBlocks(const uint32_t state[16], uint32_t counter,
                    uint8_t out[4 * ChaCha20::kBlockSize]) {
  __m128i in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = _mm_set1_epi32(static_cast<int>(state[i]));
  }
  in[12] = _mm_add_epi32(_mm_set1_epi32(static_cast<int>(counter)),
                         _mm_setr_epi32(0, 1, 2, 3));
  __m128i x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int r = 0; r < 10; ++r) {
    QuarterRound4(x[0], x[4], x[8], x[12]);
    QuarterRound4(x[1], x[5], x[9], x[13]);
    QuarterRound4(x[2], x[6], x[10], x[14]);
    QuarterRound4(x[3], x[7], x[11], x[15]);
    QuarterRound4(x[0], x[5], x[10], x[15]);
    QuarterRound4(x[1], x[6], x[11], x[12]);
    QuarterRound4(x[2], x[7], x[8], x[13]);
    QuarterRound4(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm_add_epi32(x[i], in[i]);
  // Transpose each 4x4 tile of (word, block) so a register holds four
  // consecutive words of one block, then store it at that block's offset.
  for (int i = 0; i < 16; i += 4) {
    const __m128i t0 = _mm_unpacklo_epi32(x[i], x[i + 1]);
    const __m128i t1 = _mm_unpacklo_epi32(x[i + 2], x[i + 3]);
    const __m128i t2 = _mm_unpackhi_epi32(x[i], x[i + 1]);
    const __m128i t3 = _mm_unpackhi_epi32(x[i + 2], x[i + 3]);
    const __m128i blocks[4] = {
        _mm_unpacklo_epi64(t0, t1), _mm_unpackhi_epi64(t0, t1),
        _mm_unpacklo_epi64(t2, t3), _mm_unpackhi_epi64(t2, t3)};
    for (int j = 0; j < 4; ++j) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + j * ChaCha20::kBlockSize + 4 * i),
          blocks[j]);
    }
  }
}

void Sse2Keystream(const uint32_t state[16], uint8_t* out, size_t n_blocks) {
  constexpr size_t kLanes = 4;
  size_t b = 0;
  for (; b + kLanes <= n_blocks; b += kLanes) {
    Sse2FourBlocks(state, state[12] + static_cast<uint32_t>(b),
                   out + b * ChaCha20::kBlockSize);
  }
  if (b < n_blocks) {
    uint8_t tail[kLanes * ChaCha20::kBlockSize];
    Sse2FourBlocks(state, state[12] + static_cast<uint32_t>(b), tail);
    std::memcpy(out + b * ChaCha20::kBlockSize, tail,
                (n_blocks - b) * ChaCha20::kBlockSize);
  }
}

constexpr internal::ChaCha20Backend kSse2Backend = {"sse2", Sse2Keystream};

#endif  // __SSE2__

const internal::ChaCha20Backend* HardwareBackend() {
  // Probed once; the answer cannot change while the process runs.
  static const internal::ChaCha20Backend* const kHw = [] {
    if (const auto* b = internal::Avx2ChaCha20Backend()) return b;
    return internal::Sse2ChaCha20Backend();
  }();
  return kHw;
}

const internal::ChaCha20Backend* AutoBackend() {
  static const internal::ChaCha20Backend* const kAuto =
      internal::AutoPick(&kSoftBackend, HardwareBackend());
  return kAuto;
}

const internal::ChaCha20Backend* Resolve(Backend backend) {
  switch (backend) {
    case Backend::kSoftware:
      return &kSoftBackend;
    case Backend::kHardware:
      if (const auto* hw = HardwareBackend()) return hw;
      return &kSoftBackend;
    case Backend::kAuto:
      break;
  }
  return AutoBackend();
}

}  // namespace

namespace internal {

const ChaCha20Backend* SoftChaCha20Backend() { return &kSoftBackend; }

const ChaCha20Backend* Sse2ChaCha20Backend() {
#if defined(__SSE2__)
  return &kSse2Backend;
#else
  return nullptr;
#endif
}

}  // namespace internal

ChaCha20::ChaCha20(const std::array<uint8_t, kKeySize>& key,
                   const std::array<uint8_t, kNonceSize>& nonce,
                   uint32_t counter, Backend backend)
    : backend_(Resolve(backend)) {
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = LoadLE32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = LoadLE32(nonce.data() + 4 * i);
}

void ChaCha20::Keystream(uint8_t* out, size_t n_blocks) {
  backend_->keystream(state_, out, n_blocks);
  state_[12] += static_cast<uint32_t>(n_blocks);
}

const char* ChaCha20::ActiveBackendName() { return AutoBackend()->name; }

bool ChaCha20::HardwareBackendAvailable() {
  return HardwareBackend() != nullptr;
}

namespace {
std::array<uint8_t, ChaCha20::kKeySize> OsEntropyKey() {
  std::random_device rd;
  std::array<uint8_t, ChaCha20::kKeySize> key;
  for (size_t i = 0; i < key.size(); i += 4) {
    uint32_t r = rd();
    key[i] = static_cast<uint8_t>(r);
    key[i + 1] = static_cast<uint8_t>(r >> 8);
    key[i + 2] = static_cast<uint8_t>(r >> 16);
    key[i + 3] = static_cast<uint8_t>(r >> 24);
  }
  return key;
}

std::array<uint8_t, ChaCha20::kKeySize> SeedKey(uint64_t seed) {
  Bytes seed_bytes(8);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[i] = static_cast<uint8_t>(seed >> (8 * i));
  }
  auto digest = Sha256::Hash(seed_bytes);
  std::array<uint8_t, ChaCha20::kKeySize> key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

constexpr std::array<uint8_t, ChaCha20::kNonceSize> kZeroNonce = {};

// Copies out of the keystream buffer. Kept out of line so the size stays
// unknown to the compiler: knowing it is bounded by the 512 B buffer,
// GCC inlines the copy as `rep movsq`, whose ~30-cycle start-up more
// than doubles the cost of the 8-byte draws behind NextU64.
[[gnu::noinline]] void CopyOut(uint8_t* out, const uint8_t* in, size_t n) {
  std::memcpy(out, in, n);
}
}  // namespace

SecureRandom::SecureRandom() : cipher_(OsEntropyKey(), kZeroNonce, 0) {}

SecureRandom::SecureRandom(uint64_t seed, Backend backend)
    : cipher_(SeedKey(seed), kZeroNonce, 0, backend) {}

void SecureRandom::Refill() {
  cipher_.Keystream(buffer_, kBufferBlocks);
  buffer_pos_ = 0;
}

void SecureRandom::Fill(uint8_t* out, size_t len) {
  while (len > 0) {
    if (buffer_pos_ >= kBufferSize) {
      // The buffer ends on a block boundary, so whole blocks of a request
      // of at least a buffer's worth can come straight from the cipher
      // without reordering the stream. Smaller requests refill: a short
      // direct call would waste the rest of the kernel's block group.
      const size_t direct_blocks =
          len >= kBufferSize ? len / ChaCha20::kBlockSize : 0;
      if (direct_blocks > 0) {
        cipher_.Keystream(out, direct_blocks);
        out += direct_blocks * ChaCha20::kBlockSize;
        len -= direct_blocks * ChaCha20::kBlockSize;
        continue;
      }
      Refill();
    }
    size_t take = std::min(len, kBufferSize - buffer_pos_);
    CopyOut(out, buffer_ + buffer_pos_, take);
    buffer_pos_ += take;
    out += take;
    len -= take;
  }
}

Bytes SecureRandom::RandomBytes(size_t len) {
  Bytes out(len);
  Fill(out.data(), len);
  return out;
}

uint64_t SecureRandom::NextU64() {
  uint8_t raw[8];
  Fill(raw, sizeof(raw));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(raw[i]) << (8 * i);
  return v;
}

double SecureRandom::NextDouble() { return (NextU64() >> 11) * 0x1.0p-53; }

double SecureRandom::NextDoubleOpenLow() {
  return ((NextU64() >> 11) + 1) * 0x1.0p-53;
}

uint64_t SecureRandom::NextBounded(uint64_t bound) {
  if (bound == 0) return 0;
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace crypto
}  // namespace fresque
