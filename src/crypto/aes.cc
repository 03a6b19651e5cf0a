#include "crypto/aes.h"

#include <cstring>

namespace fresque {
namespace crypto {

namespace {

using internal::AesBackend;
using internal::AesScheduledKey;
using internal::CbcStream;

// The S-box and its inverse are derived at startup from GF(2^8)
// arithmetic (multiplicative inverse + affine transform, FIPS 197 §5.1.1)
// rather than transcribed, and are validated against FIPS 197 known-answer
// vectors in tests.
struct SboxTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];

  SboxTables() {
    // Build log/antilog tables over GF(2^8) with generator 3.
    uint8_t pow[256];
    uint8_t log[256];
    uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      pow[i] = x;
      log[x] = static_cast<uint8_t>(i);
      // multiply x by 3 = x + 2x in GF(2^8)
      uint8_t x2 = static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0));
      x = static_cast<uint8_t>(x2 ^ x);
    }
    pow[255] = pow[0];

    for (int i = 0; i < 256; ++i) {
      uint8_t inv =
          (i == 0) ? 0 : pow[(255 - log[static_cast<uint8_t>(i)]) % 255];
      // Affine transform: b ^= rot(b,1)^rot(b,2)^rot(b,3)^rot(b,4) ^ 0x63.
      uint8_t b = inv;
      uint8_t res = 0x63;
      for (int k = 0; k < 5; ++k) {
        res ^= b;
        b = static_cast<uint8_t>((b << 1) | (b >> 7));
      }
      // res currently includes one extra XOR of the original (k=0 term is
      // b itself); the standard form is b ^ rot1 ^ rot2 ^ rot3 ^ rot4 ^ 0x63,
      // which is exactly the five rotations accumulated above.
      sbox[i] = res;
    }
    for (int i = 0; i < 256; ++i) inv_sbox[sbox[i]] = static_cast<uint8_t>(i);
  }
};

const SboxTables& Tables() {
  static const SboxTables* const kTables = new SboxTables();
  return *kTables;
}

inline uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0));
}

// GF(2^8) multiply by small constants used in (Inv)MixColumns.
inline uint8_t Mul(uint8_t x, uint8_t c) {
  uint8_t r = 0;
  while (c) {
    if (c & 1) r ^= x;
    x = XTime(x);
    c >>= 1;
  }
  return r;
}

inline uint32_t SubWord(uint32_t w) {
  const auto& t = Tables();
  return (static_cast<uint32_t>(t.sbox[(w >> 24) & 0xFF]) << 24) |
         (static_cast<uint32_t>(t.sbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<uint32_t>(t.sbox[(w >> 8) & 0xFF]) << 8) |
         static_cast<uint32_t>(t.sbox[w & 0xFF]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// ---------------------------------------------------------------------------
// Software backend (portable tables; the pre-dispatch implementation).
// ---------------------------------------------------------------------------

void SoftSetup(AesScheduledKey* /*key*/) {
  // The software inverse cipher consumes the encryption round keys
  // directly; no derived decryption schedule is needed.
}

void SoftEncryptBlock(const AesScheduledKey& key, const uint8_t in[16],
                      uint8_t out[16]) {
  const auto& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = key.enc_words[round * 4 + c];
      s[4 * c] ^= static_cast<uint8_t>(w >> 24);
      s[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
      s[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
      s[4 * c + 3] ^= static_cast<uint8_t>(w);
    }
  };

  add_round_key(0);
  for (int round = 1; round <= key.rounds; ++round) {
    // SubBytes
    for (auto& b : s) b = t.sbox[b];
    // ShiftRows: row r rotates left by r. State is column-major:
    // s[4c + r] is row r, column c.
    uint8_t tmp;
    tmp = s[1];
    s[1] = s[5];
    s[5] = s[9];
    s[9] = s[13];
    s[13] = tmp;
    tmp = s[2];
    s[2] = s[10];
    s[10] = tmp;
    tmp = s[6];
    s[6] = s[14];
    s[14] = tmp;
    tmp = s[15];
    s[15] = s[11];
    s[11] = s[7];
    s[7] = s[3];
    s[3] = tmp;

    if (round != key.rounds) {
      // MixColumns
      for (int c = 0; c < 4; ++c) {
        uint8_t a0 = s[4 * c], a1 = s[4 * c + 1], a2 = s[4 * c + 2],
                a3 = s[4 * c + 3];
        s[4 * c] = static_cast<uint8_t>(XTime(a0) ^ (XTime(a1) ^ a1) ^ a2 ^ a3);
        s[4 * c + 1] =
            static_cast<uint8_t>(a0 ^ XTime(a1) ^ (XTime(a2) ^ a2) ^ a3);
        s[4 * c + 2] =
            static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ (XTime(a3) ^ a3));
        s[4 * c + 3] =
            static_cast<uint8_t>((XTime(a0) ^ a0) ^ a1 ^ a2 ^ XTime(a3));
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, s, 16);
}

void SoftDecryptBlock(const AesScheduledKey& key, const uint8_t in[16],
                      uint8_t out[16]) {
  const auto& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = key.enc_words[round * 4 + c];
      s[4 * c] ^= static_cast<uint8_t>(w >> 24);
      s[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
      s[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
      s[4 * c + 3] ^= static_cast<uint8_t>(w);
    }
  };

  add_round_key(key.rounds);
  for (int round = key.rounds - 1; round >= 0; --round) {
    // InvShiftRows: row r rotates right by r.
    uint8_t tmp;
    tmp = s[13];
    s[13] = s[9];
    s[9] = s[5];
    s[5] = s[1];
    s[1] = tmp;
    tmp = s[2];
    s[2] = s[10];
    s[10] = tmp;
    tmp = s[6];
    s[6] = s[14];
    s[14] = tmp;
    tmp = s[3];
    s[3] = s[7];
    s[7] = s[11];
    s[11] = s[15];
    s[15] = tmp;
    // InvSubBytes
    for (auto& b : s) b = t.inv_sbox[b];
    add_round_key(round);
    if (round != 0) {
      // InvMixColumns
      for (int c = 0; c < 4; ++c) {
        uint8_t a0 = s[4 * c], a1 = s[4 * c + 1], a2 = s[4 * c + 2],
                a3 = s[4 * c + 3];
        s[4 * c] = static_cast<uint8_t>(Mul(a0, 14) ^ Mul(a1, 11) ^
                                        Mul(a2, 13) ^ Mul(a3, 9));
        s[4 * c + 1] = static_cast<uint8_t>(Mul(a0, 9) ^ Mul(a1, 14) ^
                                            Mul(a2, 11) ^ Mul(a3, 13));
        s[4 * c + 2] = static_cast<uint8_t>(Mul(a0, 13) ^ Mul(a1, 9) ^
                                            Mul(a2, 14) ^ Mul(a3, 11));
        s[4 * c + 3] = static_cast<uint8_t>(Mul(a0, 11) ^ Mul(a1, 13) ^
                                            Mul(a2, 9) ^ Mul(a3, 14));
      }
    }
  }
  std::memcpy(out, s, 16);
}

void SoftCbcEncryptMulti(const AesScheduledKey& key, CbcStream* streams,
                         size_t n) {
  // No instruction-level parallelism to exploit here: walk each chain.
  for (size_t i = 0; i < n; ++i) {
    CbcStream& s = streams[i];
    uint8_t chain[16];
    std::memcpy(chain, s.chain, 16);
    for (size_t b = 0; b < s.n_blocks; ++b) {
      uint8_t block[16];
      for (int j = 0; j < 16; ++j) {
        block[j] = static_cast<uint8_t>(s.in[16 * b + j] ^ chain[j]);
      }
      SoftEncryptBlock(key, block, s.out + 16 * b);
      std::memcpy(chain, s.out + 16 * b, 16);
    }
  }
}

constexpr AesBackend kSoftBackend = {
    "soft", SoftSetup, SoftEncryptBlock, SoftDecryptBlock,
    SoftCbcEncryptMulti,
};

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const AesBackend* HardwareBackend() {
  // Probed once; the answer cannot change while the process runs.
  static const AesBackend* const kHw = [] {
    if (const AesBackend* b = internal::AesNiBackend()) return b;
    return internal::Armv8AesBackend();
  }();
  return kHw;
}

const AesBackend* AutoBackend() {
  static const AesBackend* const kAuto =
      internal::AutoPick(&kSoftBackend, HardwareBackend());
  return kAuto;
}

}  // namespace

namespace internal {

const AesBackend* SoftAesBackend() { return &kSoftBackend; }

}  // namespace internal

Result<Aes> Aes::Create(const Bytes& key, Backend backend) {
  Aes aes;
  Status st = aes.Init(key, backend);
  if (!st.ok()) return st;
  return aes;
}

const char* Aes::ActiveBackendName() { return AutoBackend()->name; }

bool Aes::HardwareBackendAvailable() { return HardwareBackend() != nullptr; }

Status Aes::Init(const Bytes& key, Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      backend_ = AutoBackend();
      break;
    case Backend::kSoftware:
      backend_ = &kSoftBackend;
      break;
    case Backend::kHardware:
      backend_ = HardwareBackend();
      if (backend_ == nullptr) {
        return Status::FailedPrecondition(
            "no hardware AES backend on this CPU/build");
      }
      break;
  }

  int nk;
  switch (key.size()) {
    case 16:
      nk = 4;
      key_.rounds = 10;
      break;
    case 24:
      nk = 6;
      key_.rounds = 12;
      break;
    case 32:
      nk = 8;
      key_.rounds = 14;
      break;
    default:
      return Status::InvalidArgument("AES key must be 16, 24 or 32 bytes");
  }

  const int total_words = 4 * (key_.rounds + 1);
  for (int i = 0; i < nk; ++i) {
    key_.enc_words[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
                        (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
                        (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
                        static_cast<uint32_t>(key[4 * i + 3]);
  }
  uint32_t rcon = 0x01000000;
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = key_.enc_words[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ rcon;
      rcon = static_cast<uint32_t>(XTime(static_cast<uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    key_.enc_words[i] = key_.enc_words[i - nk] ^ temp;
  }

  // Round keys as bytes in state order: word i's bytes land big-endian
  // at enc[4*i] — exactly the 16-byte round block AESENC/AESD consume.
  for (int i = 0; i < total_words; ++i) {
    const uint32_t w = key_.enc_words[i];
    key_.enc[4 * i] = static_cast<uint8_t>(w >> 24);
    key_.enc[4 * i + 1] = static_cast<uint8_t>(w >> 16);
    key_.enc[4 * i + 2] = static_cast<uint8_t>(w >> 8);
    key_.enc[4 * i + 3] = static_cast<uint8_t>(w);
  }

  backend_->setup(&key_);
  return Status::OK();
}

}  // namespace crypto
}  // namespace fresque
