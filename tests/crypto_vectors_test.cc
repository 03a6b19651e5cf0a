// Extended known-answer tests: full multi-block NIST SP 800-38A CBC
// vectors for all three AES key sizes, FIPS 180-4 SHA-256 and RFC 4231
// HMAC-SHA-256 vectors, RFC 8439 ChaCha20 blocks, and cross-checks that
// every compiled backend of each primitive matches the portable code.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace fresque {
namespace crypto {
namespace {

Bytes Hex(const std::string& s) { return std::move(FromHex(s)).ValueOrDie(); }

/// Every backend compiled into this binary and usable on this CPU: the
/// software tables always, plus the hardware backend (AES-NI / ARMv8 CE)
/// when present. Known-answer tests run against each so a dispatch bug
/// can never hide behind whichever backend kAuto happens to pick.
std::vector<Aes::Backend> UsableBackends() {
  std::vector<Aes::Backend> b{Aes::Backend::kSoftware};
  if (Aes::HardwareBackendAvailable()) b.push_back(Aes::Backend::kHardware);
  return b;
}

const char* BackendLabel(Backend b) {
  switch (b) {
    case Backend::kSoftware:
      return "soft";
    case Backend::kHardware:
      return "hardware";
    case Backend::kAuto:
      break;
  }
  return "auto";
}

// SP 800-38A F.2: the shared 4-block plaintext and IV.
const char* kCbcIv = "000102030405060708090a0b0c0d0e0f";
const char* kCbcPlain =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

struct CbcVector {
  const char* key;
  const char* cipher;  // 4 blocks
};

// Names each case by its key size ("AES-128"). Without it gtest prints the
// raw struct bytes — the addresses of the string literals — and CTest builds
// the test names from that, so they would change with every build.
void PrintTo(const CbcVector& v, std::ostream* os) {
  *os << "AES-" << std::strlen(v.key) * 4;
}

class CbcNistTest : public ::testing::TestWithParam<CbcVector> {};

TEST_P(CbcNistTest, FourBlockChainMatchesOnEveryBackend) {
  const auto& v = GetParam();
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    auto cbc = AesCbc::Create(Hex(v.key), backend);
    ASSERT_TRUE(cbc.ok());
    auto ct = cbc->EncryptWithIv(Hex(kCbcPlain), Hex(kCbcIv));
    ASSERT_TRUE(ct.ok());
    // Our output: IV || C1..C4 || padding block. Compare C1..C4.
    Bytes body(ct->begin() + 16, ct->begin() + 16 + 64);
    EXPECT_EQ(ToHex(body), v.cipher);
    // And the whole thing decrypts back.
    auto pt = cbc->Decrypt(*ct);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*pt, Hex(kCbcPlain));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sp80038a, CbcNistTest,
    ::testing::Values(
        // F.2.1 CBC-AES128.
        CbcVector{"2b7e151628aed2a6abf7158809cf4f3c",
                  "7649abac8119b246cee98e9b12e9197d"
                  "5086cb9b507219ee95db113a917678b2"
                  "73bed6b8e3c1743b7116e69e22229516"
                  "3ff1caa1681fac09120eca307586e1a7"},
        // F.2.3 CBC-AES192.
        CbcVector{"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                  "4f021db243bc633d7178183a9fa071e8"
                  "b4d9ada9ad7dedf4e5e738763f69145a"
                  "571b242012fb7ae07fa9baac3df102e0"
                  "08b0e27988598881d920a9e64f5615cd"},
        // F.2.5 CBC-AES256.
        CbcVector{"603deb1015ca71be2b73aef0857d7781"
                  "1f352c073b6108d72d9810a30914dff4",
                  "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
                  "9cfc4e967edb808d679f777bc6702c7d"
                  "39f23369a9d9bacfa530e26304231461"
                  "b2eb05e2c39be9fcda6c19078c6a9d1b"}));

TEST(ChaChaStreamTest, CounterAdvancesAcrossBlocks) {
  // RFC 8439 §2.4.2 encrypts two blocks with counters 1 and 2; check our
  // block function chains identically.
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, 12> nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  ChaCha20 chained(key, nonce, 1);
  uint8_t b1[64], b2[64];
  chained.NextBlock(b1);
  chained.NextBlock(b2);

  ChaCha20 direct2(key, nonce, 2);
  uint8_t b2_direct[64];
  direct2.NextBlock(b2_direct);
  EXPECT_EQ(Bytes(b2, b2 + 64), Bytes(b2_direct, b2_direct + 64));
  EXPECT_NE(Bytes(b1, b1 + 64), Bytes(b2, b2 + 64));
}

TEST(AesDecryptInvertsEncryptProperty, AllKeySizesRandomBlocks) {
  SecureRandom rng(404);
  for (size_t key_size : {16u, 24u, 32u}) {
    auto aes = Aes::Create(rng.RandomBytes(key_size));
    ASSERT_TRUE(aes.ok());
    for (int trial = 0; trial < 200; ++trial) {
      Bytes block = rng.RandomBytes(16);
      uint8_t ct[16], back[16];
      aes->EncryptBlock(block.data(), ct);
      aes->DecryptBlock(ct, back);
      EXPECT_EQ(Bytes(back, back + 16), block);
      // A block cipher must not be the identity.
      EXPECT_NE(Bytes(ct, ct + 16), block);
    }
  }
}

// FIPS 197 Appendix C single-block examples, all three key sizes, run
// against every compiled backend.
struct BlockVector {
  const char* key;
  const char* cipher;
};

void PrintTo(const BlockVector& v, std::ostream* os) {
  *os << "AES-" << std::strlen(v.key) * 4;
}

class AesFips197Test : public ::testing::TestWithParam<BlockVector> {};

TEST_P(AesFips197Test, SingleBlockMatchesOnEveryBackend) {
  const auto& v = GetParam();
  const Bytes plain = Hex("00112233445566778899aabbccddeeff");
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    auto aes = Aes::Create(Hex(v.key), backend);
    ASSERT_TRUE(aes.ok());
    uint8_t ct[16], back[16];
    aes->EncryptBlock(plain.data(), ct);
    EXPECT_EQ(ToHex(Bytes(ct, ct + 16)), v.cipher);
    aes->DecryptBlock(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fips197AppendixC, AesFips197Test,
    ::testing::Values(
        // C.1 AES-128.
        BlockVector{"000102030405060708090a0b0c0d0e0f",
                    "69c4e0d86a7b0430d8cdb78070b4c55a"},
        // C.2 AES-192.
        BlockVector{"000102030405060708090a0b0c0d0e0f1011121314151617",
                    "dda97ca4864cdfe06eaf70a0ec0d7191"},
        // C.3 AES-256.
        BlockVector{"000102030405060708090a0b0c0d0e0f"
                    "101112131415161718191a1b1c1d1e1f",
                    "8ea2b7ca516745bfeafc49904b496089"}));

// Hardware and software backends must be byte-identical on arbitrary
// inputs, not just the standard vectors: 10k random key/IV/plaintext
// triples across all key sizes and lengths spanning the padding edge
// cases (empty, sub-block, exact multiples, multi-block).
TEST(AesBackendCrossCheck, RandomTriplesEncryptIdentically) {
  if (!Aes::HardwareBackendAvailable()) {
    GTEST_SKIP() << "no hardware AES backend on this CPU/build";
  }
  SecureRandom rng(20260807);
  constexpr size_t kTriples = 10000;
  const size_t key_sizes[] = {16, 24, 32};
  for (size_t i = 0; i < kTriples; ++i) {
    Bytes key = rng.RandomBytes(key_sizes[i % 3]);
    auto soft = AesCbc::Create(key, Aes::Backend::kSoftware);
    auto hw = AesCbc::Create(key, Aes::Backend::kHardware);
    ASSERT_TRUE(soft.ok());
    ASSERT_TRUE(hw.ok());
    Bytes iv = rng.RandomBytes(16);
    Bytes plain = rng.RandomBytes(rng.NextU64() % 193);  // 0..192 bytes
    auto ct_soft = soft->EncryptWithIv(plain, iv);
    auto ct_hw = hw->EncryptWithIv(plain, iv);
    ASSERT_TRUE(ct_soft.ok());
    ASSERT_TRUE(ct_hw.ok());
    ASSERT_EQ(*ct_soft, *ct_hw) << "triple " << i;
    // Decrypt cross-wise: each backend opens the other's ciphertext.
    auto pt_a = soft->Decrypt(*ct_hw);
    auto pt_b = hw->Decrypt(*ct_soft);
    ASSERT_TRUE(pt_a.ok());
    ASSERT_TRUE(pt_b.ok());
    ASSERT_EQ(*pt_a, plain);
    ASSERT_EQ(*pt_b, plain);
  }
}

// The interleaved batch path must produce exactly what the one-at-a-time
// path produces: for every item of every batch, re-encrypting its
// plaintext under the IV the batch chose yields the same ciphertext on
// both backends.
TEST(AesBackendCrossCheck, BatchEncryptMatchesSingleMessagePath) {
  SecureRandom rng(7);
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    Bytes key = rng.RandomBytes(16);
    auto cbc = AesCbc::Create(key, backend);
    auto soft = AesCbc::Create(key, Aes::Backend::kSoftware);
    ASSERT_TRUE(cbc.ok());
    ASSERT_TRUE(soft.ok());
    CbcBatchScratch scratch;
    // Uneven lengths exercise the lockstep groups (8/4/2) and the serial
    // tails together.
    for (size_t round = 0; round < 50; ++round) {
      const size_t n = 1 + rng.NextU64() % 37;
      std::vector<Bytes> plains(n), outs(n);
      std::vector<CbcBatchItem> items(n);
      for (size_t i = 0; i < n; ++i) {
        plains[i] = rng.RandomBytes(rng.NextU64() % 160);
        items[i] = {plains[i].data(), plains[i].size(), &outs[i]};
      }
      Status st = cbc->EncryptBatch(
          items.data(), n, [&](uint8_t* out, size_t len) { rng.Fill(out, len); },
          &scratch);
      ASSERT_TRUE(st.ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_GE(outs[i].size(), 32u);
        Bytes iv(outs[i].begin(), outs[i].begin() + 16);
        auto expect = soft->EncryptWithIv(plains[i], iv);
        ASSERT_TRUE(expect.ok());
        ASSERT_EQ(outs[i], *expect) << "round " << round << " item " << i;
        auto back = soft->Decrypt(outs[i]);
        ASSERT_TRUE(back.ok());
        ASSERT_EQ(*back, plains[i]);
      }
    }
  }
}

TEST(AesAvalancheProperty, SingleBitFlipChangesHalfTheOutput) {
  auto aes = Aes::Create(Bytes(16, 0x42));
  ASSERT_TRUE(aes.ok());
  uint8_t base[16] = {};
  uint8_t ct_a[16], ct_b[16];
  aes->EncryptBlock(base, ct_a);
  base[0] ^= 0x01;  // flip one bit
  aes->EncryptBlock(base, ct_b);
  int diff_bits = 0;
  for (int i = 0; i < 16; ++i) {
    diff_bits += __builtin_popcount(ct_a[i] ^ ct_b[i]);
  }
  // 128 bits, expect ~64 flipped; allow a generous window.
  EXPECT_GT(diff_bits, 40);
  EXPECT_LT(diff_bits, 90);
}

// ---------------------------------------------------------------- SHA-256

/// The SHA-256 backends usable here: soft always, SHA-NI when present.
std::vector<Backend> UsableShaBackends() {
  std::vector<Backend> b{Backend::kSoftware};
  if (Sha256::HardwareBackendAvailable()) b.push_back(Backend::kHardware);
  return b;
}

std::string DigestHex(const std::array<uint8_t, Sha256::kDigestSize>& d) {
  return ToHex(Bytes(d.begin(), d.end()));
}

Bytes Ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

// FIPS 180-4 / NIST CSRC example vectors.
TEST(Sha256Fips180Test, VectorsMatchOnEveryBackend) {
  const struct {
    Bytes msg;
    const char* digest;
  } kVectors[] = {
      {Bytes{},
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {Ascii("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      // 448 bits: the padding spills into a second block.
      {Ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (Backend backend : UsableShaBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    for (const auto& v : kVectors) {
      Sha256 one_shot(backend);
      one_shot.Update(v.msg);
      EXPECT_EQ(DigestHex(one_shot.Finish()), v.digest);
      // Byte-at-a-time drives every block through the partial buffer.
      Sha256 bytewise(backend);
      for (uint8_t c : v.msg) bytewise.Update(&c, 1);
      EXPECT_EQ(DigestHex(bytewise.Finish()), v.digest);
    }
  }
}

// RFC 4231 §4.2-4.8, the full-length cases (case 5 truncates its output).
TEST(HmacRfc4231Test, CasesMatchOnEveryBackend) {
  Bytes key4;
  for (uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  const struct {
    Bytes key;
    Bytes data;
    const char* mac;
  } kCases[] = {
      {Bytes(20, 0x0b), Ascii("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {Ascii("Jefe"), Ascii("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       Ascii("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       Ascii("This is a test using a larger than block-size key and a larger "
             "than block-size data. The key needs to be hashed before being "
             "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (Backend backend : UsableShaBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    for (const auto& c : kCases) {
      HmacSha256 mac(c.key, backend);
      mac.Update(c.data);
      EXPECT_EQ(DigestHex(mac.Finish()), c.mac);
    }
  }
}

// Hardware and portable SHA-256 must agree beyond the standard vectors:
// random messages of 0..10,000 bytes absorbed through random Update
// split points, hashed and MACed by both.
TEST(Sha256BackendCrossCheck, RandomLengthsAndSplitsHashIdentically) {
  if (!Sha256::HardwareBackendAvailable()) {
    GTEST_SKIP() << "no hardware SHA-256 backend on this CPU/build";
  }
  SecureRandom rng(20261019);
  const Bytes mac_key = rng.RandomBytes(32);
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes msg = rng.RandomBytes(rng.NextBounded(10001));
    Sha256 soft(Backend::kSoftware);
    Sha256 hw(Backend::kHardware);
    HmacSha256 soft_mac(mac_key, Backend::kSoftware);
    HmacSha256 hw_mac(mac_key, Backend::kHardware);
    // The two sides split the message at independent random points.
    for (auto* side : {&soft, &hw}) {
      size_t pos = 0;
      while (pos < msg.size()) {
        const size_t n = 1 + rng.NextBounded(msg.size() - pos);
        side->Update(msg.data() + pos, n);
        pos += n;
      }
    }
    soft_mac.Update(msg);
    hw_mac.Update(msg);
    ASSERT_EQ(soft.Finish(), hw.Finish()) << "trial " << trial;
    ASSERT_EQ(soft_mac.Finish(), hw_mac.Finish()) << "trial " << trial;
  }
}

// --------------------------------------------------------------- ChaCha20

/// Every ChaCha20 kernel compiled in and usable on this CPU.
std::vector<const internal::ChaCha20Backend*> UsableChaChaKernels() {
  std::vector<const internal::ChaCha20Backend*> k{
      internal::SoftChaCha20Backend()};
  if (const auto* b = internal::Sse2ChaCha20Backend()) k.push_back(b);
  if (const auto* b = internal::Avx2ChaCha20Backend()) k.push_back(b);
  return k;
}

/// RFC 8439 §2.3.2 input state (key 00..1f, nonce 000000090000004a00000000)
/// with block counter `counter`.
std::array<uint32_t, 16> Rfc8439State(uint32_t counter) {
  return {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
          0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c,
          0x13121110, 0x17161514, 0x1b1a1918, 0x1f1e1d1c,
          counter,    0x09000000, 0x4a000000, 0x00000000};
}

TEST(ChaCha20Rfc8439Test, BlockVectorMatchesOnEveryKernel) {
  const auto state = Rfc8439State(1);
  for (const auto* kernel : UsableChaChaKernels()) {
    SCOPED_TRACE(kernel->name);
    uint8_t block[64];
    kernel->keystream(state.data(), block, 1);
    EXPECT_EQ(ToHex(Bytes(block, block + 64)),
              "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
              "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  }
}

// Multi-block calls of every kernel equal the portable stream, for every
// run length around the 4- and 8-lane widths and across the 2^32 block
// counter wrap.
TEST(ChaCha20Rfc8439Test, MultiBlockKeystreamMatchesPortable) {
  for (uint32_t counter : {1u, 0xfffffffau}) {
    const auto state = Rfc8439State(counter);
    for (size_t n = 1; n <= 19; ++n) {
      Bytes expect(64 * n);
      internal::SoftChaCha20Backend()->keystream(state.data(), expect.data(),
                                                  n);
      for (const auto* kernel : UsableChaChaKernels()) {
        Bytes got(64 * n);
        kernel->keystream(state.data(), got.data(), n);
        ASSERT_EQ(got, expect) << kernel->name << " n=" << n
                               << " counter=" << counter;
      }
    }
  }
}

// SecureRandom's bulk path (an 8-block SIMD buffer, and whole blocks
// written straight into large requests) yields the same bytes as the
// portable stream drawn one block at a time, across random request
// sizes.
TEST(SecureRandomBulkFill, MatchesOneBlockAtATimeStream) {
  constexpr size_t kTotal = 64 * 1024;
  SecureRandom reference(99, Backend::kSoftware);
  Bytes expect(kTotal);
  for (size_t off = 0; off < kTotal; off += ChaCha20::kBlockSize) {
    reference.Fill(expect.data() + off, ChaCha20::kBlockSize);
  }
  SecureRandom sizes(5);
  for (Backend backend :
       {Backend::kSoftware, Backend::kHardware, Backend::kAuto}) {
    SCOPED_TRACE(BackendLabel(backend));
    SecureRandom bulk(99, backend);
    Bytes got(kTotal);
    size_t off = 0;
    while (off < kTotal) {
      const size_t n = std::min<size_t>(kTotal - off, sizes.NextBounded(1500));
      bulk.Fill(got.data() + off, n);
      off += n;
    }
    ASSERT_EQ(got, expect);
  }
}

// FRESQUE_FORCE_SOFT_CRYPTO pins the portable code for all three
// primitives; without it kAuto takes the hardware wherever there is one.
// Run both ways (CI does), this proves the switch reaches every dispatch.
TEST(CryptoDispatch, AutoHonoursForceSoftForEveryPrimitive) {
  const std::string aes = Aes::ActiveBackendName();
  const std::string sha = Sha256::ActiveBackendName();
  const std::string chacha = ChaCha20::ActiveBackendName();
  if (ForceSoftCrypto()) {
    EXPECT_EQ(aes, "soft");
    EXPECT_EQ(sha, "soft");
    EXPECT_EQ(chacha, "soft");
    return;
  }
  EXPECT_EQ(aes == "soft", !Aes::HardwareBackendAvailable());
  EXPECT_EQ(sha == "soft", !Sha256::HardwareBackendAvailable());
  EXPECT_EQ(chacha == "soft", !ChaCha20::HardwareBackendAvailable());
}

}  // namespace
}  // namespace crypto
}  // namespace fresque
