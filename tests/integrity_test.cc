#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/hmac.h"
#include "crypto/key_manager.h"
#include "crypto/sha256.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "record/dataset.h"
#include "record/secure_codec.h"

namespace fresque {
namespace {

TEST(PublicationIntegrityTest, TagVerifiesAndDetectsTampering) {
  auto binning = index::DomainBinning::Create(0, 50, 1);
  crypto::SecureRandom rng(1);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  index::OverflowArrays ovf(50, 1);
  net::IndexPublication pub(tmpl->noise_index(), std::move(ovf));

  Bytes key(32, 0x10);
  Bytes payload = net::EncodeSignedIndexPublication(pub, key);

  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, key).ok());
  // Wrong key.
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, Bytes(32, 0x11))
                  .IsCorruption());
  // Flipped content byte (inside the index segment).
  Bytes tampered = payload;
  tampered[16] ^= 0x01;
  Status st = net::VerifyIndexPublicationPayload(tampered, key);
  EXPECT_FALSE(st.ok());
  // Untagged publication is reported as unverifiable, not valid.
  net::IndexPublication untagged(tmpl->noise_index(),
                                 index::OverflowArrays(50, 1));
  Bytes untagged_payload = net::EncodeIndexPublication(untagged);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(untagged_payload, key)
                  .IsFailedPrecondition());
}

/// A fixed-seed publication with real-sized removed records at random
/// slots and dummy padding in the rest.
net::IndexPublication FixedSeedPublication() {
  auto binning = index::DomainBinning::Create(0, 200, 1);
  crypto::SecureRandom rng(1234);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  EXPECT_TRUE(tmpl.ok());
  index::OverflowArrays ovf(200, 6);
  for (int i = 0; i < 300; ++i) {
    const size_t leaf = rng.NextBounded(200);
    Bytes ct = rng.RandomBytes(96 + 16 * rng.NextBounded(4));
    (void)ovf.Insert(leaf, std::move(ct), &rng);  // a full leaf drops it
  }
  EXPECT_TRUE(
      ovf.PadWithDummies([&]() -> Bytes { return rng.RandomBytes(96); }).ok());
  return net::IndexPublication(tmpl->noise_index(), std::move(ovf));
}

// The merger's one-pass signed encode must give exactly the bytes of the
// composition it replaced (serialize each segment, HMAC their framed
// concatenation, encode all three), so stored WALs, snapshots and client
// verification are unaffected.
TEST(PublicationIntegrityTest, OnePassSignedEncodeMatchesTwoPassComposition) {
  net::IndexPublication pub = FixedSeedPublication();
  const Bytes key(32, 0x42);
  const Bytes one_pass = net::EncodeSignedIndexPublication(pub, key);

  const Bytes index_bytes = pub.index.Serialize();
  const Bytes overflow_bytes = pub.overflow.Serialize();
  BinaryWriter framed;
  framed.Reserve(4 + index_bytes.size() + 4 + overflow_bytes.size());
  framed.PutBytes(index_bytes);
  framed.PutBytes(overflow_bytes);
  const auto tag = crypto::HmacSha256::Mac(key, framed.buffer());
  BinaryWriter two_pass;
  two_pass.Reserve(framed.size() + 4 + tag.size());
  two_pass.PutBytes(index_bytes);
  two_pass.PutBytes(overflow_bytes);
  two_pass.PutBytes(Bytes(tag.begin(), tag.end()));
  EXPECT_EQ(one_pass, two_pass.buffer());

  // Pinned: the payload the two-pass merger encode produced for this
  // publication (size and SHA-256), independent of this build's code.
  const auto digest = crypto::Sha256::Hash(one_pass);
  EXPECT_EQ(one_pass.size(), 129740u);
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "6c54717344a19545a1cf10db742d85d6b15aa05ae484fd3a592cd127f90e4227");

  // An unsigned encode carrying the same tag is the same payload.
  pub.integrity_tag = Bytes(tag.begin(), tag.end());
  EXPECT_EQ(net::EncodeIndexPublication(pub), one_pass);

  EXPECT_TRUE(net::VerifyIndexPublicationPayload(one_pass, key).ok());
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(one_pass, Bytes(32, 0x43))
                  .IsCorruption());
  // One flipped byte in the index segment, the overflow segment, the tag.
  const size_t overflow_at = 4 + index_bytes.size() + 4;
  for (size_t at : {size_t{16}, overflow_at + overflow_bytes.size() / 2,
                    one_pass.size() - 1}) {
    Bytes tampered = one_pass;
    tampered[at] ^= 0x01;
    EXPECT_TRUE(net::VerifyIndexPublicationPayload(tampered, key)
                    .IsCorruption())
        << "byte " << at;
  }
  // Truncated anywhere before the tag: rejected, never verified.
  for (size_t len : {size_t{0}, size_t{3}, overflow_at, one_pass.size() - 1}) {
    Bytes cut(one_pass.begin(), one_pass.begin() + len);
    EXPECT_TRUE(net::VerifyIndexPublicationPayload(cut, key).IsCorruption())
        << "length " << len;
  }
}

/// The merger's signed payload for a fixed-seed publication: 40 removed
/// records at random slots of 64 x 5 overflow arrays, every other slot a
/// dummy with 64 bytes of padding. `in_place` pads the way the merger
/// does, building and encrypting each dummy inside the payload; otherwise
/// each dummy is encrypted into its own buffer first and the arrays are
/// padded with those.
Bytes MergerPayload(bool in_place) {
  auto spec = record::NasaDataset();
  auto binning = index::DomainBinning::Create(0, 64, 1);
  crypto::SecureRandom rng(23);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  auto codec = record::SecureRecordCodec::Create(
      Bytes(16, 0x21), &spec->parser->schema(), &rng);
  EXPECT_TRUE(tmpl.ok() && codec.ok());
  index::OverflowArrays ovf(64, 5);
  for (int i = 0; i < 40; ++i) {
    Bytes ct = codec->EncryptDummy(48 + 16 * (i % 3)).ValueOrDie();
    (void)ovf.Insert(rng.NextBounded(64), std::move(ct), &rng);
  }
  const Bytes key(32, 0x42);
  record::SecureRecordCodec::BatchEncryptor enc(&*codec);
  if (in_place) {
    return net::EncodeSignedIndexPublication(
               net::IndexPublication(tmpl->noise_index(), std::move(ovf)),
               key, record::SecureRecordCodec::DummyCiphertextSize(64),
               [&](uint8_t* slot, size_t) { enc.StageDummy(64, slot); },
               [&] { return enc.Flush(); })
        .ValueOrDie();
  }
  std::vector<Bytes> dummies(64 * 5 - 40);
  for (Bytes& d : dummies) enc.StageDummy(64, &d);
  EXPECT_TRUE(enc.Flush().ok());
  size_t next = 0;
  EXPECT_TRUE(ovf.PadWithDummies([&] { return dummies.at(next++); }).ok());
  return net::EncodeSignedIndexPublication(
      net::IndexPublication(tmpl->noise_index(), std::move(ovf)), key);
}

// Padding in place draws the RNG in the per-slot order (each dummy's
// padding in slot order, then every IV in slot order), so the payload
// is byte-identical to per-slot padding.
TEST(PublicationIntegrityTest, InPlacePaddingMatchesPerSlotPadding) {
  const Bytes in_place = MergerPayload(true);
  EXPECT_EQ(in_place, MergerPayload(false));
  // Pinned: the payload the per-slot merger path produced for this seed
  // (size and SHA-256), independent of this build's code.
  const auto digest = crypto::Sha256::Hash(in_place);
  EXPECT_EQ(in_place.size(), 32796u);
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "ce1b50f827dabfd2e5fc55a13be97e45d624006762f8aa37b5acf2974370a7ef");
}

TEST(PublicationIntegrityTest, TagRoundTripsThroughEncodeDecode) {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  crypto::SecureRandom rng(2);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  net::IndexPublication pub(tmpl->noise_index(),
                            index::OverflowArrays(10, 1));
  pub.integrity_tag = Bytes(32, 0xAB);
  auto back = net::DecodeIndexPublication(net::EncodeIndexPublication(pub));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->integrity_tag, pub.integrity_tag);
}

TEST(PublicationIntegrityTest, EndToEndFresquePublicationVerifies) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x30));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 7;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();

  client::Client good(keys, &spec->parser->schema());
  EXPECT_TRUE(good.VerifyPublication(server, 0).ok());
  // Publication 1 was opened but never published: no evidence.
  EXPECT_TRUE(good.VerifyPublication(server, 1).IsNotFound());
  // A client keyed differently rejects the publication.
  client::Client other(crypto::KeyManager(Bytes(32, 0x31)),
                       &spec->parser->schema());
  EXPECT_TRUE(other.VerifyPublication(server, 0).IsCorruption());
}

}  // namespace
}  // namespace fresque
