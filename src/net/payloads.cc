#include "net/payloads.h"

#include <array>

#include "crypto/hmac.h"

namespace fresque {
namespace net {

Bytes EncodeTemplate(const index::HistogramIndex& noise_index) {
  return noise_index.Serialize();
}

Result<index::HistogramIndex> DecodeTemplate(const Bytes& payload) {
  return index::HistogramIndex::Deserialize(payload);
}

Bytes EncodeAlSnapshot(const std::vector<int64_t>& al) {
  BinaryWriter w;
  w.PutU64(al.size());
  for (int64_t v : al) w.PutI64(v);
  return w.Release();
}

Result<std::vector<int64_t>> DecodeAlSnapshot(const Bytes& payload) {
  BinaryReader r(payload);
  auto n = r.GetU64();
  if (!n.ok()) return Status::Corruption("truncated AL snapshot");
  // Bound the claimed count by the bytes actually present (8 per entry),
  // so a corrupt header cannot trigger a huge allocation.
  if (*n > r.remaining() / sizeof(int64_t)) {
    return Status::Corruption("AL snapshot count exceeds payload");
  }
  std::vector<int64_t> al;
  al.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto v = r.GetI64();
    if (!v.ok()) return Status::Corruption("truncated AL entry");
    al.push_back(*v);
  }
  return al;
}

namespace internal {

void PutIndexSegment(const index::HistogramIndex& index, size_t overflow_size,
                     size_t tag_len, BinaryWriter* w) {
  const size_t at = w->BeginBytes();
  index.SerializeTo(w);
  w->EndBytes(at);
  // The overflow arrays are megabytes: reserve once so neither they nor
  // the tag reallocate the payload.
  w->Reserve(w->size() + sizeof(uint32_t) + overflow_size + sizeof(uint32_t) +
             tag_len);
}

void PutTag(const Bytes& mac_key, BinaryWriter* w) {
  crypto::HmacSha256 mac(mac_key);
  mac.Update(w->buffer().data(), w->size());
  const auto tag = mac.Finish();
  w->PutU32(static_cast<uint32_t>(tag.size()));
  w->PutRaw(tag.data(), tag.size());
}

}  // namespace internal

Bytes EncodeIndexPublication(const IndexPublication& pub) {
  BinaryWriter w;
  internal::PutIndexSegment(pub.index, pub.overflow.SerializedSize(),
                            pub.integrity_tag.size(), &w);
  const size_t at = w.BeginBytes();
  pub.overflow.SerializeTo(&w);
  w.EndBytes(at);
  w.PutBytes(pub.integrity_tag);
  return w.Release();
}

Bytes EncodeSignedIndexPublication(const IndexPublication& pub,
                                   const Bytes& mac_key) {
  return EncodeSignedIndexPublication(
             pub, mac_key, 0, [](uint8_t*, size_t) {},
             [] { return Status::OK(); })
      .ValueOrDie();
}

Result<IndexPublication> DecodeIndexPublication(Bytes payload) {
  auto buf = std::make_shared<const Bytes>(std::move(payload));
  BinaryReader r(*buf);
  auto index_bytes = r.GetSpan();
  auto overflow_bytes = r.GetSpan();
  auto tag = r.GetBytes();
  if (!index_bytes.ok() || !overflow_bytes.ok() || !tag.ok()) {
    return Status::Corruption("truncated index publication");
  }
  auto idx = index::HistogramIndex::Deserialize(*index_bytes);
  if (!idx.ok()) return idx.status();
  auto ovf = index::OverflowArrays::Parse(
      buf, static_cast<size_t>(overflow_bytes->data() - buf->data()),
      overflow_bytes->size());
  if (!ovf.ok()) return ovf.status();
  IndexPublication pub(std::move(idx).ValueOrDie(),
                       std::move(ovf).ValueOrDie());
  pub.integrity_tag = std::move(*tag);
  pub.payload = std::move(buf);
  return pub;
}

namespace {

std::array<uint8_t, crypto::HmacSha256::kDigestSize> MacPrefix(
    const uint8_t* data, size_t len, const Bytes& mac_key) {
  crypto::HmacSha256 mac(mac_key);
  mac.Update(data, len);
  return mac.Finish();
}

}  // namespace

Status VerifyIndexPublicationPayload(const Bytes& payload,
                                     const Bytes& mac_key) {
  BinaryReader r(payload);
  const bool content_ok = r.SkipBytes().ok() && r.SkipBytes().ok();
  const size_t signed_len = r.position();
  auto tag = r.GetBytes();
  if (!content_ok || !tag.ok()) {
    return Status::Corruption("truncated index publication");
  }
  if (tag->empty()) {
    return Status::FailedPrecondition("publication carries no tag");
  }
  const auto expected = MacPrefix(payload.data(), signed_len, mac_key);
  if (tag->size() != expected.size() ||
      !crypto::ConstantTimeEquals(tag->data(), expected.data(),
                                  expected.size())) {
    return Status::Corruption("publication integrity tag mismatch");
  }
  return Status::OK();
}

Bytes EncodeMatchingTable(const index::MatchingTable& table) {
  return table.Serialize();
}

Result<index::MatchingTable> DecodeMatchingTable(const Bytes& payload) {
  return index::MatchingTable::Deserialize(payload);
}

}  // namespace net
}  // namespace fresque
