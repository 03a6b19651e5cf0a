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

namespace {

/// Appends the index and overflow segments, each u32-length-prefixed,
/// reserving room for them and a trailing tag segment of `tag_len` bytes
/// so the multi-megabyte overflow arrays are written without a
/// reallocation.
void PutContentSegments(const IndexPublication& pub, size_t tag_len,
                        BinaryWriter* w) {
  size_t at = w->BeginBytes();
  pub.index.SerializeTo(w);
  w->EndBytes(at);
  w->Reserve(w->size() + sizeof(uint32_t) + pub.overflow.SerializedSize() +
             sizeof(uint32_t) + tag_len);
  at = w->BeginBytes();
  pub.overflow.SerializeTo(w);
  w->EndBytes(at);
}

std::array<uint8_t, crypto::HmacSha256::kDigestSize> MacPrefix(
    const uint8_t* data, size_t len, const Bytes& mac_key) {
  crypto::HmacSha256 mac(mac_key);
  mac.Update(data, len);
  return mac.Finish();
}

}  // namespace

Bytes EncodeIndexPublication(const IndexPublication& pub) {
  BinaryWriter w;
  PutContentSegments(pub, pub.integrity_tag.size(), &w);
  w.PutBytes(pub.integrity_tag);
  return w.Release();
}

Bytes EncodeSignedIndexPublication(const IndexPublication& pub,
                                   const Bytes& mac_key) {
  BinaryWriter w;
  PutContentSegments(pub, crypto::HmacSha256::kDigestSize, &w);
  const auto tag = MacPrefix(w.buffer().data(), w.size(), mac_key);
  w.PutU32(static_cast<uint32_t>(tag.size()));
  w.PutRaw(tag.data(), tag.size());
  return w.Release();
}

Result<IndexPublication> DecodeIndexPublication(const Bytes& payload) {
  BinaryReader r(payload);
  auto index_bytes = r.GetBytes();
  auto overflow_bytes = r.GetBytes();
  auto tag = r.GetBytes();
  if (!index_bytes.ok() || !overflow_bytes.ok() || !tag.ok()) {
    return Status::Corruption("truncated index publication");
  }
  auto idx = index::HistogramIndex::Deserialize(*index_bytes);
  if (!idx.ok()) return idx.status();
  auto ovf = index::OverflowArrays::Deserialize(*overflow_bytes);
  if (!ovf.ok()) return ovf.status();
  IndexPublication pub(std::move(idx).ValueOrDie(),
                       std::move(ovf).ValueOrDie());
  pub.integrity_tag = std::move(*tag);
  return pub;
}

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
