#ifndef FRESQUE_NET_PAYLOADS_H_
#define FRESQUE_NET_PAYLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hmac.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"

namespace fresque {
namespace net {

/// Codecs for the structured control payloads that travel inside Message
/// frames. Hot-path record frames keep their fields in the envelope; these
/// are the cold-path publication artifacts.

/// kTemplateInit / kTemplateForward body: the noise-only index of a new
/// publication.
Bytes EncodeTemplate(const index::HistogramIndex& noise_index);
Result<index::HistogramIndex> DecodeTemplate(const Bytes& payload);

/// kAlSnapshot body: per-leaf true counts at the end of an interval.
Bytes EncodeAlSnapshot(const std::vector<int64_t>& al);
Result<std::vector<int64_t>> DecodeAlSnapshot(const Bytes& payload);

/// kIndexPublication body: secure index + overflow arrays + an optional
/// HMAC-SHA-256 integrity tag computed by the trusted collector with the
/// publication's IndexMacKey. The cloud is honest-but-curious, but the
/// tag gives the client tamper *evidence* (defense in depth): a modified
/// index or overflow array no longer verifies.
struct IndexPublication {
  index::HistogramIndex index;
  index::OverflowArrays overflow;
  /// Empty when the producing prototype does not sign (baselines).
  Bytes integrity_tag;
  /// The encoded payload this publication was decoded from; `overflow`'s
  /// slots point into it. Null for a publication built locally.
  std::shared_ptr<const Bytes> payload;

  IndexPublication(index::HistogramIndex idx, index::OverflowArrays ovf)
      : index(std::move(idx)), overflow(std::move(ovf)) {}
};
///
/// Wire layout: three u32-length-prefixed segments — the serialized
/// index, the serialized overflow arrays, the tag. The tag is
/// HMAC-SHA-256 over the first two segments *with* their length
/// prefixes, i.e. over the payload prefix that precedes the tag segment.
Bytes EncodeIndexPublication(const IndexPublication& pub);
/// Takes ownership of `payload` and keeps it as the result's `payload`:
/// only the small index segment is copied out, the overflow arrays are
/// parsed in place.
Result<IndexPublication> DecodeIndexPublication(Bytes payload);

namespace internal {
/// Writes the index segment and reserves room for an overflow segment of
/// `overflow_size` bytes and a `tag_len`-byte tag, both length-prefixed.
void PutIndexSegment(const index::HistogramIndex& index, size_t overflow_size,
                     size_t tag_len, BinaryWriter* w);
/// MACs everything in `w` under `mac_key` in place and appends the tag
/// segment.
void PutTag(const Bytes& mac_key, BinaryWriter* w);
}  // namespace internal

/// Encodes `pub` signed under `mac_key` in one pass, the whole payload
/// in one buffer: both content segments are serialized straight into it,
/// every free overflow slot `dummy_size` bytes long and handed to
/// `stage_dummy(uint8_t* slot, size_t len)` in slot order. `flush()`
/// (returning Status) runs once after that and must have written every
/// handed-out slot — a batch encrypt; its failure fails the encode.
/// Then the HMAC runs over the prefix in place and the tag is appended.
/// `pub.integrity_tag` is ignored.
template <typename StageFn, typename FlushFn>
Result<Bytes> EncodeSignedIndexPublication(const IndexPublication& pub,
                                           const Bytes& mac_key,
                                           size_t dummy_size,
                                           StageFn&& stage_dummy,
                                           FlushFn&& flush) {
  BinaryWriter w;
  internal::PutIndexSegment(pub.index, pub.overflow.SerializedSize(dummy_size),
                            crypto::HmacSha256::kDigestSize, &w);
  const size_t at = w.BeginBytes();
  pub.overflow.SerializeTo(&w, dummy_size, stage_dummy);
  w.EndBytes(at);
  FRESQUE_RETURN_NOT_OK(flush());
  internal::PutTag(mac_key, &w);
  return w.Release();
}

/// The signed encode of a publication with no slots left to pad (free
/// slots stay empty): EncodeIndexPublication's bytes with the tag filled
/// in.
Bytes EncodeSignedIndexPublication(const IndexPublication& pub,
                                   const Bytes& mac_key);

/// Verifies a stored publication payload against `mac_key`, MACing the
/// payload prefix in place. Fails with Corruption on mismatch and
/// FailedPrecondition when the payload carries no tag.
Status VerifyIndexPublicationPayload(const Bytes& payload,
                                     const Bytes& mac_key);

/// kMatchingTable body.
Bytes EncodeMatchingTable(const index::MatchingTable& table);
Result<index::MatchingTable> DecodeMatchingTable(const Bytes& payload);

}  // namespace net
}  // namespace fresque

#endif  // FRESQUE_NET_PAYLOADS_H_
