#ifndef FRESQUE_NET_PAYLOADS_H_
#define FRESQUE_NET_PAYLOADS_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
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

  IndexPublication(index::HistogramIndex idx, index::OverflowArrays ovf)
      : index(std::move(idx)), overflow(std::move(ovf)) {}
};
///
/// Wire layout: three u32-length-prefixed segments — the serialized
/// index, the serialized overflow arrays, the tag. The tag is
/// HMAC-SHA-256 over the first two segments *with* their length
/// prefixes, i.e. over the payload prefix that precedes the tag segment.
Bytes EncodeIndexPublication(const IndexPublication& pub);
Result<IndexPublication> DecodeIndexPublication(const Bytes& payload);

/// Encodes `pub` signed under `mac_key` in one pass: both content
/// segments are serialized straight into the payload, the HMAC runs over
/// that prefix in place and the tag is appended. `pub.integrity_tag` is
/// ignored. Same bytes as EncodeIndexPublication with the tag filled in.
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
