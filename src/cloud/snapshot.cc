// CloudServer snapshot persistence: one binary file holding the whole
// multi-publication state. Format (little-endian, length-prefixed):
//   magic "FQSNAP02"
//   binning: f64 dmin, f64 dmax, f64 width
//   u64 publication count, then per publication:
//     u64 pn, u8 published
//     bytes storage snapshot
//     open state:    u64 metadata groups { u32 leaf, u64 n, n addresses }
//                    u64 tagged count { u64 tag, address }
//     published state: bytes index, bytes overflow, bytes evidence,
//                      u64 leaves { u64 n, n addresses }
//     (evidence is the verbatim publication payload, or empty; when
//     present its overflow segment equals the overflow bytes, and the
//     loaded arrays point into it)
// Addresses encode as u32 segment, u32 offset, u32 length.

#include <algorithm>
#include <fstream>
#include <memory>
#include <vector>

#include "cloud/server.h"

namespace fresque {
namespace cloud {

namespace {

constexpr char kMagic[8] = {'F', 'Q', 'S', 'N', 'A', 'P', '0', '2'};

void PutAddress(BinaryWriter* w, const PhysicalAddress& a) {
  w->PutU32(a.segment);
  w->PutU32(a.offset);
  w->PutU32(a.length);
}

/// The overflow segment of an encoded publication payload that already
/// decoded (so both leading segments are present).
ByteSpan OverflowSegment(const Bytes& payload) {
  BinaryReader r(payload);
  if (!r.SkipBytes().ok()) return {};
  auto segment = r.GetSpan();
  return segment.ok() ? *segment : ByteSpan();
}

Result<PhysicalAddress> GetAddress(BinaryReader* r) {
  auto seg = r->GetU32();
  auto off = r->GetU32();
  auto len = r->GetU32();
  if (!seg.ok() || !off.ok() || !len.ok()) {
    return Status::Corruption("truncated address");
  }
  PhysicalAddress a;
  a.segment = *seg;
  a.offset = *off;
  a.length = *len;
  return a;
}

}  // namespace

Status CloudServer::SaveSnapshot(const std::string& path) const {
  // The file is opened, written and flushed with mu_ released, so queries
  // and record ingest never wait on the filesystem.
  const Bytes buf = EncodeSnapshot();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for write");
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Bytes CloudServer::EncodeSnapshot() const {
  // Open publications change under mu_, so their records are encoded
  // inside it. Installed ones are immutable and shared, so the lock only
  // pins them; their encode (the bulk of the bytes) runs after release.
  struct Entry {
    uint64_t pn;
    Bytes open_body;  // the encoded open state, when not installed
    std::shared_ptr<const query::InstalledPublication> installed;
  };
  std::vector<Entry> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(publications_.size());
    for (const auto& [pn, pub] : publications_) {
      Entry e{pn, {}, pub.installed};
      if (!pub.published()) {
        BinaryWriter w;
        w.PutBytes(pub.storage.Serialize());
        w.PutU64(pub.metadata.size());
        for (const auto& [leaf, addrs] : pub.metadata) {
          w.PutU32(leaf);
          w.PutU64(addrs.size());
          for (const auto& a : addrs) PutAddress(&w, a);
        }
        w.PutU64(pub.tagged.size());
        for (const auto& [tag, addr] : pub.tagged) {
          w.PutU64(tag);
          PutAddress(&w, addr);
        }
        e.open_body = w.Release();
      }
      entries.push_back(std::move(e));
    }
  }

  BinaryWriter w;
  w.PutRaw(reinterpret_cast<const uint8_t*>(kMagic), sizeof(kMagic));
  w.PutF64(binning_.domain_min());
  w.PutF64(binning_.domain_max());
  w.PutF64(binning_.bin_width());
  w.PutU64(entries.size());
  for (const Entry& e : entries) {
    w.PutU64(e.pn);
    w.PutU8(e.installed != nullptr ? 1 : 0);
    if (e.installed == nullptr) {
      w.PutRaw(e.open_body);
    } else {
      const query::InstalledPublication& inst = *e.installed;
      w.PutBytes(inst.storage.Serialize());
      w.PutBytes(inst.index.Serialize());
      // Straight from the buffer the arrays point into (the evidence,
      // for a publication that arrived encoded).
      size_t at = w.BeginBytes();
      inst.overflow.SerializeTo(&w);
      w.EndBytes(at);
      at = w.BeginBytes();
      if (inst.evidence != nullptr) w.PutRaw(*inst.evidence);
      w.EndBytes(at);
      w.PutU64(inst.postings.size());
      for (const auto& posting : inst.postings) {
        w.PutU64(posting.size());
        for (const auto& a : posting) PutAddress(&w, a);
      }
    }
  }
  return w.Release();
}

Result<std::unique_ptr<CloudServer>> CloudServer::LoadSnapshot(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Status::IOError("read failed for " + path);

  BinaryReader r(data);
  auto magic = r.GetRaw(sizeof(kMagic));
  if (!magic.ok() ||
      !std::equal(magic->begin(), magic->end(),
                  reinterpret_cast<const uint8_t*>(kMagic))) {
    return Status::Corruption("not a cloud snapshot: " + path);
  }
  auto dmin = r.GetF64();
  auto dmax = r.GetF64();
  auto width = r.GetF64();
  if (!dmin.ok() || !dmax.ok() || !width.ok()) {
    return Status::Corruption("truncated snapshot header");
  }
  auto binning = index::DomainBinning::Create(*dmin, *dmax, *width);
  if (!binning.ok()) return binning.status();
  auto server =
      std::make_unique<CloudServer>(std::move(binning).ValueOrDie());
  // The server is not visible to any other thread yet; the lock is
  // uncontended and exists so the thread-safety analysis can prove the
  // publications_ writes below.
  MutexLock lock(server->mu_);

  auto count = r.GetU64();
  if (!count.ok()) return Status::Corruption("truncated snapshot");
  // Every claimed element count below is cross-checked against the bytes
  // actually left in the file before it sizes an allocation, so a corrupt
  // or hostile snapshot produces a Status — never an OOM or a crash.
  if (*count > r.remaining() / 13) {  // pn + flag + storage prefix
    return Status::Corruption("snapshot publication count implausible");
  }
  for (uint64_t i = 0; i < *count; ++i) {
    auto pn = r.GetU64();
    auto published = r.GetU8();
    auto storage_bytes = r.GetBytes();
    if (!pn.ok() || !published.ok() || !storage_bytes.ok()) {
      return Status::Corruption("truncated publication header");
    }
    Publication pub;
    auto storage = SegmentStorage::Deserialize(*storage_bytes);
    if (!storage.ok()) return storage.status();

    if (*published == 0) {
      pub.storage = std::move(*storage);
      auto groups = r.GetU64();
      if (!groups.ok()) return Status::Corruption("truncated metadata");
      if (*groups > r.remaining() / 12) {  // leaf + count per group
        return Status::Corruption("snapshot metadata group count implausible");
      }
      for (uint64_t g = 0; g < *groups; ++g) {
        auto leaf = r.GetU32();
        auto n = r.GetU64();
        if (!leaf.ok() || !n.ok()) {
          return Status::Corruption("truncated metadata group");
        }
        if (*n > r.remaining() / 12) {  // 12 bytes per address
          return Status::Corruption("snapshot metadata count implausible");
        }
        auto& addrs = pub.metadata[*leaf];
        addrs.reserve(*n);
        for (uint64_t j = 0; j < *n; ++j) {
          auto a = GetAddress(&r);
          if (!a.ok()) return a.status();
          if (!pub.storage.Contains(*a)) {
            return Status::Corruption("snapshot metadata address unbacked");
          }
          addrs.push_back(*a);
        }
      }
      auto tagged = r.GetU64();
      if (!tagged.ok()) return Status::Corruption("truncated tagged list");
      if (*tagged > r.remaining() / 20) {  // tag + address per entry
        return Status::Corruption("snapshot tagged count implausible");
      }
      for (uint64_t j = 0; j < *tagged; ++j) {
        auto tag = r.GetU64();
        auto a = GetAddress(&r);
        if (!tag.ok() || !a.ok()) {
          return Status::Corruption("truncated tagged entry");
        }
        if (!pub.storage.Contains(*a)) {
          return Status::Corruption("snapshot tagged address unbacked");
        }
        pub.tagged.emplace_back(*tag, *a);
      }
    } else {
      auto index_bytes = r.GetSpan();
      auto overflow_bytes = r.GetSpan();
      auto evidence = r.GetBytes();
      auto leaves = r.GetU64();
      if (!index_bytes.ok() || !overflow_bytes.ok() || !evidence.ok() ||
          !leaves.ok()) {
        return Status::Corruption("truncated published state");
      }
      auto idx = index::HistogramIndex::Deserialize(*index_bytes);
      if (!idx.ok()) return idx.status();
      // A publication that arrived encoded keeps one copy of its bytes:
      // its overflow arrays are parsed in place from the evidence, whose
      // overflow segment must be the one the snapshot recorded. Without
      // evidence they get a buffer of their own.
      Result<index::OverflowArrays> ovf =
          Status::Corruption("snapshot overflow arrays missing");
      std::shared_ptr<const Bytes> kept;
      if (evidence->empty()) {
        ovf = index::OverflowArrays::Deserialize(*overflow_bytes);
      } else {
        auto pub = net::DecodeIndexPublication(std::move(*evidence));
        if (!pub.ok()) return pub.status();
        const ByteSpan segment = OverflowSegment(*pub->payload);
        if (!std::equal(segment.begin(), segment.end(),
                        overflow_bytes->begin(), overflow_bytes->end())) {
          return Status::Corruption(
              "snapshot overflow arrays disagree with their evidence");
        }
        ovf = std::move(pub->overflow);
        kept = std::move(pub->payload);
      }
      if (!ovf.ok()) return ovf.status();
      if (*leaves > r.remaining() / 8) {  // one count per leaf
        return Status::Corruption("snapshot leaf count implausible");
      }
      std::vector<std::vector<PhysicalAddress>> postings(*leaves);
      for (uint64_t leaf = 0; leaf < *leaves; ++leaf) {
        auto n = r.GetU64();
        if (!n.ok()) return Status::Corruption("truncated postings");
        if (*n > r.remaining() / 12) {
          return Status::Corruption("snapshot posting count implausible");
        }
        postings[leaf].reserve(*n);
        for (uint64_t j = 0; j < *n; ++j) {
          auto a = GetAddress(&r);
          if (!a.ok()) return a.status();
          if (!storage->Contains(*a)) {
            return Status::Corruption("snapshot posting address unbacked");
          }
          postings[leaf].push_back(*a);
        }
      }
      // Re-freeze the publication and publish the view, so a restored
      // store serves lock-free queries exactly like a live one. The tag
      // filter is an install-time join accelerator and is not persisted;
      // a default (pass-everything) filter is correct here.
      pub.installed = std::make_shared<const query::InstalledPublication>(
          *pn, std::move(*storage), std::move(*idx), std::move(*ovf),
          std::move(postings), std::move(kept), query::TagFilter());
      server->views_.Install(pub.installed);
    }
    server->publications_.emplace(*pn, std::move(pub));
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes in snapshot");
  }
  return server;
}

}  // namespace cloud
}  // namespace fresque
