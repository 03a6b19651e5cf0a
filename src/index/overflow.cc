#include "index/overflow.h"

namespace fresque {
namespace index {

namespace {

constexpr size_t kHeaderSize = 2 * sizeof(uint64_t);
constexpr size_t kPrefixSize = sizeof(uint32_t);

uint64_t LoadLE(const uint8_t* p, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

OverflowArrays::OverflowArrays(size_t num_leaves, size_t slots_per_leaf)
    : num_leaves_(num_leaves), slots_per_leaf_(slots_per_leaf) {}

ByteSpan OverflowArrays::framed_slot(size_t s) const {
  if (buf_ == nullptr) return {};
  return ByteSpan(buf_->data() + begin_ + offsets_[s],
                  offsets_[s + 1] - offsets_[s]);
}

const Bytes* OverflowArrays::staged_at(size_t s) const {
  if (stage_of_.empty() || stage_of_[s] == kNotStaged) return nullptr;
  return &staged_[stage_of_[s]];
}

bool OverflowArrays::occupied(size_t s) const {
  return staged_at(s) != nullptr || framed_slot(s).size() > kPrefixSize;
}

void OverflowArrays::Stage(size_t s, Bytes e_record) {
  if (stage_of_.empty()) stage_of_.assign(num_slots(), kNotStaged);
  stage_of_[s] = static_cast<uint32_t>(staged_.size());
  staged_bytes_ += e_record.size();
  staged_.push_back(std::move(e_record));
}

Status OverflowArrays::Insert(size_t i, Bytes e_record,
                              crypto::SecureRandom* rng) {
  if (i >= num_leaves_) {
    return Status::OutOfRange("overflow leaf index out of range");
  }
  const size_t first = i * slots_per_leaf_;
  const size_t end = first + slots_per_leaf_;
  size_t free_count = 0;
  for (size_t s = first; s < end; ++s) free_count += occupied(s) ? 0 : 1;
  if (free_count == 0) {
    return Status::ResourceExhausted(
        "overflow array full for leaf " + std::to_string(i));
  }
  // Place at a uniformly random free slot so position reveals nothing
  // about arrival order.
  size_t target = rng->NextBounded(free_count);
  for (size_t s = first; s < end; ++s) {
    if (occupied(s)) continue;
    if (target == 0) {
      Stage(s, std::move(e_record));
      return Status::OK();
    }
    --target;
  }
  return Status::Internal("overflow free-slot bookkeeping out of sync");
}

Status OverflowArrays::LayOut() {
  if (num_slots() == 0) return Status::OK();
  BinaryWriter w;
  SerializeTo(&w);
  if (w.size() > UINT32_MAX) {
    return Status::ResourceExhausted("overflow arrays exceed 4 GiB");
  }
  const size_t len = w.size();
  auto laid = Parse(std::make_shared<const Bytes>(w.Release()), 0, len);
  if (!laid.ok()) return laid.status();
  *this = std::move(*laid);
  return Status::OK();
}

ByteSpan OverflowArrays::slot(size_t i, size_t s) const {
  const size_t at = i * slots_per_leaf_ + s;
  if (const Bytes* staged = staged_at(at)) return *staged;
  ByteSpan framed = framed_slot(at);
  return framed.empty() ? framed : framed.subspan(kPrefixSize);
}

size_t OverflowArrays::used(size_t i) const {
  size_t n = 0;
  for (size_t s = i * slots_per_leaf_; s < (i + 1) * slots_per_leaf_; ++s) {
    n += occupied(s) ? 1 : 0;
  }
  return n;
}

Bytes OverflowArrays::Serialize() const {
  BinaryWriter w;
  SerializeTo(&w);
  return w.Release();
}

void OverflowArrays::SerializeTo(BinaryWriter* w) const {
  SerializeTo(w, 0, [](uint8_t*, size_t) {});
}

size_t OverflowArrays::SerializedSize(size_t free_size) const {
  const size_t free_slots = num_slots() - laid_out_used_ - staged_.size();
  return kHeaderSize + num_slots() * kPrefixSize + PayloadBytes() +
         free_slots * free_size;
}

size_t OverflowArrays::PayloadBytes() const {
  const size_t laid_out =
      buf_ == nullptr
          ? 0
          : offsets_.back() - kHeaderSize - num_slots() * kPrefixSize;
  return laid_out + staged_bytes_;
}

Result<OverflowArrays> OverflowArrays::Parse(std::shared_ptr<const Bytes> buf,
                                             size_t begin, size_t len) {
  if (buf == nullptr || begin > buf->size() || len > buf->size() - begin) {
    return Status::InvalidArgument("overflow segment outside its buffer");
  }
  if (len > UINT32_MAX) {
    return Status::Corruption("overflow segment exceeds 4 GiB");
  }
  if (len < kHeaderSize) {
    return Status::Corruption("truncated overflow header");
  }
  const uint8_t* p = buf->data() + begin;
  const uint64_t leaves = LoadLE(p, sizeof(uint64_t));
  const uint64_t per_leaf = LoadLE(p + sizeof(uint64_t), sizeof(uint64_t));
  // Each slot costs at least its length prefix. Divide, never multiply: a
  // corrupt header must neither overflow the slot count nor size an
  // allocation past the bytes it arrived in.
  const size_t max_slots = (len - kHeaderSize) / kPrefixSize;
  if (leaves != 0 && (per_leaf == 0 || per_leaf > max_slots ||
                      leaves > max_slots / per_leaf)) {
    return Status::Corruption("overflow geometry exceeds payload");
  }
  OverflowArrays out(leaves, per_leaf);
  const size_t n = out.num_slots();
  out.offsets_.resize(n + 1);
  size_t pos = kHeaderSize;
  for (size_t s = 0; s < n; ++s) {
    if (len - pos < kPrefixSize) {
      return Status::Corruption("truncated overflow slot");
    }
    const size_t slot_len = LoadLE(p + pos, kPrefixSize);
    if (slot_len > len - pos - kPrefixSize) {
      return Status::Corruption("truncated overflow slot");
    }
    out.offsets_[s] = static_cast<uint32_t>(pos);
    out.laid_out_used_ += slot_len > 0 ? 1 : 0;
    pos += kPrefixSize + slot_len;
  }
  if (pos != len) {
    return Status::Corruption("trailing bytes after overflow arrays");
  }
  out.offsets_[n] = static_cast<uint32_t>(pos);
  out.buf_ = std::move(buf);
  out.begin_ = begin;
  return out;
}

Result<OverflowArrays> OverflowArrays::Deserialize(ByteSpan data) {
  const size_t len = data.size();
  return Parse(std::make_shared<const Bytes>(data.begin(), data.end()), 0,
               len);
}

}  // namespace index
}  // namespace fresque
