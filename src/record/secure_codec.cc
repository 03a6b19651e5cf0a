#include "record/secure_codec.h"

#include <cstring>

namespace fresque {
namespace record {

Result<SecureRecordCodec> SecureRecordCodec::Create(
    const Bytes& key, const Schema* schema, crypto::SecureRandom* rng) {
  auto cbc = crypto::AesCbc::Create(key);
  if (!cbc.ok()) return cbc.status();
  return SecureRecordCodec(std::move(cbc).ValueOrDie(), schema, rng);
}

Result<Bytes> SecureRecordCodec::EncryptRecord(const Record& rec) {
  auto body = codec_.Serialize(rec);
  if (!body.ok()) return body.status();
  return EncryptSerializedRecord(*body);
}

Result<Bytes> SecureRecordCodec::EncryptSerializedRecord(const Bytes& body) {
  Bytes plain;
  plain.reserve(body.size() + 1);
  plain.push_back(kKindReal);
  plain.insert(plain.end(), body.begin(), body.end());
  return cbc_.Encrypt(plain,
                      [this](uint8_t* out, size_t n) { rng_->Fill(out, n); });
}

Result<Bytes> SecureRecordCodec::EncryptDummy(size_t padding_len) {
  Bytes plain(padding_len + 1);
  plain[0] = kKindDummy;
  rng_->Fill(plain.data() + 1, padding_len);
  return cbc_.Encrypt(plain,
                      [this](uint8_t* out, size_t n) { rng_->Fill(out, n); });
}

uint8_t* SecureRecordCodec::BatchEncryptor::StageItem(size_t plain_len,
                                                      Bytes* out) {
  const size_t start = arena_.size();
  arena_.resize(start + plain_len);
  offsets_.push_back(start);
  items_.push_back(crypto::CbcBatchItem{nullptr, plain_len, out, nullptr});
  return arena_.data() + start;
}

Status SecureRecordCodec::BatchEncryptor::StageRecord(const Record& rec,
                                                      Bytes* out) {
  const size_t start = arena_.size();
  arena_.push_back(kKindReal);
  Status st = codec_->codec_.SerializeAppend(rec, &arena_);
  if (!st.ok()) {
    arena_.resize(start);
    return st;
  }
  offsets_.push_back(start);
  items_.push_back(
      crypto::CbcBatchItem{nullptr, arena_.size() - start, out, nullptr});
  return Status::OK();
}

void SecureRecordCodec::BatchEncryptor::StageSerializedRecord(const Bytes& body,
                                                              Bytes* out) {
  uint8_t* plain = StageItem(1 + body.size(), out);
  plain[0] = kKindReal;
  if (!body.empty()) std::memcpy(plain + 1, body.data(), body.size());
}

void SecureRecordCodec::BatchEncryptor::StageDummy(size_t padding_len,
                                                   Bytes* out) {
  uint8_t* plain = StageItem(1 + padding_len, out);
  plain[0] = kKindDummy;
  codec_->rng_->Fill(plain + 1, padding_len);
}

void SecureRecordCodec::BatchEncryptor::StageDummy(size_t padding_len,
                                                   uint8_t* out) {
  uint8_t* plain = out + crypto::Aes::kBlockSize;
  plain[0] = kKindDummy;
  codec_->rng_->Fill(plain + 1, padding_len);
  items_.push_back(
      crypto::CbcBatchItem{nullptr, 1 + padding_len, nullptr, out});
}

Status SecureRecordCodec::BatchEncryptor::Flush() {
  const size_t n = items_.size();
  if (n == 0) return Status::OK();
  // Arena plaintext pointers are resolved only now: the arena cannot
  // reallocate under them anymore.
  size_t next = 0;
  for (auto& it : items_) {
    if (it.out != nullptr) it.plain = arena_.data() + offsets_[next++];
  }
  crypto::SecureRandom* rng = codec_->rng_;
  Status st = codec_->cbc_.EncryptBatch(
      items_.data(), n, [rng](uint8_t* p, size_t len) { rng->Fill(p, len); },
      &scratch_);
  arena_.clear();
  offsets_.clear();
  items_.clear();
  return st;
}

Result<SecureRecordCodec::Opened> SecureRecordCodec::Decrypt(
    const Bytes& e_record) const {
  auto plain = cbc_.Decrypt(e_record);
  if (!plain.ok()) return plain.status();
  if (plain->empty()) {
    return Status::Corruption("empty e-record plaintext");
  }
  Opened out;
  uint8_t kind = (*plain)[0];
  if (kind == kKindDummy) {
    out.is_dummy = true;
    return out;
  }
  if (kind != kKindReal) {
    return Status::Corruption("unknown e-record kind byte");
  }
  Bytes body(plain->begin() + 1, plain->end());
  auto rec = codec_.Deserialize(body);
  if (!rec.ok()) return rec.status();
  out.rec = std::move(*rec);
  return out;
}

}  // namespace record
}  // namespace fresque
