#ifndef FRESQUE_COMMON_BYTES_H_
#define FRESQUE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fresque {

/// Owning byte sequence used for wire frames, ciphertexts and stored
/// records.
using Bytes = std::vector<uint8_t>;

/// Appends fixed-width little-endian integers, floats and length-prefixed
/// blobs to a growing byte buffer. All record/message/index serialization
/// in FRESQUE goes through this writer so the framing is uniform.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI32(int32_t v) { PutLE(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }

  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Raw bytes without a length prefix.
  void PutRaw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void PutRaw(const Bytes& b) { PutRaw(b.data(), b.size()); }

  /// u32 length prefix followed by the bytes.
  void PutBytes(const Bytes& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    PutRaw(b);
  }

  /// Opens a u32-length-prefixed segment whose body is appended next,
  /// e.g. by another object's SerializeTo(this). Pass the returned token
  /// to EndBytes() once the body is written; the framing equals
  /// PutBytes(body) without building `body` first.
  size_t BeginBytes() {
    const size_t at = buf_.size();
    PutU32(0);
    return at;
  }
  void EndBytes(size_t token) {
    const uint32_t n = static_cast<uint32_t>(buf_.size() - token - 4);
    for (size_t i = 0; i < 4; ++i) {
      buf_[token + i] = static_cast<uint8_t>(n >> (8 * i));
    }
  }

  /// u32 length prefix followed by the characters.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Pre-sizes the buffer for `total` bytes so appends do not reallocate.
  void Reserve(size_t total) { buf_.reserve(total); }

  const Bytes& buffer() const { return buf_; }
  Bytes Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads values written by BinaryWriter. All getters return OutOfRange if
/// the buffer is exhausted, so corrupt frames fail cleanly instead of
/// reading past the end.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit BinaryReader(const Bytes& b) : BinaryReader(b.data(), b.size()) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > len_) return Eof("u8");
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLE<uint16_t>(); }
  Result<uint32_t> GetU32() { return GetLE<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetLE<uint64_t>(); }
  Result<int32_t> GetI32() {
    auto r = GetLE<uint32_t>();
    if (!r.ok()) return r.status();
    return static_cast<int32_t>(*r);
  }
  Result<int64_t> GetI64() {
    auto r = GetLE<uint64_t>();
    if (!r.ok()) return r.status();
    return static_cast<int64_t>(*r);
  }

  Result<double> GetF64() {
    auto r = GetU64();
    if (!r.ok()) return r.status();
    double v;
    uint64_t bits = *r;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Reads a u32 length prefix then that many bytes.
  Result<Bytes> GetBytes() {
    auto n = GetU32();
    if (!n.ok()) return n.status();
    if (pos_ + *n > len_) return Eof("bytes body");
    Bytes out(data_ + pos_, data_ + pos_ + *n);
    pos_ += *n;
    return out;
  }

  /// Skips a u32 length prefix and that many bytes without copying them.
  Status SkipBytes() {
    auto n = GetU32();
    if (!n.ok()) return n.status();
    if (pos_ + *n > len_) return Eof("bytes body");
    pos_ += *n;
    return Status::OK();
  }

  Result<std::string> GetString() {
    auto n = GetU32();
    if (!n.ok()) return n.status();
    if (pos_ + *n > len_) return Eof("string body");
    std::string out(reinterpret_cast<const char*>(data_) + pos_, *n);
    pos_ += *n;
    return out;
  }

  /// Reads exactly `n` raw bytes (no length prefix).
  Result<Bytes> GetRaw(size_t n) {
    if (pos_ + n > len_) return Eof("raw");
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= len_; }

 private:
  template <typename T>
  Result<T> GetLE() {
    if (pos_ + sizeof(T) > len_) return Eof("integer");
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  static Status Eof(const char* what) {
    return Status::OutOfRange(std::string("BinaryReader: truncated ") + what);
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Lower-case hex encoding of `b` ("deadbeef").
std::string ToHex(const Bytes& b);

/// Parses lower- or upper-case hex; fails on odd length or non-hex chars.
Result<Bytes> FromHex(const std::string& hex);

}  // namespace fresque

#endif  // FRESQUE_COMMON_BYTES_H_
