// Byte-oriented little-helper writers/readers used by header serialisation
// and the ROHC compressed-ACK wire format.
//
// Network headers use big-endian (network order) accessors; the ROHC payload
// format (our design) uses little-endian for multi-byte deltas, matching the
// convention documented in src/rohc/compressed_ack.h.
#ifndef SRC_UTIL_BITIO_H_
#define SRC_UTIL_BITIO_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace hacksim {

// Append-only byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU16Be(uint16_t v) {
    bytes_.push_back(static_cast<uint8_t>(v >> 8));
    bytes_.push_back(static_cast<uint8_t>(v));
  }
  void WriteU32Be(uint32_t v) {
    bytes_.push_back(static_cast<uint8_t>(v >> 24));
    bytes_.push_back(static_cast<uint8_t>(v >> 16));
    bytes_.push_back(static_cast<uint8_t>(v >> 8));
    bytes_.push_back(static_cast<uint8_t>(v));
  }
  void WriteU16Le(uint16_t v) {
    bytes_.push_back(static_cast<uint8_t>(v));
    bytes_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void WriteU32Le(uint32_t v) {
    bytes_.push_back(static_cast<uint8_t>(v));
    bytes_.push_back(static_cast<uint8_t>(v >> 8));
    bytes_.push_back(static_cast<uint8_t>(v >> 16));
    bytes_.push_back(static_cast<uint8_t>(v >> 24));
  }

  size_t size() const { return bytes_.size(); }
  std::span<const uint8_t> bytes() const { return bytes_; }
  std::vector<uint8_t> Take() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

// Forward-only byte source. All reads return std::nullopt past the end,
// letting deserialisers fail soft on truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  std::optional<uint8_t> ReadU8() {
    if (pos_ + 1 > data_.size()) {
      return std::nullopt;
    }
    return data_[pos_++];
  }
  std::optional<uint16_t> ReadU16Be() {
    if (pos_ + 2 > data_.size()) {
      return std::nullopt;
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<uint32_t> ReadU32Be() {
    if (pos_ + 4 > data_.size()) {
      return std::nullopt;
    }
    uint32_t v = (static_cast<uint32_t>(data_[pos_]) << 24) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 8) |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  std::optional<uint16_t> ReadU16Le() {
    if (pos_ + 2 > data_.size()) {
      return std::nullopt;
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
    pos_ += 2;
    return v;
  }
  std::optional<uint32_t> ReadU32Le() {
    if (pos_ + 4 > data_.size()) {
      return std::nullopt;
    }
    uint32_t v = static_cast<uint32_t>(data_[pos_]) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }
  std::optional<std::span<const uint8_t>> ReadBytes(size_t n) {
    if (pos_ + n > data_.size()) {
      return std::nullopt;
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  bool Skip(size_t n) {
    if (pos_ + n > data_.size()) {
      return false;
    }
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace hacksim

#endif  // SRC_UTIL_BITIO_H_
