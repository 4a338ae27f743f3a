// Bounds-checked binary readers/writers for the wire codecs.
//
// All multi-byte integers are big-endian (network order), as on the real
// S1AP/GTP-C wires. Truncated or trailing input raises CodecError — the MLB
// must never crash on a malformed PDU.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace scale::proto {

/// Raised on any decode violation (truncation, bad tag, range error).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopt existing storage (cleared, capacity kept) so a reused buffer can
  /// be encoded into without a fresh allocation; reclaim it with take().
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : out_(std::move(storage)) {
    out_.clear();
  }

  /// A writer that stores nothing: every put only advances size() by the
  /// bytes it would have written. Running an encoder through it measures a
  /// PDU's wire size with the encoder as the single source of its layout,
  /// at zero allocations.
  [[nodiscard]] static ByteWriter counting() {
    ByteWriter w;
    w.counting_ = true;
    return w;
  }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void boolean(bool v);
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u16) string.
  void str(std::string_view s);

  template <typename T>
  void optional(const std::optional<T>& v, void (ByteWriter::*put)(T)) {
    boolean(v.has_value());
    if (v) (this->*put)(*v);
  }

  /// Overwrite the 4 bytes at `offset` (already written) with big-endian
  /// `v` — backpatches a length placeholder. No-op in counting mode.
  void patch_u32(std::size_t offset, std::uint32_t v);

  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return counting_ ? counted_ : out_.size(); }

 private:
  /// Counting mode: account `n` bytes and tell the caller to store nothing.
  bool count_only(std::size_t n) {
    if (!counting_) return false;
    counted_ += n;
    return true;
  }

  std::vector<std::uint8_t> out_;
  std::size_t counted_ = 0;
  bool counting_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n);
  [[nodiscard]] std::string str();

  template <typename T>
  std::optional<T> optional(T (ByteReader::*get)()) {
    if (!boolean()) return std::nullopt;
    return (this->*get)();
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws CodecError unless the whole buffer was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace scale::proto
