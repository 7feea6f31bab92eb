/// \file serialize.hpp
/// \brief Binary (de)serialization over memory for persisting schemes.
///
/// Fixed little-endian layout, explicit sizes, a magic/version header per
/// top-level object, and fail-loud reads (std::invalid_argument on
/// truncation or corruption). One writer and one reader serve every
/// encoder in the tree (core/scheme_io, src/persist):
///
///  - ByteWriter memcpys into a caller-sized buffer. Encoders compute
///    their exact size first (sizes are arithmetic over vector lengths —
///    see vec_bytes), so an artifact is allocated once and every byte is
///    written once. Writing past the buffer, or finishing short of it,
///    throws std::logic_error: a size function that disagrees with its
///    encoder is a library bug, caught on the first encode.
///  - SpanReader is bounds-checked over a byte span; payload arrays are
///    memcpy'd straight out of it, and every failure carries the absolute
///    byte offset where it died — a truncated or bit-flipped input
///    reports *where*, which is what makes the persistence tier's
///    corruption diagnostics actionable.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace croute {

static_assert(std::endian::native == std::endian::little,
              "big-endian hosts need byte swaps in serialize.hpp");

/// Encoded size of a length-prefixed array (the vec_* layout: u64 count,
/// then the elements verbatim).
template <typename T>
constexpr std::uint64_t vec_bytes(const std::vector<T>& v) noexcept {
  return 8 + v.size() * sizeof(T);
}

/// Encoded size of a length-prefixed string (u32 length, then the bytes).
constexpr std::uint64_t str_bytes(std::string_view s) noexcept {
  return 4 + s.size();
}

/// Writer into a caller-sized buffer (little-endian scalars,
/// length-prefixed arrays).
class ByteWriter {
 public:
  ByteWriter(char* dst, std::uint64_t size) : dst_(dst), size_(size) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) {
    static_assert(sizeof(double) == 8);
    raw(&v, 8);
  }

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4);
    vec(v);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) { vec(v); }
  void vec_f64(const std::vector<double>& v) { vec(v); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Bytes written so far.
  std::uint64_t offset() const noexcept { return pos_; }

  /// Asserts the buffer is exactly full: the size function and the
  /// encoder agree.
  void finish() const {
    if (pos_ != size_) size_mismatch(0);
  }

 private:
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
  void raw(const void* p, std::uint64_t bytes) {
    if (bytes > size_ - pos_) size_mismatch(bytes);
    if (bytes != 0) std::memcpy(dst_ + pos_, p, bytes);
    pos_ += bytes;
  }
  [[noreturn]] void size_mismatch(std::uint64_t wanted) const;

  char* dst_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

/// Bounds-checked little-endian reader over a byte span; throws
/// std::invalid_argument (with the absolute byte offset) on anything
/// truncated or implausible, never reads out of bounds.
class SpanReader {
 public:
  /// \p base_offset is the absolute offset of bytes[0] in the enclosing
  /// file, so a reader over one artifact section reports file offsets.
  explicit SpanReader(std::string_view bytes, std::uint64_t base_offset = 0)
      : data_(bytes.data()), size_(bytes.size()), base_(base_offset) {}

  std::uint64_t offset() const noexcept { return base_ + pos_; }
  std::uint64_t remaining() const noexcept { return size_ - pos_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  template <typename T>
  std::vector<T> vec_u32() {
    static_assert(sizeof(T) == 4);
    return vec<T>();
  }
  std::vector<std::uint64_t> vec_u64() { return vec<std::uint64_t>(); }
  std::vector<double> vec_f64() { return vec<double>(); }

  /// A u64 element count for records of \p elem_bytes each. A hostile
  /// count must fail here, not in operator new: the remaining span bounds
  /// what any honest count can be.
  std::uint64_t count(std::uint64_t elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / elem_bytes) implausible(8, "array length");
    return n;
  }

  /// A length-prefixed string of at most \p max_len bytes.
  std::string str(std::uint32_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len) implausible(4, "string length");
    need(len);
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }
  void need(std::uint64_t bytes) {
    if (bytes > remaining()) truncated(bytes);
  }
  [[noreturn]] void truncated(std::uint64_t wanted) const;
  [[noreturn]] void implausible(std::uint64_t back, const char* what) const;

  const char* data_;
  std::uint64_t size_;
  std::uint64_t base_;
  std::uint64_t pos_ = 0;
};

/// A whole file's bytes, read with one fstat-sized read: no stream
/// buffering and no zero-fill of the destination.
struct FileBytes {
  std::unique_ptr<char[]> data;
  std::uint64_t size = 0;
  std::string_view view() const noexcept { return {data.get(), size}; }
};

/// Reads \p path whole. Throws std::invalid_argument when the file cannot
/// be opened, or reads short of its fstat size.
FileBytes read_file_bytes(const std::string& path);

}  // namespace croute
