#pragma once
/// \file wire.hpp
/// Minimal binary serialization for the proc backend's control frames.
///
/// The coordinator and its rank processes always share one machine (they
/// are fork()ed from the same image), so the wire format is host-endian
/// fixed-width scalars — no byte swapping, no varints.  WireWriter appends
/// scalars to a byte buffer; WireReader consumes them with hard bounds
/// checks so a truncated or corrupted payload surfaces as ssamr::Error at
/// the decode site instead of as garbage values downstream.

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace ssamr::net {

/// Appends host-endian scalars to a growing byte buffer.
class WireWriter {
 public:
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Consumes scalars from a byte span; throws ssamr::Error on underrun.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::int32_t i32() { return take<std::int32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int64_t i64() { return take<std::int64_t>(); }
  double f64() { return take<double>(); }

  /// Bytes not yet consumed (decoders bound counts by this before they
  /// allocate).
  std::size_t remaining() const { return size_ - off_; }

  /// Every byte consumed (decoders assert this to catch drifting schemas).
  bool done() const { return off_ == size_; }

 private:
  template <class T>
  T take() {
    SSAMR_REQUIRE(off_ + sizeof(T) <= size_, "wire: truncated message");
    T v;
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

}  // namespace ssamr::net
