#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

/// \file bitstream.h
/// Bit-level serialization used by the codec's entropy layer.

namespace vcd::video {

/// \brief Appends bits MSB-first into a growing byte buffer.
class BitWriter {
 public:
  /// Writes the low \p nbits bits of \p value (1..32 bits), MSB first.
  void WriteBits(uint32_t value, int nbits);

  /// Writes an unsigned Exp-Golomb code (efficient for small magnitudes,
  /// the dominant case for quantized AC coefficients).
  void WriteUE(uint32_t value);

  /// Writes a signed Exp-Golomb code (zig-zag mapped).
  void WriteSE(int32_t value);

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Finishes (byte-aligns) and returns the accumulated bytes.
  std::vector<uint8_t> Finish();

  /// Bits written so far.
  size_t bit_count() const { return bytes_.size() * 8 - (8 - used_) % 8; }

 private:
  std::vector<uint8_t> bytes_;
  int used_ = 8;  // bits used in the last byte; 8 means "no open byte"
};

/// \brief Reads bits MSB-first from a byte buffer, with bounds checking.
///
/// Every read looks at a 64-bit window of the stream (`Peek64()`), so a code
/// is decoded in one step rather than one bit at a time: `ReadBits` is a
/// shift and `ReadUE` finds the Exp-Golomb prefix with `std::countl_zero`.
/// Codes whose prefix exceeds `kMaxFastPrefix` zeros, or that do not fit in
/// the bits left, take an out-of-line bit-serial path, so error codes,
/// messages and the final `bit_pos()` are those of a plain bit-by-bit read.
class BitReader {
 public:
  /// Longest Exp-Golomb prefix the one-step decode handles: a code of
  /// 2·28+1 = 57 bits is the most a 64-bit window holds at any bit offset.
  static constexpr int kMaxFastPrefix = 28;

  /// Creates a reader over \p data (not owned; must outlive the reader).
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads \p nbits bits (0..32) into \p value. Fails with Corruption when
  /// the stream is exhausted, leaving the cursor where it was.
  Status ReadBits(int nbits, uint32_t* value) {
    if (bit_pos_ + static_cast<size_t>(nbits) > size_ * 8) return Exhausted();
    // Two shifts: a single shift by 64 (nbits == 0) is undefined.
    *value = static_cast<uint32_t>((Peek64() >> 1) >> (63 - nbits));
    bit_pos_ += static_cast<size_t>(nbits);
    return Status::OK();
  }

  /// Reads an unsigned Exp-Golomb code.
  Status ReadUE(uint32_t* value) {
    return TryReadUE(value) ? Status::OK() : ReadUESlow(value);
  }

  /// Reads a signed Exp-Golomb code.
  Status ReadSE(int32_t* value) {
    uint32_t mapped = 0;
    VCD_RETURN_IF_ERROR(ReadUE(&mapped));
    *value = ZigZagDecode(mapped);
    return Status::OK();
  }

  /// The Status-free fast path of ReadUE: decodes one code whose prefix has
  /// at most kMaxFastPrefix zeros and which lies wholly inside the stream.
  /// Otherwise returns false without moving the cursor; ReadUE then gives
  /// the value or the exact error.
  bool TryReadUE(uint32_t* value) {
    const int len = DecodeUE(Peek64(), FastBits(), value);
    bit_pos_ += static_cast<size_t>(len);
    return len != 0;
  }

  /// The Status-free fast path of ReadSE (see TryReadUE).
  bool TryReadSE(int32_t* value) {
    uint32_t mapped = 0;
    if (!TryReadUE(&mapped)) return false;
    *value = ZigZagDecode(mapped);
    return true;
  }

  /// \name Multi-code fast path
  /// For a decoder that takes several codes from one load: `Peek64()` holds
  /// the next `FastBits()` stream bits MSB-first, `DecodeUE` takes codes
  /// off it, and `Skip` consumes what was decoded.
  /// @{

  /// The stream from bit_pos() on, MSB-aligned: one unaligned big-endian
  /// load (a byte loop in the last 8 bytes) shifted by the bit offset, so
  /// at least 57 bits are valid (all that remain near the end), with zeros
  /// past the end of the buffer.
  uint64_t Peek64() const {
    const size_t byte = bit_pos_ >> 3;
    uint64_t w = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        w = __builtin_bswap64(w);
      }
    } else {
      for (size_t i = 0; byte + i < size_; ++i) {
        w |= static_cast<uint64_t>(data_[byte + i]) << (56 - 8 * i);
      }
    }
    return w << (bit_pos_ & 7);
  }
  /// Valid bits of Peek64(): 57, or fewer when the stream ends sooner.
  int FastBits() const {
    constexpr size_t kWindowBits = 2 * kMaxFastPrefix + 1;
    const size_t left = size_ * 8 - bit_pos_;
    return static_cast<int>(left < kWindowBits ? left : kWindowBits);
  }
  /// Decodes the Exp-Golomb code at the top of \p window, whose top
  /// \p avail (at most FastBits()) bits are valid, and returns its length
  /// in bits; returns 0 and leaves \p value alone when the code does not
  /// fit in \p avail — which includes every prefix over kMaxFastPrefix.
  static int DecodeUE(uint64_t window, int avail, uint32_t* value) {
    const int len = 2 * std::countl_zero(window) + 1;
    if (len > avail) return 0;
    *value = static_cast<uint32_t>(window >> (64 - len)) - 1;
    return len;
  }
  /// Moves the cursor forward by \p nbits; the caller has decoded them.
  void Skip(int nbits) { bit_pos_ += static_cast<size_t>(nbits); }
  /// Inverse of BitWriter::WriteSE's map: 0,1,2,3,4... -> 0,-1,1,-2,2...
  static int32_t ZigZagDecode(uint32_t mapped) {
    const auto half = static_cast<int32_t>((mapped + 1) >> 1);
    return (mapped & 1) != 0 ? half : -half;
  }
  /// @}

  /// Skips to the next byte boundary.
  void AlignToByte() { bit_pos_ = (bit_pos_ + 7) & ~size_t{7}; }

  /// Current bit position.
  size_t bit_pos() const { return bit_pos_; }
  /// True when all bits are consumed (up to byte padding).
  bool AtEnd() const { return bit_pos_ >= size_ * 8; }

  /// Moves the cursor to absolute bit position \p pos.
  Status SeekToBit(size_t pos);

 private:
  /// Out-of-line bit-serial Exp-Golomb decode for the codes TryReadUE
  /// declines: long prefixes and codes cut off by the end of the stream.
  Status ReadUESlow(uint32_t* value);

  static Status Exhausted();

  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;
};

}  // namespace vcd::video
