#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/status.h"
#include "video/codec.h"
#include "video/codec_internal.h"
#include "video/partial_decoder.h"

/// \file reference_bit_reader.h
/// Test oracles for the entropy layer: the plain bit-at-a-time reader the
/// codec was first written with, the block readers and the partial decoder
/// built on it. Every read is one bit, one bounds check and one Status, so
/// the semantics are easy to see; the production `BitReader` and
/// `PartialDecoder` must agree with these on every input, valid or not.

namespace vcd::video::testing {

/// \brief Bit-serial Exp-Golomb reader (reference for video::BitReader).
class ReferenceBitReader {
 public:
  ReferenceBitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status ReadBits(int nbits, uint32_t* value) {
    if (bit_pos_ + static_cast<size_t>(nbits) > size_ * 8) {
      return Status::Corruption("bit stream exhausted");
    }
    uint32_t v = 0;
    for (int i = 0; i < nbits; ++i) {
      const size_t byte = bit_pos_ >> 3;
      const int off = static_cast<int>(bit_pos_ & 7);
      v = (v << 1) | ((data_[byte] >> (7 - off)) & 1);
      ++bit_pos_;
    }
    *value = v;
    return Status::OK();
  }

  Status ReadUE(uint32_t* value) {
    int zeros = 0;
    uint32_t bit = 0;
    for (;;) {
      VCD_RETURN_IF_ERROR(ReadBits(1, &bit));
      if (bit == 1) break;
      if (++zeros > 31) return Status::Corruption("Exp-Golomb prefix too long");
    }
    uint32_t rest = 0;
    if (zeros > 0) {
      VCD_RETURN_IF_ERROR(ReadBits(zeros, &rest));
    }
    *value = ((uint32_t{1} << zeros) | rest) - 1;
    return Status::OK();
  }

  Status ReadSE(int32_t* value) {
    uint32_t mapped = 0;
    VCD_RETURN_IF_ERROR(ReadUE(&mapped));
    if (mapped % 2 == 0) {
      *value = -static_cast<int32_t>(mapped / 2);
    } else {
      *value = static_cast<int32_t>((mapped + 1) / 2);
    }
    return Status::OK();
  }

  void AlignToByte() { bit_pos_ = (bit_pos_ + 7) & ~size_t{7}; }
  size_t bit_pos() const { return bit_pos_; }
  bool AtEnd() const { return bit_pos_ >= size_ * 8; }

  Status SeekToBit(size_t pos) {
    if (pos > size_ * 8) return Status::OutOfRange("seek past end of bit stream");
    bit_pos_ = pos;
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;
};

/// Reference internal::ReadBlock. The run check is done in 64 bits, so a
/// hostile 32-bit run is an overrun like any other.
inline Status ReferenceReadBlock(ReferenceBitReader* br, int32_t* prev_dc,
                                 std::array<int32_t, 64>* qcoef) {
  qcoef->fill(0);
  int32_t diff = 0;
  VCD_RETURN_IF_ERROR(br->ReadSE(&diff));
  *prev_dc = static_cast<int32_t>(int64_t{*prev_dc} + diff);  // two's-complement wrap
  (*qcoef)[0] = *prev_dc;
  int64_t k = 1;
  for (;;) {
    uint32_t run = 0;
    VCD_RETURN_IF_ERROR(br->ReadUE(&run));
    if (run == 63) break;  // end of block
    k += run;
    if (k > 63) return Status::Corruption("AC run overruns block");
    int32_t level = 0;
    VCD_RETURN_IF_ERROR(br->ReadSE(&level));
    if (level == 0) return Status::Corruption("zero AC level is not a legal code");
    (*qcoef)[static_cast<size_t>(internal::kZigZag[k])] = level;
    ++k;
  }
  return Status::OK();
}

/// Reference internal::ReadBlockDcOnly: the full block read, DC kept.
inline Status ReferenceReadBlockDcOnly(ReferenceBitReader* br, int32_t* prev_dc,
                                       int32_t* dc) {
  std::array<int32_t, 64> qcoef;
  VCD_RETURN_IF_ERROR(ReferenceReadBlock(br, prev_dc, &qcoef));
  *dc = qcoef[0];
  return Status::OK();
}

/// What a partial decode of a whole stream produced.
struct DecodeRun {
  Status open;  ///< Open's status (nothing else is set on error)
  std::vector<DcFrame> frames;
  Status last;  ///< the NextKeyFrame status that ended the run
  PartialDecoderStats stats;
};

/// Reference PartialDecoder: Open, then NextKeyFrame until it returns
/// anything but OK, with the framing and resync rules of DESIGN.md §12
/// written out plainly and every block read by ReferenceReadBlockDcOnly.
inline DecodeRun ReferencePartialDecode(const std::vector<uint8_t>& data,
                                        bool resync) {
  DecodeRun run;
  StreamHeader header;
  size_t pos = 0;
  run.open = ParseStreamHeader(data.data(), data.size(), &header, &pos);
  if (!run.open.ok()) return run;
  const size_t size = data.size();
  const auto len_at = [&](size_t p) {
    return (uint32_t{data[p]} << 24) | (uint32_t{data[p + 1]} << 16) |
           (uint32_t{data[p + 2]} << 8) | uint32_t{data[p + 3]};
  };
  constexpr auto kIntra = static_cast<uint8_t>(FrameType::kIntra);
  constexpr auto kPredicted = static_cast<uint8_t>(FrameType::kPredicted);
  const auto valid_marker = [&](uint8_t b) { return b == kIntra || b == kPredicted; };
  PartialDecoderStats& st = run.stats;
  // Next plausible frame boundary at or after `from`: a marker whose length
  // lands on the stream end or on another marker. Consumes all on failure.
  const auto resync_from = [&](size_t from) {
    ++st.resync_scans;
    for (size_t p = from; p + 5 <= size; ++p) {
      if (!valid_marker(data[p])) continue;
      const size_t next = p + 5 + len_at(p + 1);
      if (next > size || (next != size && !valid_marker(data[next]))) continue;
      st.bytes_skipped += static_cast<int64_t>(p - from);
      pos = p;
      return true;
    }
    if (from < size) st.bytes_skipped += static_cast<int64_t>(size - from);
    pos = size;
    return false;
  };
  int64_t frame_index = 0;
  for (;;) {
    Status status = Status::NotFound("end of stream");
    DcFrame frame;
    while (pos < size) {
      if (pos + 5 > size) {
        ++st.corruption_events;
        if (!resync) {
          status = Status::Corruption("truncated frame header");
        } else {
          st.bytes_skipped += static_cast<int64_t>(size - pos);
          pos = size;
        }
        break;
      }
      const uint8_t marker = data[pos];
      const uint32_t len = len_at(pos + 1);
      const bool overrun = pos + 5 + len > size;
      if (!valid_marker(marker) || overrun) {
        ++st.corruption_events;
        if (!resync) {
          status = Status::Corruption(overrun ? "frame payload overruns stream"
                                              : "bad frame marker");
          break;
        }
        if (!resync_from(pos + 1)) break;
        continue;
      }
      if (marker == kPredicted) {  // skipped via its length
        pos += 5 + len;
        ++frame_index;
        ++st.p_frames_skipped;
        continue;
      }
      frame.blocks_x = internal::PadTo8(header.width) / 8;
      frame.blocks_y = internal::PadTo8(header.height) / 8;
      frame.frame_index = frame_index;
      frame.timestamp =
          header.fps > 0 ? static_cast<double>(frame_index) / header.fps : 0;
      frame.dc.assign(static_cast<size_t>(frame.blocks_x) * frame.blocks_y, 0.0f);
      ReferenceBitReader br(data.data() + pos + 5, len);
      int32_t prev_dc = 0;
      Status entropy;
      for (float& dc : frame.dc) {
        int32_t qdc = 0;
        entropy = ReferenceReadBlockDcOnly(&br, &prev_dc, &qdc);
        if (!entropy.ok()) break;
        dc = static_cast<float>(qdc) * internal::kDcQuantStep;
      }
      status = Status::OK();
      if (!entropy.ok()) {
        ++st.corruption_events;
        if (!resync) {
          status = entropy;
          break;
        }
        frame.degraded = true;
        ++st.degraded_frames;
      }
      pos += 5 + len;
      ++frame_index;
      ++st.key_frames;
      break;
    }
    if (!status.ok()) {
      run.last = status;
      return run;
    }
    run.frames.push_back(std::move(frame));
  }
}

/// The same loop over the production PartialDecoder.
inline DecodeRun ProductionPartialDecode(const std::vector<uint8_t>& data,
                                         bool resync) {
  DecodeRun run;
  PartialDecoder pd;
  run.open = pd.Open(data.data(), data.size());
  if (!run.open.ok()) return run;
  pd.set_resync_on_corruption(resync);
  for (;;) {
    DcFrame frame;
    const Status status = pd.NextKeyFrame(&frame);
    if (!status.ok()) {
      run.last = status;
      run.stats = pd.stats();
      return run;
    }
    run.frames.push_back(std::move(frame));
  }
}

}  // namespace vcd::video::testing
