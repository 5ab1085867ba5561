#pragma once

#include <array>
#include <cstdint>

#include "util/status.h"
#include "video/bitstream.h"

/// \file codec_internal.h
/// Tables and block-level entropy primitives shared by the full decoder and
/// the partial (DC-only) decoder. Not part of the public API.

namespace vcd::video::internal {

/// Zig-zag scan order mapping scan position -> row-major coefficient index.
extern const int kZigZag[64];

/// JPEG-style luma base quantization matrix (row-major).
extern const int kLumaQuant[64];

/// JPEG-style chroma base quantization matrix (row-major).
extern const int kChromaQuant[64];

/// Fixed quantization step for DC coefficients (MPEG-1 intra DC style).
inline constexpr int kDcQuantStep = 8;

/// Effective AC quantization step for coefficient \p idx at quantizer scale
/// \p qscale. Never below 1.
inline float AcStep(const int* qmat, int idx, int qscale) {
  float s = static_cast<float>(qmat[idx]) * static_cast<float>(qscale) / 16.0f;
  return s < 1.0f ? 1.0f : s;
}

/// Writes one quantized block: DPCM DC then (run, level) AC pairs with the
/// end-of-block sentinel (run == 63).
void WriteBlock(const std::array<int32_t, 64>& qcoef, int32_t* prev_dc, BitWriter* bw);

/// Reads one quantized block written by WriteBlock. Fails with Corruption
/// on a run past the block's 63 AC positions ("AC run overruns block"), a
/// zero level ("zero AC level is not a legal code") or a bit-reader error.
Status ReadBlock(BitReader* br, int32_t* prev_dc, std::array<int32_t, 64>* qcoef);

/// Reads only the DC of one block, skimming over the AC (run, level) pairs
/// without storing them — the partial-decoding fast path. Walks the same
/// bits, and fails exactly where and how, ReadBlock does (one shared body).
Status ReadBlockDcOnly(BitReader* br, int32_t* prev_dc, int32_t* dc);

/// Rounds \p v up to the next multiple of 8 (plane padding for block coding).
inline int PadTo8(int v) { return (v + 7) & ~7; }

}  // namespace vcd::video::internal
