#include "video/codec_internal.h"

namespace vcd::video::internal {

const int kZigZag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

const int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

const int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

namespace {
/// End-of-block sentinel; legal zero-runs within a block are at most 62.
constexpr uint32_t kEob = 63;
}  // namespace

void WriteBlock(const std::array<int32_t, 64>& qcoef, int32_t* prev_dc, BitWriter* bw) {
  bw->WriteSE(qcoef[0] - *prev_dc);
  *prev_dc = qcoef[0];
  uint32_t run = 0;
  for (int k = 1; k < 64; ++k) {
    int32_t level = qcoef[kZigZag[k]];
    if (level == 0) {
      ++run;
    } else {
      bw->WriteUE(run);
      bw->WriteSE(level);
      run = 0;
    }
  }
  bw->WriteUE(kEob);
}

namespace {

/// One block's entropy walk, shared by ReadBlock (\p coef = the block) and
/// ReadBlockDcOnly (\p coef = nullptr, the AC pairs are skimmed) so the two
/// readers cannot diverge. Each (run, level) pair is decoded from one
/// BitReader window without building a Status; a code the window cannot
/// decode is re-read through the reader's Status path, which then gives the
/// value or the exact error. The zig-zag map is applied inline.
Status WalkBlock(BitReader* br, int32_t* prev_dc, int32_t* dc, int32_t* coef) {
  int32_t diff = 0;
  if (!br->TryReadSE(&diff)) VCD_RETURN_IF_ERROR(br->ReadSE(&diff));
  // Wrapping add: a hostile stream's DPCM sum may leave the int32 range.
  *prev_dc = static_cast<int32_t>(static_cast<uint32_t>(*prev_dc) +
                                  static_cast<uint32_t>(diff));
  *dc = *prev_dc;
  for (int k = 1;;) {
    const uint64_t window = br->Peek64();
    const int avail = br->FastBits();
    uint32_t run = 0;
    const int run_len = BitReader::DecodeUE(window, avail, &run);
    if (run_len == 0) VCD_RETURN_IF_ERROR(br->ReadUE(&run));
    br->Skip(run_len);
    if (run == kEob) return Status::OK();
    // `run > 62` first: k + run must not wrap for a hostile 32-bit run.
    if (run > 62 || k + static_cast<int>(run) > 63) {
      return Status::Corruption("AC run overruns block");
    }
    k += static_cast<int>(run);
    uint32_t mapped = 0;
    const int level_len =
        run_len == 0 ? 0 : BitReader::DecodeUE(window << run_len, avail - run_len, &mapped);
    if (level_len == 0) VCD_RETURN_IF_ERROR(br->ReadUE(&mapped));
    br->Skip(level_len);
    const int32_t level = BitReader::ZigZagDecode(mapped);
    if (level == 0) return Status::Corruption("zero AC level is not a legal code");
    if (coef != nullptr) coef[kZigZag[k]] = level;
    ++k;
  }
}

}  // namespace

Status ReadBlock(BitReader* br, int32_t* prev_dc, std::array<int32_t, 64>* qcoef) {
  qcoef->fill(0);
  return WalkBlock(br, prev_dc, qcoef->data(), qcoef->data());
}

Status ReadBlockDcOnly(BitReader* br, int32_t* prev_dc, int32_t* dc) {
  return WalkBlock(br, prev_dc, dc, nullptr);
}

}  // namespace vcd::video::internal
