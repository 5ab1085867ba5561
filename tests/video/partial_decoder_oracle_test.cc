// Seeded mutation test of the partial decoder against the reference decoder
// built on the bit-serial reader (reference_bit_reader.h): bit flips,
// truncations and zeroed or garbage spans of encoded 352x240 and 176x120
// streams, decoded in strict and in resync mode, must give identical DC
// frames, the same ending status and identical PartialDecoderStats; the
// full Decoder's entropy reads of the same inputs must agree with the
// reference readers read for read. Also the seed of the VCDS fuzzing suite: no mutated input may crash either
// decoder (ASan/UBSan legs run this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "reference_bit_reader.h"
#include "util/logging.h"
#include "util/rng.h"
#include "video/codec.h"
#include "video/codec_internal.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace vcd::video {
namespace {

using testing::DecodeRun;

std::vector<uint8_t> EncodeClip(int width, int height, int frames, int gop) {
  const SceneModel model = SceneModel::Generate(33, 10.0);
  RenderOptions ro;
  ro.width = width;
  ro.height = height;
  ro.noise_sigma = 2.0;
  auto clip = RenderVideo(model, 1.0, frames / ro.fps, ro);
  VCD_CHECK(clip.ok(), "render failed");
  CodecParams p;
  p.width = width;
  p.height = height;
  p.fps = ro.fps;
  p.gop_size = gop;
  p.motion_search_range = 2;
  auto bytes = Encoder::EncodeVideo(*clip, p);
  VCD_CHECK(bytes.ok(), "encode failed");
  return std::move(bytes).value();
}

void ExpectSameRun(const DecodeRun& got, const DecodeRun& want, const std::string& where) {
  ASSERT_EQ(got.open.code(), want.open.code()) << where;
  ASSERT_EQ(got.open.message(), want.open.message()) << where;
  ASSERT_EQ(got.last.code(), want.last.code()) << where;
  ASSERT_EQ(got.last.message(), want.last.message()) << where;
  ASSERT_EQ(got.frames.size(), want.frames.size()) << where;
  for (size_t i = 0; i < got.frames.size(); ++i) {
    const DcFrame& g = got.frames[i];
    const DcFrame& w = want.frames[i];
    ASSERT_EQ(g.frame_index, w.frame_index) << where << " frame " << i;
    ASSERT_EQ(g.timestamp, w.timestamp) << where << " frame " << i;
    ASSERT_EQ(g.blocks_x, w.blocks_x) << where << " frame " << i;
    ASSERT_EQ(g.blocks_y, w.blocks_y) << where << " frame " << i;
    ASSERT_EQ(g.degraded, w.degraded) << where << " frame " << i;
    ASSERT_EQ(g.dc, w.dc) << where << " frame " << i;
  }
  const PartialDecoderStats& g = got.stats;
  const PartialDecoderStats& w = want.stats;
  EXPECT_EQ(g.key_frames, w.key_frames) << where;
  EXPECT_EQ(g.p_frames_skipped, w.p_frames_skipped) << where;
  EXPECT_EQ(g.corruption_events, w.corruption_events) << where;
  EXPECT_EQ(g.resync_scans, w.resync_scans) << where;
  EXPECT_EQ(g.bytes_skipped, w.bytes_skipped) << where;
  EXPECT_EQ(g.degraded_frames, w.degraded_frames) << where;
}

/// The full Decoder's entropy reads of \p data, made with the production and
/// the reference readers side by side: per frame, the P-frame motion
/// vectors (ReadSE) and then every block of Y, Cb and Cr (ReadBlock), in
/// Decoder::NextFrame's order, up to the first failure (where the Decoder
/// stops). Equal reads mean equal Decoder output and status. Sets
/// \p to_end when every frame was read without a failure.
void ExpectSameFullDecoderReads(const std::vector<uint8_t>& data, const std::string& where,
                                bool* to_end) {
  *to_end = false;
  StreamHeader h;
  size_t pos = 0;
  if (!ParseStreamHeader(data.data(), data.size(), &h, &pos).ok()) return;
  const int mbs = ((h.width + 15) / 16) * ((h.height + 15) / 16);
  const int planes[3][2] = {{h.width, h.height}, {h.width / 2, h.height / 2},
                            {h.width / 2, h.height / 2}};
  while (pos + 5 <= data.size()) {
    const uint8_t marker = data[pos];
    const size_t len = (size_t{data[pos + 1]} << 24) | (size_t{data[pos + 2]} << 16) |
                       (size_t{data[pos + 3]} << 8) | size_t{data[pos + 4]};
    if (pos + 5 + len > data.size()) return;
    const uint8_t* payload = data.data() + pos + 5;
    BitReader fast(payload, len);
    testing::ReferenceBitReader ref(payload, len);
    if (marker == static_cast<uint8_t>(FrameType::kPredicted)) {
      for (int i = 0; i < 2 * mbs; ++i) {
        int32_t a = 0, b = 0;
        const Status f = fast.ReadSE(&a);
        const Status r = ref.ReadSE(&b);
        ASSERT_EQ(f.message(), r.message()) << where << " mv " << i;
        ASSERT_EQ(a, b) << where << " mv " << i;
        if (!f.ok()) return;
      }
    } else if (marker != static_cast<uint8_t>(FrameType::kIntra)) {
      return;
    }
    for (const auto& plane : planes) {
      int32_t fprev = 0, rprev = 0;
      const int blocks = (internal::PadTo8(plane[0]) / 8) * (internal::PadTo8(plane[1]) / 8);
      for (int b = 0; b < blocks; ++b) {
        std::array<int32_t, 64> fq{}, rq{};
        const Status f = internal::ReadBlock(&fast, &fprev, &fq);
        const Status r = testing::ReferenceReadBlock(&ref, &rprev, &rq);
        ASSERT_EQ(f.code(), r.code()) << where << " block " << b;
        ASSERT_EQ(f.message(), r.message()) << where << " block " << b;
        ASSERT_EQ(fast.bit_pos(), ref.bit_pos()) << where << " block " << b;
        if (!f.ok()) return;
        ASSERT_EQ(fq, rq) << where << " block " << b;
      }
    }
    pos += 5 + len;
  }
  *to_end = pos == data.size();
}

/// One seeded mutation: a few bit flips, plus (by turn) a zeroed span, a
/// garbage span or a truncation. The 19-byte stream header is hit too.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& clean, Rng* rng, int turn) {
  std::vector<uint8_t> bad = clean;
  const int flips = static_cast<int>(rng->Uniform(6));
  for (int i = 0; i < flips; ++i) {
    bad[rng->Uniform(bad.size())] ^= static_cast<uint8_t>(1u << rng->Uniform(8));
  }
  const size_t at = rng->Uniform(bad.size());
  const size_t span = std::min<size_t>(bad.size() - at, 1 + rng->Uniform(96));
  switch (turn % 4) {
    case 0:
      std::fill_n(bad.begin() + static_cast<ptrdiff_t>(at), span, uint8_t{0});
      break;
    case 1:
      for (size_t i = 0; i < span; ++i) bad[at + i] = static_cast<uint8_t>(rng->Next());
      break;
    case 2:
      bad.resize(at);
      break;
    default:
      break;  // flips only
  }
  return bad;
}

void RunMutations(const std::vector<uint8_t>& clean, uint64_t seed, int rounds) {
  for (bool resync : {false, true}) {
    ExpectSameRun(testing::ProductionPartialDecode(clean, resync),
                  testing::ReferencePartialDecode(clean, resync), "clean");
  }
  bool to_end = false;
  ExpectSameFullDecoderReads(clean, "full decoder, clean", &to_end);
  ASSERT_TRUE(to_end);
  // The clean stream decodes without a corruption event.
  const DecodeRun ok = testing::ProductionPartialDecode(clean, false);
  ASSERT_EQ(ok.last.code(), StatusCode::kNotFound);
  ASSERT_EQ(ok.stats.corruption_events, 0);
  ASSERT_GT(ok.stats.key_frames, 1);
  Rng rng(seed);
  for (int turn = 0; turn < rounds; ++turn) {
    const std::vector<uint8_t> bad = Mutate(clean, &rng, turn);
    for (bool resync : {false, true}) {
      ExpectSameRun(testing::ProductionPartialDecode(bad, resync),
                    testing::ReferencePartialDecode(bad, resync),
                    "seed " + std::to_string(seed) + " turn " + std::to_string(turn) +
                        (resync ? " resync" : " strict"));
      if (::testing::Test::HasFatalFailure()) return;
    }
    bool to_end = false;
    ExpectSameFullDecoderReads(bad, "full decoder, turn " + std::to_string(turn), &to_end);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PartialDecoderOracleTest, MutatedNtscStreams) {
  RunMutations(EncodeClip(352, 240, 6, 3), 352, 150);
}

TEST(PartialDecoderOracleTest, MutatedQuarterSizeStreams) {
  RunMutations(EncodeClip(176, 120, 12, 4), 176, 300);
}

}  // namespace
}  // namespace vcd::video
