#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/monitor.h"
#include "core/query_store.h"
#include "score.h"
#include "util/rng.h"
#include "video/codec.h"
#include "video/edit.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace pb {

using vcd::Result;
using vcd::Rng;
using vcd::Status;
namespace video = vcd::video;
namespace core = vcd::core;

namespace {

using Bytes = std::vector<uint8_t>;

/// The paper's NTSC stream format, and the encoder's quantizer.
constexpr double kFps = 29.97;
constexpr int kGop = 12;
constexpr int kQuantizer = 4;
/// Query sketch size.
constexpr int kK = 800;
/// Length of a planted query, and the range of filler query lengths.
constexpr double kQuerySeconds = 30.0;
constexpr double kFillerMinSeconds = 20.0;
constexpr double kFillerMaxSeconds = 40.0;
/// Base films the stream filler is cut from, and their length.
constexpr int kBaseFilms = 4;
constexpr double kBaseFilmSeconds = 60.0;
/// Stream filler is spliced in runs of this many seconds (one "shot").
constexpr double kMinRunSeconds = 4.0;
constexpr double kMaxRunSeconds = 12.0;

/// Distinct stream of seeds per purpose, independent of generation order.
uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  vcd::SplitMix64 sm(seed * 0x100000001b3ULL ^ (purpose << 32) ^ index);
  return sm.Next();
}

/// Runs fn(i) for i in [0, n) on up to \p threads threads. Each index writes
/// only its own output slot, so results do not depend on scheduling.
template <typename Fn>
void ParallelFor(int n, int threads, Fn fn) {
  std::vector<std::thread> pool;
  const int t = std::max(1, std::min(threads, n));
  for (int w = 0; w < t; ++w) {
    pool.emplace_back([&, w] {
      for (int i = w; i < n; i += t) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

video::CodecParams Codec(const GenParams& p) {
  video::CodecParams c;
  c.width = p.width;
  c.height = p.height;
  c.fps = kFps;
  c.gop_size = kGop;
  c.quantizer = kQuantizer;
  // Predicted frames repeat their intra frame, so motion search finds
  // nothing; skipping it keeps generation cheap.
  c.motion_search_range = 0;
  return c;
}

/// Renders one frame per GOP of \p model over [t0, t0 + gops GOPs).
Result<video::VideoBuffer> RenderKeyImages(const video::SceneModel& model, double t0,
                                           int gops, const GenParams& p) {
  video::RenderOptions ro;
  ro.width = p.width;
  ro.height = p.height;
  ro.fps = kFps / kGop;
  return video::RenderVideo(model, t0, (gops + 0.5) / ro.fps, ro);
}

/// Encodes every image as one GOP (the image held for gop frames) and
/// returns the frame records of each GOP, stream header stripped. Only the
/// intra frame and two predicted frames are encoded: the second predicted
/// frame codes no change, so its record stands for the rest of the GOP.
Result<std::vector<Bytes>> EncodeStaticGops(const video::VideoBuffer& images,
                                            const GenParams& p) {
  std::vector<Bytes> gops;
  const int encoded = std::min(kGop, 3);
  for (const video::Frame& f : images.frames) {
    video::Encoder enc;
    VCD_RETURN_IF_ERROR(enc.Init(Codec(p)));
    for (int i = 0; i < encoded; ++i) VCD_RETURN_IF_ERROR(enc.AddFrame(f));
    const Bytes all = enc.Finish();
    Bytes gop(all.begin() + video::StreamHeaderSize(), all.end());
    size_t last = video::StreamHeaderSize();  // start of the last record
    for (size_t pos = last; pos + 5 <= all.size();) {
      last = pos;
      pos += 5 + ((size_t{all[pos + 1]} << 24) | (size_t{all[pos + 2]} << 16) |
                  (size_t{all[pos + 3]} << 8) | all[pos + 4]);
    }
    for (int i = encoded; i < kGop; ++i) gop.insert(gop.end(), all.begin() + last, all.end());
    gops.push_back(std::move(gop));
  }
  return gops;
}

Bytes HeaderBytes(const GenParams& p) {
  video::Encoder enc;
  (void)enc.Init(Codec(p));  // Generate validated Codec(p) up front
  return enc.Finish();
}

Status WriteBytes(const Bytes& b, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const size_t n = std::fwrite(b.data(), 1, b.size(), f);
  const bool ok = std::fclose(f) == 0 && n == b.size();
  return ok ? Status::OK() : Status::Internal("short write to " + path);
}

/// A VS2 copy: pixel edits drawn from \p rng, in the spirit of the paper's
/// brightness/colour, noise, resolution and segment-order attacks.
Result<video::VideoBuffer> EditCopy(const video::VideoBuffer& in, Rng& rng,
                                    const GenParams& p) {
  const int sign = rng.UniformInt(0, 1) == 0 ? -1 : 1;
  video::VideoBuffer v = video::AdjustBrightness(
      in, sign * static_cast<int>(rng.UniformInt(4, 12)));
  v = video::AdjustContrast(v, rng.UniformDouble(0.95, 1.05));
  v = video::AdjustColor(v, static_cast<int>(rng.UniformInt(-6, 6)),
                         static_cast<int>(rng.UniformInt(-6, 6)));
  v = video::AddGaussianNoise(v, rng.UniformDouble(1.0, 3.0), rng.Next());
  if (rng.UniformInt(0, 1) == 1) {
    // Resolution change: down to 3/4 and back.
    auto small = video::Resize(v, (p.width * 3 / 4) & ~1, (p.height * 3 / 4) & ~1);
    if (!small.ok()) return small.status();
    auto back = video::Resize(*small, p.width, p.height);
    if (!back.ok()) return back.status();
    v = std::move(*back);
  }
  if (rng.UniformInt(0, 1) == 1) {
    // Temporal reorder of ~6-10 s segments (v holds one image per GOP).
    v = video::ReorderSegments(v, rng.UniformDouble(6.0, 10.0), rng.Next());
  }
  return v;
}

struct Planted {
  core::StoredQuery query;
  std::vector<Bytes> copy_gops;  ///< what is spliced into the stream
  bool vs1 = true;
};

}  // namespace

std::string GenParams::ToString() const {
  std::ostringstream o;
  o.precision(17);
  o << "seed=" << seed << " width=" << width << " height=" << height
    << " streams=" << streams << " stream_seconds=" << stream_seconds
    << " planted_per_stream=" << planted_per_stream << " vs1_share=" << vs1_share
    << " filler_queries=" << filler_queries;
  return o.str();
}

Result<Truth> Generate(const GenParams& p, const std::string& out_dir) {
  VCD_RETURN_IF_ERROR(Codec(p).Validate());
  if (p.streams < 1 || p.planted_per_stream < 0 || p.filler_queries < 0 ||
      p.vs1_share < 0 || p.vs1_share > 1) {
    return Status::InvalidArgument("bad generator parameters: " + p.ToString());
  }
  core::DetectorConfig config;
  config.K = kK;
  VCD_RETURN_IF_ERROR(config.Validate());
  const double gop_seconds = kGop / kFps;
  const int query_gops = static_cast<int>(std::lround(kQuerySeconds / gop_seconds));
  const int stream_gops = static_cast<int>(std::lround(p.stream_seconds / gop_seconds));
  const int num_planted = p.streams * p.planted_per_stream;
  const int num_vs1 = static_cast<int>(std::lround(num_planted * p.vs1_share));
  const int min_run = static_cast<int>(std::ceil(kMinRunSeconds / gop_seconds));
  const int max_run = static_cast<int>(std::ceil(kMaxRunSeconds / gop_seconds));
  if (stream_gops < p.planted_per_stream * (query_gops + min_run) + min_run) {
    return Status::InvalidArgument("streams too short for their planted copies");
  }

  std::error_code fs_err;
  for (const char* sub : {"/streams", "/setup"}) {
    std::filesystem::create_directories(out_dir + sub, fs_err);
    if (fs_err) return Status::Internal("cannot create " + out_dir + sub);
  }

  // 1. GOP library of the base films (shared visual vocabulary).
  std::vector<std::vector<Bytes>> library(kBaseFilms);
  std::vector<Status> errs(std::max(kBaseFilms, num_planted));
  const int film_gops = static_cast<int>(kBaseFilmSeconds / gop_seconds);
  ParallelFor(kBaseFilms, p.threads, [&](int i) {
    const auto model =
        video::SceneModel::Generate(SubSeed(p.seed, 1, i), kBaseFilmSeconds + 1.0);
    auto images = RenderKeyImages(model, 0.0, film_gops, p);
    if (!images.ok()) { errs[i] = images.status(); return; }
    auto gops = EncodeStaticGops(*images, p);
    if (!gops.ok()) { errs[i] = gops.status(); return; }
    library[i] = std::move(*gops);
  });
  for (const Status& st : errs) VCD_RETURN_IF_ERROR(st);

  // 2. Planted queries, each sketched from its own encode, plus the copy
  //    that goes into a stream (the same bytes for VS1, an edit for VS2).
  std::vector<Planted> planted(num_planted);
  ParallelFor(num_planted, p.threads, [&](int i) {
    Rng rng(SubSeed(p.seed, 2, i));
    video::SceneStyle style;
    style.distinct_content = true;
    const auto model =
        video::SceneModel::Generate(rng.Next(), kQuerySeconds + 2.0, style);
    auto images = RenderKeyImages(model, 0.0, query_gops, p);
    if (!images.ok()) { errs[i] = images.status(); return; }
    auto gops = EncodeStaticGops(*images, p);
    if (!gops.ok()) { errs[i] = gops.status(); return; }
    Bytes encoded = HeaderBytes(p);
    for (const Bytes& g : *gops) encoded.insert(encoded.end(), g.begin(), g.end());
    auto frames = video::PartialDecoder::ExtractAll(encoded);
    if (!frames.ok()) { errs[i] = frames.status(); return; }
    auto prepared = core::PrepareQuery(config, *frames, -1.0);
    if (!prepared.ok()) { errs[i] = prepared.status(); return; }
    Planted& out = planted[i];
    out.query = core::StoredQuery{i + 1, prepared->length_frames,
                                  prepared->duration_seconds,
                                  std::move(prepared->sketch)};
    out.vs1 = i < num_vs1;
    if (out.vs1) {
      out.copy_gops = std::move(*gops);
      return;
    }
    auto edited = EditCopy(*images, rng, p);
    if (!edited.ok()) { errs[i] = edited.status(); return; }
    auto copy = EncodeStaticGops(*edited, p);
    if (!copy.ok()) { errs[i] = copy.status(); return; }
    out.copy_gops = std::move(*copy);
  });
  for (const Status& st : errs) VCD_RETURN_IF_ERROR(st);

  // 3. Filler queries: DC fast path, each from its own film (never in a
  //    stream), so no two queries share more than the visual vocabulary.
  std::vector<core::StoredQuery> fillers(p.filler_queries);
  std::vector<Status> ferrs(p.filler_queries);
  ParallelFor(p.filler_queries, p.threads, [&](int i) {
    Rng rng(SubSeed(p.seed, 3, i));
    const double seconds = rng.UniformDouble(kFillerMinSeconds, kFillerMaxSeconds);
    const auto model = video::SceneModel::Generate(rng.Next(), seconds + 1.0);
    video::RenderOptions ro;
    ro.width = p.width;
    ro.height = p.height;
    ro.fps = kFps;
    auto frames = video::RenderDcFrames(model, 0.0, seconds, ro, kGop);
    if (!frames.ok()) { ferrs[i] = frames.status(); return; }
    auto prepared = core::PrepareQuery(config, *frames, -1.0);
    if (!prepared.ok()) { ferrs[i] = prepared.status(); return; }
    fillers[i] = core::StoredQuery{num_planted + i + 1, prepared->length_frames,
                                   prepared->duration_seconds,
                                   std::move(prepared->sketch)};
  });
  for (const Status& st : ferrs) VCD_RETURN_IF_ERROR(st);

  // 4. Streams: filler runs from the library with the planted copies in
  //    between, at random GOP-aligned gaps.
  Rng srng(SubSeed(p.seed, 5, 0));
  std::vector<int> order(num_planted);
  for (int i = 0; i < num_planted; ++i) order[i] = i;
  for (int i = num_planted - 1; i > 0; --i) std::swap(order[i], order[srng.Uniform(i + 1)]);
  const Bytes header = HeaderBytes(p);
  Truth truth;
  truth.fps = kFps;
  for (int s = 0; s < p.streams; ++s) {
    StreamTruth st;
    st.name = "s" + std::to_string(s + 1) + ".vcds";
    // Split the filler GOPs into planted_per_stream + 1 gaps of >= min_run.
    const int filler_gops = stream_gops - p.planted_per_stream * query_gops;
    const int gaps = p.planted_per_stream + 1;
    std::vector<int> gap(gaps, min_run);
    for (int left = filler_gops - gaps * min_run; left > 0; --left) {
      ++gap[srng.Uniform(gaps)];
    }
    Bytes out = header;
    int64_t gop_index = 0;
    size_t first_gop_bytes = 0;
    const auto append_filler = [&](int n) {
      while (n > 0) {
        const auto& film = library[srng.Uniform(kBaseFilms)];
        const int run = std::min<int>(n, static_cast<int>(srng.UniformInt(min_run, max_run)));
        const size_t off = srng.Uniform(film.size() - run + 1);
        if (gop_index == 0) first_gop_bytes = film[off].size();
        for (int g = 0; g < run; ++g) {
          out.insert(out.end(), film[off + g].begin(), film[off + g].end());
        }
        gop_index += run;
        n -= run;
      }
    };
    for (int c = 0; c < p.planted_per_stream; ++c) {
      append_filler(gap[c]);
      const Planted& pl = planted[order[s * p.planted_per_stream + c]];
      vcd::core::GroundTruthEntry g;
      g.query_id = pl.query.id;
      g.begin_frame = gop_index * kGop;
      for (const Bytes& b : pl.copy_gops) out.insert(out.end(), b.begin(), b.end());
      gop_index += static_cast<int64_t>(pl.copy_gops.size());
      g.end_frame = gop_index * kGop - 1;
      st.copies.push_back(g);
      st.kinds.push_back(pl.vs1 ? "vs1" : "vs2");
    }
    append_filler(gap[gaps - 1]);
    st.frames = gop_index * kGop;
    st.key_frames = gop_index;
    VCD_RETURN_IF_ERROR(WriteBytes(out, out_dir + "/streams/" + st.name));
    // The set-up copy: header and first GOP. Its one key frame makes the
    // detector build its query index, and no basic window completes.
    Bytes setup = header;
    setup.insert(setup.end(), out.begin() + header.size(),
                 out.begin() + header.size() + first_gop_bytes);
    VCD_RETURN_IF_ERROR(WriteBytes(setup, out_dir + "/setup/" + st.name));
    truth.streams.push_back(std::move(st));
  }

  // 5. Portfolio and truth.
  core::QueryDb db;
  db.k = config.K;
  db.hash_seed = config.hash_seed;
  for (Planted& pl : planted) db.queries.push_back(std::move(pl.query));
  for (core::StoredQuery& q : fillers) db.queries.push_back(std::move(q));
  VCD_RETURN_IF_ERROR(core::SaveQueriesFile(db, out_dir + "/queries.vcdq"));
  VCD_RETURN_IF_ERROR(WriteTruth(truth, out_dir + "/truth.txt"));
  return truth;
}

}  // namespace pb
