/// \file equivalence_test.cc
/// The determinism contract of the stream executor: an identical submission
/// schedule fed through a per-stream `CopyDetector` oracle (no executor code
/// at all) and through `parallel::StreamExecutor` at every thread count —
/// the inline 0-thread mode included — must produce byte-identical
/// per-stream match sequences, an identical global arrival-order match log,
/// and identical per-stream detector stats. Feeding the executor encoded
/// key frames, which its shards decode, must give exactly what feeding the
/// decoded frames gives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/monitor.h"
#include "parallel/executor.h"
#include "util/rng.h"
#include "video/codec.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::DetectorStats;
using core::StreamMatch;
using parallel::StreamExecutor;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  return c;
}

/// A key frame whose fingerprint is a deterministic function of \p fill
/// (the spatial profile must vary with fill; Eq. 1 removes offsets).
video::DcFrame TinyFrame(int64_t slot, float fill) {
  video::DcFrame f;
  f.blocks_x = 6;
  f.blocks_y = 6;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(36);
  for (size_t i = 0; i < 36; ++i) {
    f.dc[i] = 8.0f * 60.0f * std::sin(0.7f * fill + 0.9f * static_cast<float>(i));
  }
  return f;
}

std::vector<video::DcFrame> QueryFrames() {
  std::vector<video::DcFrame> frames;
  for (int i = 0; i < 40; ++i) frames.push_back(TinyFrame(i, 100.0f + i));
  return frames;
}

sketch::Sketch RandomSketch(const DetectorConfig& c, uint64_t seed) {
  Rng rng(seed);
  std::vector<features::CellId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(static_cast<features::CellId>(rng.Uniform(2000)));
  }
  auto fam = sketch::MinHashFamily::Create(c.K, c.hash_seed).value();
  sketch::Sketcher sk(&fam);
  return sk.FromSequence(ids);
}

/// The serial oracle: one CopyDetector per stream, fed directly, with the
/// query portfolio fanned out by hand. Matches are logged in arrival order:
/// a frame's matches when it is processed, a stream's trailing matches when
/// it closes.
class DetectorOracle {
 public:
  explicit DetectorOracle(const DetectorConfig& config) : config_(config) {}

  Result<int> OpenStream(std::string name) {
    auto det = core::CopyDetector::Create(config_);
    if (!det.ok()) return det.status();
    for (const Query& q : portfolio_) {
      VCD_RETURN_IF_ERROR((*det)->AddQuerySketch(q.id, q.sketch, q.length_frames,
                                                 q.duration_seconds));
    }
    const int id = next_id_++;
    streams_[id] = Stream{std::move(name), std::move(*det), 0};
    return id;
  }

  Status AddQuerySketch(int id, const sketch::Sketch& sk, int length_frames,
                        double duration_seconds) {
    for (auto& [sid, s] : streams_) {
      VCD_RETURN_IF_ERROR(
          s.detector->AddQuerySketch(id, sk, length_frames, duration_seconds));
    }
    portfolio_.push_back(Query{id, length_frames, duration_seconds, sk});
    return Status::OK();
  }

  Status AddQuery(int id, const std::vector<video::DcFrame>& key_frames,
                  double duration_seconds) {
    auto q = core::PrepareQuery(config_, key_frames, duration_seconds);
    if (!q.ok()) return q.status();
    return AddQuerySketch(id, q->sketch, q->length_frames, q->duration_seconds);
  }

  Status RemoveQuery(int id) {
    std::erase_if(portfolio_, [id](const Query& q) { return q.id == id; });
    for (auto& [sid, s] : streams_) VCD_RETURN_IF_ERROR(s.detector->RemoveQuery(id));
    return Status::OK();
  }

  Status ProcessKeyFrame(int id, const video::DcFrame& frame) {
    Stream& s = streams_.at(id);
    VCD_RETURN_IF_ERROR(s.detector->ProcessKeyFrame(frame));
    LogNewMatches(id, &s);
    return Status::OK();
  }

  Status CloseStream(int id) {
    Stream& s = streams_.at(id);
    VCD_RETURN_IF_ERROR(s.detector->Finish());
    LogNewMatches(id, &s);
    streams_.erase(id);
    return Status::OK();
  }

  Result<DetectorStats> StreamStats(int id) const {
    return streams_.at(id).detector->stats();
  }

  const std::vector<StreamMatch>& matches() const { return log_; }

 private:
  struct Query {
    int id;
    int length_frames;
    double duration_seconds;
    sketch::Sketch sketch;  // NOLINT(vcd-pooled-hotpath): per-query, cold
  };
  struct Stream {
    std::string name;
    std::unique_ptr<core::CopyDetector> detector;
    size_t logged = 0;
  };

  void LogNewMatches(int id, Stream* s) {
    const auto& ms = s->detector->matches();
    for (; s->logged < ms.size(); ++s->logged) {
      log_.push_back(StreamMatch{id, s->name, ms[s->logged]});
    }
  }

  DetectorConfig config_;
  std::vector<Query> portfolio_;
  std::map<int, Stream> streams_;
  int next_id_ = 1;
  std::vector<StreamMatch> log_;
};

/// Byte-exact encoding of one attributed match (doubles bit-compared).
std::string MatchKey(const StreamMatch& m) {
  char buf[sizeof(int) * 2 + sizeof(int64_t) * 2 + sizeof(double) * 3];
  char* p = buf;
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  put(&m.stream_id, sizeof m.stream_id);
  put(&m.match.query_id, sizeof m.match.query_id);
  put(&m.match.start_frame, sizeof m.match.start_frame);
  put(&m.match.end_frame, sizeof m.match.end_frame);
  put(&m.match.start_time, sizeof m.match.start_time);
  put(&m.match.end_time, sizeof m.match.end_time);
  put(&m.match.similarity, sizeof m.match.similarity);
  return std::string(buf, sizeof buf) + m.stream_name;
}

/// Comparable projection of the detector counters of one stream.
struct StatsKey {
  int64_t key_frames, windows, combines, compares, ors, builds, pruned;
  int64_t sig_count;
  double sig_sum;

  bool operator==(const StatsKey&) const = default;
};

StatsKey KeyOf(const DetectorStats& s) {
  return StatsKey{s.key_frames,
                  s.windows,
                  s.sketch_combines,
                  s.sketch_compares,
                  s.bitsig_ors,
                  s.bitsig_builds,
                  s.candidates_pruned,
                  s.signatures_per_window.count(),
                  s.signatures_per_window.sum()};
}

/// Everything one run produces, for exact comparison.
struct RunLog {
  std::vector<std::string> arrival_order;                  ///< global match log
  std::map<std::string, std::vector<std::string>> per_stream;  ///< by stream name
  std::map<std::string, StatsKey> stats;                   ///< pre-close, by name
};

/// Drives one fixed schedule against either API. `Api` must provide
/// OpenStream/AddQuery/AddQuerySketch/RemoveQuery/ProcessKeyFrame/
/// CloseStream/StreamStats/matches with executor-compatible signatures;
/// `drain` is a no-op for the oracle.
template <typename Api, typename DrainFn>
RunLog RunSchedule(Api& api, DrainFn drain) {
  const DetectorConfig config = SmallConfig();
  const int kStreams = 6;
  const int kSlots = 90;

  std::vector<int> ids;
  std::vector<std::string> names;
  for (int s = 0; s < kStreams; ++s) {
    names.push_back("stream-" + std::to_string(s));
    auto id = api.OpenStream(names.back());
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_TRUE(api.AddQuery(1, QueryFrames(), 16.0).ok());

  // Even streams carry the copy, at a stream-dependent offset; odd streams
  // carry only background. Mid-schedule portfolio churn exercises the
  // command-queue propagation path.
  for (int slot = 0; slot < kSlots; ++slot) {
    if (slot == 20) {
      EXPECT_TRUE(api.AddQuerySketch(2, RandomSketch(config, 7), 30, 12.0).ok());
    }
    if (slot == 55) {
      EXPECT_TRUE(api.RemoveQuery(2).ok());
    }
    for (int s = 0; s < kStreams; ++s) {
      const int offset = 25 + 5 * s;
      float fill;
      if (s % 2 == 0 && slot >= offset && slot < offset + 40) {
        fill = 100.0f + static_cast<float>(slot - offset);  // the copy
      } else {
        fill = -80.0f + static_cast<float>((slot + 3 * s) % 7);  // background
      }
      EXPECT_TRUE(api.ProcessKeyFrame(ids[static_cast<size_t>(s)],
                                      TinyFrame(slot, fill))
                      .ok());
    }
  }

  drain();

  RunLog log;
  for (int s = 0; s < kStreams; ++s) {
    auto stats = api.StreamStats(ids[static_cast<size_t>(s)]);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) log.stats[names[static_cast<size_t>(s)]] = KeyOf(*stats);
  }
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_TRUE(api.CloseStream(ids[static_cast<size_t>(s)]).ok());
  }
  for (const StreamMatch& m : api.matches()) {
    log.arrival_order.push_back(MatchKey(m));
    log.per_stream[m.stream_name].push_back(MatchKey(m));
  }
  return log;
}

RunLog SerialRunWith(const DetectorConfig& config) {
  DetectorOracle oracle(config);
  return RunSchedule(oracle, [] {});
}

RunLog SerialRun() { return SerialRunWith(SmallConfig()); }

RunLog ParallelRun(int threads) {
  core::ParallelConfig pc;
  pc.num_threads = threads;
  pc.queue_capacity = 32;
  pc.backpressure = core::BackpressurePolicy::kBlock;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  return RunSchedule(*exec, [&] { EXPECT_TRUE(exec->Drain().ok()); });
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, ParallelMatchesSerialByteExactly) {
  const RunLog serial = SerialRun();
  // The schedule must actually produce matches, or the test is vacuous.
  ASSERT_FALSE(serial.arrival_order.empty());
  ASSERT_GE(serial.per_stream.size(), 3u);

  const RunLog par = ParallelRun(GetParam());
  EXPECT_EQ(par.per_stream, serial.per_stream)
      << "per-stream match sequences differ at " << GetParam() << " threads";
  EXPECT_EQ(par.arrival_order, serial.arrival_order)
      << "global arrival order differs at " << GetParam() << " threads";
  EXPECT_EQ(par.stats.size(), serial.stats.size());
  for (const auto& [name, key] : serial.stats) {
    ASSERT_TRUE(par.stats.count(name)) << name;
    EXPECT_TRUE(par.stats.at(name) == key) << "detector stats differ on " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EquivalenceTest,
                         ::testing::Values(0, 1, 2, 4, 8));

/// The pooled hot path must be byte-equivalent to the scalar reference under
/// the full multi-stream schedule (including mid-schedule portfolio churn),
/// for both representations and both combination orders.
TEST(EquivalenceTest, PooledMatchesScalarUnderFullSchedule) {
  for (core::Representation rep :
       {core::Representation::kBit, core::Representation::kSketch}) {
    for (core::CombinationOrder order : {core::CombinationOrder::kSequential,
                                         core::CombinationOrder::kGeometric}) {
      DetectorConfig config = SmallConfig();
      config.representation = rep;
      config.order = order;
      config.validate_state = true;
      config.use_pooled_kernels = false;
      const RunLog scalar = SerialRunWith(config);
      config.use_pooled_kernels = true;
      const RunLog pooled = SerialRunWith(config);
      EXPECT_EQ(pooled.arrival_order, scalar.arrival_order);
      EXPECT_EQ(pooled.per_stream, scalar.per_stream);
      ASSERT_EQ(pooled.stats.size(), scalar.stats.size());
      for (const auto& [name, key] : scalar.stats) {
        ASSERT_TRUE(pooled.stats.count(name)) << name;
        EXPECT_TRUE(pooled.stats.at(name) == key)
            << "detector stats differ on " << name;
      }
    }
  }
}

/// Determinism across repeated parallel runs at the same thread count — the
/// merge must not leak scheduling nondeterminism into the result.
TEST(EquivalenceTest, ParallelRunsAreReproducible) {
  const RunLog a = ParallelRun(4);
  const RunLog b = ParallelRun(4);
  EXPECT_EQ(a.arrival_order, b.arrival_order);
  EXPECT_EQ(a.per_stream, b.per_stream);
}

/// Encoded VCDS streams for the decode-path equivalence: a clip whose
/// opening is the query, an unrelated clip, and damaged copies of both
/// (zeroed key-frame payloads, bit flips, a torn frame marker) that a
/// resync-mode decoder turns into degraded frames and resyncs.
struct EncodedCorpus {
  std::vector<std::vector<uint8_t>> files;
  std::vector<video::DcFrame> query;
};

std::vector<uint8_t> EncodeScene(uint64_t seed, double seconds) {
  const video::SceneModel model = video::SceneModel::Generate(seed, seconds + 1.0);
  video::RenderOptions ro;
  ro.width = 96;
  ro.height = 64;
  ro.fps = 10.0;
  auto clip = video::RenderVideo(model, 0.0, seconds, ro);
  EXPECT_TRUE(clip.ok());
  video::CodecParams p;
  p.width = ro.width;
  p.height = ro.height;
  p.fps = ro.fps;
  p.gop_size = 3;
  p.motion_search_range = 2;
  auto bytes = video::Encoder::EncodeVideo(*clip, p);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? std::move(bytes).value() : std::vector<uint8_t>{};
}

/// Damages \p data in place, leaving the stream header (the first 64
/// bytes) alone: zeroes and bit-flips spans inside it and tears one byte
/// that may be a frame marker.
void Damage(std::vector<uint8_t>* data, uint64_t seed) {
  Rng rng(seed);
  const auto at = [&] { return 64 + rng.Uniform(static_cast<uint32_t>(data->size() - 128)); };
  for (int i = 0; i < 3; ++i) {
    const size_t from = at();
    for (size_t b = from; b < from + 40 && b < data->size(); ++b) (*data)[b] = 0;
  }
  for (int i = 0; i < 6; ++i) (*data)[at()] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
  (*data)[at()] = 0x5A;
}

const EncodedCorpus& Corpus() {
  static const EncodedCorpus corpus = [] {
    EncodedCorpus c;
    c.files.push_back(EncodeScene(21, 24.0));
    c.files.push_back(EncodeScene(22, 24.0));
    for (int i = 0; i < 2; ++i) {
      std::vector<uint8_t> damaged = c.files[static_cast<size_t>(i)];
      Damage(&damaged, 100 + static_cast<uint64_t>(i));
      c.files.push_back(std::move(damaged));
    }
    auto key_frames = video::PartialDecoder::ExtractAll(EncodeScene(21, 12.0));
    EXPECT_TRUE(key_frames.ok());
    if (key_frames.ok()) c.query = std::move(key_frames).value();
    return c;
  }();
  return corpus;
}

/// One run over the corpus, every file fed round-robin through a
/// resync-mode PartialDecoder: as decoded DcFrames, or (\p encoded) as
/// EncodedKeyFrames the shards decode. A second query joins and leaves
/// mid-run. \p degraded receives the shards' degraded-frame count.
RunLog CorpusRun(int threads, int queue_capacity, bool encoded,
                 int64_t* degraded) {
  const EncodedCorpus& corpus = Corpus();
  core::ParallelConfig pc;
  pc.num_threads = threads;
  pc.queue_capacity = queue_capacity;
  pc.backpressure = core::BackpressurePolicy::kBlock;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  EXPECT_TRUE(exec->AddQuery(1, corpus.query, -1.0).ok());
  std::vector<int> ids;
  std::vector<std::string> names;
  std::vector<video::PartialDecoder> decoders(corpus.files.size());
  for (size_t i = 0; i < corpus.files.size(); ++i) {
    names.push_back("file-" + std::to_string(i));
    ids.push_back(exec->OpenStream(names.back()).value());
    decoders[i].set_resync_on_corruption(true);
    EXPECT_TRUE(decoders[i].Open(corpus.files[i].data(), corpus.files[i].size()).ok());
  }
  std::vector<bool> done(decoders.size(), false);
  for (int round = 0;; ++round) {
    if (round == 20) {
      EXPECT_TRUE(exec->AddQuerySketch(2, RandomSketch(SmallConfig(), 7), 30, 12.0).ok());
    }
    if (round == 50) {
      EXPECT_TRUE(exec->RemoveQuery(2).ok());
    }
    bool any = false;
    for (size_t i = 0; i < decoders.size(); ++i) {
      if (done[i]) continue;
      Status st;
      if (encoded) {
        video::EncodedKeyFrame f;
        st = decoders[i].NextEncodedKeyFrame(&f);
        if (st.ok()) {
          EXPECT_TRUE(exec->ProcessKeyFrame(ids[i], f).ok());
        }
      } else {
        video::DcFrame f;
        st = decoders[i].NextKeyFrame(&f);
        if (st.ok()) {
          EXPECT_TRUE(exec->ProcessKeyFrame(ids[i], std::move(f)).ok());
        }
      }
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
        done[i] = true;
        continue;
      }
      any = true;
    }
    if (!any) break;
  }
  EXPECT_TRUE(exec->Drain().ok());
  RunLog log;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto stats = exec->StreamStats(ids[i]);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) log.stats[names[i]] = KeyOf(*stats);
  }
  *degraded = 0;
  for (const auto& sh : exec->Stats().shards) *degraded += sh.frames_degraded;
  for (int id : ids) EXPECT_TRUE(exec->CloseStream(id).ok());
  for (const StreamMatch& m : exec->matches()) {
    log.arrival_order.push_back(MatchKey(m));
    log.per_stream[m.stream_name].push_back(MatchKey(m));
  }
  return log;
}

class EncodedEquivalenceTest : public ::testing::TestWithParam<int> {};

/// Decoding on the shards — by the worker, or by the producer when the
/// queue is full (queue capacity 1) — must not change a single match,
/// stat or degraded frame relative to feeding the same frames decoded.
TEST_P(EncodedEquivalenceTest, EncodedFeedMatchesDecodedFeed) {
  int64_t ref_degraded = 0;
  const RunLog ref = CorpusRun(0, 32, /*encoded=*/false, &ref_degraded);
  // Non-vacuous: the query is found, and damaged frames travel the paths.
  ASSERT_GE(ref.per_stream.count("file-0"), 1u);
  ASSERT_GT(ref_degraded, 0);
  for (const int queue_capacity : {32, 1}) {
    for (const bool encoded : {false, true}) {
      int64_t degraded = 0;
      const RunLog run = CorpusRun(GetParam(), queue_capacity, encoded, &degraded);
      const std::string where = std::to_string(GetParam()) + " threads, queue " +
                                std::to_string(queue_capacity) +
                                (encoded ? ", encoded" : ", decoded");
      EXPECT_EQ(run.per_stream, ref.per_stream) << where;
      EXPECT_EQ(run.arrival_order, ref.arrival_order) << where;
      EXPECT_TRUE(run.stats == ref.stats) << where;
      EXPECT_EQ(degraded, ref_degraded) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EncodedEquivalenceTest,
                         ::testing::Values(0, 1, 2, 4, 8));

}  // namespace
}  // namespace vcd
