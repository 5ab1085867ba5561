// Self-tests of the benchmark's generator, scorer and span arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/query_store.h"
#include "gen.h"
#include "score.h"
#include "trace.h"
#include "video/partial_decoder.h"

namespace pb {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("perfbench_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

/// One small stream with one unedited planted copy and no filler queries.
GenParams TinyParams() {
  GenParams p;
  p.seed = 7;
  p.width = 96;
  p.height = 64;
  p.streams = 1;
  p.stream_seconds = 80.0;
  p.planted_per_stream = 1;
  p.vs1_share = 1.0;
  p.filler_queries = 2;
  p.threads = 2;
  return p;
}

/// Runs one detector per stream over \p dir's inputs, vcdctl-style, and
/// returns the MATCH transcript.
std::string DetectAll(const std::string& dir, const Truth& truth) {
  auto db = vcd::core::LoadQueriesFile(dir + "/queries.vcdq");
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  vcd::core::DetectorConfig config;
  config.K = db->k;
  config.hash_seed = db->hash_seed;
  std::string transcript;
  for (const StreamTruth& st : truth.streams) {
    auto det = vcd::core::CopyDetector::Create(config);
    EXPECT_TRUE(det.ok());
    for (const auto& q : db->queries) {
      EXPECT_TRUE((*det)->AddQuerySketch(q.id, q.sketch, q.length_frames,
                                         q.duration_seconds).ok());
    }
    const std::vector<uint8_t> bytes = ReadAll(dir + "/streams/" + st.name);
    auto frames = vcd::video::PartialDecoder::ExtractAll(bytes);
    EXPECT_TRUE(frames.ok());
    for (const auto& f : *frames) EXPECT_TRUE((*det)->ProcessKeyFrame(f).ok());
    EXPECT_TRUE((*det)->Finish().ok());
    for (const auto& m : (*det)->matches()) transcript += FormatMatchLine(st.name, m) + "\n";
  }
  return transcript;
}

TEST(Scorer, TinyPlantedCopyScoresPerfect) {
  const std::string dir = TempDir("tiny");
  auto generated = Generate(TinyParams(), dir);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  auto truth = ReadTruth(dir + "/truth.txt");
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ASSERT_EQ(truth->streams.size(), 1u);
  EXPECT_EQ(truth->streams[0].key_frames, generated->streams[0].key_frames);
  EXPECT_EQ(truth->streams[0].frames, generated->streams[0].frames);
  ASSERT_EQ(truth->streams[0].copies.size(), 1u);

  const std::string transcript = DetectAll(dir, *truth);
  const auto matches = ParseMatchLines(transcript, truth->fps);
  ASSERT_FALSE(matches.empty()) << transcript;
  const Score s = ScoreMatches(*truth, matches);
  EXPECT_EQ(s.precision, 1.0) << transcript;
  EXPECT_EQ(s.recall, 1.0) << transcript;
  EXPECT_GT(s.delay_p50_s, 0.0);
  fs::remove_all(dir);
}

TEST(Scorer, PositionRuleAndDelay) {
  Truth t;
  t.fps = 30.0;
  StreamTruth st;
  st.name = "a.vcds";
  st.copies.push_back({3, 300, 1199});  // 10 s .. 40 s
  st.kinds.push_back("vs2");
  t.streams.push_back(st);
  // Reported inside [begin+w, end+w] = [15 s, 45 s], one before, one on
  // another query, one on an unknown stream.
  const auto m = ParseMatchLines(
      "MATCH query 3 on a.vcds at t=[5.0, 25.0]s sim=0.800\n"
      "MATCH query 3 on a.vcds at t=[0.0, 12.0]s sim=0.710\n"
      "noise line\n"
      "MATCH query 4 on a.vcds at t=[5.0, 25.0]s sim=0.900\n"
      "MATCH query 3 on b.vcds at t=[5.0, 25.0]s sim=0.900\n",
      t.fps);
  ASSERT_EQ(m.size(), 4u);
  const Score s = ScoreMatches(t, m);
  EXPECT_EQ(s.detections, 4);
  EXPECT_EQ(s.correct, 1);
  EXPECT_EQ(s.found, 1);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.precision, 0.25);
  EXPECT_NEAR(s.delay_p50_s, 15.0, 1e-9);
}

TEST(Generator, SameSeedSameBytesAnyThreadCount) {
  GenParams a = TinyParams();
  GenParams b = TinyParams();
  a.threads = 1;
  b.threads = 3;
  const std::string da = TempDir("det_a"), db = TempDir("det_b");
  ASSERT_TRUE(Generate(a, da).ok());
  ASSERT_TRUE(Generate(b, db).ok());
  for (const char* f : {"/streams/s1.vcds", "/setup/s1.vcds", "/queries.vcdq", "/truth.txt"}) {
    EXPECT_EQ(ReadAll(da + f), ReadAll(db + f)) << f;
  }
  GenParams c = TinyParams();
  c.seed = 8;
  const std::string dc = TempDir("det_c");
  ASSERT_TRUE(Generate(c, dc).ok());
  EXPECT_NE(ReadAll(da + "/streams/s1.vcds"), ReadAll(dc + "/streams/s1.vcds"));
  for (const auto& d : {da, db, dc}) fs::remove_all(d);
}

Span At(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,100]: children a [10,40] and b [30,60] overlap, c [90,120]
  // overruns the root; a has a child [15,20].
  const std::vector<Span> spans = {
      At("root", 0, 100, -1), At("a", 10, 40, 0), At("b", 30, 60, 0),
      At("c", 90, 120, 0),    At("a1", 15, 20, 1),
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 50 - 10);  // covered: [10,60] and [90,100]
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, RecorderNestsAndWritesChromeTrace) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", 1);
    ScopedSpan inner(&rec, "inner", 1);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  const std::string dir = TempDir("trace");
  ASSERT_TRUE(WriteChromeTrace(rec.spans(), dir + "/t.json").ok());
  const std::vector<uint8_t> bytes = ReadAll(dir + "/t.json");
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"inner\""), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pb
