/// \file inline_executor_test.cc
/// The executor's inline mode (`ParallelConfig::num_threads == 0`), the
/// serial engine: the multi-stream API contract — stream lifecycle, query
/// portfolio propagation, import validation, per-stream attribution and
/// stats — plus the inline property itself: every call has finished its
/// work when it returns, with nothing queued.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/query_store.h"
#include "parallel/executor.h"
#include "util/rng.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::ParallelConfig;
using features::CellId;
using parallel::StreamExecutor;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;
  return c;
}

std::unique_ptr<StreamExecutor> Inline(const DetectorConfig& config) {
  return StreamExecutor::Create(config, ParallelConfig{}).value();
}

std::vector<CellId> RandomCells(Rng* rng, size_t n, uint32_t lo, uint32_t hi) {
  std::vector<CellId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<CellId>(rng->Uniform(hi - lo)));
  }
  return out;
}

sketch::Sketch SketchOf(const DetectorConfig& c, const std::vector<CellId>& ids) {
  auto fam = sketch::MinHashFamily::Create(c.K, c.hash_seed).value();
  sketch::Sketcher sk(&fam);
  return sk.FromSequence(ids);
}

/// Builds a small key frame whose fingerprint is a deterministic function
/// of \p fill — the controlled "content" used to drive the executor.
video::DcFrame TinyFrame(int64_t slot, float fill) {
  video::DcFrame f;
  f.blocks_x = 6;
  f.blocks_y = 6;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(36);
  // The spatial *profile* must depend on fill: Eq. 1's min-max
  // normalization removes constant offsets, so an offset-only difference
  // would fingerprint identically.
  for (size_t i = 0; i < 36; ++i) {
    f.dc[i] = 8.0f * 60.0f *
              std::sin(0.7f * fill + 0.9f * static_cast<float>(i));
  }
  return f;
}

TEST(InlineExecutorTest, CreateValidatesConfig) {
  DetectorConfig bad;
  bad.K = 0;
  EXPECT_FALSE(StreamExecutor::Create(bad, ParallelConfig{}).ok());
  ParallelConfig too_many;
  too_many.num_threads = core::kMaxThreads + 1;
  EXPECT_FALSE(StreamExecutor::Create(SmallConfig(), too_many).ok());
  auto exec = StreamExecutor::Create(SmallConfig(), ParallelConfig{});
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->num_shards(), 1);
}

TEST(InlineExecutorTest, OpenCloseStreams) {
  auto exec = Inline(SmallConfig());
  auto s1 = exec->OpenStream("satellite-1");
  auto s2 = exec->OpenStream("cable-7");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(exec->num_open_streams(), 2);
  EXPECT_TRUE(exec->CloseStream(*s1).ok());
  EXPECT_EQ(exec->num_open_streams(), 1);
  EXPECT_EQ(exec->CloseStream(*s1).code(), StatusCode::kNotFound);
  // A frame for a closed stream is accepted and counted as rejected, the
  // executor's contract at every thread count; an id never issued is
  // NotFound.
  EXPECT_TRUE(exec->ProcessKeyFrame(*s1, TinyFrame(0, 10)).ok());
  EXPECT_EQ(exec->Stats().shards[0].frames_rejected, 1);
  EXPECT_EQ(exec->ProcessKeyFrame(999, TinyFrame(0, 10)).code(),
            StatusCode::kNotFound);
}

TEST(InlineExecutorTest, QueryPortfolioPropagation) {
  auto exec = Inline(SmallConfig());
  Rng rng(5);
  auto cells = RandomCells(&rng, 40, 0, 500);
  const auto sk = SketchOf(SmallConfig(), cells);
  // Query added before any stream exists.
  ASSERT_TRUE(exec->AddQuerySketch(1, sk, 40, 16.0).ok());
  EXPECT_EQ(exec->AddQuerySketch(1, sk, 40, 16.0).code(), StatusCode::kAlreadyExists);
  auto s1 = exec->OpenStream("a").value();
  // Query added after a stream opened: must land on it too.
  ASSERT_TRUE(exec->AddQuerySketch(
                      2, SketchOf(SmallConfig(), RandomCells(&rng, 30, 1000, 1500)),
                      30, 12.0)
                  .ok());
  EXPECT_EQ(exec->num_queries(), 2);
  // Remove everywhere.
  ASSERT_TRUE(exec->RemoveQuery(1).ok());
  EXPECT_EQ(exec->RemoveQuery(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(exec->num_queries(), 1);
  // The stream's detector saw every portfolio change without a sticky
  // error: a drain reports none.
  EXPECT_TRUE(exec->CloseStream(s1).ok());
  EXPECT_TRUE(exec->Drain().ok());
}

TEST(InlineExecutorTest, ImportValidatesFamily) {
  auto exec = Inline(SmallConfig());
  core::QueryDb db;
  db.k = 64;  // mismatched K
  db.hash_seed = SmallConfig().hash_seed;
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kFailedPrecondition);
  db.k = SmallConfig().K;
  db.hash_seed = 999;  // mismatched seed
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kFailedPrecondition);
  db.hash_seed = SmallConfig().hash_seed;
  EXPECT_TRUE(exec->ImportQueries(db).ok());  // empty db, matching family
}

TEST(InlineExecutorTest, DetectionsAttributedToStreams) {
  // Two streams with the same copy embedded at different times: matches
  // must carry the right stream id and name.
  DetectorConfig c = SmallConfig();
  c.delta = 0.6;
  auto exec = Inline(c);

  std::vector<video::DcFrame> qframes;
  for (int i = 0; i < 40; ++i) qframes.push_back(TinyFrame(i, 100.0f + i));
  ASSERT_TRUE(exec->AddQuery(1, qframes, 16.0).ok());

  auto s1 = exec->OpenStream("east").value();
  auto s2 = exec->OpenStream("west").value();
  // Stream east: background then the copy.
  int64_t slot = 0;
  for (int i = 0; i < 30; ++i, ++slot) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s1, TinyFrame(slot, -80.0f + (i % 5))).ok());
  }
  for (int i = 0; i < 40; ++i, ++slot) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s1, TinyFrame(slot, 100.0f + i)).ok());
  }
  // Stream west: only background.
  for (int64_t w = 0; w < 70; ++w) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s2, TinyFrame(w, -80.0f + (w % 5))).ok());
  }
  ASSERT_TRUE(exec->CloseStream(s1).ok());
  ASSERT_TRUE(exec->CloseStream(s2).ok());

  std::set<int> streams_with_matches;
  for (const core::StreamMatch& m : exec->matches()) {
    streams_with_matches.insert(m.stream_id);
    EXPECT_EQ(m.match.query_id, 1);
    EXPECT_EQ(m.stream_name, "east");
  }
  EXPECT_EQ(streams_with_matches, std::set<int>{s1});
}

TEST(InlineExecutorTest, StreamStats) {
  auto exec = Inline(SmallConfig());
  auto s = exec->OpenStream("x").value();
  for (int64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s, TinyFrame(i, 10.0f)).ok());
  }
  auto stats = exec->StreamStats(s);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->key_frames, 25);
  EXPECT_FALSE(exec->StreamStats(999).ok());
}

TEST(InlineExecutorTest, IndependentStreamStates) {
  // The same frames fed to two streams at different offsets must not
  // interfere: candidate lists are per-stream.
  auto exec = Inline(SmallConfig());
  auto s1 = exec->OpenStream("a").value();
  auto s2 = exec->OpenStream("b").value();
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s1, TinyFrame(i, 5.0f)).ok());
  }
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s2, TinyFrame(i, 5.0f)).ok());
  }
  EXPECT_EQ(exec->StreamStats(s1)->key_frames, 30);
  EXPECT_EQ(exec->StreamStats(s2)->key_frames, 10);
}

TEST(InlineExecutorTest, WorkIsDoneWhenTheCallReturns) {
  // Inline, not one worker: frames and commands run on the caller, so the
  // shard's queue never holds anything (a worker shard's high-water mark is
  // at least 1 after its first submission) and the frame counter has moved
  // by the time ProcessKeyFrame returns.
  auto exec = Inline(SmallConfig());
  auto s = exec->OpenStream("x").value();
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(s, TinyFrame(i, 3.0f)).ok());
    const parallel::ShardStats sh = exec->Stats().shards[0];
    EXPECT_EQ(sh.frames_processed, i + 1);
    EXPECT_EQ(sh.queue_depth, 0u);
    EXPECT_EQ(sh.queue_high_water, 0u);
  }
  EXPECT_GT(exec->Stats().shards[0].busy_seconds, 0.0);
}

}  // namespace
}  // namespace vcd
