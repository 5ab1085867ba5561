/// \file restore_equivalence_test.cc
/// The acceptance bar of the checkpoint/restore subsystem: a run that is
/// interrupted at an arbitrary frame boundary, snapshotted, and resumed on
/// a fresh engine produces *byte-identical* matches — and bit-identical
/// detector statistics (RunningStats accumulators included) — to a run that
/// was never interrupted. The StreamExecutor is pinned inline (0 threads,
/// the serial engine) and sharded, snapshots cross between the two, and the
/// snapshot round-trips through the full on-disk codec (EncodeState →
/// EncodeSnapshot → DecodeSnapshot → DecodeState), not just the in-memory
/// structs.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/query_store.h"
#include "parallel/executor.h"
#include "util/stats.h"
#include "video/partial_decoder.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::ParallelConfig;
using core::StreamMatch;
using parallel::StreamExecutor;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  return c;
}

video::DcFrame TinyFrame(int64_t slot, float fill) {
  video::DcFrame f;
  f.blocks_x = 6;
  f.blocks_y = 6;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(36);
  for (size_t i = 0; i < 36; ++i) {
    f.dc[i] =
        8.0f * 60.0f * std::sin(0.7f * fill + 0.9f * static_cast<float>(i));
  }
  return f;
}

std::vector<video::DcFrame> QueryFrames() {
  std::vector<video::DcFrame> frames;
  for (int i = 0; i < 40; ++i) frames.push_back(TinyFrame(i, 100.0f + i));
  return frames;
}

/// The scenario feed: noise, an embedded copy of the query, more noise.
float FillAt(int round) {
  if (round < 20) return -80.0f + static_cast<float>(round % 5);
  if (round < 60) return 100.0f + static_cast<float>(round - 20);
  return -40.0f + static_cast<float>(round % 7);
}
constexpr int kTotalFrames = 75;

void ExpectSameMatches(const std::vector<StreamMatch>& a,
                       const std::vector<StreamMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_id, b[i].stream_id) << i;
    EXPECT_EQ(a[i].stream_name, b[i].stream_name) << i;
    EXPECT_EQ(a[i].match.query_id, b[i].match.query_id) << i;
    EXPECT_EQ(a[i].match.start_frame, b[i].match.start_frame) << i;
    EXPECT_EQ(a[i].match.end_frame, b[i].match.end_frame) << i;
    EXPECT_EQ(a[i].match.start_time, b[i].match.start_time) << i;
    EXPECT_EQ(a[i].match.end_time, b[i].match.end_time) << i;
    EXPECT_EQ(a[i].match.similarity, b[i].match.similarity) << i;
  }
}

void ExpectSameRaw(const RunningStats& a, const RunningStats& b) {
  const auto ra = a.ToRaw();
  const auto rb = b.ToRaw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.mean, rb.mean);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

void ExpectSameStats(const core::DetectorStats& a, const core::DetectorStats& b) {
  EXPECT_EQ(a.key_frames, b.key_frames);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.sketch_combines, b.sketch_combines);
  EXPECT_EQ(a.sketch_compares, b.sketch_compares);
  EXPECT_EQ(a.bitsig_ors, b.bitsig_ors);
  EXPECT_EQ(a.bitsig_builds, b.bitsig_builds);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.degraded_frames, b.degraded_frames);
  EXPECT_EQ(a.degraded_windows, b.degraded_windows);
  EXPECT_EQ(a.out_of_order_frames, b.out_of_order_frames);
  ExpectSameRaw(a.signatures_per_window, b.signatures_per_window);
  ExpectSameRaw(a.candidates_per_window, b.candidates_per_window);
  ExpectSameRaw(a.pool_slots_per_window, b.pool_slots_per_window);
}

/// Round-trips the in-memory state through the full binary snapshot format.
ckpt::SnapshotState ThroughCodec(const ckpt::SnapshotState& state,
                                 uint64_t epoch) {
  const auto image = ckpt::EncodeSnapshot(epoch, ckpt::EncodeState(state));
  auto snap = ckpt::DecodeSnapshot(image.data(), image.size());
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  auto back = ckpt::DecodeState(*snap);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return *back;
}

/// The executor's snapshot as the checkpointer stores it.
ckpt::SnapshotState ToState(const DetectorConfig& config,
                            const parallel::ExecutorCkpt& ec) {
  ckpt::SnapshotState state;
  ckpt::StampMeta(config, &state);
  state.next_stream_id = ec.next_stream_id;
  state.next_seq = ec.next_seq;
  state.streams = ec.streams;
  for (const auto& m : ec.matches) {
    state.matches.push_back(ckpt::SnapshotMatch{m.seq, m.match});
  }
  return state;
}

/// A decoded snapshot as RestoreCkpt takes it.
parallel::ExecutorCkpt FromState(const ckpt::SnapshotState& state) {
  parallel::ExecutorCkpt ec;
  ec.next_stream_id = state.next_stream_id;
  ec.next_seq = state.next_seq;
  ec.streams = state.streams;
  for (const auto& m : state.matches) {
    ec.matches.push_back(parallel::SeqMatch{m.seq, m.match});
  }
  return ec;
}

ParallelConfig Threads(int n) {
  ParallelConfig pc;
  pc.num_threads = n;
  return pc;
}

class RestoreEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RestoreEquivalenceTest, SerialKillRestoreIsByteIdentical) {
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  const ParallelConfig pc = Threads(0);  // inline: the serial engine
  const auto qframes = QueryFrames();

  auto uninterrupted = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(uninterrupted->AddQuery(1, qframes).ok());
  auto sid = uninterrupted->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < kTotalFrames; ++i) {
    ASSERT_TRUE(
        uninterrupted->ProcessKeyFrame(*sid, TinyFrame(i, FillAt(i))).ok());
  }
  const auto stats_a = uninterrupted->StreamStats(*sid);
  ASSERT_TRUE(stats_a.ok());
  ASSERT_TRUE(uninterrupted->CloseStream(*sid).ok());
  const auto matches_a = uninterrupted->matches();
  ASSERT_FALSE(matches_a.empty()) << "scenario must actually match";

  // Interrupted run: checkpoint at `cut`, crash, restore, resume.
  auto first = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(first->AddQuery(1, qframes).ok());
  auto sid_b = first->OpenStream("s");
  ASSERT_TRUE(sid_b.ok());
  ASSERT_EQ(*sid_b, *sid);
  for (int i = 0; i < cut; ++i) {
    ASSERT_TRUE(first->ProcessKeyFrame(*sid_b, TinyFrame(i, FillAt(i))).ok());
  }
  auto ec = first->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();

  // Through the binary codec, as a real crash-restart would read it.
  const ckpt::SnapshotState decoded = ThroughCodec(ToState(config, *ec), 1);

  auto resumed = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(resumed->AddQuery(1, qframes).ok());
  ASSERT_TRUE(resumed->RestoreCkpt(FromState(decoded)).ok());
  for (int i = cut; i < kTotalFrames; ++i) {
    ASSERT_TRUE(resumed->ProcessKeyFrame(*sid_b, TinyFrame(i, FillAt(i))).ok());
  }
  const auto stats_b = resumed->StreamStats(*sid_b);
  ASSERT_TRUE(stats_b.ok());
  ASSERT_TRUE(resumed->CloseStream(*sid_b).ok());

  ExpectSameMatches(matches_a, resumed->matches());
  ExpectSameStats(*stats_a, *stats_b);
}

TEST_P(RestoreEquivalenceTest, ParallelKillRestoreIsByteIdentical) {
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  ParallelConfig pc;
  pc.num_threads = 2;
  const auto qframes = QueryFrames();
  constexpr int kStreams = 3;

  auto run_frames = [&](StreamExecutor* exec, const std::vector<int>& sids,
                        int from, int to) {
    for (int i = from; i < to; ++i) {
      for (size_t s = 0; s < sids.size(); ++s) {
        const float jitter = static_cast<float>(s) * 0.1f;
        ASSERT_TRUE(exec->ProcessKeyFrame(
                            sids[s], TinyFrame(i, FillAt(i) + jitter))
                        .ok());
      }
    }
  };

  auto uninterrupted = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(uninterrupted->AddQuery(1, qframes).ok());
  std::vector<int> sids;
  for (int s = 0; s < kStreams; ++s) {
    auto sid = uninterrupted->OpenStream("s" + std::to_string(s));
    ASSERT_TRUE(sid.ok());
    sids.push_back(*sid);
  }
  run_frames(uninterrupted.get(), sids, 0, kTotalFrames);
  for (int sid : sids) ASSERT_TRUE(uninterrupted->CloseStream(sid).ok());
  ASSERT_TRUE(uninterrupted->Drain().ok());
  const auto matches_a = uninterrupted->matches();
  ASSERT_FALSE(matches_a.empty());

  auto first = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(first->AddQuery(1, qframes).ok());
  std::vector<int> sids_b;
  for (int s = 0; s < kStreams; ++s) {
    sids_b.push_back(*first->OpenStream("s" + std::to_string(s)));
  }
  ASSERT_EQ(sids_b, sids);
  run_frames(first.get(), sids_b, 0, cut);
  auto ec = first->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();

  const ckpt::SnapshotState decoded = ThroughCodec(ToState(config, *ec), 1);

  auto resumed = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(resumed->AddQuery(1, qframes).ok());
  ASSERT_TRUE(resumed->RestoreCkpt(FromState(decoded)).ok());
  run_frames(resumed.get(), sids_b, cut, kTotalFrames);
  for (int sid : sids_b) ASSERT_TRUE(resumed->CloseStream(sid).ok());
  ASSERT_TRUE(resumed->Drain().ok());

  ExpectSameMatches(matches_a, resumed->matches());
}

/// Feeds frames [from, to) of the single-stream scenario to \p exec.
void FeedSingle(StreamExecutor* exec, int sid, int from, int to) {
  for (int i = from; i < to; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(sid, TinyFrame(i, FillAt(i))).ok());
  }
}

TEST_P(RestoreEquivalenceTest, SerialAndParallelSnapshotsInterchange) {
  // The snapshot carries no shard layout: one taken inline restores onto a
  // 2-thread executor (and produces the same continuation).
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  const auto qframes = QueryFrames();

  auto serial = StreamExecutor::Create(config, Threads(0)).value();
  ASSERT_TRUE(serial->AddQuery(1, qframes).ok());
  auto sid = serial->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  FeedSingle(serial.get(), *sid, 0, cut);
  auto ec = serial->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();
  // Reference continuation on the inline engine itself.
  FeedSingle(serial.get(), *sid, cut, kTotalFrames);
  ASSERT_TRUE(serial->CloseStream(*sid).ok());

  auto exec = StreamExecutor::Create(config, Threads(2)).value();
  ASSERT_TRUE(exec->AddQuery(1, qframes).ok());
  ASSERT_TRUE(exec->RestoreCkpt(*ec).ok());
  FeedSingle(exec.get(), *sid, cut, kTotalFrames);
  ASSERT_TRUE(exec->CloseStream(*sid).ok());
  ASSERT_TRUE(exec->Drain().ok());
  ExpectSameMatches(serial->matches(), exec->matches());
}

TEST_P(RestoreEquivalenceTest, LegacySerialSnapshotsStillRestore) {
  // Snapshots written before serial monitoring became the executor's inline
  // mode tag every match with seq 0 and record next_seq 1. The VCK1 format
  // is unchanged, so such a snapshot restores inline and continues exactly
  // like the run that wrote it.
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  const auto qframes = QueryFrames();

  auto writer = StreamExecutor::Create(config, Threads(0)).value();
  ASSERT_TRUE(writer->AddQuery(1, qframes).ok());
  auto sid = writer->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  FeedSingle(writer.get(), *sid, 0, cut);
  auto ec = writer->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();
  FeedSingle(writer.get(), *sid, cut, kTotalFrames);
  ASSERT_TRUE(writer->CloseStream(*sid).ok());

  ckpt::SnapshotState legacy = ToState(config, *ec);
  legacy.next_seq = 1;
  for (ckpt::SnapshotMatch& m : legacy.matches) m.seq = 0;

  auto resumed = StreamExecutor::Create(config, Threads(0)).value();
  ASSERT_TRUE(resumed->AddQuery(1, qframes).ok());
  ASSERT_TRUE(resumed->RestoreCkpt(FromState(ThroughCodec(legacy, 1))).ok());
  FeedSingle(resumed.get(), *sid, cut, kTotalFrames);
  ASSERT_TRUE(resumed->CloseStream(*sid).ok());
  ExpectSameMatches(writer->matches(), resumed->matches());
}

// Cut points: before the copy, mid-copy (candidates live), right at the
// copy's end (matches already emitted), and in the trailing noise.
INSTANTIATE_TEST_SUITE_P(Cuts, RestoreEquivalenceTest,
                         ::testing::Values(7, 33, 61, 70));

}  // namespace
}  // namespace vcd
