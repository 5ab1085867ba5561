#pragma once

#include <string>
#include <vector>

#include "core/detector.h"

/// \file monitor.h
/// Types shared by every multi-stream driver of the detector: the
/// stream-attributed match, one stream's checkpointed state, and query
/// preparation. The multi-stream engine itself is
/// `parallel::StreamExecutor` (serial monitoring is its inline 0-thread
/// mode); candidate lists are inherently per-stream, so each monitored
/// stream owns one `CopyDetector` while the query portfolio is shared.

namespace vcd::core {

/// A match attributed to the stream it occurred on.
struct StreamMatch {
  int stream_id = 0;
  std::string stream_name;
  Match match;
};

/// \brief One monitored stream's full checkpointed state: the STREAMS
/// snapshot section (docs/FORMATS.md), written by the executor's shards at
/// every thread count, inline included.
struct StreamCkpt {
  int stream_id = 0;
  std::string name;
  uint64_t matches_consumed = 0;
  /// Health machine (parallel/shard.h): state enum as int, fault/clean
  /// streaks, and the frame-count backoff "deadlines" — durations relative
  /// to the snapshot's persisted epoch, so a restored stream resumes its
  /// readmission countdown exactly where the crash interrupted it.
  int health = 0;
  int consecutive_faults = 0;
  int consecutive_clean = 0;
  int64_t quarantine_remaining = 0;
  int64_t backoff_frames = 0;
  double max_timestamp = 0.0;
  bool saw_timestamp = false;
  /// QoS priority class (qos::Priority as int) assigned at registration.
  /// Defaults to kNormal (1) for snapshots written before the field existed.
  int priority = 1;
  DetectorCkptState detector;
};

/// A query prepared for subscription: the sketch of its key-frame cell
/// sequence plus the derived length/duration — everything a detector's
/// AddQuerySketch needs.
struct PreparedQuery {
  int length_frames = 0;
  double duration_seconds = 0.0;
  sketch::Sketch sketch;  // NOLINT(vcd-pooled-hotpath): per-query, cold
};

/// Fingerprints and sketches \p key_frames under \p config, inferring
/// \p duration_seconds from the timestamps when it is ≤ 0. The executor's
/// AddQuery, the benchmarks' query builders and the test oracles all go
/// through it, so every path subscribes *identical* query sketches.
Result<PreparedQuery> PrepareQuery(const DetectorConfig& config,
                                   const std::vector<vcd::video::DcFrame>& key_frames,
                                   double duration_seconds);

}  // namespace vcd::core
