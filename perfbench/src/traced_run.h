#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file traced_run.h
/// The benchmark's traced, in-process run over generated inputs. Three
/// passes per round, each driven by the benchmark's own loop with spans
/// around the public calls into each module:
/// - serial: `PartialDecoder::NextKeyFrame` → `FrameFingerprinter::
///   Fingerprint` → `CopyDetector::ProcessFingerprint`, one detector per
///   stream (the oracle vcdctl's matches are compared against);
/// - a 1-thread and a 3-thread `StreamExecutor` pass fed round-robin, as
///   vcdctl feeds it; the 3-thread one ends with a checkpoint of the drained
///   executor and a restore of it on a fresh one;
/// - an untraced 3-thread pass, against which the tracing overhead is taken.
/// Detector stage means come from the `vcd_window_*` histograms of a
/// registry attached only to the serial pass's detectors.
namespace pb {

struct TraceOptions {
  std::string data_dir;     ///< generator output (streams/, queries.vcdq)
  double seconds = 10.0;    ///< rounds repeat until this much time has passed
  std::string trace_out;    ///< Chrome trace JSON of the first round
  std::string matches_out;  ///< serial-pass MATCH lines (vcdctl format)
  std::string ckpt_dir;     ///< scratch directory for snapshots
};

struct TraceResult {
  int rounds = 0;
  std::vector<std::pair<std::string, double>> metrics;  ///< per-layer, in order
};

/// Runs the traced passes and returns the per-layer metrics. Fails when a
/// pass errors, a pass decodes fewer key frames than the truth file lists,
/// or the executor passes' matches differ from the serial pass's.
vcd::Result<TraceResult> RunTraced(const TraceOptions& opts);

}  // namespace pb
