#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/match.h"
#include "util/status.h"

/// \file score.h
/// Ground-truth sidecar I/O and match scoring for the end-to-end benchmark.
///
/// truth.txt is line based:
///   fps <stream fps>
///   stream <name> <total frames> <key frames>
///   copy <name> <query id> <begin frame> <end frame> <vs1|vs2>
/// where <name> is the stream path exactly as vcdctl prints it in MATCH
/// lines. Scoring applies the paper's position rule through
/// `core::EvaluateMatches`; it never re-implements it.
namespace pb {

/// The basic window w of the position rule: vcdctl monitor's default, which
/// the benchmark runs with.
constexpr double kWindowSeconds = 5.0;

struct StreamTruth {
  std::string name;
  int64_t frames = 0;
  int64_t key_frames = 0;
  std::vector<vcd::core::GroundTruthEntry> copies;
  std::vector<std::string> kinds;  ///< "vs1" / "vs2", parallel to copies
};

struct Truth {
  double fps = 0.0;
  std::vector<StreamTruth> streams;
};

vcd::Status WriteTruth(const Truth& truth, const std::string& path);
vcd::Result<Truth> ReadTruth(const std::string& path);

/// One match attributed to a stream.
struct StreamMatchRec {
  std::string stream;
  vcd::core::Match match;
};

/// Parses the `MATCH query Q on NAME at t=[S, E]s sim=X` lines of a vcdctl
/// monitor transcript; other lines are ignored. Frames are the printed times
/// converted at \p fps.
std::vector<StreamMatchRec> ParseMatchLines(const std::string& text, double fps);

/// Renders \p m the way vcdctl prints it.
std::string FormatMatchLine(const std::string& stream, const vcd::core::Match& m);

struct Score {
  int detections = 0;
  int correct = 0;
  int truth = 0;
  int found = 0;
  double precision = 0.0;
  double recall = 0.0;
  /// Median over found copies of (end time of the first correct match −
  /// copy start time), in stream seconds; NaN when nothing was found.
  double delay_p50_s = 0.0;
};

/// Scores \p matches against \p truth with the basic window kWindowSeconds.
Score ScoreMatches(const Truth& truth, const std::vector<StreamMatchRec>& matches);

}  // namespace pb
