/// \file pbtool.cc
/// The end-to-end benchmark's helper tool (perfbench/run.py drives it).
///
///   pbtool gen --out DIR --seed N --width W --height H --streams S
///              --stream-seconds T --planted-per-stream P --vs1-share F
///              --filler-queries M
///   pbtool score --truth truth.txt --matches monitor.out
///   pbtool trace --data DIR --ckpt-dir DIR [--seconds S --trace-out FILE
///              --matches-out FILE]
///
/// Each subcommand prints one JSON object on stdout (gen: the stream names,
/// their key frames and their summed duration) and exits non-zero on
/// failure.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "gen.h"
#include "score.h"
#include "traced_run.h"

namespace {

using Flags = std::map<std::string, std::string>;

bool ParseFlags(int argc, char** argv, Flags* out) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "pbtool: expected --flag value, got %s\n", argv[i]);
      return false;
    }
    (*out)[key.substr(2)] = argv[i + 1];
  }
  return true;
}

double Num(const Flags& f, const std::string& key, double def) {
  auto it = f.find(key);
  return it == f.end() ? def : std::atof(it->second.c_str());
}

std::string Str(const Flags& f, const std::string& key) {
  auto it = f.find(key);
  return it == f.end() ? "" : it->second;
}

int Fail(const vcd::Status& st) {
  std::fprintf(stderr, "pbtool: %s\n", st.ToString().c_str());
  return 1;
}

/// JSON number, with null for NaN/inf.
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int CmdGen(const Flags& f) {
  for (const char* key : {"out", "seed", "width", "height", "streams", "stream-seconds",
                          "planted-per-stream", "vs1-share", "filler-queries"}) {
    if (f.count(key) == 0) {
      std::fprintf(stderr, "pbtool gen: --%s is required\n", key);
      return 2;
    }
  }
  pb::GenParams p;
  p.seed = std::strtoull(Str(f, "seed").c_str(), nullptr, 10);
  p.width = static_cast<int>(Num(f, "width", 0));
  p.height = static_cast<int>(Num(f, "height", 0));
  p.streams = static_cast<int>(Num(f, "streams", 0));
  p.stream_seconds = Num(f, "stream-seconds", 0);
  p.planted_per_stream = static_cast<int>(Num(f, "planted-per-stream", 0));
  p.vs1_share = Num(f, "vs1-share", 0);
  p.filler_queries = static_cast<int>(Num(f, "filler-queries", 0));
  auto truth = pb::Generate(p, Str(f, "out"));
  if (!truth.ok()) return Fail(truth.status());
  int64_t frames = 0, key_frames = 0;
  std::printf("{\"streams\": [");
  for (size_t i = 0; i < truth->streams.size(); ++i) {
    const pb::StreamTruth& st = truth->streams[i];
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", st.name.c_str());
    frames += st.frames;
    key_frames += st.key_frames;
  }
  std::printf("], \"key_frames\": %" PRId64 ", \"stream_seconds\": %s}\n", key_frames,
              JsonNum(static_cast<double>(frames) / truth->fps).c_str());
  return 0;
}

int CmdScore(const Flags& f) {
  auto truth = pb::ReadTruth(Str(f, "truth"));
  if (!truth.ok()) return Fail(truth.status());
  std::ifstream in(Str(f, "matches"));
  if (!in) {
    std::fprintf(stderr, "pbtool score: cannot open --matches %s\n", Str(f, "matches").c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  const auto matches = pb::ParseMatchLines(text.str(), truth->fps);
  const pb::Score s = pb::ScoreMatches(*truth, matches);
  std::printf("{\"detections\": %d, \"correct\": %d, \"truth\": %d, \"found\": %d, "
              "\"precision\": %s, \"recall\": %s, \"delay_p50_s\": %s}\n",
              s.detections, s.correct, s.truth, s.found, JsonNum(s.precision).c_str(),
              JsonNum(s.recall).c_str(), JsonNum(s.delay_p50_s).c_str());
  return 0;
}

int CmdTrace(const Flags& f) {
  pb::TraceOptions o;
  o.data_dir = Str(f, "data");
  o.ckpt_dir = Str(f, "ckpt-dir");
  if (o.data_dir.empty() || o.ckpt_dir.empty()) {
    std::fprintf(stderr, "pbtool trace: --data and --ckpt-dir are required\n");
    return 2;
  }
  o.seconds = Num(f, "seconds", o.seconds);
  o.trace_out = Str(f, "trace-out");
  o.matches_out = Str(f, "matches-out");
  auto run = pb::RunTraced(o);
  if (!run.ok()) return Fail(run.status());
  std::printf("{\"rounds\": %d, \"metrics\": {", run->rounds);
  for (size_t i = 0; i < run->metrics.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", run->metrics[i].first.c_str(),
                JsonNum(run->metrics[i].second).c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool gen|score|trace --flag value ...\n");
    return 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "score") return CmdScore(flags);
  if (cmd == "trace") return CmdTrace(flags);
  std::fprintf(stderr, "pbtool: unknown command %s\n", cmd.c_str());
  return 2;
}
