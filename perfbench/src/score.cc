#include "score.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "core/evaluation.h"

namespace pb {

using vcd::Result;
using vcd::Status;
using vcd::core::EvaluateMatches;
using vcd::core::GroundTruthEntry;
using vcd::core::Match;

Status WriteTruth(const Truth& truth, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", truth.fps);
  out << "fps " << buf << "\n";
  for (const StreamTruth& s : truth.streams) {
    out << "stream " << s.name << " " << s.frames << " " << s.key_frames << "\n";
  }
  for (const StreamTruth& s : truth.streams) {
    for (size_t i = 0; i < s.copies.size(); ++i) {
      const GroundTruthEntry& g = s.copies[i];
      out << "copy " << s.name << " " << g.query_id << " " << g.begin_frame << " "
          << g.end_frame << " " << s.kinds[i] << "\n";
    }
  }
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<Truth> ReadTruth(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  Truth t;
  std::map<std::string, size_t> by_name;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "fps") {
      ls >> t.fps;
    } else if (tag == "stream") {
      StreamTruth s;
      ls >> s.name >> s.frames >> s.key_frames;
      by_name[s.name] = t.streams.size();
      t.streams.push_back(std::move(s));
    } else if (tag == "copy") {
      std::string name, kind;
      GroundTruthEntry g;
      ls >> name >> g.query_id >> g.begin_frame >> g.end_frame >> kind;
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        return Status::Corruption("truth copy on unknown stream " + name);
      }
      t.streams[it->second].copies.push_back(g);
      t.streams[it->second].kinds.push_back(kind);
    } else if (!tag.empty()) {
      return Status::Corruption("unknown truth line: " + line);
    }
    if (ls.fail()) return Status::Corruption("malformed truth line: " + line);
  }
  if (t.fps <= 0 || t.streams.empty()) {
    return Status::Corruption(path + " has no fps or no streams");
  }
  return t;
}

std::vector<StreamMatchRec> ParseMatchLines(const std::string& text, double fps) {
  std::vector<StreamMatchRec> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("MATCH query ", 0) != 0) continue;
    // Stream names never contain spaces (the generator names them).
    int qid = 0;
    char name[512];
    double start = 0, end = 0, sim = 0;
    if (std::sscanf(line.c_str(), "MATCH query %d on %511s at t=[%lf, %lf]s sim=%lf",
                    &qid, name, &start, &end, &sim) != 5) {
      continue;
    }
    StreamMatchRec r;
    r.stream = name;
    r.match.query_id = qid;
    r.match.start_time = start;
    r.match.end_time = end;
    r.match.start_frame = std::llround(start * fps);
    r.match.end_frame = std::llround(end * fps);
    r.match.similarity = sim;
    out.push_back(std::move(r));
  }
  return out;
}

std::string FormatMatchLine(const std::string& stream, const Match& m) {
  char buf[640];
  std::snprintf(buf, sizeof(buf), "MATCH query %d on %s at t=[%.1f, %.1f]s sim=%.3f",
                m.query_id, stream.c_str(), m.start_time, m.end_time, m.similarity);
  return buf;
}

Score ScoreMatches(const Truth& truth, const std::vector<StreamMatchRec>& matches) {
  const int64_t w_frames = std::llround(kWindowSeconds * truth.fps);
  std::map<std::string, std::vector<Match>> by_stream;
  for (const StreamMatchRec& r : matches) by_stream[r.stream].push_back(r.match);

  Score s;
  std::vector<double> delays;
  for (const StreamTruth& st : truth.streams) {
    const std::vector<Match>& ms = by_stream[st.name];
    const vcd::core::EvalResult r = EvaluateMatches(ms, st.copies, w_frames);
    s.detections += r.num_detections;
    s.correct += r.num_correct;
    s.truth += r.num_truth;
    s.found += r.num_truth_found;
    for (const GroundTruthEntry& g : st.copies) {
      double first_end = std::numeric_limits<double>::infinity();
      for (const Match& m : ms) {
        if (EvaluateMatches({m}, {g}, w_frames).num_correct == 1) {
          first_end = std::min(first_end, m.end_time);
        }
      }
      if (std::isfinite(first_end)) {
        delays.push_back(first_end - static_cast<double>(g.begin_frame) / truth.fps);
      }
    }
  }
  // Streams that are not in the truth still count their detections.
  for (const auto& [name, ms] : by_stream) {
    bool known = false;
    for (const StreamTruth& st : truth.streams) known = known || st.name == name;
    if (!known) s.detections += static_cast<int>(ms.size());
  }
  s.precision = s.detections > 0 ? static_cast<double>(s.correct) / s.detections : 0.0;
  s.recall = s.truth > 0 ? static_cast<double>(s.found) / s.truth : 0.0;
  if (delays.empty()) {
    s.delay_p50_s = std::numeric_limits<double>::quiet_NaN();
  } else {
    std::sort(delays.begin(), delays.end());
    const size_t n = delays.size();
    s.delay_p50_s = n % 2 == 1 ? delays[n / 2] : 0.5 * (delays[n / 2 - 1] + delays[n / 2]);
  }
  return s;
}

}  // namespace pb
