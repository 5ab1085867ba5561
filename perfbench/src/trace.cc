#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/clock.h"
#include "util/json.h"

namespace pb {

int SpanRecorder::Begin(const char* name, int64_t trace_id) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.trace_id = trace_id;
  s.start_ns = vcd::obs::NowNanos();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = vcd::obs::NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[s.parent].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

vcd::Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return vcd::Status::Internal("cannot open " + path);
  const std::vector<int64_t> self = SelfTimes(spans);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", vcd::util::JsonQuote(s.name).c_str(),
                 static_cast<long long>(s.trace_id), (s.start_ns - t0) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent, self[i] / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? vcd::Status::OK()
                             : vcd::Status::Internal("short write to " + path);
}

}  // namespace pb
