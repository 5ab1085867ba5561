#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

/// \file trace.h
/// In-memory span recording for the benchmark's traced run. Spans are taken
/// around the benchmark's own calls into each module's public functions; no
/// span lives inside the program. They are written out as Chrome
/// trace-event JSON when the run ends.
namespace pb {

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int64_t trace_id = 0;   ///< the stream id the span worked for
};

/// Records nested spans on one thread.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int64_t trace_id);
  /// Closes span \p index (the innermost open one).
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); open_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t trace_id)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and
/// the parts of a child outside its parent are ignored).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes \p spans as Chrome trace-event JSON ("X" complete events, one
/// thread row per trace id, parent index and self time in args).
vcd::Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace pb
