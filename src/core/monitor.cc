#include "core/monitor.h"

#include <string>

namespace vcd::core {

Result<PreparedQuery> PrepareQuery(const DetectorConfig& config,
                                   const std::vector<vcd::video::DcFrame>& key_frames,
                                   double duration_seconds) {
  if (key_frames.empty()) return Status::InvalidArgument("query has no key frames");
  // Fingerprint + sketch once with a scratch detector-config pipeline so
  // every stream shares the identical query sketch.
  auto fp = features::FrameFingerprinter::Create(config.fingerprint);
  if (!fp.ok()) return fp.status();
  auto family = sketch::MinHashFamily::Create(config.K, config.hash_seed);
  if (!family.ok()) return family.status();
  sketch::Sketcher sketcher(&family.value());
  const auto cells = fp->FingerprintSequence(key_frames);
  if (duration_seconds <= 0) {
    const double span = key_frames.back().timestamp - key_frames.front().timestamp;
    const double spacing = key_frames.size() > 1
                               ? span / static_cast<double>(key_frames.size() - 1)
                               : config.window_seconds;
    duration_seconds = span + spacing;
  }
  PreparedQuery q;
  q.length_frames = static_cast<int>(cells.size());
  q.duration_seconds = duration_seconds;
  q.sketch = sketcher.FromSequence(cells);
  return q;
}

}  // namespace vcd::core
