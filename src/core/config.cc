#include "core/config.h"

#include <string>

namespace vcd::core {

const char* RepresentationName(Representation r) {
  return r == Representation::kSketch ? "Sketch" : "Bit";
}

const char* CombinationOrderName(CombinationOrder o) {
  return o == CombinationOrder::kSequential ? "Sequential" : "Geometric";
}

const char* BackpressurePolicyName(BackpressurePolicy p) {
  return p == BackpressurePolicy::kBlock ? "block" : "drop";
}

const char* CorruptionPolicyName(CorruptionPolicy p) {
  switch (p) {
    case CorruptionPolicy::kSkip:
      return "skip";
    case CorruptionPolicy::kQuarantine:
      return "quarantine";
    case CorruptionPolicy::kFail:
      return "fail";
  }
  return "unknown";
}

Status ParallelConfig::Validate() const {
  if (num_threads < 0 || num_threads > kMaxThreads) {
    return Status::InvalidArgument("num_threads must be in [0, " +
                                   std::to_string(kMaxThreads) + "]");
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (degraded_after_faults < 1) {
    return Status::InvalidArgument("degraded_after_faults must be >= 1");
  }
  if (quarantine_after_faults < degraded_after_faults) {
    return Status::InvalidArgument(
        "quarantine_after_faults must be >= degraded_after_faults");
  }
  if (recover_after_frames < 1) {
    return Status::InvalidArgument("recover_after_frames must be >= 1");
  }
  if (quarantine_backoff_frames < 1) {
    return Status::InvalidArgument("quarantine_backoff_frames must be >= 1");
  }
  if (quarantine_backoff_max_frames < quarantine_backoff_frames) {
    return Status::InvalidArgument(
        "quarantine_backoff_max_frames must be >= quarantine_backoff_frames");
  }
  if (watchdog_ms < 0) return Status::InvalidArgument("watchdog_ms must be >= 0");
  if (push_deadline_ms < 0) {
    return Status::InvalidArgument("push_deadline_ms must be >= 0");
  }
  VCD_RETURN_IF_ERROR(qos.Validate());
  return Status::OK();
}

Status DetectorConfig::Validate() const {
  VCD_RETURN_IF_ERROR(fingerprint.feature.Validate());
  if (fingerprint.u < 1) return Status::InvalidArgument("u must be >= 1");
  if (K < 1) return Status::InvalidArgument("K must be >= 1");
  if (delta <= 0.0 || delta > 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1]");
  }
  if (window_seconds <= 0.0) {
    return Status::InvalidArgument("window_seconds must be positive");
  }
  if (lambda < 1.0) return Status::InvalidArgument("lambda must be >= 1");
  return Status::OK();
}

}  // namespace vcd::core
