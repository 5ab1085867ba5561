#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "qos/qos.h"

/// \file pipeline_metrics.h
/// The standard metric families each pipeline stage publishes, centralized
/// so the full inventory (and its naming) lives in one reviewable place.
///
/// Each struct is a bundle of cached instrument pointers. `Create(registry)`
/// registers every family member and returns live pointers;
/// `Create(nullptr)` returns an all-null bundle, which every consumer
/// treats as "observability detached" (the VCD_OBS_* macros and explicit
/// null checks make null instruments free). Registration is idempotent —
/// the registry dedupes on (name, labels) — so re-creating a bundle against
/// the same registry hands back the same instruments.

namespace vcd::obs {

/// PartialDecoder: per-stream ingest health.
struct DecoderMetrics {
  Counter* key_frames_total = nullptr;
  Counter* p_frames_skipped_total = nullptr;
  Counter* corruption_events_total = nullptr;
  Counter* resync_scans_total = nullptr;
  Counter* bytes_skipped_total = nullptr;
  Counter* degraded_frames_total = nullptr;
  Histogram* resync_latency_ns = nullptr;
  Histogram* decode_frame_ns = nullptr;  ///< one key frame's DC extraction

  static DecoderMetrics Create(MetricsRegistry* registry);
};

/// CopyDetector: per-window hot-path counters and stage latencies.
struct DetectorMetrics {
  Counter* windows_total = nullptr;
  Counter* degraded_windows_total = nullptr;
  Counter* qos_skipped_windows_total = nullptr;
  Counter* prune_hits_total = nullptr;
  Counter* prune_misses_total = nullptr;
  Counter* bitsig_builds_total = nullptr;
  Counter* bitsig_ors_total = nullptr;
  Counter* sketch_combines_total = nullptr;
  Counter* sketch_compares_total = nullptr;
  Counter* candidates_admitted_total = nullptr;
  Counter* candidates_expired_total = nullptr;
  Counter* matches_total = nullptr;
  Histogram* window_process_ns = nullptr;
  Histogram* sketch_build_ns = nullptr;
  Histogram* probe_ns = nullptr;
  Histogram* combine_ns = nullptr;
  Histogram* test_ns = nullptr;

  static DetectorMetrics Create(MetricsRegistry* registry);
};

/// StreamExecutor: admission accounting and fleet-level gauges. These
/// counters are the registry-backed source of truth for `ExecutorStats`.
///
/// Every frame the pipeline discards is counted exactly once in the unified
/// drop family `vcd_frames_dropped_total{cause=...}` — the executor-side
/// causes live here; the health-machine causes (`quarantine`, `failed`)
/// are incremented by the shard workers (see ShardMetrics).
struct ExecutorMetrics {
  Counter* frames_submitted_total = nullptr;
  Counter* dropped_backpressure = nullptr;  ///< cause="backpressure"
  Counter* dropped_failover = nullptr;      ///< cause="failover"
  Counter* dropped_deadline = nullptr;      ///< cause="deadline"
  Counter* dropped_qos_shed = nullptr;      ///< cause="qos_shed"
  Counter* watchdog_failovers_total = nullptr;
  Gauge* streams_open = nullptr;

  static ExecutorMetrics Create(MetricsRegistry* registry);
};

/// One shard's worker-side accounting, labeled `shard="<id>"`.
struct ShardMetrics {
  Counter* frames_processed_total = nullptr;
  Counter* frames_rejected_total = nullptr;
  Counter* frames_degraded_total = nullptr;
  Counter* frames_quarantined_total = nullptr;
  Counter* frames_failed_total = nullptr;
  Counter* quarantine_events_total = nullptr;
  Gauge* queue_depth = nullptr;
  Gauge* stream_lag_us = nullptr;
  /// Time a task (frame or command) waited in the shard queue, from its
  /// push to the start of its execution; 0 for every task in inline mode.
  Histogram* queue_wait_ns = nullptr;
  /// Health-machine legs of the unified drop family (shared across shards —
  /// the registry dedupes on (name, labels), so every shard's bundle holds
  /// the same instrument): `vcd_frames_dropped_total{cause="quarantine"}`
  /// and `{cause="failed"}`. Incremented alongside the per-shard
  /// frames_quarantined/_failed detail counters above.
  Counter* dropped_quarantine = nullptr;
  Counter* dropped_failed = nullptr;

  static ShardMetrics Create(MetricsRegistry* registry, int shard_id);
};

/// Overload governor (DESIGN.md §17): per-shard state gauges, per-state
/// dwell histograms, and priority-labeled shed counters.
struct QosMetrics {
  /// Numeric qos::QosState of each shard (`vcd_qos_state{shard="<id>"}`).
  std::vector<Gauge*> shard_state;
  /// Ticks a shard dwelt in a state before leaving it, labeled by the
  /// state it left (`vcd_qos_dwell_ticks{state=...}`); indexed by the
  /// numeric qos::QosState value.
  Histogram* dwell_ticks[4] = {nullptr, nullptr, nullptr, nullptr};
  /// Frames shed by the priority-aware policy, labeled by priority class
  /// (`vcd_qos_frames_shed_total{priority=...}`); indexed by the numeric
  /// qos::Priority value. Each shed frame is *also* counted once in
  /// `vcd_frames_dropped_total{cause="qos_shed"}`.
  Counter* frames_shed[3] = {nullptr, nullptr, nullptr};

  /// Empty (all-null, no per-shard gauges) when \p registry is null.
  static QosMetrics Create(MetricsRegistry* registry, int num_shards);
};

/// Checkpointer: durability accounting (DESIGN.md §16). `checkpoint_bytes`
/// is the size of the last snapshot written; `checkpoint_epoch` the last
/// epoch durably committed (0 until the first save).
struct CkptMetrics {
  Counter* checkpoints_total = nullptr;
  Counter* checkpoint_failures_total = nullptr;
  Counter* restores_total = nullptr;
  Counter* restore_corruption_total = nullptr;  ///< snapshots skipped as unreadable
  Gauge* checkpoint_bytes = nullptr;
  Gauge* checkpoint_epoch = nullptr;
  Histogram* checkpoint_duration_ns = nullptr;

  static CkptMetrics Create(MetricsRegistry* registry);
};

/// Publishes the faultfx injector's per-site hit/fire counts into
/// \p registry as gauges labeled `site="<name>"`. Gauges, not counters:
/// `Injector::Arm`/`Reset` reset the underlying counts, and a gauge mirrors
/// resets faithfully. Call at export time (vcdctl does, before each dump);
/// a no-op when \p registry is null. Registers zeroed gauges even when
/// faultfx is compiled out, so dashboards see the series either way.
void SyncFaultfxMetrics(MetricsRegistry* registry);

/// Publishes the SIMD kernel dispatch state into \p registry: which ISA
/// backend is active (`vcd_kernel_active{isa=...}`, 1 on the chosen level,
/// 0 on every other compiled level) and the process-global per-kernel call
/// counts (`vcd_kernel_calls`/`vcd_kernel_items` labeled `kernel="<op>"`),
/// as gauges mirroring the monotonic atomics in kernels::Counters(). Call
/// at export time (vcdctl metrics and the bench metrics sample do); a
/// no-op when \p registry is null.
void SyncKernelMetrics(MetricsRegistry* registry);

}  // namespace vcd::obs
