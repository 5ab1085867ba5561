#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file mpsc_queue.h
/// Bounded multi-producer single-consumer queue — the per-shard submission
/// channel of the parallel stream executor.
///
/// Producers are the caller threads of `StreamExecutor::ProcessKeyFrame` and
/// the control plane (commands); the single consumer is the shard's worker
/// thread. Backpressure is the producer's choice per push: `Push` blocks
/// while the queue is full, `TryPush` fails immediately (the executor turns
/// that into a drop counter under `BackpressurePolicy::kDropNewest`).
///
/// The queue also keeps the occupancy gauges the executor reports
/// (`depth`, `high_water`) so backpressure tuning is observable.
///
/// All mutable state is `VCD_GUARDED_BY(mu_)`: under Clang's
/// `-Werror=thread-safety` (CMake `VCD_WERROR`/`VCD_LINT`) an access
/// without the lock is a compile error.

namespace vcd::parallel {

/// \brief Non-template state of a bounded MPSC queue: the lock, the
/// wait/wake machinery, the closed flag and the occupancy gauges.
class MpscQueueBase {
 public:
  /// Outcome of a deadline-bounded push. kTimeout is the only way a
  /// blocking producer can give up on a full queue: the executor converts
  /// it into a typed drop (`cause="deadline"`) instead of stalling the
  /// ingest thread behind a wedged consumer forever.
  enum class PushResult { kPushed, kClosed, kTimeout };

  /// Closes the queue: pending items remain poppable, further pushes fail,
  /// and a consumer blocked in Pop wakes up once the queue drains.
  void Close() VCD_EXCLUDES(mu_);

  /// True once Close() was called.
  bool closed() const VCD_EXCLUDES(mu_);

  /// Current number of queued items.
  size_t depth() const VCD_EXCLUDES(mu_);

  /// Highest occupancy ever observed (queue depth high-water mark).
  size_t high_water() const VCD_EXCLUDES(mu_);

  /// Capacity bound of the frame channel (immutable after construction).
  size_t capacity() const { return capacity_; }

 protected:
  explicit MpscQueueBase(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Updates depth/high-water after a push/pop. Requires mu_ held.
  void RecordDepthLocked(size_t depth) VCD_REQUIRES(mu_);

  const size_t capacity_;
  // kQueue: taken while the executor control mutex (command fan-out) or the
  // watchdog mutex (stall snapshots) is held; the consumer side never calls
  // out of the queue with it held (DESIGN.md §14).
  mutable Mutex mu_{LockRank::kQueue, "mpsc_queue"};
  CondVar not_full_;
  CondVar not_empty_;
  size_t depth_ VCD_GUARDED_BY(mu_) = 0;
  size_t high_water_ VCD_GUARDED_BY(mu_) = 0;
  bool closed_ VCD_GUARDED_BY(mu_) = false;
};

/// \brief Bounded blocking MPSC queue of T.
template <typename T>
class BoundedMpscQueue : public MpscQueueBase {
 public:
  explicit BoundedMpscQueue(size_t capacity) : MpscQueueBase(capacity) {}

  /// Blocking push; waits while the queue is full. Returns false iff the
  /// queue was closed (the item is then discarded).
  bool Push(T item) VCD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      RecordDepthLocked(items_.size());
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocking push bounded by \p timeout: waits while the queue is full,
  /// but never past the deadline. On kTimeout or kClosed the item is
  /// discarded. A non-positive timeout degenerates to a TryPush-with-cause
  /// (no wait, immediate kTimeout when full).
  PushResult PushWithDeadline(T item, std::chrono::milliseconds timeout)
      VCD_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.size() >= capacity_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return PushResult::kTimeout;
        // Ceil to whole milliseconds so a sub-millisecond remainder still
        // waits instead of spinning on WaitFor(0).
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now) +
            std::chrono::milliseconds(1);
        not_full_.WaitFor(mu_, remaining);
      }
      if (closed_) return PushResult::kClosed;
      items_.push_back(std::move(item));
      RecordDepthLocked(items_.size());
    }
    not_empty_.NotifyOne();
    return PushResult::kPushed;
  }

  /// Push that ignores the capacity bound — the control-plane channel.
  /// Commands must reach a shard even when its frame queue is saturated or
  /// its worker is stalled; bounding them would let a wedged shard deadlock
  /// CloseStream/Drain (see DESIGN.md §12). Returns false iff closed.
  bool PushUnbounded(T item) VCD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      RecordDepthLocked(items_.size());
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Non-blocking push; returns false when the queue is full or closed,
  /// and then leaves \p item untouched (moved from only on success), so the
  /// caller can still act on it — e.g. do its work before a blocking Push.
  bool TryPush(T&& item) VCD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      RecordDepthLocked(items_.size());
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocking pop; waits for an item. Returns false iff the queue is closed
  /// *and* drained — the consumer's termination condition.
  bool Pop(T* out) VCD_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
      RecordDepthLocked(items_.size());
    }
    not_full_.NotifyOne();
    return true;
  }

 private:
  std::deque<T> items_ VCD_GUARDED_BY(mu_);
};

}  // namespace vcd::parallel
