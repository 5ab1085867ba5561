#include "traced_run.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "ckpt/checkpointer.h"
#include "core/detector.h"
#include "core/query_store.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "parallel/executor.h"
#include "score.h"
#include "trace.h"
#include "video/partial_decoder.h"

namespace pb {

using vcd::Result;
using vcd::Status;
using vcd::StatusCode;
namespace core = vcd::core;
namespace ckpt = vcd::ckpt;
namespace obs = vcd::obs;
namespace parallel = vcd::parallel;
namespace video = vcd::video;
namespace fs = std::filesystem;

namespace {

/// Shard threads of the executor passes, as in the benchmark's
/// `vcdctl monitor --threads 3`.
constexpr int kThreads = 3;

struct Input {
  std::string name;
  std::vector<uint8_t> bytes;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile \p q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

Result<std::vector<uint8_t>> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

/// Span durations (µs) of every span named \p name.
std::vector<double> DurationsUs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

/// Appends \p src to \p dst, re-basing its parent indices.
void AppendSpans(const std::vector<Span>& src, std::vector<Span>* dst) {
  const int base = static_cast<int>(dst->size());
  for (Span s : src) {
    if (s.parent >= 0) s.parent += base;
    dst->push_back(s);
  }
}

/// Everything the rounds accumulate.
struct Samples {
  // serial pass
  std::vector<double> key_frame_us, fingerprint_us, window_us, core_us;
  std::vector<double> serial_process_s;
  int64_t key_frames = 0, p_frames_skipped = 0, windows = 0, stream_bytes = 0;
  vcd::RunningStats candidates, signatures, pool_slots;
  // executor passes
  std::vector<double> exec1_shard_s, exec1_submit_us, exec3_traced_s, exec3_untraced_s,
      overhead_pct;
  std::vector<double> submit_us, submit_share, busy_max, busy_min, drain_ms;
  std::vector<double> import_ms, load_ms;
  double queue_high_water = 0;
  // checkpoints
  std::vector<double> barrier_ms, save_ms, snapshot_mib, restore_ms;
};

struct PassOut {
  double process_s = 0;  ///< first frame to last match folded in
  std::vector<std::string> matches;  ///< sorted MATCH lines
};

Result<PassOut> SerialPass(const std::vector<Input>& inputs, const core::QueryDb& db,
                           core::DetectorConfig config, int64_t expect_key_frames,
                           obs::MetricsRegistry* reg, SpanRecorder* rec, Samples* smp) {
  config.metrics = reg;
  PassOut out;
  std::vector<int> window_calls;  // span indices of calls that closed a window
  rec->Clear();
  const int pass = rec->Begin("pass.serial", 0);
  int64_t key_frames = 0, p_skipped = 0, windows = 0;
  vcd::RunningStats cand, sigs, slots;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int64_t sid = static_cast<int64_t>(i) + 1;
    ScopedSpan stream_span(rec, "stream", sid);
    auto det = core::CopyDetector::Create(config);
    if (!det.ok()) return det.status();
    {
      ScopedSpan s(rec, "setup.AddQuerySketch", sid);
      for (const core::StoredQuery& q : db.queries) {
        VCD_RETURN_IF_ERROR((*det)->AddQuerySketch(q.id, q.sketch, q.length_frames,
                                                   q.duration_seconds));
      }
    }
    video::PartialDecoder pd;
    VCD_RETURN_IF_ERROR(pd.Open(inputs[i].bytes.data(), inputs[i].bytes.size()));
    const auto& fp = (*det)->fingerprinter();
    const int64_t t0 = obs::NowNanos();
    video::DcFrame f;
    for (;;) {
      Status st;
      {
        ScopedSpan s(rec, "video.NextKeyFrame", sid);
        st = pd.NextKeyFrame(&f);
      }
      if (st.code() == StatusCode::kNotFound) break;
      VCD_RETURN_IF_ERROR(st);
      vcd::features::CellId id;
      {
        ScopedSpan s(rec, "features.Fingerprint", sid);
        id = fp.Fingerprint(f);
      }
      const int64_t before = (*det)->stats().windows;
      const int span = rec->Begin("core.ProcessFingerprint", sid);
      st = (*det)->ProcessFingerprint(f.frame_index, f.timestamp, id);
      rec->End(span);
      VCD_RETURN_IF_ERROR(st);
      if ((*det)->stats().windows != before) window_calls.push_back(span);
    }
    {
      ScopedSpan s(rec, "core.Finish", sid);
      VCD_RETURN_IF_ERROR((*det)->Finish());
    }
    out.process_s += Seconds(obs::NowNanos() - t0);
    for (const core::Match& m : (*det)->matches()) {
      out.matches.push_back(FormatMatchLine(inputs[i].name, m));
    }
    const core::DetectorStats& ds = (*det)->stats();
    key_frames += pd.stats().key_frames;
    p_skipped += pd.stats().p_frames_skipped;
    windows += ds.windows;
    cand.Merge(ds.candidates_per_window);
    sigs.Merge(ds.signatures_per_window);
    slots.Merge(ds.pool_slots_per_window);
  }
  rec->End(pass);
  if (key_frames != expect_key_frames) {
    return Status::Internal("serial pass decoded " + std::to_string(key_frames) +
                            " key frames, the truth file lists " +
                            std::to_string(expect_key_frames));
  }

  const std::vector<Span>& spans = rec->spans();
  for (int idx : window_calls) {
    smp->window_us.push_back((spans[idx].end_ns - spans[idx].start_ns) / 1e3);
  }
  for (double d : DurationsUs(spans, "video.NextKeyFrame")) smp->key_frame_us.push_back(d);
  for (double d : DurationsUs(spans, "features.Fingerprint")) smp->fingerprint_us.push_back(d);
  for (const char* n : {"core.ProcessFingerprint", "core.Finish"}) {
    for (double d : DurationsUs(spans, n)) smp->core_us.push_back(d);
  }
  smp->serial_process_s.push_back(out.process_s);
  smp->key_frames = key_frames;
  smp->p_frames_skipped = p_skipped;
  smp->windows = windows;
  smp->candidates = cand;
  smp->signatures = sigs;
  smp->pool_slots = slots;
  std::sort(out.matches.begin(), out.matches.end());
  return out;
}

/// Quiesces \p exec and saves one snapshot; records barrier/save spans.
Status TakeCheckpoint(parallel::StreamExecutor* exec, ckpt::Checkpointer* ckptr,
                      const core::DetectorConfig& config,
                      const std::vector<uint8_t>& db_bytes, const std::string& dir,
                      SpanRecorder* rec, Samples* smp) {
  const int64_t t0 = obs::NowNanos();
  Result<parallel::ExecutorCkpt> ec = Status::Internal("unset");
  {
    ScopedSpan s(rec, "ckpt.Checkpoint", 0);
    ec = exec->Checkpoint();
  }
  VCD_RETURN_IF_ERROR(ec.status());
  const int64_t t1 = obs::NowNanos();
  const uint64_t epoch = ckptr->next_epoch();
  {
    ScopedSpan s(rec, "ckpt.Save", 0);
    ckpt::SnapshotState state;
    ckpt::StampMeta(config, &state);
    state.query_db = db_bytes;
    state.next_stream_id = ec->next_stream_id;
    state.next_seq = ec->next_seq;
    state.streams = std::move(ec->streams);
    for (const parallel::SeqMatch& m : ec->matches) {
      state.matches.push_back(ckpt::SnapshotMatch{m.seq, m.match});
    }
    state.qos = std::move(ec->qos);
    VCD_RETURN_IF_ERROR(ckptr->Save(state));
  }
  const int64_t t2 = obs::NowNanos();
  smp->barrier_ms.push_back((t1 - t0) / 1e6);
  smp->save_ms.push_back((t2 - t1) / 1e6);
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%016" PRIu64 ".vck", epoch);
  std::error_code err;
  const auto size = fs::file_size(fs::path(dir) / name, err);
  if (!err) smp->snapshot_mib.push_back(static_cast<double>(size) / (1 << 20));
  return Status::OK();
}

struct ExecOptions {
  int threads = 1;
  std::string ckpt_dir;  ///< empty: no checkpoint after the drain
};

/// One StreamExecutor pass fed round-robin, like vcdctl. With a recorder it
/// also measures ingest, shard and checkpoint costs into \p smp. Fails
/// unless the shards processed exactly \p expect_key_frames frames, none of
/// them degraded.
Result<PassOut> ExecPass(const std::vector<Input>& inputs, const core::QueryDb& db,
                         const std::vector<uint8_t>& db_bytes,
                         const core::DetectorConfig& config, const ExecOptions& eo,
                         int64_t expect_key_frames, SpanRecorder* rec, Samples* smp) {
  core::ParallelConfig pc;
  pc.num_threads = eo.threads;
  auto exec = parallel::StreamExecutor::Create(config, pc);
  if (!exec.ok()) return exec.status();
  const int64_t i0 = obs::NowNanos();
  {
    ScopedSpan s(rec, "parallel.ImportQueries", 0);
    VCD_RETURN_IF_ERROR((*exec)->ImportQueries(db));
  }
  const double import_ms = (obs::NowNanos() - i0) / 1e6;
  std::unique_ptr<ckpt::Checkpointer> ckptr;
  if (!eo.ckpt_dir.empty()) {
    fs::remove_all(eo.ckpt_dir);
    fs::create_directories(eo.ckpt_dir);
    auto c = ckpt::Checkpointer::Open(eo.ckpt_dir);
    if (!c.ok()) return c.status();
    ckptr = std::make_unique<ckpt::Checkpointer>(std::move(*c));
  }
  std::vector<video::PartialDecoder> decoders(inputs.size());
  std::vector<int> ids(inputs.size());
  std::vector<bool> done(inputs.size(), false);
  for (size_t i = 0; i < inputs.size(); ++i) {
    decoders[i].set_resync_on_corruption(true);  // vcdctl's default (skip)
    VCD_RETURN_IF_ERROR(decoders[i].Open(inputs[i].bytes.data(), inputs[i].bytes.size()));
    auto sid = (*exec)->OpenStream(inputs[i].name);
    if (!sid.ok()) return sid.status();
    ids[i] = *sid;
  }
  const int pass = rec != nullptr ? rec->Begin(eo.threads == 1 ? "pass.exec1" : "pass.exec", 0) : -1;
  const int64_t t0 = obs::NowNanos();
  int64_t submit_ns = 0;
  bool any = true;
  video::DcFrame f;
  while (any) {
    any = false;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (done[i]) continue;
      Status st;
      {
        ScopedSpan s(rec, "video.NextKeyFrame", ids[i]);
        st = decoders[i].NextKeyFrame(&f);
      }
      if (!st.ok()) {
        if (st.code() != StatusCode::kNotFound) return st;
        done[i] = true;
        continue;
      }
      any = true;
      const int64_t s0 = obs::NowNanos();
      {
        ScopedSpan s(rec, "parallel.ProcessKeyFrame", ids[i]);
        st = (*exec)->ProcessKeyFrame(ids[i], std::move(f));
      }
      submit_ns += obs::NowNanos() - s0;
      VCD_RETURN_IF_ERROR(st);
    }
  }
  const int64_t t1 = obs::NowNanos();
  {
    ScopedSpan s(rec, "parallel.Drain", 0);
    for (int id : ids) VCD_RETURN_IF_ERROR((*exec)->CloseStream(id));
    VCD_RETURN_IF_ERROR((*exec)->Drain());
  }
  const int64_t t2 = obs::NowNanos();
  if (rec != nullptr) rec->End(pass);
  PassOut out;
  out.process_s = Seconds(t2 - t0);
  for (const core::StreamMatch& m : (*exec)->matches()) {
    out.matches.push_back(FormatMatchLine(m.stream_name, m.match));
  }
  std::sort(out.matches.begin(), out.matches.end());
  const parallel::ExecutorStats stats = (*exec)->Stats();
  int64_t processed = 0, degraded = 0;
  for (const auto& sh : stats.shards) {
    processed += sh.frames_processed;
    degraded += sh.frames_degraded;
  }
  if (processed != expect_key_frames || degraded != 0) {
    return Status::Internal(std::to_string(eo.threads) + "-thread executor pass processed " +
                            std::to_string(processed) + " key frames (" +
                            std::to_string(degraded) + " degraded), the truth file lists " +
                            std::to_string(expect_key_frames));
  }
  if (rec == nullptr) return out;
  const std::vector<double> submit_us = DurationsUs(rec->spans(), "parallel.ProcessKeyFrame");
  if (eo.threads == 1) {
    smp->exec1_shard_s.push_back(stats.shards[0].busy_seconds);
    smp->exec1_submit_us.push_back(Median(submit_us));
    return out;
  }

  // N-thread traced pass: ingest, shard, drain and checkpoint figures.
  smp->import_ms.push_back(import_ms);
  smp->submit_us.insert(smp->submit_us.end(), submit_us.begin(), submit_us.end());
  smp->submit_share.push_back(static_cast<double>(submit_ns) / static_cast<double>(t1 - t0));
  smp->drain_ms.push_back((t2 - t1) / 1e6);
  double mx = 0, mn = 1e300;
  for (const auto& sh : stats.shards) {
    const double share = sh.busy_seconds / out.process_s;
    mx = std::max(mx, share);
    mn = std::min(mn, share);
    smp->queue_high_water =
        std::max(smp->queue_high_water, static_cast<double>(sh.queue_high_water));
  }
  smp->busy_max.push_back(mx);
  smp->busy_min.push_back(mn);
  if (ckptr == nullptr) return out;
  VCD_RETURN_IF_ERROR(TakeCheckpoint(exec->get(), ckptr.get(), config, db_bytes,
                                     eo.ckpt_dir, rec, smp));
  // Recovery cost of the newest snapshot on a fresh executor.
  const int64_t r0 = obs::NowNanos();
  {
    ScopedSpan s(rec, "ckpt.Restore", 0);
    auto reader = ckpt::Checkpointer::Open(eo.ckpt_dir);
    if (!reader.ok()) return reader.status();
    auto state = reader->LoadLatest();
    if (!state.ok()) return state.status();
    auto fresh = parallel::StreamExecutor::Create(config, pc);
    if (!fresh.ok()) return fresh.status();
    auto embedded = core::DeserializeQueries(state->query_db.data(), state->query_db.size());
    if (!embedded.ok()) return embedded.status();
    VCD_RETURN_IF_ERROR((*fresh)->ImportQueries(*embedded));
    parallel::ExecutorCkpt ec;
    ec.next_stream_id = state->next_stream_id;
    ec.next_seq = state->next_seq;
    ec.streams = std::move(state->streams);
    for (const ckpt::SnapshotMatch& m : state->matches) {
      ec.matches.push_back(parallel::SeqMatch{m.seq, m.match});
    }
    ec.qos = std::move(state->qos);
    VCD_RETURN_IF_ERROR((*fresh)->RestoreCkpt(ec));
  }
  smp->restore_ms.push_back((obs::NowNanos() - r0) / 1e6);
  return out;
}

int64_t CounterValue(const obs::MetricsRegistry& reg, const std::string& name) {
  int64_t v = 0;
  for (const obs::MetricSnapshot& m : reg.Collect()) {
    if (m.name == name) v += m.value;
  }
  return v;
}

double HistMeanUs(const obs::MetricsRegistry& reg, const std::string& name) {
  int64_t sum = 0, count = 0;
  for (const obs::MetricSnapshot& m : reg.Collect()) {
    if (m.name != name) continue;
    sum += m.sum;
    count += m.count;
  }
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) / 1e3 : 0.0;
}

Status CheckSame(const PassOut& ref, const PassOut& got, const char* what) {
  if (ref.matches == got.matches) return Status::OK();
  return Status::Internal(std::string(what) + " pass reported " +
                          std::to_string(got.matches.size()) +
                          " matches that differ from the serial pass's " +
                          std::to_string(ref.matches.size()));
}

}  // namespace

Result<TraceResult> RunTraced(const TraceOptions& o) {
  auto truth = ReadTruth(o.data_dir + "/truth.txt");
  if (!truth.ok()) return truth.status();
  std::vector<Input> inputs;
  for (const StreamTruth& st : truth->streams) {
    auto bytes = ReadAll(o.data_dir + "/streams/" + st.name);
    if (!bytes.ok()) return bytes.status();
    inputs.push_back(Input{st.name, std::move(*bytes)});
  }
  const std::string db_path = o.data_dir + "/queries.vcdq";
  auto db_bytes = ReadAll(db_path);
  if (!db_bytes.ok()) return db_bytes.status();

  Samples smp;
  for (const Input& in : inputs) smp.stream_bytes += static_cast<int64_t>(in.bytes.size());
  obs::MetricsRegistry reg;
  SpanRecorder rec;
  std::vector<Span> first_round;
  PassOut reference;
  int64_t key_frames_total = 0;
  for (const StreamTruth& st : truth->streams) key_frames_total += st.key_frames;
  const ExecOptions e1{1, ""};
  const ExecOptions e3{kThreads, o.ckpt_dir};
  const ExecOptions e3_untraced{kThreads, ""};
  const int64_t deadline = obs::NowNanos() + static_cast<int64_t>(o.seconds * 1e9);
  for (int round = 0; round == 0 || obs::NowNanos() < deadline; ++round) {
    const int64_t l0 = obs::NowNanos();
    auto db = core::LoadQueriesFile(db_path);
    if (!db.ok()) return db.status();
    smp.load_ms.push_back((obs::NowNanos() - l0) / 1e6);
    core::DetectorConfig config;
    config.K = db->k;
    config.hash_seed = db->hash_seed;
    config.delta = 0.7;  // vcdctl monitor's defaults
    config.window_seconds = kWindowSeconds;

    auto serial = SerialPass(inputs, *db, config, key_frames_total, &reg, &rec, &smp);
    if (!serial.ok()) return serial.status();
    if (round == 0) {
      reference = *serial;
      first_round = rec.spans();
    } else {
      VCD_RETURN_IF_ERROR(CheckSame(reference, *serial, "repeated serial"));
    }

    rec.Clear();
    auto exec1 = ExecPass(inputs, *db, *db_bytes, config, e1, key_frames_total, &rec, &smp);
    if (!exec1.ok()) return exec1.status();
    VCD_RETURN_IF_ERROR(CheckSame(reference, *exec1, "1-thread executor"));
    if (round == 0) AppendSpans(rec.spans(), &first_round);

    // Alternate which of the traced/untraced N-thread passes runs first.
    Result<PassOut> traced = Status::Internal("unset");
    Result<PassOut> untraced = Status::Internal("unset");
    for (int k = 0; k < 2; ++k) {
      if ((k + round) % 2 == 0) {
        rec.Clear();
        traced = ExecPass(inputs, *db, *db_bytes, config, e3, key_frames_total, &rec, &smp);
        if (!traced.ok()) return traced.status();
        if (round == 0) AppendSpans(rec.spans(), &first_round);
      } else {
        untraced = ExecPass(inputs, *db, *db_bytes, config, e3_untraced, key_frames_total,
                              nullptr, &smp);
        if (!untraced.ok()) return untraced.status();
      }
    }
    VCD_RETURN_IF_ERROR(CheckSame(reference, *traced, "N-thread executor"));
    VCD_RETURN_IF_ERROR(CheckSame(reference, *untraced, "untraced N-thread executor"));
    smp.exec3_traced_s.push_back(traced->process_s);
    smp.exec3_untraced_s.push_back(untraced->process_s);
    smp.overhead_pct.push_back(100.0 * (traced->process_s - untraced->process_s) /
                               untraced->process_s);
  }

  if (!o.matches_out.empty()) {
    std::ofstream m(o.matches_out);
    for (const std::string& line : reference.matches) m << line << "\n";
    if (!m) return Status::Internal("cannot write " + o.matches_out);
  }
  if (!o.trace_out.empty()) VCD_RETURN_IF_ERROR(WriteChromeTrace(first_round, o.trace_out));

  const double serial_s = Sum(smp.serial_process_s);
  const double rounds = static_cast<double>(smp.serial_process_s.size());
  const double video_s = Sum(smp.key_frame_us) / 1e6;
  const double features_s = Sum(smp.fingerprint_us) / 1e6;
  const double core_s = Sum(smp.core_us) / 1e6;
  std::fprintf(stderr,
               "serial busy time by layer: video %.1f%%  features %.1f%%  core %.1f%%"
               "  other %.1f%%  (%.3f s over %zu rounds)\n",
               100 * video_s / serial_s, 100 * features_s / serial_s, 100 * core_s / serial_s,
               100 * (serial_s - video_s - features_s - core_s) / serial_s, serial_s,
               smp.serial_process_s.size());

  const double windows_total = static_cast<double>(CounterValue(reg, "vcd_detector_windows_total"));
  const double hits = static_cast<double>(CounterValue(reg, "vcd_detector_prune_hits_total"));
  const double misses = static_cast<double>(CounterValue(reg, "vcd_detector_prune_misses_total"));
  const double builds = static_cast<double>(CounterValue(reg, "vcd_detector_bitsig_builds_total"));
  const double key_frames = static_cast<double>(smp.key_frames);
  TraceResult result;
  result.rounds = static_cast<int>(smp.serial_process_s.size());
  result.metrics = {
      {"video.key_frame_us_mean", Mean(smp.key_frame_us)},
      {"video.key_frame_us_p99", Percentile(smp.key_frame_us, 0.99)},
      {"video.busy_share", video_s / serial_s},
      {"video.mb_per_s",
       static_cast<double>(smp.stream_bytes) * static_cast<double>(smp.serial_process_s.size()) /
           (1 << 20) / video_s},
      {"video.key_frames", key_frames},
      {"video.p_frames_skipped", static_cast<double>(smp.p_frames_skipped)},
      {"features.fingerprint_us_mean", Mean(smp.fingerprint_us)},
      {"features.busy_share", features_s / serial_s},
      {"core.window_us_mean", Mean(smp.window_us)},
      {"core.window_us_p99", Percentile(smp.window_us, 0.99)},
      {"core.busy_share", core_s / serial_s},
      {"core.windows", static_cast<double>(smp.windows)},
      {"core.candidates_per_window", smp.candidates.mean()},
      {"core.signatures_per_window", smp.signatures.mean()},
      {"core.pool_slots_per_window", smp.pool_slots.mean()},
      {"core.prune_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0},
      {"index.probe_us_mean", HistMeanUs(reg, "vcd_window_probe_ns")},
      {"index.related_per_window", windows_total > 0 ? builds / windows_total : 0.0},
      {"sketch.window_build_us_mean", HistMeanUs(reg, "vcd_window_sketch_build_ns")},
      {"stream.combine_us_mean", HistMeanUs(reg, "vcd_window_combine_ns")},
      {"sketch.test_us_mean", HistMeanUs(reg, "vcd_window_test_ns")},
      {"core.load_queries_ms", Median(smp.load_ms)},
      {"parallel.import_queries_ms", Median(smp.import_ms)},
      {"parallel.submit_us_mean", Mean(smp.submit_us)},
      {"parallel.submit_us_p99", Percentile(smp.submit_us, 0.99)},
      {"parallel.ingest_blocked_share", Median(smp.submit_share)},
      {"parallel.shard_busy_share_max", Median(smp.busy_max)},
      {"parallel.shard_busy_share_min", Median(smp.busy_min)},
      {"parallel.queue_high_water", smp.queue_high_water},
      {"parallel.drain_ms", Median(smp.drain_ms)},
      // Decode overlaps detection in the 1-thread executor, so its wall time
      // can undercut the serial pass; the handoff is taken from busy times:
      // the typical enqueue plus the shard's work beyond the serial pass's
      // fingerprint and detector calls.
      {"parallel.handoff_us_per_frame",
       Median(smp.exec1_submit_us) +
           (Mean(smp.exec1_shard_s) - (features_s + core_s) / rounds) / key_frames * 1e6},
      {"ckpt.barrier_ms_mean", Mean(smp.barrier_ms)},
      {"ckpt.save_ms_mean", Mean(smp.save_ms)},
      {"ckpt.snapshot_mib", Mean(smp.snapshot_mib)},
      {"ckpt.restore_ms", Median(smp.restore_ms)},
      {"trace.overhead_pct", Median(smp.overhead_pct)},
  };
  return result;
}

}  // namespace pb
