#!/usr/bin/env python3
"""End-to-end benchmark of vcdstream: VCDS bitstream -> partial decode -> DC
features -> min-hash windows -> HQ probe -> combine -> test -> MATCH.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload broadcast --seed 1 --seconds 15 --trace 0

It builds vcdctl and the benchmark tool (perfbench/CMakeLists.txt) under
.bench_build/, generates the workload's inputs from the seed (cached by seed
and parameters), then:

  --trace 0  times untraced `vcdctl monitor` invocations from outside the
             process, closed loop (files are fed as fast as vcdctl accepts
             them), interleaving the threaded run, the default serial run and
             a block of set-up runs until --seconds have passed, and reports
             the end-to-end metrics as medians over the repetitions;
  --trace 1  runs the in-process traced passes (pbtool trace) and reports the
             per-layer metrics; it also writes a Chrome trace file.

Every run checks its outputs: vcdctl exits 0 and prints no drop, shed,
degraded, quarantine or "stream stopped" line, the threaded run's shards
process every key frame, serial and threaded runs print identical MATCH sets,
and the traced serial pass matches vcdctl. The last stdout line is the JSON
result; the line before it records the host, the inputs' hash and the runs.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench-inputs")
CACHE_KEEP = 4  # input sets kept on disk
THREADS = 3     # shard threads; with the ingest thread the job uses 4
# Set-up runs per round: a block of at least SETUP_MIN and at most SETUP_MAX
# back-to-back runs, stopped once it has taken SETUP_BLOCK_S seconds.
SETUP_MIN, SETUP_MAX, SETUP_BLOCK_S = 3, 20, 0.5
INPUT_FILES = ["streams", "setup", "queries.vcdq", "truth.txt"]

# Generator parameters per workload (pbtool gen flags).
WORKLOADS = {
    "broadcast": {
        "width": 352, "height": 240, "streams": 6, "stream-seconds": 200,
        "planted-per-stream": 4, "vs1-share": 0.5, "filler-queries": 2,
    },
    "portfolio": {
        "width": 176, "height": 120, "streams": 3, "stream-seconds": 420,
        "planted-per-stream": 10, "vs1-share": 0.0, "filler-queries": 970,
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run_quiet(cmd, cwd=None):
    """Runs a helper command, sending its output to stderr."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def run_json(cmd):
    """Runs a helper command and returns the JSON object it prints."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no vcdstream sources next to %s" % HERE)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "--target", "vcdctl", "pbtool", "-j", jobs])
    return (os.path.join(BUILD, "vcd", "tools", "vcdctl"), os.path.join(BUILD, "pbtool"))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(base, rels):
    """sha256 over (relative path, content hash) of every file under rels."""
    h = hashlib.sha256()
    for rel in rels:
        top = os.path.join(base, rel)
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs]
        for p in sorted(paths):
            h.update(os.path.relpath(p, base).encode() + b"\0")
            h.update(sha256_file(p).encode())
    return h.hexdigest()


def generate(pbtool, params, seed):
    """Generates (or reuses) the inputs for params+seed. Returns the
    directory, the inputs' hash, the generator's summary (stream names, key
    frames, summed stream seconds) and the seconds generation took."""
    key_src = json.dumps({"params": params, "seed": seed, "tool": sha256_file(pbtool)},
                         sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    out = os.path.join(CACHE, key)
    manifest = os.path.join(out, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            recorded = json.load(f)
        if tree_digest(out, INPUT_FILES) != recorded["inputs_sha256"]:
            raise BenchError("cached inputs %s changed on disk" % out)
        os.utime(out)
        return out, recorded["inputs_sha256"], recorded["summary"], 0.0
    t0 = time.perf_counter()
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [pbtool, "gen", "--out", tmp, "--seed", str(seed)]
    for k, v in sorted(params.items()):
        cmd += ["--" + k, str(v)]
    summary = run_json(cmd)
    digest = tree_digest(tmp, INPUT_FILES)
    with open(os.path.join(tmp, "manifest.json"), "w") as f:
        json.dump({"params": params, "seed": seed, "inputs_sha256": digest,
                   "summary": summary}, f)
    os.rename(tmp, out)
    # Bound the cache: drop the least recently used input sets.
    sets = sorted((os.path.getmtime(os.path.join(CACHE, d)), d) for d in os.listdir(CACHE)
                  if not d.endswith(".tmp"))
    for _, d in sets[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(CACHE, d), ignore_errors=True)
    return out, digest, summary, time.perf_counter() - t0


def match_set(text):
    """Sorted MATCH lines of a vcdctl transcript (the comparable output)."""
    return sorted(l for l in text.splitlines() if l.startswith("MATCH "))


# vcdctl lines that report frames lost or processed on damaged data.
BAD_LINE_WORDS = ("dropped", "shed by", "stream stopped", "degraded", "discarded")


def gate_errors(run, key_frames=None):
    """Why one vcdctl invocation failed, or [] when it is clean. With
    key_frames (threaded runs), its shards must have processed exactly that
    many frames."""
    errs = []
    if run["rc"] != 0:
        errs.append("exit code %d" % run["rc"])
    processed, shards = 0, 0
    for line in (run["out"] + run["err"]).splitlines():
        low = line.lower()
        if any(w in low for w in BAD_LINE_WORDS):
            errs.append("reported: " + line.strip())
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "shard" and parts[3].startswith("frames"):
            processed += int(parts[2])
            shards += 1
    if key_frames is not None and (shards == 0 or processed != key_frames):
        errs.append("shards processed %d of %d key frames" % (processed, key_frames))
    return errs


def compare_match_sets(serial, threaded):
    """[] when the serial and threaded MATCH sets agree, else reasons."""
    if serial == threaded:
        return []
    only_s = sorted(set(serial) - set(threaded))
    only_t = sorted(set(threaded) - set(serial))
    return ["serial and threaded match sets differ (%d vs %d lines; only serial: %s; "
            "only threaded: %s)" % (len(serial), len(threaded), only_s[:3], only_t[:3])]


def spawn_timed(cmd, cwd, scratch):
    """Runs cmd to completion; returns wall seconds, peak RSS and output."""
    out_path, err_path = os.path.join(scratch, "out.txt"), os.path.join(scratch, "err.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        text = f.read()
    with open(err_path, errors="replace") as f:
        etext = f.read()
    return {"wall": wall, "rss_kib": usage.ru_maxrss, "rc": proc.returncode,
            "out": text, "err": etext}


def monitor_cmd(vcdctl, names, threaded):
    cmd = [vcdctl, "monitor", "../queries.vcdq"] + names
    if threaded:
        cmd += ["--threads", str(THREADS)]
    return cmd


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def score(pbtool, data, transcript, scratch):
    path = os.path.join(scratch, "score-in.txt")
    with open(path, "w") as f:
        f.write(transcript)
    return run_json([pbtool, "score", "--truth", os.path.join(data, "truth.txt"),
                     "--matches", path])


def timed_run(vcdctl, summary, data, kind, scratch):
    """One gated vcdctl invocation of the given kind."""
    sub = "setup" if kind == "setup" else "streams"
    cmd = monitor_cmd(vcdctl, summary["streams"], kind != "serial")
    r = spawn_timed(cmd, os.path.join(data, sub), scratch)
    # A set-up copy holds one key frame per stream.
    expect = {"threaded": summary["key_frames"], "setup": len(summary["streams"])}
    r["errors"] = gate_errors(r, expect.get(kind))
    r["matches"] = match_set(r["out"])
    if kind == "setup" and r["matches"]:
        r["errors"].append("set-up run reported matches")
    return r


def measure_e2e(vcdctl, pbtool, data, summary, seconds, scratch):
    kinds = ["threaded", "serial", "setup"]
    runs = {k: [] for k in kinds}
    t_end = time.perf_counter() + seconds
    rnd = 0
    while rnd < 3 or time.perf_counter() < t_end:
        for i in range(3):
            kind = kinds[(rnd + i) % 3]
            if kind != "setup":
                runs[kind].append(timed_run(vcdctl, summary, data, kind, scratch))
                continue
            block_end = time.perf_counter() + SETUP_BLOCK_S
            for rep in range(SETUP_MAX):
                if rep >= SETUP_MIN and time.perf_counter() >= block_end:
                    break
                runs[kind].append(timed_run(vcdctl, summary, data, kind, scratch))
        rnd += 1
    errors = ["%s run: %s" % (k, e) for k in kinds for r in runs[k] for e in r["errors"]]
    threaded = runs["threaded"][0]["matches"]
    for kind in ("threaded", "serial"):
        for r in runs[kind]:
            if r["matches"] != threaded:
                errors += compare_match_sets(r["matches"], threaded)
    scored = score(pbtool, data, runs["threaded"][0]["out"], scratch)
    attempted = (summary["key_frames"] * (len(runs["threaded"]) + len(runs["serial"]))
                 + len(summary["streams"]) * len(runs["setup"]))
    med = statistics.median
    stream_s = summary["stream_seconds"]
    metrics = {
        "realtime_x": stream_s / med([r["wall"] for r in runs["threaded"]]),
        "realtime_x_serial": stream_s / med([r["wall"] for r in runs["serial"]]),
        "setup_s": med([r["wall"] for r in runs["setup"]]),
        "peak_rss_mib": med([r["rss_kib"] for r in runs["threaded"]]) / 1024.0,
        "precision": scored["precision"],
        "recall": scored["recall"],
        "detect_delay_s_p50": scored["delay_p50_s"],
    }
    info = {
        "stream_seconds": stream_s, "key_frames_per_run": summary["key_frames"],
        "repetitions": {k: len(v) for k, v in runs.items()},
        "wall_s": {k: [round(r["wall"], 4) for r in v] for k, v in runs.items()},
        "score": scored, "matches": len(threaded),
    }
    return metrics, attempted, errors, info


def measure_traced(vcdctl, pbtool, data, summary, seconds, scratch, workload):
    ref = {}
    errors = []
    for kind in ("serial", "threaded"):
        r = timed_run(vcdctl, summary, data, kind, scratch)
        errors += ["%s vcdctl run: %s" % (kind, e) for e in r["errors"]]
        ref[kind] = r["matches"]
    errors += compare_match_sets(ref["serial"], ref["threaded"])
    trace_out = os.path.join(BUILD, "trace-%s.json" % workload)
    matches_out = os.path.join(scratch, "traced-matches.txt")
    cmd = [pbtool, "trace", "--data", data, "--seconds", str(seconds),
           "--ckpt-dir", fresh_dir(os.path.join(scratch, "ckpt")), "--trace-out", trace_out,
           "--matches-out", matches_out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    metrics = {}
    rounds = 0
    if proc.returncode != 0:
        errors.append("traced run failed (exit %d)" % proc.returncode)
    else:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rounds = result["rounds"]
        metrics = result["metrics"]
        with open(matches_out) as f:
            traced = match_set(f.read())
        if traced != ref["serial"]:
            errors.append("traced serial pass differs from vcdctl (%d vs %d matches)"
                          % (len(traced), len(ref["serial"])))
    # Four passes per round, plus the two reference vcdctl runs.
    attempted = summary["key_frames"] * (4 * max(rounds, 1) + 2)
    return metrics, attempted, errors, {"rounds": rounds, "trace_file": trace_out}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_facts(vcdctl):
    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True,
                                      text=True).stdout.strip())
        except (OSError, ValueError):
            return None
    isa = None
    proc = subprocess.run([vcdctl, "kernels"], capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        if line.rstrip().endswith("*"):
            isa = line.split()[0]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "kernel_isa": isa,
        "commit": commit,
        "source_sha256": tree_digest(ROOT, ["CMakeLists.txt", "src", "tools"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload %s (have %s)" % (args.workload, sorted(WORKLOADS)))
    spec = load_spec()

    vcdctl, pbtool = build()
    os.makedirs(CACHE, exist_ok=True)
    data, digest, summary, gen_s = generate(pbtool, WORKLOADS[args.workload], args.seed)
    scratch = fresh_dir(os.path.join(BUILD, "run-scratch"))
    if args.trace:
        metrics, attempted, errors, info = measure_traced(
            vcdctl, pbtool, data, summary, args.seconds, scratch, args.workload)
    else:
        metrics, attempted, errors, info = measure_e2e(
            vcdctl, pbtool, data, summary, args.seconds, scratch)
    shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        if metrics.get(m["name"]) is None:
            errors.append("metric %s was not measured" % m["name"])
    for e in errors:
        log("CHECK FAILED: " + e)
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "inputs_sha256": digest, "generate_s": round(gen_s, 3),
                 "traffic": "Bit representation, Sequential order, index on "
                            "(vcdctl's only detector configuration)",
                 "host": host_facts(vcdctl), "errors": errors})
    print(json.dumps({"info": info}))
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        # Any failed check fails every key frame of the run.
        "failed": int(attempted if errors else 0),
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(2)
