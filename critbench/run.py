#!/usr/bin/env python3
"""critter's benchmark: build, run one workload, check it, print the result.

    python3 critbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 critbench/run.py --smoke

Run from the repository root.  The first call configures and builds the
program (critbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check the build.

--trace 0 runs the workload untraced and reports every end-to-end metric
of BENCHMARK.json.  --trace 1 runs it twice, each in its own process and
for half the time: untraced, then with trace spans on; the per-layer
metrics come from the second run's trace, and obs.trace_overhead compares
the two runs' pass walls.  The last line of stdout is always the result
object {"correct", "attempted", "failed", "metrics"}; build logs and
diagnostics go to stderr.

--smoke is the benchmark's own test: every workload at minimal length,
traced and untraced, checking that every named metric is present with its
unit and that no sweep failed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["sweep-local", "sweep-parallel", "sweep-daemon", "sweep-sharded"]
CHILD_TIMEOUT_S = 150
# The benchmark spans' self times on the driving thread must cover the
# measured loop's wall time to within this share (README.md, "Trace checks").
RECONCILE_TOLERANCE = 0.01


def log(msg):
    print(f"critbench: {msg}", file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure and build critbench; return its path or exit 1."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "critbench"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return build_dir / "critbench", build_root


def run_critbench(binary, work_root, workload, seed, seconds, trace_out=None,
               smoke=False):
    """One critbench process; returns its JSON report or exits 1."""
    work_dir = work_root / f"{workload}-{os.getpid()}-{'t' if trace_out else 'u'}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work-dir", str(work_dir)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.pop("CRITTER_TRACE", None)  # critbench enables tracing itself
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # shard workers included
        proc.communicate()
        log(f"{workload}: critbench timed out after {CHILD_TIMEOUT_S}s")
        sys.exit(1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: critbench exited {proc.returncode} without a report")
        sys.exit(1)
    for err in report["errors"]:
        log(f"{workload}: {err}")
    return report


# --- trace analysis -----------------------------------------------------------

def span_self_times(trace_path):
    """Per-thread self time and count of every "bench" span.

    A span's self time is its duration minus the part its child spans on
    the same thread cover.  Returns {tid: {name: [self_us, count]}}.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for ev in events:
        if ev.get("ph") == "X" and ev.get("cat") == "bench":
            by_tid.setdefault(ev["tid"], []).append(
                (ev["ts"], ev["dur"], ev["name"]))
    selfs = {}
    for tid, spans in by_tid.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        acc = selfs.setdefault(tid, {})
        stack = []  # [end, name, dur, child_us]

        def close(entry):
            end, name, dur, child = entry
            slot = acc.setdefault(name, [0.0, 0])
            slot[0] += dur - child
            slot[1] += 1

        for ts, dur, name in spans:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, name, dur, 0.0])
        while stack:
            close(stack.pop())
    return selfs


def per_layer(report, untraced, trace_path, names):
    """Every per-layer metric, plus the trace checks' failures."""
    failures = []
    selfs = span_self_times(trace_path)
    main_tid = next((tid for tid, acc in selfs.items() if "bench.pass" in acc),
                    None)
    if main_tid is None:
        return {}, ["trace holds no bench.pass span"]

    # Every span critbench emitted must be in the file, once per call.
    total = {}
    for acc in selfs.values():
        for name, (_, n) in acc.items():
            total[name] = total.get(name, 0) + n
    for name, want in report["spans"].items():
        if total.get(name, 0) != want:
            failures.append(f"trace holds {total.get(name, 0)} {name} spans, "
                            f"critbench emitted {want}")

    # Reconciliation: the self times of the driving thread's bench spans
    # in the measured loop (everything but set-up and the references)
    # against the loop's own wall clock.
    span_s = 1e-6 * sum(us for name, (us, _) in selfs[main_tid].items()
                        if name not in ("bench.setup", "bench.reference"))
    loop_s = report["loop_wall_s"]
    residual = 1.0 - span_s / loop_s if loop_s > 0 else 1.0
    if abs(residual) > RECONCILE_TOLERANCE:
        failures.append(f"bench spans cover {span_s:.4f}s of the "
                        f"{loop_s:.4f}s loop (residual {residual:.2%})")
    log(f"trace reconciliation: spans {span_s:.4f}s, loop {loop_s:.4f}s, "
        f"residual {residual:+.4%} (tolerance {RECONCILE_TOLERANCE:.0%})")

    def self_s(name):
        return sum(acc.get(name, [0.0, 0])[0] for acc in selfs.values()) * 1e-6

    def span_n(name):
        return sum(acc.get(name, [0.0, 0])[1] for acc in selfs.values())

    c, lay = report["counts"], report["layer"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def tune_s(call):
        # Spans where critbench calls the session itself; the sessions'
        # own phase clocks (shards, daemon clients) elsewhere.
        s = self_s(f"bench.tune.{call}")
        return s if s > 0 else lay.get(f"tune.{call}_s", 0.0)

    batches, configs = c.get("tune.batches", 0), c.get("tune.configs", 0)
    sim_s = self_s("bench.sim.measure_config")
    sbytes = c.get("stat_store.bytes", 0)
    executed, skipped = c.get("profiler.executed", 0), c.get("profiler.skipped", 0)
    walls_t, walls_u = report["pass_wall_s"], untraced["pass_wall_s"]
    m = {
        "tune.ask_ms": ratio(tune_s("ask"), batches, 1e3),
        "tune.evaluate_ms": ratio(tune_s("evaluate"), batches, 1e3),
        "tune.tell_ms": ratio(tune_s("tell"), batches, 1e3),
        "tune.parallel_evaluate_ms_per_config":
            ratio(tune_s("evaluate"), configs, 1e3),
        "sim.events_per_s": ratio(c.get("sim.events", 0), sim_s),
        "sim.full_exec_ms": ratio(sim_s, span_n("bench.sim.measure_config"), 1e3),
        "profiler.skip_ratio": ratio(skipped, executed + skipped),
        "profiler.samples_per_config":
            ratio(c.get("profiler.samples", 0), c.get("profiler.configs", 0)),
        "stat_store.encode_MBps": ratio(sbytes, self_s("bench.stat_store.encode"), 1e-6),
        "stat_store.parse_MBps": ratio(sbytes, self_s("bench.stat_store.parse"), 1e-6),
        "stat_store.patch_encode_MBps":
            ratio(sbytes, self_s("bench.stat_store.patch_encode"), 1e-6),
        "stat_store.patch_vs_full_bytes": ratio(c.get("stat_store.patch_bytes", 0), sbytes),
        "stat_store.merge_ms": ratio(self_s("bench.stat_store.merge"),
                                     c.get("stat_store.probes", 0), 1e3),
        "net.rpc_ms_per_batch": ratio(lay.get("net.rpc_s", 0), c.get("net.batches", 0), 1e3),
        "net.bytes_per_batch": ratio(lay.get("net.bytes", 0), c.get("net.batches", 0)),
        "serve.status_rtt_ms": ratio(self_s("bench.serve.status"),
                                     span_n("bench.serve.status"), 1e3),
        "serve.ask_ms": ratio(lay.get("serve.ask_s", 0), c.get("serve.asks", 0), 1e3),
        "serve.tell_ms": ratio(lay.get("serve.tell_s", 0), c.get("serve.tells", 0), 1e3),
        "serve.journal_flush_ms": ratio(lay.get("serve.flush_s", 0),
                                        c.get("serve.flushes", 0), 1e3),
        "serve.journal_bytes_per_tell": ratio(lay.get("serve.journal_bytes", 0),
                                              c.get("serve.tells", 0)),
        "dist.exchange_s": ratio(lay.get("dist.exchange_s", 0), c.get("dist.sweeps", 0)),
        "dist.checkpoint_s": ratio(lay.get("dist.checkpoint_s", 0), c.get("dist.sweeps", 0)),
        "dist.evaluate_s": ratio(lay.get("dist.evaluate_s", 0), c.get("dist.sweeps", 0)),
        "dist.exchange_bytes_per_round": ratio(c.get("dist.exchange_bytes", 0),
                                               c.get("dist.exchange_rounds", 0)),
        "obs.trace_overhead": ratio(statistics.median(walls_t),
                                    statistics.median(walls_u))
        if walls_t and walls_u else 0.0,
        "obs.span_residual": residual,
    }
    missing = [n for n in names if n not in m]
    if missing:
        failures.append(f"no rule for per-layer metrics {missing}")
    return m, failures


# --- result -------------------------------------------------------------------

def result_line(correct, attempted, failed, values, metric_specs):
    metrics, ok = {}, correct
    for ms in metric_specs:
        v = values.get(ms["name"])
        if v is None or not math.isfinite(v):
            log(f"metric {ms['name']} was not measured")
            ok = False
            continue
        metrics[ms["name"]] = {"value": v, "unit": ms["unit"]}
    return {"correct": ok, "attempted": max(int(attempted), 1),
            "failed": int(failed), "metrics": metrics}


def measure(binary, work_root, workload, seed, seconds, trace, smoke=False):
    sp = spec()
    if not trace:
        rep = run_critbench(binary, work_root, workload, seed, seconds, smoke=smoke)
        values = {}
        for ms in sp["end_to_end"]:
            got = rep["end_to_end"].get(ms["name"])
            if got is not None and got["unit"] == ms["unit"]:
                values[ms["name"]] = got["value"]
        log(f"{workload}: {len(rep['pass_wall_s'])} passes, "
            f"{rep['batch_samples']} batch samples, host {rep['host']}")
        return result_line(rep["failed"] == 0, rep["attempted"], rep["failed"],
                           values, sp["end_to_end"])
    untraced = run_critbench(binary, work_root, workload, seed, seconds / 2,
                          smoke=smoke)
    trace_path = work_root / f"trace-{workload}-{os.getpid()}.json"
    try:
        traced = run_critbench(binary, work_root, workload, seed, seconds / 2,
                            trace_out=trace_path, smoke=smoke)
        names = [ms["name"] for ms in sp["per_layer"]]
        values, failures = per_layer(traced, untraced, trace_path, names)
    finally:
        trace_path.unlink(missing_ok=True)
    for f in failures:
        log(f"{workload}: trace check failed: {f}")
    failed = untraced["failed"] + traced["failed"]
    return result_line(failed == 0 and not failures,
                       untraced["attempted"] + traced["attempted"], failed,
                       values, sp["per_layer"])


def smoke(binary, work_root):
    """Every workload, minimal length, untraced and traced."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            # result_line() marks a run with any metric missing incorrect.
            res = measure(binary, work_root, workload, 0, 0.0, trace, smoke=True)
            ok = res["correct"] and res["failed"] == 0
            bad += not ok
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} ({len(res['metrics'])} metrics, "
                  f"{res['failed']}/{res['attempted']} failed)")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    binary, build_root = build()
    work_root = build_root / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(binary, work_root)
    res = measure(binary, work_root, args.workload, args.seed, args.seconds,
                  args.trace)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
