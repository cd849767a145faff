#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the checked-in baseline.

Usage:
    check_bench_regression.py BASELINE FRESH METRIC [METRIC ...]

Fails (exit 1) if any named metric in FRESH is below MIN_RATIO times the
baseline value — i.e. a >20% regression at the default MIN_RATIO of 0.8.
Override the threshold with --min-ratio=0.9 before the file arguments.

Metrics are higher-is-better by default (throughput, speedup ratios);
":higher" says so explicitly.  Suffix a metric with ":lower" for
lower-is-better values (latencies, overhead ratios): the same MIN_RATIO
floor then applies to the inverted ratio baseline/fresh, so a fresh value
more than 1/MIN_RATIO times the baseline fails.  Any other suffix is a
usage error (exit 2) — a misspelled direction must never silently flip a
gate.

Both files are the BenchJson shape emitted by the bench binaries:

    { "bench": ..., "host": {...}, "results": [{"name", "value", "unit"}] }

The host block is printed for both sides so a cross-host comparison (e.g.
a baseline recorded on a 1-core container checked on a many-core CI
runner) is visible in the log rather than silently misleading.
"""

import json
import sys


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    values = {r["name"]: r["value"] for r in doc.get("results", [])}
    return doc.get("host", {}), values


def main(argv):
    min_ratio = 0.8
    args = []
    for a in argv[1:]:
        if a.startswith("--min-ratio="):
            min_ratio = float(a.split("=", 1)[1])
        else:
            args.append(a)
    if len(args) < 3:
        sys.stderr.write(__doc__)
        return 2

    baseline_path, fresh_path, metrics = args[0], args[1], args[2:]
    for spec in metrics:
        _, sep, direction = spec.partition(":")
        if sep and direction not in ("lower", "higher"):
            sys.stderr.write(f"bad metric direction in '{spec}': use "
                             f"':lower' or ':higher'\n")
            return 2
    base_host, base = load_results(baseline_path)
    fresh_host, fresh = load_results(fresh_path)
    print(f"baseline {baseline_path}: host={base_host}")
    print(f"fresh    {fresh_path}: host={fresh_host}")

    failed = []
    for spec in metrics:
        name, _, direction = spec.partition(":")
        lower_is_better = direction == "lower"
        if name not in base:
            print(f"FAIL {name}: missing from baseline {baseline_path}")
            failed.append(name)
            continue
        if name not in fresh:
            print(f"FAIL {name}: missing from fresh {fresh_path}")
            failed.append(name)
            continue
        b, f = base[name], fresh[name]
        if lower_is_better:
            ratio = b / f if f else float("inf")
        else:
            ratio = f / b if b else float("inf")
        verdict = "ok" if ratio >= min_ratio else "FAIL"
        arrow = "lower" if lower_is_better else "higher"
        print(f"{verdict:4s} {name} ({arrow}-is-better): baseline={b:.6g} "
              f"fresh={f:.6g} ratio={ratio:.3f} (floor {min_ratio:.2f})")
        if ratio < min_ratio:
            failed.append(name)

    if failed:
        print(f"perf regression in: {', '.join(failed)}")
        return 1
    print("no perf regression")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
