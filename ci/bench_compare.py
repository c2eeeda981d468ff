#!/usr/bin/env python3
"""Bench-regression gate: diff bench-smoke JSON against committed baselines.

Compares the tiny-config smoke outputs (bench_results/*_smoke.json, written
by `ci/check.sh --leg bench` / `--leg tail-latency`) against the committed
baselines in bench_results/baseline/ and flags any metric that regressed by
more than the threshold (default 15%): throughput-like metrics must not
drop, latency-like metrics (p99 etc.) must not rise. A metric the current
run reports but the baseline lacks (a new benchmark) is listed as NEW: it
is not gated until the baseline gains a row for it.

CI runners have noisy, heterogeneous performance, so the default outcome of
a regression is a GitHub `::warning::` annotation with exit 0 — visible on
the run without flaking the pipeline. Set BENCH_COMPARE_STRICT=1 (or pass
--strict) to turn regressions into a hard failure; the nightly workflow
does, after remeasuring the baseline on the same runner class.

Usage:
  ci/bench_compare.py                     # compare, warn on regressions
  ci/bench_compare.py --strict            # compare, fail on regressions
  ci/bench_compare.py --update-baselines  # snapshot current smoke outputs
  ci/bench_compare.py --baseline-dir D --current-dir D2 --threshold 0.15
"""

import argparse
import json
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Smoke files the gate knows how to diff. Every entry must exist in the
# current dir when the gate runs after the bench + tail-latency legs.
SMOKE_FILES = [
    "micro_lsm_smoke.json",
    "concurrent_writers_smoke.json",
    "value_log_smoke.json",
    "tail_latency_smoke.json",
]


def extract_metrics(filename, doc):
    """Returns {metric_name: (value, direction)} with direction 'higher' or
    'lower' (which way is better)."""
    metrics = {}
    if filename == "micro_lsm_smoke.json":
        # google-benchmark schema: real_time is the per-iteration wall time.
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            metrics[f"micro_lsm/{b['name']}/real_time"] = (b["real_time"], "lower")
    elif filename == "concurrent_writers_smoke.json":
        for r in doc.get("results", []):
            name = f"concurrent_writers/t{r['threads']}_s{r['num_shards']}"
            metrics[f"{name}/puts_per_sec"] = (r["puts_per_sec"], "higher")
    elif filename == "value_log_smoke.json":
        for r in doc.get("results", []):
            name = f"value_log/threshold{r['value_log_threshold']}"
            metrics[f"{name}/mib_per_sec"] = (r["mib_per_sec"], "higher")
            metrics[f"{name}/write_amp"] = (r["write_amp"], "lower")
    elif filename == "tail_latency_smoke.json":
        for m in doc.get("modes", []):
            name = f"tail_latency/{m['mode']}"
            metrics[f"{name}/puts_per_sec"] = (m["puts_per_sec"], "higher")
            metrics[f"{name}/p99_write_us"] = (m["write_latency_us"]["p99"], "lower")
    return metrics


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return extract_metrics(os.path.basename(path), doc)


def annotate(kind, title, message):
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::{kind} title={title}::{message}")


def compare(baseline_dir, current_dir, threshold, strict):
    regressions = []
    compared = 0
    missing = []
    new = []
    for name in SMOKE_FILES:
        current_path = os.path.join(current_dir, name)
        baseline_path = os.path.join(baseline_dir, name)
        if not os.path.exists(current_path):
            missing.append(f"{name} (no current smoke output)")
            continue
        if not os.path.exists(baseline_path):
            missing.append(f"{name} (no committed baseline)")
            continue
        base = load_metrics(baseline_path)
        cur = load_metrics(current_path)
        new.extend(sorted(set(cur) - set(base)))
        for metric, (base_value, direction) in sorted(base.items()):
            if metric not in cur:
                missing.append(f"{metric} (present in baseline, absent now)")
                continue
            cur_value, _ = cur[metric]
            compared += 1
            if base_value <= 0:
                continue  # nothing sane to ratio against
            ratio = cur_value / base_value
            if direction == "higher":
                regressed = ratio < 1.0 - threshold
                delta = f"{(1.0 - ratio) * 100:.1f}% slower"
            else:
                regressed = ratio > 1.0 + threshold
                delta = f"{(ratio - 1.0) * 100:.1f}% higher"
            if regressed:
                regressions.append(
                    f"{metric}: {base_value:.3g} -> {cur_value:.3g} ({delta})")

    for m in missing:
        print(f"bench-compare: SKIP {m}")
    for m in new:
        print(f"bench-compare: NEW {m} (no baseline row; not gated)")
        annotate("notice", "bench metric without baseline", m)
    print(f"bench-compare: {compared} metrics compared, "
          f"{len(regressions)} regressed beyond {threshold * 100:.0f}%")
    for r in regressions:
        print(f"bench-compare: REGRESSION {r}")
        annotate("warning" if not strict else "error",
                 "bench regression", r)
    if regressions and strict:
        return 1
    if regressions:
        print("bench-compare: warn-only mode "
              "(set BENCH_COMPARE_STRICT=1 to fail on regressions)")
    return 0


def update_baselines(baseline_dir, current_dir):
    os.makedirs(baseline_dir, exist_ok=True)
    copied = 0
    for name in SMOKE_FILES:
        src = os.path.join(current_dir, name)
        if not os.path.exists(src):
            print(f"bench-compare: no {name} to snapshot "
                  "(run ci/check.sh --leg bench --leg tail-latency first)")
            continue
        load_metrics(src)  # validate the schema before committing to it
        shutil.copyfile(src, os.path.join(baseline_dir, name))
        copied += 1
        print(f"bench-compare: baseline updated: {name}")
    return 0 if copied else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir",
                        default=os.path.join(REPO_ROOT, "bench_results", "baseline"))
    parser.add_argument("--current-dir",
                        default=os.path.join(REPO_ROOT, "bench_results"))
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional regression tolerance (default 0.15)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regressions (default: warn only)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="snapshot current smoke outputs as the baselines")
    args = parser.parse_args()

    if args.update_baselines:
        return update_baselines(args.baseline_dir, args.current_dir)
    strict = args.strict or os.environ.get("BENCH_COMPARE_STRICT") == "1"
    return compare(args.baseline_dir, args.current_dir, args.threshold, strict)


if __name__ == "__main__":
    sys.exit(main())
