"""Benchmark of skewpbw: seeded closed-loop workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload gb-gfp --seed 1 --seconds 20 --trace 0

Workloads: gb-gfp, gb-char0, points (see workloads.py for why each).
One client, closed loop: the next operation starts when the previous one
ends. A run is a fixed number of operations drawn from the seed, and its
times are given at reference speed (see measure.py). The workload runs in
a fresh interpreter (measure.py) with no threads; set-up time is the
median over that interpreter and SETUP_REPEATS more that only set up. `--trace 1` runs a fixed list of
operations three times (untraced, with spans, with counters) and reports
the per-layer metrics instead of the end-to-end ones.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics. This script does not import the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 8
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take


def with_units(values, listed):
    """The metrics BENCHMARK.json lists, each with its value and unit."""
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in listed}


def child(argv, env, deadline):
    """Run measure.py to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark deadline passed before a step could start")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measure.py {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_checks(report):
    o = report["outcomes"]
    print(
        f"checks: {o['ok']} ok, {o['unknown']} unknown, {o['wrong']} wrong, "
        f"{o['raised']} raised, {o['timeout']} over the wall limit "
        f"({report['attempted']} attempted)"
    )
    for line in report["problems"][:20]:
        print("  failed: " + line)
    if report["pinned"]:
        print(f"pinned Witten left GB (known defect, outside attempted/failed): "
              f"{report['pinned'][0]}")
    print(f"digest of the first {report['digest_ops']} outputs: {report['digest']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="skewpbw benchmark")
    parser.add_argument("--workload", required=True, choices=("gb-gfp", "gb-char0", "points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-ops", type=int, default=None,
                        help="operations per traced pass; the default is sized per workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    for need in (os.path.join("src", "skewpbw", "__init__.py"), "algebras", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(f"no {need} here: run from the root of a skewpbw checkout\n")
            return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    common = ["--workload", args.workload, "--root", root]

    if args.trace:
        report = child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", "1", "--out", os.path.join(HERE, "out")]
                       + (["--trace-ops", str(args.trace_ops)] if args.trace_ops else []),
                       env, deadline)
        t = report["trace"]
        print(f"workload {args.workload}, seed {args.seed}: traced run, "
              f"{t['ops']} operations per pass")
        print(f"untraced pass {t['untraced_s']:.3f} s; span pass {t['span_s']:.3f} s "
              f"(overhead {100 * (t['span_s'] / t['untraced_s'] - 1):+.1f}%); "
              f"counting pass {t['count_s']:.3f} s "
              f"(overhead {100 * (t['count_s'] / t['untraced_s'] - 1):+.1f}%)")
        print(f"{t['spans']} spans written under {os.path.join('perfbench', 'out')}")
        metrics = with_units(report["metrics"], spec["per_layer"])
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        print_checks(report)
    else:
        report = child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds)],
                       env, deadline)
        setups = [(report["metrics"]["setup_s"], report["setup_raw_s"])]
        for _ in range(SETUP_REPEATS):
            s = child(common + ["--setup-only"], env, deadline)
            setups.append((s["setup_s"], s["setup_raw_s"]))
        m = dict(report["metrics"], setup_s=statistics.median(s for s, _ in setups))
        raw = dict(report["raw"], setup_s=statistics.median(r for _, r in setups))
        n = report["samples"]
        print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
              f"{report['attempted']} of {report['size']} operations run, "
              f"{report['timed_s']:.2f} s of operations")
        print(f"times at reference speed (reference routine {report['reference_ms']:.4f} ms "
              f"here, median; {report['reference_nominal_ms']:g} ms on the reference machine); "
              f"raw wall times in brackets")
        print(f"op_p50_ms     {m['op_p50_ms']:.4f} ms  [{raw['op_p50_ms']:.4f}]  "
              f"(median of {n} operations)")
        print(f"op_tail_ms    {m['op_tail_ms']:.4f} ms  [{raw['op_tail_ms']:.4f}]  "
              f"(p{report['tail_pct']:g} of {n} operations)")
        print(f"ops_per_s     {m['ops_per_s']:.3f} 1/s  [{raw['ops_per_s']:.3f}]  "
              f"(correct operations per second of operation time)")
        print(f"setup_s       {m['setup_s']:.4f} s  [{raw['setup_s']:.4f}]  "
              f"(median of {len(setups)} fresh interpreters)")
        print(f"peak_rss_mb   {m['peak_rss_mb']:.2f} MB  (workload process, end of the timed loop)")
        print(f"failed_share  {m['failed_share']:.6f}  ({report['failed']} of {report['attempted']})")
        print(f"unknown_share {m['unknown_share']:.6f}  ({report['unknown']} of {report['attempted']})")
        print_checks(report)
        print(f"CLI JSON digest {report['cli_digest']}: "
              + ("matches the recorded output" if report["cli_ok"] else "DIFFERS from the recorded output"))
        # failed_share and unknown_share are printed above but stay out of
        # the JSON metrics: both are 0 where nothing fails or runs out of
        # budget, and the JSON carries attempted and failed.
        metrics = with_units(m, spec["end_to_end"])
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
