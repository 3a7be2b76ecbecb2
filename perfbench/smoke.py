"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root (about 50 s, most of it the pinned gb-char0
case hitting its wall limit three times):

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced and a traced run exit 0 and
end with one JSON object whose metrics are exactly those BENCHMARK.json
lists, with its units, finite values, every answer checked correct and no
operation failed; that the pinned Witten input is reported as over its
wall limit on gb-char0; that the CLI
capture matches its record; and that run.py refuses, with a non-zero exit
and no result, a directory holding only the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gb-gfp", "gb-char0", "points")


def fail(message):
    raise SystemExit("smoke: FAIL: " + message)


def run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=180,
    )


def last_json(proc, what):
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(out)}")
    return out


def check_metrics(out, spec, what):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{what}: {name} = {m['value']!r}")
    if not out["correct"] or out["attempted"] < 1:
        fail(f"{what}: correct={out['correct']} attempted={out['attempted']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        base = [*bench["command"][1:], "--workload", workload, "--seed", "3"]
        proc = run(base + ["--seconds", "0.5", "--trace", "0"])
        out = last_json(proc, f"{workload} untraced")
        check_metrics(out, bench["end_to_end"], f"{workload} untraced")
        if out["failed"]:
            fail(f"{workload}: {out['failed']} failed operations")
        pinned = "pinned Witten left GB" in proc.stdout and "wall limit" in proc.stdout
        if (workload == "gb-char0") != pinned:
            fail(f"{workload}: pinned Witten case {'missing' if not pinned else 'reported'}")
        traced = [run(base + ["--seconds", "0.5", "--trace", "1", "--trace-ops", "7"])
                  for _ in range(2)]
        outs = [last_json(p, f"{workload} traced") for p in traced]
        for out in outs:
            check_metrics(out, bench["per_layer"], f"{workload} traced")
        counts = [{k: m["value"] for k, m in o["metrics"].items() if m["unit"] == "count"}
                  for o in outs]
        if counts[0] != counts[1]:
            fail(f"{workload}: traced counts differ between two runs of one seed")
        print(f"smoke: {workload} ok")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if run([os.path.join(HERE, "cli_capture.py")], env=env).returncode != 0:
        fail("CLI JSON differs from perfbench/cli_expected.json")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run([*bench["command"][1:], "--workload", "points", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("run.py did not refuse a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
