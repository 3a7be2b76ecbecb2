"""One workload in one fresh interpreter: set up, run, check, report.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):

    python3 perfbench/measure.py --workload gb-gfp --seed 1 --seconds 10 --trace 0
    python3 perfbench/measure.py --workload gb-gfp --setup-only

Prints one JSON object on its last line. The process is single-threaded;
the per-operation wall limit is a SIGALRM timer. Each operation is checked
as soon as it ends, outside its timed region, so the harness holds no
operation's objects while the next one runs.

The untraced run takes a fixed list of operations from the seed, sized so
that running and checking it takes about --seconds on the reference
machine, and runs it once; it stops early only past WALL_CAP times
--seconds.

Times are reported at reference speed. On a shared host the speed of the
machine wanders by tens of percent between windows of a few seconds, and
moves every operation alike. So a fixed pure-Python reference routine that
never calls the program is timed right after each operation; each
operation's wall time is scaled by REF_S over the mean of the reference
times on either side of it. A change to the program moves these times as it
moves wall times; a change in host speed moves both the operation and the
reference, and cancels. Raw wall times are reported beside them.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import time

import workloads

engine = None  # the program-facing module, imported inside the timed set-up
perf_counter = time.perf_counter

# An operation that runs longer than this is stopped and counts as failed.
# The slowest passing operation of any workload takes well under 1 s; the
# pinned Witten input runs for minutes.
OP_LIMIT_S = 10.0
# Operations run and checked per second of each workload on the reference
# machine, a 2-core Xeon VM at 2.0 GHz, with the host quiet; a run takes
# --seconds times as many. The list depends only on the seed and --seconds.
RATE = {"gb-gfp": 185, "gb-char0": 160, "points": 80}
# A run on a slow host stops after this many times --seconds of wall time
# and reports the operations done by then.
WALL_CAP = 1.6
# The reference routine's time on that machine with the host quiet.
REF_S = 0.00036
DIGEST_OPS = 200
# Operations per pass of a traced run: a fixed list, so counts repeat exactly.
TRACE_OPS = {"gb-gfp": 600, "gb-char0": 900, "points": 280}
# p95 needs 200 samples; every workload runs several times that many even
# on a slow machine. The few samples beyond p99 differ too much from seed
# to seed to compare commits, so the tail stays p95 on every commit.
TAIL_LADDER = (50.0, 90.0, 95.0)
FAILED = ("wrong", "raised", "timeout")


class OpTimeout(BaseException):
    """Raised by the wall-limit timer; a BaseException so that no handler
    inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_limited(fn, limit=OP_LIMIT_S):
    """(result, seconds, error) with the call stopped after `limit` seconds."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = perf_counter()
    try:
        result = fn()
        return result, perf_counter() - t0, None
    except OpTimeout:
        return None, perf_counter() - t0, f"exceeded the {limit:g} s wall limit"
    except Exception as exc:  # a raising operation is a failed operation
        return None, perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def setup(workload, root):
    """Import the program and build the workload's presentations; timed."""
    global engine
    t0 = perf_counter()
    import skewpbw

    here = os.path.realpath(os.path.join(root, "src", "skewpbw"))
    if os.path.dirname(os.path.realpath(skewpbw.__file__)) != here:
        raise SystemExit(f"skewpbw imported from {skewpbw.__file__}, not from {here}")
    import engine

    docs = workloads.documents(root)
    shared = engine.build(docs, workloads.ALGEBRAS[workload])
    return perf_counter() - t0, docs, shared


class Runner:
    """Runs operations on the presentations the workload prescribes."""

    def __init__(self, workload, docs, shared):
        self.docs = docs
        self.shared = shared if workloads.SHARED_PRESENTATIONS[workload] else None
        self.last = None

    def presentation(self, op):
        if self.shared is not None:
            return self.shared[op.algebra]
        if op.kind == "vanish" and op.extra.get("warm"):
            return self.last  # later lists of a group reuse the warm cache
        self.last = engine.load_presentation(self.docs[op.algebra])
        return self.last

    def run(self, op):
        """(args, result, seconds, error); only the call itself is timed."""
        args = engine.prepare(op, self.presentation(op))
        result, seconds, error = run_limited(lambda: engine.execute(op, args))
        return args, result, seconds, error


class Record:
    """Checked outcomes of operations, in order, and a digest of outputs.

    Outcomes are ok, unknown (an explicit unknown or inconclusive answer
    within budget), wrong, raised or timeout. The digest covers the first
    DIGEST_OPS outputs; reduced GBs are unique, so it compares commits.
    """

    def __init__(self, docs):
        self.docs = docs
        self.outcomes = []
        self.problems = []
        self.pinned = []
        self._digest = hashlib.sha256()

    def add(self, op, args, result, error):
        """Check an output in full; returns its outcome."""
        if error is not None:
            outcome, why, text = ("timeout" if "wall limit" in error else "raised"), error, "failed"
        else:
            try:
                outcome, why, text = engine.check(op, args, result, self.docs)
            except Exception as exc:
                outcome, why, text = "wrong", f"check raised {type(exc).__name__}: {exc}", ""
        self.outcomes.append(outcome)
        if outcome in FAILED:
            self.problems.append(f"op {op.index} {op.kind}/{op.algebra}: {why}")
        if len(self.outcomes) <= DIGEST_OPS:
            self._digest.update(f"{op.index} {op.kind} {op.algebra} {text}\n".encode())
        return outcome

    def run_pinned(self, workload, runner):
        """The pinned hard case of gb-char0, run after the timed loop.

        It is a known defect kept apart from the workload: it shows here and
        in the printed report, not in attempted and failed."""
        if workload != "gb-char0":
            return
        op = workloads.Op(-1, "pinned", "witten", workloads.PINNED_WITTEN)
        args, result, seconds, error = runner.run(op)
        if error is None:
            try:
                outcome, why, _ = engine.check(op, args, result, self.docs)
            except Exception as exc:
                outcome, why = "wrong", f"check raised {type(exc).__name__}: {exc}"
            error = f"{outcome} {why}".strip() + f" after {seconds:.2f} s"
        self.pinned.append(error)

    def summary(self):
        o = self.outcomes
        return {
            "attempted": len(o),
            "failed": sum(o.count(k) for k in FAILED),
            "unknown": o.count("unknown"),
            "outcomes": {k: o.count(k) for k in ("ok", "unknown") + FAILED},
            "problems": self.problems,
            "correct": o.count("wrong") == 0 and o.count("raised") == 0,
            "digest": self._digest.hexdigest()[:16],
            "digest_ops": min(len(o), DIGEST_OPS),
            "pinned": self.pinned,
        }


def tail(samples):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it."""
    n = len(samples)
    pct = max(p for p in TAIL_LADDER if p == 50.0 or n * (1 - p / 100) >= 10)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, int(round(pct / 100 * (n - 1))))]


def cli_check():
    import cli_capture

    digest, expected = cli_capture.capture_digest()
    return digest == expected, digest


_REF_TABLE = dict.fromkeys(range(512), 0)


def reference():
    """Seconds a fixed loop of int arithmetic and dict stores takes now. It
    allocates no container, so it never sets off a garbage collection."""
    table = _REF_TABLE
    acc = 1
    t0 = perf_counter()
    for i in range(2500):
        acc = (acc * 31 + i) % 1000003
        table[acc & 511] = acc
    return perf_counter() - t0


def reference_median(n=7):
    return statistics.median(reference() for _ in range(n))


def run_size(workload, seconds):
    return max(1, round(RATE[workload] * seconds))


def untraced(args, setup_s, docs, shared):
    runner = Runner(args.workload, docs, shared)
    record = Record(docs)
    size = run_size(args.workload, args.seconds)
    samples = []  # ms at reference speed, of the operations that did not fail
    raw = []  # the same operations' wall times, ms
    refs = []
    timed = 0.0
    wall_end = perf_counter() + WALL_CAP * args.seconds
    ref_before = reference()
    for op in itertools.islice(workloads.stream(args.workload, args.seed), size):
        if perf_counter() > wall_end:
            break
        op_args, result, seconds, error = runner.run(op)
        ref_after = reference()
        refs.append(ref_after)
        timed += seconds
        outcome = record.add(op, op_args, result, error)
        del op_args, result
        if outcome not in FAILED:
            samples.append(1000.0 * seconds * REF_S / ((ref_before + ref_after) / 2))
            raw.append(1000.0 * seconds)
        ref_before = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record.run_pinned(args.workload, runner)
    report = record.summary()
    report["cli_ok"], report["cli_digest"] = cli_check()
    report["correct"] = report["correct"] and report["cli_ok"]
    pct, tail_ms = tail(samples)
    report.update({
        "tail_pct": pct,
        "samples": len(samples),
        "size": size,
        "timed_s": timed,
        "reference_ms": statistics.median(refs) * 1000.0,
        "reference_nominal_ms": REF_S * 1000.0,
        "raw": {
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": tail(raw)[1],
            "ops_per_s": len(raw) / (sum(raw) / 1000.0),
        },
        "metrics": {
            "op_p50_ms": statistics.median(samples),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(samples) / (sum(samples) / 1000.0),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "failed_share": report["failed"] / report["attempted"],
            "unknown_share": report["unknown"] / report["attempted"],
        },
    })
    return report


SWEEP = workloads.Op(-2, "sandwich", "qplane_m1", ((((4, 0), (1,)),),))


def sweep(docs):
    """The README sandwich on a fresh presentation, so every layer runs in
    every traced pass; the input is fixed."""
    op = SWEEP
    pres = engine.load_presentation(docs["qplane_m1"])
    engine.execute(op, engine.prepare(op, pres))


def traced(args, docs, out_dir):
    import tracing

    # first, while the heap is small
    micro = tracing.scalar_microbench(random.Random(args.seed))
    count = args.trace_ops or TRACE_OPS[args.workload]
    ops = list(itertools.islice(workloads.stream(args.workload, args.seed), count))
    record = Record(docs)
    spans = tracing.SpanTracer()
    counters = tracing.Counters()
    # the three passes interleave operation by operation, each on its own
    # presentations, so machine-speed drift cannot pose as tracing overhead
    runners = [
        Runner(args.workload, docs, engine.build(docs, workloads.ALGEBRAS[args.workload]))
        for _ in range(3)
    ]
    base_s = span_s = count_s = 0.0
    for op in ops:
        op_args, result, seconds, error = runners[0].run(op)
        base_s += seconds
        record.add(op, op_args, result, error)
        del op_args, result
        spans.op_id = op.index
        spans.install()
        try:
            span_s += runners[1].run(op)[2]
        finally:
            spans.uninstall()
        counters.install()
        try:
            count_s += runners[2].run(op)[2]
        finally:
            counters.uninstall()
    spans.op_id = SWEEP.index
    for tracer in (spans, counters):
        tracer.install()
        try:
            sweep(docs)
        finally:
            tracer.uninstall()

    record.run_pinned(args.workload, Runner(args.workload, docs, None))
    spans.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"))

    by_name = dict(zip(spans.names, zip(spans.calls, spans.self_s)))

    def calls(name):
        return by_name[name][0]

    def self_s(name):
        return by_name[name][1]

    metrics = dict(micro)
    metrics.update({
        "scalars.ops": counters.scalar_ops,
        "poly.multiply.calls": calls("poly.multiply"),
        "poly.multiply.self_s": self_s("poly.multiply"),
        "poly.mono_times.calls": calls("poly.mono_times"),
        "poly.mono_times.self_s": self_s("poly.mono_times"),
        "poly.insert_var.miss_share": counters.insert_misses / counters.insert_calls,
        "poly.insert_cache.entries": counters.insert_cache_entries(),
        "groebner.divide.calls": calls("groebner.divide"),
        "groebner.divide.self_s": self_s("groebner.divide"),
        "groebner.spairs": counters.spairs,
        "groebner.spair.zero_share": counters.spair_zero / counters.spairs,
        "groebner.completion.calls": calls("groebner.completion"),
        "groebner.completion.self_s": self_s("groebner.completion"),
        "groebner.basis.max_len": counters.basis_max_len,
        "groebner.intersect.self_s": self_s("groebner.intersect"),
        "linalg.nullspace.calls": calls("linalg.nullspace"),
        "linalg.nullspace.self_s": self_s("linalg.nullspace"),
        "linalg.nullspace.cells": counters.nullspace_cells,
        "geometry.point_ideal.calls": calls("geometry.point_ideal"),
        "geometry.point_ideal.hit_share": counters.point_ideal_hits / counters.point_ideal_calls,
        "geometry.point_ideal.self_s": self_s("geometry.point_ideal"),
        "geometry.vanishing_set.self_s": self_s("geometry.vanishing_set"),
        "nullstellensatz.contract.self_s": self_s("nullstellensatz.contract"),
        "nullstellensatz.points_ideal.self_s": self_s("nullstellensatz.points_ideal"),
        "nullstellensatz.radical.self_s": self_s("nullstellensatz.radical"),
        "nullstellensatz.nilpotency.self_s": self_s("nullstellensatz.nilpotency"),
        "normality.central_probe.self_s": self_s("normality.central_probe"),
        "presentation.load.s": self_s("presentation.load"),
    })
    report = record.summary()
    report.update({
        "trace": {
            "ops": len(ops),
            "untraced_s": base_s,
            "span_s": span_s,
            "count_s": count_s,
            "spans": len(spans.start),
        },
        "metrics": metrics,
    })
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-ops", type=int, default=None,
                        help="operations per traced pass (smoke test)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", default=".")
    parser.add_argument("--out", default=os.path.join("perfbench", "out"))
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    ref_before = reference_median()  # before the program is imported
    setup_raw, docs, shared = setup(args.workload, args.root)
    setup_s = setup_raw * REF_S / ((ref_before + reference_median()) / 2)
    if args.setup_only:
        report = {"setup_s": setup_s, "setup_raw_s": setup_raw}
    elif args.trace:
        report = traced(args, docs, args.out)
    else:
        report = untraced(args, setup_s, docs, shared)
        report["setup_raw_s"] = setup_raw
    print(json.dumps(report))


if __name__ == "__main__":
    main()
