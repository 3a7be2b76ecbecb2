"""The benchmark's own correctness checks hold on its workloads.

Imports `perfbench/workloads.py` and `perfbench/engine.py` read-only, as
`test_tracing_hooks.py` imports `tracing`, and runs the first operations
of seed 1 through `engine.execute` and `engine.check` on the presentations
each workload prescribes, reused as `measure.Runner` reuses them, so that
an answer the benchmark would count wrong fails here, not only in a
benchmark run. On `points` that covers six groups: each group's later
vanishing sets run on the presentation of its first, with the partition
of GF(7)^3 cached, and the check compares sampled points with `is_root`.
"""

import itertools
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
OPS = {"gb-char0": 60, "gb-gfp": 60, "points": 54}


@pytest.mark.parametrize("workload", sorted(OPS))
def test_first_operations_check_correct(monkeypatch, workload):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import engine
    import workloads

    docs = workloads.documents(ROOT)
    shared = engine.build(docs, workloads.ALGEBRAS[workload])
    wrong = []
    outcomes = set()
    last = None
    for op in itertools.islice(workloads.stream(workload, 1), OPS[workload]):
        if workloads.SHARED_PRESENTATIONS[workload]:
            pres = shared[op.algebra]
        elif op.kind == "vanish" and op.extra.get("warm"):
            pres = last
        else:
            pres = last = engine.load_presentation(docs[op.algebra])
        args = engine.prepare(op, pres)
        outcome, why, _ = engine.check(op, args, engine.execute(op, args), docs)
        outcomes.add(outcome)
        if outcome == "wrong":
            wrong.append(f"op {op.index} {op.kind}/{op.algebra}: {why}")
    assert wrong == []
    assert "ok" in outcomes
