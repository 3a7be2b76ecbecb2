"""The benchmark's own correctness checks hold on its workloads, and its
recorded outputs do not move.

Imports `perfbench/workloads.py` and `perfbench/engine.py` read-only, as
`test_tracing_hooks.py` imports `tracing`, and runs the first operations
of seed 1 through `engine.execute` on the presentations each workload
prescribes, reused as `measure.Runner` reuses them, so that an answer the
benchmark would count wrong fails here, not only in a benchmark run. On
`points` that covers six groups: each group's later vanishing sets run on
the presentation of its first, with the partition of GF(7)^3 cached, and
the check compares sampled points with `is_root`.
"""

import hashlib
import itertools
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
OPS = {"gb-char0": 60, "gb-gfp": 60, "points": 54}
# The digest `measure.Record` reports for the first 200 outputs of seed 1.
# Reduced bases are unique, so a change that keeps every answer keeps
# these; one that changes an output re-pins them and says why.
DIGEST_OPS = 200
DIGESTS = {
    "gb-char0": "5b13029ba06d6e6a",
    "gb-gfp": "510ae3026a4dbd38",
    "points": "557f463497d57766",
}


def _executed(monkeypatch, workload, count):
    """(engine, docs, op, args, result) for the first `count` operations
    of seed 1, on presentations reused as `measure.Runner` reuses them."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import engine
    import workloads

    docs = workloads.documents(ROOT)
    shared = engine.build(docs, workloads.ALGEBRAS[workload])
    last = None
    for op in itertools.islice(workloads.stream(workload, 1), count):
        if workloads.SHARED_PRESENTATIONS[workload]:
            pres = shared[op.algebra]
        elif op.kind == "vanish" and op.extra.get("warm"):
            pres = last
        else:
            pres = last = engine.load_presentation(docs[op.algebra])
        args = engine.prepare(op, pres)
        yield engine, docs, op, args, engine.execute(op, args)


@pytest.mark.parametrize("workload", sorted(OPS))
def test_first_operations_check_correct(monkeypatch, workload):
    wrong = []
    outcomes = set()
    for engine, docs, op, args, result in _executed(monkeypatch, workload, OPS[workload]):
        outcome, why, _ = engine.check(op, args, result, docs)
        outcomes.add(outcome)
        if outcome == "wrong":
            wrong.append(f"op {op.index} {op.kind}/{op.algebra}: {why}")
    assert wrong == []
    assert "ok" in outcomes


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_first_outputs_keep_their_digest(monkeypatch, workload):
    """The same answers as recorded: the digest of the first 200 outputs
    of seed 1, hashed line by line as `measure.Record` hashes them."""
    digest = hashlib.sha256()
    for engine, _, op, _, result in _executed(monkeypatch, workload, DIGEST_OPS):
        text = engine.output_text(op, result)
        digest.update(f"{op.index} {op.kind} {op.algebra} {text}\n".encode())
    assert digest.hexdigest()[:16] == DIGESTS[workload]
