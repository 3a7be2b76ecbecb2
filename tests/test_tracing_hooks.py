"""The benchmark's tracers patch `skewpbw.groebner` functions by name.

Imports `perfbench/tracing.py` read-only and runs a left GB, a saturation
and a tracked GB under each of its two tracers, so that renaming or
reshaping a traced function fails here, not only in a traced benchmark run.
"""

import os

from skewpbw import groebner
from skewpbw.poly import parse_polynomial

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def test_tracers_count_the_groebner_hooks(monkeypatch, qplane_q2):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    gens = [parse_polynomial(t, qplane_q2) for t in ("x^2 - y", "x*y + 1")]
    counters, spans = tracing.Counters(), tracing.SpanTracer()
    for tracer in (counters, spans):
        tracer.install()
        try:
            groebner.left_groebner(gens)
            groebner.two_sided_saturate(gens)
            groebner.left_groebner(gens, track=True)
        finally:
            tracer.uninstall()
    assert counters.spairs > 0
    assert counters.basis_max_len > 0
    assert spans.calls[spans.names.index("groebner.completion")] > 0
