"""The benchmark's tracers patch `skewpbw.groebner` and `skewpbw.geometry`
functions by name.

Imports `perfbench/tracing.py` read-only and runs a left GB, a saturation,
a tracked GB, roots and a vanishing set under its tracers, so that renaming
or reshaping a traced function fails here, not only in a traced benchmark
run.
"""

import os

from skewpbw import geometry, groebner
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


def test_counters_see_point_ideal_calls(monkeypatch, qplane_gf5):
    """The traced benchmark divides point-ideal cache hits by point_ideal
    calls, and its only calls come through is_root."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    x = parse_polynomial("x", qplane_gf5)
    counters = tracing.Counters()
    counters.install()
    try:
        geometry.vanishing_set(qplane_gf5, [x], geometry.SearchDomain.full_prime_field())
        for coords in ([0, 3], [0, 3], [1, 1]):
            geometry.is_root(x, geometry.Point.of(qplane_gf5, coords))
    finally:
        counters.uninstall()
    assert counters.point_ideal_calls == 3
    assert counters.point_ideal_hits >= 1
