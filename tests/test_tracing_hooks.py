"""The benchmark's tracers patch `skewpbw.groebner` and `skewpbw.geometry`
functions by name.

Imports `perfbench/tracing.py` read-only and runs a left GB, a saturation,
a tracked GB, roots and a vanishing set under its tracers, so that renaming
or reshaping a traced function fails here, not only in a traced benchmark
run. The S-pair counters must also agree with a spy on the completion, and
the raw elements the completion passes them must answer `is_zero()`.
"""

import os
import random
import zlib

from conftest import algebra_path
from documents import GF7SPACE
from oracles import random_polynomial
from skewpbw import geometry, groebner
from skewpbw.poly import Polynomial, parse_polynomial
from skewpbw.presentation import load_presentation, load_presentation_file

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
    calls, and its only calls come through is_root. point_ideal stores
    nothing, so no call is a hit."""
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
    assert counters.point_ideal_hits == 0


def _gb_gfp_inputs():
    """Seeded left-GB and saturation inputs over GF(5) and GF(7), like the
    gb-gfp benchmark's."""
    gf7 = load_presentation(GF7SPACE)
    rng = random.Random(zlib.crc32(b"gb-gfp hooks"))
    out = []
    for pres in (load_presentation_file(algebra_path("qplane_q2_gf5.alg")), gf7):
        for _ in range(12):
            gens = [random_polynomial(pres, rng, 3, 3) for _ in range(rng.randint(2, 3))]
            out.append([g for g in gens if not g.is_zero()])
    return [gens for gens in out if gens]


def test_spair_counters_match_a_spy(monkeypatch):
    """`Counters.spairs` and `spair_zero` count what the completion does:
    each `_s_element` call, and each S-element that is zero or whose
    reduction by `_reduce_with_cert` is zero. The spy sits under the
    tracer's wrappers, so both see the same calls."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    formed = []  # S-elements that were not zero
    seen = {"spairs": 0, "zero": 0}
    s_element, reduce_with_cert = groebner._s_element, groebner._reduce_with_cert

    def spy_s_element(*args):
        s, cert = s_element(*args)
        seen["spairs"] += 1
        if s.is_zero():
            seen["zero"] += 1
        else:
            formed.append(s)
        return s, cert

    def spy_reduce(f, *args):
        rem, cert = reduce_with_cert(f, *args)
        if any(f is s for s in formed) and rem.is_zero():
            seen["zero"] += 1
        return rem, cert

    monkeypatch.setattr(groebner, "_s_element", spy_s_element)
    monkeypatch.setattr(groebner, "_reduce_with_cert", spy_reduce)
    counters = tracing.Counters()
    counters.install()
    try:
        for gens in _gb_gfp_inputs():
            groebner.left_groebner(gens)
            groebner.two_sided_saturate(gens)
    finally:
        counters.uninstall()
    assert (counters.spairs, counters.spair_zero) == (seen["spairs"], seen["zero"])
    assert 0 < seen["zero"] < seen["spairs"]


def test_saturation_builds_no_polynomial_for_a_zero_reduction(monkeypatch):
    """An untracked saturation keeps S-elements, right multiples and their
    remainders raw: it builds a `Polynomial` only for a right factor, an
    element joining the basis or an element of the reduced basis, so none
    for the many S-elements and right multiples that reduce to zero."""
    built = []
    appended = []
    zero = [0]
    from_raw, append = Polynomial.from_raw, groebner._Memo.append
    reduce_with_cert = groebner._reduce_with_cert

    def spy_from_raw(*args, **kwargs):
        f = from_raw(*args, **kwargs)
        built.append(f)
        return f

    def spy_append(memo, g, lead, cert=None):
        appended.append(g)
        return append(memo, g, lead, cert)

    def spy_reduce(f, *args):
        rem, cert = reduce_with_cert(f, *args)
        zero[0] += rem.is_zero()
        return rem, cert

    monkeypatch.setattr(Polynomial, "from_raw", staticmethod(spy_from_raw))
    monkeypatch.setattr(groebner._Memo, "append", spy_append)
    monkeypatch.setattr(groebner, "_reduce_with_cert", spy_reduce)
    for gens in _gb_gfp_inputs():
        built.clear()
        appended.clear()
        H = groebner.two_sided_saturate(gens)
        pres = gens[0].pres
        factors = pres.n + (not pres.sigma_all_identity)
        assert all(not f.is_zero() for f in built)
        assert len(built) <= factors + len(appended) + len(H.basis)
    assert zero[0] > 0
