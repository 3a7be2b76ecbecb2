"""Normal-element tests and centrality probes."""

import os
import random

import pytest

from conftest import ALGEBRA_DIR, algebra_path
from oracles import normal_from_parts, random_polynomial, random_scalar
from skewpbw import linalg, normality
from skewpbw.normality import central_probe, is_normal
from skewpbw.poly import Polynomial, exponents_up_to, multiply, parse_polynomial
from skewpbw.presentation import Presentation, load_presentation_file
from skewpbw.scalars import FieldSpec, InputError, get_field

SHIPPED = sorted(f for f in os.listdir(ALGEBRA_DIR) if f.endswith(".alg"))


def test_central_probe_examples(qplane_m1, qplane_q2):
    assert central_probe(parse_polynomial("x^2", qplane_m1))
    assert not central_probe(parse_polynomial("x", qplane_q2))
    assert central_probe(Polynomial.one(qplane_q2))


def _probe_ring(name, request):
    """A shipped algebra, the conjugation-twisted plane, or a plane over
    Q(z_12) whose variables act by the Galois maps z -> z^5 and z -> z^7."""
    if name.endswith(".alg"):
        return load_presentation_file(algebra_path(name))
    if name == "galois_pair":
        return Presentation(get_field(FieldSpec.cyclotomic(12)), ("x", "y"), sigma=(5, 7))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", SHIPPED + ["conj_qplane", "galois_pair"])
def test_central_probe_matches_products(name, request):
    """central_probe says what the definition says: sigma^alpha fixes the
    field on supp f, and multiply(f, x_j) == multiply(x_j, f) for every j.
    The cases are the monomials of degree <= 4, with coefficient 1 and
    with a seeded one, seeded polynomials and sums of two monomials; both
    verdicts occur unless the ring is commutative."""
    pres = _probe_ring(name, request)
    rng = random.Random(name)
    xs = [Polynomial.variable(pres, j) for j in range(pres.n)]
    monos = [Polynomial.monomial(pres, e) for e in exponents_up_to(pres.n, 4)]
    monos += [m * random_scalar(pres.field, rng) for m in monos]
    cases = monos + [Polynomial.zero(pres)]
    cases += [random_polynomial(pres, rng, 3, 3) for _ in range(20)]
    cases += [rng.choice(monos) + rng.choice(monos) for _ in range(20)]
    verdicts = set()
    for f in cases:
        fixed = all(pres.sigma_power(e) == 1 for e, _ in f.raw)
        expected = fixed and all(multiply(f, x) == multiply(x, f) for x in xs)
        assert central_probe(f) == expected, f
        verdicts.add(expected)
    assert verdicts == ({True} if pres.commutative else {True, False})


def test_is_normal_x_quantum_plane(qplane_q2):
    verdict = is_normal(parse_polynomial("x", qplane_q2))
    assert verdict.status == "normal"
    g, gprime = verdict.certificate[1]
    assert str(g) == "2*y"  # y*x = x*(2y)
    # verify both witness identities
    x = parse_polynomial("x", qplane_q2)
    y = parse_polynomial("y", qplane_q2)
    assert multiply(x, g) == multiply(y, x)
    assert multiply(gprime, x) == multiply(x, y)


@pytest.mark.parametrize("name", SHIPPED)
def test_witnesses_have_degree_one(name):
    """lm(f*g) = lm f + lm g, so a witness of f*g = x_j*f or g'*f = f*x_j
    has degree exactly 1: every witness is_normal returns does, and it
    satisfies its identity. Inputs: every monomial of degree <= 3 and
    seeded binomials of such monomials."""
    pres = load_presentation_file(algebra_path(name))
    rng = random.Random(name)
    monos = exponents_up_to(pres.n, 3)
    inputs = [Polynomial.monomial(pres, e) for e in monos]
    for _ in range(12):
        a, b = rng.sample(monos, 2)
        c = random_scalar(pres.field, rng)
        inputs.append(Polynomial.monomial(pres, a) + Polynomial.monomial(pres, b, c))
    statuses = set()
    for f in inputs:
        verdict = is_normal(f)
        statuses.add(verdict.status)
        if verdict.status != "normal":
            continue
        for j, (g, gprime) in verdict.certificate.items():
            xj = Polynomial.variable(pres, j)
            assert g.degree() == gprime.degree() == 1, (f, j)
            assert multiply(f, g) == multiply(xj, f)
            assert multiply(gprime, f) == multiply(f, xj)
    assert "normal" in statuses


@pytest.mark.parametrize("name", SHIPPED)
def test_spans_are_built_once_per_call(name, monkeypatch):
    """is_normal reduces its two spans, {x^b*f} and {f*x^b}, once per call
    (none when the scalar check decides), and each right witness is the
    one a fresh span per generator gives."""
    pres = load_presentation_file(algebra_path(name))
    rng = random.Random(name)
    monos = exponents_up_to(pres.n, 1)
    inputs = [Polynomial.monomial(pres, e) for e in exponents_up_to(pres.n, 2)]
    inputs += [random_polynomial(pres, rng, 2, 2) for _ in range(8)]
    echelon = linalg.Echelon
    built = []

    class Counted(echelon):
        def __init__(self, field):
            built.append(field)
            super().__init__(field)

    statuses = set()
    for f in (f for f in inputs if not f.is_zero()):
        built.clear()
        monkeypatch.setattr(linalg, "Echelon", Counted)
        verdict = is_normal(f)
        monkeypatch.setattr(linalg, "Echelon", echelon)
        statuses.add(verdict.status)
        scalar = verdict.counter_witness and verdict.counter_witness[0] == "scalar"
        assert len(built) == (0 if scalar else 2), f
        if verdict.status != "normal":
            continue
        for j, (_, gprime) in verdict.certificate.items():
            fresh = echelon(pres.field)
            for b in monos:
                fresh.reduce(b, dict((Polynomial.monomial(pres, b) * f).raw))
            target = multiply(f, Polynomial.variable(pres, j))
            assert normality._solve_combination(fresh, target, pres) == gprime
    assert "normal" in statuses


def test_failed_left_witness_is_an_engine_fault(monkeypatch, qplane_m1):
    """Once the scalar check passed, the left solve is exact, so a witness
    that fails f*g = x_j*f is an engine fault: RuntimeError, never an
    `unknown` verdict."""
    solve = normality._solve_combination

    def off_by_one(echelon, target, pres):
        v = solve(echelon, target, pres)
        return None if v is None else v + Polynomial.one(pres)

    monkeypatch.setattr(normality, "_solve_combination", off_by_one)
    with pytest.raises(RuntimeError, match="left witness"):
        is_normal(parse_polynomial("x", qplane_m1))


def test_is_normal_counterexample(qplane_m1):
    verdict = is_normal(parse_polynomial("x+y", qplane_m1))
    assert verdict.status == "not_normal"
    assert verdict.counter_witness is not None


def test_is_normal_unit(qplane_m1):
    assert is_normal(Polynomial.one(qplane_m1)).status == "normal"
    with pytest.raises(InputError):
        is_normal(Polynomial.zero(qplane_m1))


def test_normal_from_parts_examples(qplane_m1, qplane_q2, QQ):
    f, verdict = normal_from_parts(
        qplane_q2, QQ.one, (1, 0), Polynomial.one(qplane_q2)
    )
    assert str(f) == "x" and verdict.status == "normal"

    h = parse_polynomial("x^2*y^2", qplane_m1)
    f2, verdict2 = normal_from_parts(qplane_m1, QQ.from_int(3), (0, 0), h)
    assert str(f2) == "3*x^2*y^2"
    assert is_normal(f2).status == "normal"

    with pytest.raises(InputError):
        normal_from_parts(qplane_q2, QQ.one, (0, 0), parse_polynomial("x", qplane_q2))


def test_normal_from_parts_outputs_revalidate(qplane_m1, QQ, rng):
    centrals = [
        Polynomial.one(qplane_m1),
        parse_polynomial("x^2", qplane_m1),
        parse_polynomial("x^2*y^2 + 2", qplane_m1),
        parse_polynomial("y^4 - x^2", qplane_m1),
    ]
    for h in centrals:
        for alpha in [(0, 0), (1, 0), (2, 1)]:
            f, _ = normal_from_parts(qplane_m1, QQ.from_int(2), alpha, h)
            assert is_normal(f).status == "normal"


def test_central_elements_are_normal(qplane_m1):
    for text in ("x^2", "y^2", "x^2*y^2 + 3"):
        f = parse_polynomial(text, qplane_m1)
        assert central_probe(f)
        assert is_normal(f).status == "normal"


def test_commutative_everything_normal(comm2, rng):
    for _ in range(25):
        f = random_polynomial(comm2, rng, 3, 3)
        if f.is_zero():
            continue
        assert is_normal(f).status == "normal"


def test_verified_normal_coefficients_are_units(qplane_q2):
    # over a field every nonzero scalar is a unit; record the trivial check
    verdict = is_normal(parse_polynomial("x", qplane_q2))
    assert verdict.status == "normal"
    f = parse_polynomial("x", qplane_q2)
    for _, c in f.terms:
        assert not c.is_zero() and c * c.inv() == qplane_q2.field.one


def test_sigma_twisted_scalar_counterexample():
    """With conjugation on one variable, x + x^2 has differing sigma powers
    on its support, so some scalar escapes: not normal."""
    G = get_field(FieldSpec.gaussian())
    pres = Presentation(
        G,
        ("x", "y"),
        sigma=(-1, 1),
    )
    f = parse_polynomial("x + x^2", pres)
    verdict = is_normal(f)
    assert verdict.status == "not_normal"
    assert verdict.counter_witness[0] == "scalar"
    # direct confirmation: i*f cannot be f*s for any scalar s
    i_const = Polynomial.constant(pres, G.primitive())
    lhs = multiply(i_const, f)
    for s in (G.primitive(), -G.primitive()):
        assert lhs != multiply(f, Polynomial.constant(pres, s))


def test_twisted_left_witness_is_untwisted(conj_qplane):
    """On the conjugation-twisted plane x is normal. Its left witness for y
    solves x*g = y*x = i*x*y; the system is solved for v = sigma_x(g), so
    v = i*y, and g = -i*y is v passed back through sigma_x^-1."""
    f = parse_polynomial("x", conj_qplane)
    verdict = is_normal(f)
    assert verdict.status == "normal"
    g, _ = verdict.certificate[1]
    assert g == parse_polynomial("-i*y", conj_qplane)
    assert multiply(f, g) == multiply(Polynomial.variable(conj_qplane, 1), f)
