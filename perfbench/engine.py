"""Runs workload operations through the public skewpbw API and checks them.

Everything here imports the program, so the benchmark's own process-level
code (`run.py`) stays free of it and can time a fresh interpreter's import.
"""

import random

from skewpbw import (
    Budget,
    Point,
    Polynomial,
    SearchDomain,
    algebraic_witness,
    center_generators,
    divide,
    ideal_of_points,
    is_root,
    left_groebner,
    load_presentation,
    multiply,
    two_sided_saturate,
    vanishing_set,
    verify_sandwich,
)
from skewpbw.groebner import UNIT, UNKNOWN

import workloads

# gb-char0 budgets: counted in pairs, degrees and rounds, never time.
CHAR0_BUDGET = Budget(max_degree=6, max_pairs=40, max_rounds=6)


def build(docs, names):
    return {name: load_presentation(docs[name]) for name in names}


def scalar(field, coeff):
    prim = field.primitive()
    out = field.zero
    for k, c in enumerate(coeff):
        if c:
            term = field.coerce(c)
            out = out + (term * prim ** k if k else term)
    return out


def polynomial(pres, data):
    return Polynomial.from_dict(pres, {e: scalar(pres.field, c) for e, c in data})


def prepare(op, pres):
    """Turn an operation's plain data into program objects (untimed)."""
    polys = [polynomial(pres, p) for p in op.polys]
    pts = [Point.of(pres, c) for c in op.extra.get("points", ())]
    return pres, polys, pts


def execute(op, args):
    pres, polys, pts = args
    kind = op.kind
    if kind == "gb+sat":
        return left_groebner(polys), two_sided_saturate(polys)
    if kind == "divide":
        return divide(polys[0], polys[1:])
    if kind == "gb":
        return left_groebner(polys, budget=CHAR0_BUDGET)
    if kind == "gb-track":
        return left_groebner(polys, budget=CHAR0_BUDGET, track=True)
    if kind == "saturate":
        return two_sided_saturate(polys, budget=CHAR0_BUDGET)
    if kind == "pinned":
        return left_groebner(polys, budget=Budget(**workloads.PINNED_BUDGET))
    if kind == "vanish":
        return vanishing_set(pres, polys, SearchDomain.full_prime_field())
    if kind == "ideal-of-points":
        return ideal_of_points(pres, pts, op.extra["d"])
    if kind == "witness":
        return algebraic_witness(pres, pts)
    if kind == "sandwich":
        handle = two_sided_saturate(polys)
        grid = SearchDomain.grid([[pres.field.from_int(k) for k in workloads.SANDWICH_GRID]])
        return verify_sandwich(
            handle, center_generators(pres), grid, workloads.SANDWICH_D, workloads.SANDWICH_M
        )
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# correctness checks; they use only public API and their own arithmetic


def _remainder(f, basis):
    if f.is_zero():
        return f
    return divide(f, list(basis)).remainder


def _lm(g):
    return g.terms[0][0]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _is_reduced_against(g, leads):
    return not any(_divides(lm, e) for e, _ in g.terms for lm in leads)


def _s_element(pres, gi, gj):
    gamma = tuple(max(a, b) for a, b in zip(_lm(gi), _lm(gj)))
    parts = []
    for g in (gi, gj):
        shift = tuple(c - a for c, a in zip(gamma, _lm(g)))
        p = multiply(Polynomial.monomial(pres, shift), g)
        exp, lc = p.terms[0]
        if exp != gamma:
            raise AssertionError("S-element lead is not the lcm")
        parts.append(p.scale(lc.inv()))
    return parts[0] - parts[1]


def _check_certificates(handle, gens):
    if handle.certificates is None:
        return "missing certificates"
    for b, cert in zip(handle.basis, handle.certificates):
        total = Polynomial.zero(b.pres)
        for p, i, q in cert:
            total = total + multiply(multiply(p, gens[i]), q)
        if total != b:
            return f"certificate does not expand to {b}"
    return None


def check_handle(handle, gens, two_sided=False, track=False):
    """Reasons the handle is wrong, or None; unknown handles pass unchecked."""
    if track:
        bad = _check_certificates(handle, gens)
        if bad:
            return bad
    if handle.status == UNKNOWN:
        return None
    if handle.status == UNIT:
        one = Polynomial.one(gens[0].pres)
        return None if list(handle.basis) == [one] else "unit ideal without basis 1"
    basis = list(handle.basis)
    if not basis:
        return "proper ideal of nonzero generators with empty basis"
    pres = basis[0].pres
    leads = [_lm(g) for g in basis]
    for k, g in enumerate(basis):
        if g.terms[0][1] != pres.field.one:
            return f"basis element {g} is not monic"
        others = leads[:k] + leads[k + 1 :]
        if not _is_reduced_against(g, others) or not _is_reduced_against(
            Polynomial(pres, g.terms[1:]), [leads[k]]
        ):
            return f"basis element {g} is not reduced"
    for g in gens:
        if not _remainder(g, basis).is_zero():
            return f"generator {g} does not reduce to 0"
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not _remainder(_s_element(pres, basis[i], basis[j]), basis).is_zero():
                return f"S-element of {basis[i]} and {basis[j]} does not reduce to 0"
    if two_sided:
        for g in basis:
            for v in range(pres.n):
                gx = multiply(g, Polynomial.variable(pres, v))
                if not _remainder(gx, basis).is_zero():
                    return f"{g}*{pres.names[v]} does not reduce to 0"
    return None


def _handle_text(h):
    if h.status == UNKNOWN:
        return "unknown"
    return h.status + ":" + "|".join(str(g) for g in h.basis)


def _fresh(op, docs):
    pres = load_presentation(docs[op.algebra])
    return pres, [polynomial(pres, p) for p in op.polys], [
        Point.of(pres, c) for c in op.extra.get("points", ())
    ]


def output_text(op, result):
    """A canonical text of an operation's output: equal texts, equal outputs.

    Reduced GBs are unique, so the text of a correct result repeats exactly
    for the same input, on any commit."""
    kind = op.kind
    if kind == "gb+sat":
        return _handle_text(result[0]) + " / " + _handle_text(result[1])
    if kind == "divide":
        return str(result.remainder) + " | " + "|".join(str(q) for q in result.quotients)
    if kind in ("gb", "gb-track", "saturate", "pinned"):
        return _handle_text(result)
    if kind == "vanish":
        return ";".join(
            f"{Z}{tag[0]}"
            for Z, tag in sorted(result.table(), key=lambda t: str(t[0]))
            if tag != "non-root"
        )
    if kind == "ideal-of-points":
        return "|".join(str(f) for f in result)
    if kind == "witness":
        return "none:" + result.note if result.witness is None else str(result.witness)
    if kind == "sandwich":
        verdicts = (result.inclusion_radical, result.inclusion_points)
        return " ".join(verdicts) + ":" + "|".join(str(g) for g in result.j_center)
    raise ValueError(f"unknown operation kind {kind!r}")


def check(op, args, result, docs):
    """(outcome, reason, digest text) for one completed operation."""
    pres, polys, pts = args
    kind = op.kind
    unknown = False
    text = output_text(op, result)
    if kind == "gb+sat":
        left, two = result
        bad = check_handle(left, polys) or check_handle(two, polys, two_sided=True)
        unknown = UNKNOWN in (left.status, two.status)
    elif kind == "divide":
        f, divisors = polys[0], polys[1:]
        total = result.remainder
        for q, g in zip(result.quotients, divisors):
            total = total + multiply(q, g)
        bad = None
        if total != f:
            bad = "quotients and remainder do not reconstruct f"
        elif not _is_reduced_against(result.remainder, [_lm(g) for g in divisors]):
            bad = "remainder is not reduced"
    elif kind in ("gb", "gb-track", "saturate", "pinned"):
        bad = check_handle(result, polys, two_sided=kind == "saturate", track=kind == "gb-track")
        unknown = result.status == UNKNOWN
    elif kind == "vanish":
        bad, unknown = _check_vanish(op, result, docs)
    elif kind == "ideal-of-points":
        fresh, _, fresh_pts = _fresh(op, docs)
        bad = None
        for f in result:
            g = polynomial(fresh, _plain(f))
            if g.is_zero() or g.degree() > op.extra["d"]:
                bad = f"{f} is zero or above the truncation degree"
                break
            if any(is_root(g, Z) != "yes" for Z in fresh_pts):
                bad = f"{f} does not vanish on every point"
                break
    elif kind == "witness":
        bad = None
        if result.witness is None:
            unknown = True
        else:
            fresh, _, fresh_pts = _fresh(op, docs)
            g = polynomial(fresh, _plain(result.witness))
            if g.is_zero() or any(is_root(g, Z) != "yes" for Z in fresh_pts):
                bad = f"witness {result.witness} does not vanish on every point"
    elif kind == "sandwich":
        verdicts = (result.inclusion_radical, result.inclusion_points)
        bad = None
        if "refuted" in verdicts:
            bad = f"sandwich refuted: {verdicts}"
        elif len(polys) == 1 and verdicts != ("confirmed", "confirmed"):
            bad = f"x^4 sandwich gave {verdicts}, expected confirmed confirmed"
        unknown = "inconclusive" in verdicts
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    if bad:
        return "wrong", bad, text
    return ("unknown" if unknown else "ok"), "", text


def _plain(f):
    """A polynomial's terms as plain data, to move it to a fresh presentation."""
    field = f.pres.field
    out = []
    for e, c in f.terms:
        out.append((e, _plain_scalar(field, c)))
    return tuple(out)


def _plain_scalar(field, c):
    if field.spec.kind in ("gf", "Q"):
        return (c.value,)
    return tuple(c.value)


VANISH_SAMPLE = 12


def _check_vanish(op, report, docs):
    table = report.table()
    domain_size = 7 ** 3
    if len(table) != domain_size or len({p.coords for p, _ in table}) != domain_size:
        return "vanishing report does not partition GF(7)^3", False
    fresh, fresh_polys, _ = _fresh(op, docs)
    rng = random.Random(op.index)
    for Z, tag in rng.sample(table, VANISH_SAMPLE):
        P = Point.of(fresh, [c.value for c in Z.coords])
        verdicts = [is_root(f, P) for f in fresh_polys]
        expected = "root" if all(v == "yes" for v in verdicts) else (
            "unknown" if "unknown" in verdicts else "non-root"
        )
        got = "root" if tag in ("root", "degenerate") else tag
        if got != expected:
            return f"point {Z}: vanishing_set says {tag}, is_root says {expected}", False
    return None, bool(report.unknown)
