"""Seeded inputs, operations and correctness checks of the three workloads.

Inputs are plain data (exponent tuples and integer coefficients) generated
from the seed; they become `Polynomial`s and `Point`s on a presentation
only outside the timed region, so the program under test receives nothing
but the generated polynomials and points.

- ``gb-gfp``: left GB plus two-sided saturation over GF(5) and GF(7).
  Scalars are cheap ints, so time sits in division, S-pairs and the warm
  rewriting cache; one presentation per algebra serves the whole run.
- ``gb-char0``: division, left GBs (some with certificates) and
  saturations over Q, Q(i) and Q(zeta_5), each on a fresh presentation,
  so exact coefficient growth and cold normal ordering dominate.
- ``points``: vanishing sets over GF(7)^3 with a cold then warm
  point-ideal cache, ideals of points, algebraic witnesses and the
  README's radical-sandwich family. Few S-pairs are formed here.
"""

import itertools
import os
import random
from fractions import Fraction

# Presentation documents. Shipped ones are read from ``algebras/`` so the
# benchmark runs the same documents as the CLI.
SHIPPED = {
    "gf5plane": "qplane_q2_gf5.alg",
    "witten": "witten.alg",
    "qspace3": "qspace3.alg",
    "qplane_m1": "qplane_m1.alg",
}
INLINE = {
    "gf7space": (
        "field: gf:7\nvars: x, y, z\n"
        "relation: y*x = 2*x*y\nrelation: z*x = 3*x*z\nrelation: z*y = 5*y*z\n"
    ),
    "zeta5plane": "field: cyclotomic:5\nvars: x, y\nrelation: y*x = z*x*y\n",
}


def documents(root="."):
    docs = dict(INLINE)
    for name, fname in SHIPPED.items():
        with open(os.path.join(root, "algebras", fname), encoding="utf-8") as fh:
            docs[name] = fh.read()
    return docs


# (field kind, number of variables) per algebra; used by the generators,
# which must not touch the program.
SHAPE = {
    "gf5plane": ("gf", 5, 2),
    "gf7space": ("gf", 7, 3),
    "witten": ("Q", None, 3),
    "qspace3": ("Q(i)", None, 3),
    "zeta5plane": ("cyc", 4, 2),
    "qplane_m1": ("Q", None, 2),
}

# The Witten input whose left GB runs for minutes over Q although its
# budget caps degree and pairs: budgets do not bound time. It is a fixed
# gb-char0 operation so that defect always shows in failed_share.
PINNED_WITTEN = (
    (((2, 0, 1), (-2,)), ((0, 3, 0), (-3,)), ((0, 2, 0), (2,)), ((0, 0, 1), (-2,))),
    (((2, 1, 0), (1,)), ((1, 2, 0), (-3,)), ((0, 0, 3), (2,))),
)
PINNED_BUDGET = {"max_degree": 10, "max_pairs": 2000}

# polynomial lists per vanishing-set group: the first meets a cold
# point-ideal cache, the rest a warm one
VANISH_LISTS = 6
SANDWICH_GRID = range(-2, 3)
SANDWICH_D = 4
SANDWICH_M = 4


class Op:
    """One operation: its kind, algebra and plain-data arguments."""

    __slots__ = ("index", "kind", "algebra", "polys", "extra")

    def __init__(self, index, kind, algebra, polys, extra=None):
        self.index = index
        self.kind = kind
        self.algebra = algebra
        self.polys = polys
        self.extra = extra or {}


# ---------------------------------------------------------------------------
# generators (plain data only)


def _exponents(n, max_degree):
    return [
        e
        for e in itertools.product(range(max_degree + 1), repeat=n)
        if sum(e) <= max_degree
    ]


def _coeff(rng, algebra):
    kind, param, _ = SHAPE[algebra]
    if kind == "gf":
        return (rng.randrange(1, param),)
    if kind == "Q":
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        return (Fraction(num, rng.choice((1, 1, 1, 2))),)
    if kind == "Q(i)":
        a, b = 0, 0
        while a == 0 and b == 0:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        return (a, b)
    c = [0] * param
    for k in rng.sample(range(param), rng.randint(1, 2)):
        c[k] = rng.choice((-2, -1, 1, 2))
    return tuple(c)


def _poly(rng, algebra, max_degree, max_terms, min_degree=1):
    n = SHAPE[algebra][2]
    monos = _exponents(n, max_degree)
    top = [e for e in monos if sum(e) >= min_degree]
    terms = {rng.choice(top): _coeff(rng, algebra)}
    for _ in range(rng.randint(0, max_terms - 1)):
        terms.setdefault(rng.choice(monos), _coeff(rng, algebra))
    return tuple(sorted(terms.items()))


def stream_gb_gfp(rng):
    for index in itertools.count():
        if index % 2 == 0:
            polys = tuple(_poly(rng, "gf5plane", 4, 4) for _ in range(3))
            yield Op(index, "gb+sat", "gf5plane", polys)
        else:
            polys = tuple(_poly(rng, "gf7space", 2, 4) for _ in range(4))
            yield Op(index, "gb+sat", "gf7space", polys)


GB_CHAR0_CYCLE = (
    ("divide", "witten"),
    ("gb", "witten"),
    ("gb", "qspace3"),
    ("saturate", "zeta5plane"),
    ("gb-track", "zeta5plane"),
    ("saturate", "qspace3"),
)


def stream_gb_char0(rng):
    for index in itertools.count():
        kind, algebra = GB_CHAR0_CYCLE[index % len(GB_CHAR0_CYCLE)]
        if kind == "divide":
            f = _poly(rng, algebra, 8, 20, min_degree=7)
            divisors = tuple(_poly(rng, algebra, 2, 3) for _ in range(3))
            yield Op(index, kind, algebra, (f,) + divisors)
        else:
            # certificates grow with every reduction step, so tracked
            # inputs are kept to two terms
            terms = 2 if kind == "gb-track" else 3
            polys = tuple(_poly(rng, algebra, 2, terms) for _ in range(2))
            yield Op(index, kind, algebra, polys)


def _point(rng, p, n):
    # half the points lie on an axis, where quantum point ideals are proper
    coords = [rng.randrange(p) for _ in range(n)]
    if rng.random() < 0.5:
        keep = rng.randrange(n)
        coords = [c if k == keep else 0 for k, c in enumerate(coords)]
    return tuple(coords)


def _sandwich_gens(rng):
    gens = [(((4, 0), (1,)),)]
    for _ in range(rng.randint(0, 1)):
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - a)
        if a + b == 0:
            continue
        terms = {(a, b): (1,)}
        if rng.random() < 0.5:
            terms.setdefault((a + b, 0), (rng.choice((-1, 1)),))
        gens.append(tuple(sorted(terms.items())))
    return tuple(gens)


def stream_points(rng):
    index = 0
    while True:
        group = tuple(
            tuple(_poly(rng, "gf7space", 3, 3) for _ in range(rng.randint(1, 2)))
            for _ in range(VANISH_LISTS)
        )
        for k, polys in enumerate(group):
            yield Op(index, "vanish", "gf7space", polys, {"warm": k > 0})
            index += 1
        pts = tuple(_point(rng, 7, 3) for _ in range(rng.randint(3, 4)))
        yield Op(index, "ideal-of-points", "gf7space", (), {"points": pts, "d": 2})
        index += 1
        pts = tuple(_point(rng, 7, 3) for _ in range(rng.randint(2, 3)))
        yield Op(index, "witness", "gf7space", (), {"points": pts})
        index += 1
        yield Op(index, "sandwich", "qplane_m1", _sandwich_gens(rng))
        index += 1


STREAMS = {
    "gb-gfp": stream_gb_gfp,
    "gb-char0": stream_gb_char0,
    "points": stream_points,
}
# gb-gfp reuses one presentation per algebra, as the README advises; the
# other workloads build a fresh one per operation, like a CLI invocation.
SHARED_PRESENTATIONS = {"gb-gfp": True, "gb-char0": False, "points": False}
ALGEBRAS = {
    "gb-gfp": ("gf5plane", "gf7space"),
    "gb-char0": ("witten", "qspace3", "zeta5plane"),
    "points": ("gf7space", "qplane_m1"),
}


def stream(workload, seed):
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))
