"""Skew PBW presentations: n variables over a field with commutation data.

A presentation stores, for every pair i < j, the constants of the rule

    x_j * x_i = c * x_i * x_j + a_1 * x_1 + ... + a_n * x_n + d

with c nonzero, plus one field automorphism per variable (the coefficient
commutation x_i * r = sigma_i(r) * x_i; the coefficient-level derivations
are zero for field coefficients). Each sigma_i is z |-> z^k_i on the
field's primitive root z, stored as the int k_i. Variable order fixes
deglex precedence: the first declared variable is the largest.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import NamedTuple, Optional

from skewpbw import parsing, poly
from skewpbw.scalars import (
    Field,
    FieldSpec,
    InputError,
    Scalar,
    galois_exponent,
    get_field,
)


class Relation(NamedTuple):
    """The rule x_j*x_i = c*x_i*x_j + sum a_k*x_k + const. `linear` holds the
    (k, a_k) with a_k nonzero, ascending in k, as `Polynomial.raw` holds terms."""

    c: Scalar
    linear: tuple
    const: Scalar

    def is_trivial_lower(self) -> bool:
        return not self.linear and self.const.is_zero()

    def is_commuting(self) -> bool:
        """Whether the rule is x_j*x_i = x_i*x_j, as for every pair that no
        document writes."""
        return self.c.value == self.c.field.raw_one and self.is_trivial_lower()


class Presentation:
    """Immutable algebra presentation; carries the normal-form caches.

    `relations` holds every pair (i, j), i < j; the pairs a caller leaves
    out share one `Relation(one, (), zero)`. Construction checks the others
    (`_coerce_relation`) and refuses an inconsistent presentation: see
    `_check_overlaps`.

    `sigma` holds the exponents k_i, taken as ints coprime to the field's m
    and stored in `Field.unit_exponent` form: 1 for the identity.

    `_domain_partition` holds one five-field entry for `vanishing_set`,
    keyed by the raw columns of the last search domain asked about (for a
    whole prime field, marked so that a warm call builds none): its
    points, which hold raw values, the positions and raw coordinate
    columns of the characters, the degenerate points, and the raw values
    of the monomials evaluated there so far and of the divisors the walk
    climbed through. A hit builds no Point, and over a full prime field
    no call builds a Scalar. Which points are
    characters depends on the presentation alone; a new domain replaces
    the entry, so it holds at most `geometry.MAX_DOMAIN_POINTS` points,
    and the kept values are dropped once they pass that many.
    `_extension` is the ring `extend_with_central` returns, built on
    first use; it holds no reference back to this presentation.
    `_point_ideals` stays empty: only the benchmark's tracer reads it, and
    `geometry.point_ideal` says why nothing is stored there.
    """

    def __init__(self, field: Field, names, sigma=None, relations=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        for nm in names:
            if nm in field.symbols:
                raise InputError(
                    f"variable name {nm!r} collides with a scalar symbol of {field.spec}"
                )
        self.field = field
        self.names = names
        self.n = len(names)
        sigma = (1,) * self.n if sigma is None else tuple(sigma)
        if len(sigma) != self.n:
            raise InputError(f"sigma has {len(sigma)} exponents for {self.n} variables")
        self.sigma = tuple(field.unit_exponent(k) for k in sigma)
        # sigma_i on raw field values, None where it is the identity map
        self.sigma_maps = tuple(
            None if k == 1 else (lambda a, k=k: field.raw_galois(a, k))
            for k in self.sigma
        )
        default, given = Relation(field.one, (), field.zero), relations or {}
        self.relations = rels = dict.fromkeys(itertools.combinations(range(self.n), 2), default)
        # only the pairs the caller gives are checked and read: the others
        # share the commuting default
        written = sorted(pair for pair in given if pair in rels)
        for pair in written:
            rels[pair] = _coerce_relation(self, pair, given[pair])
        self.sigma_all_identity = all(m is None for m in self.sigma_maps)
        self.quasi_commutative = all(rels[pair].is_trivial_lower() for pair in written)
        # a commutative polynomial ring: Buchberger's product criterion holds
        self.commutative = self.sigma_all_identity and all(
            rels[pair].is_commuting() for pair in written
        )
        self._insert_cache: dict = {}
        self._point_ideals: dict = {}
        self._domain_partition: dict = {}
        self._character = None  # `geometry._character_test`, built on first use
        self._extension = None  # `extend_with_central`, built on first use
        if not (self.sigma_all_identity and self.quasi_commutative):
            _check_overlaps(self)

    def sigma_power(self, alpha) -> int:
        """The exponent of sigma^alpha = sigma_1^a1 o ... o sigma_n^an, the
        product of the k_i^a_i mod m; 1 exactly when it is the identity."""
        k, m = 1, self.field.m
        for ki, t in zip(self.sigma, alpha):
            if t and ki != 1:
                k = k * pow(ki, t, m) % m
        return k

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None

    def __repr__(self):
        return f"Presentation({self.field.spec}; {', '.join(self.names)})"


def _coerce_relation(pres: Presentation, pair, rel) -> Relation:
    """rel with its constants in pres.field and only its nonzero lower terms,
    ascending; InputError naming the relation otherwise."""
    (i, j), field, names = pair, pres.field, pres.names
    try:
        c, linear = field.coerce(rel.c), {}
        for k, a in rel.linear:
            if type(k) is not int or not 0 <= k < pres.n or k in linear:
                raise InputError(f"lower term index {k!r} is outside the variables or repeated")
            linear[k] = field.coerce(a)
        const = field.coerce(rel.const)
    except InputError as exc:
        raise InputError(f"relation {names[j]}*{names[i]}: {exc}") from None
    if c.is_zero():
        raise InputError(f"relation {names[j]}*{names[i]}: leading constant must be nonzero")
    return Relation(c, tuple(sorted((k, a) for k, a in linear.items() if not a.is_zero())), const)


def _check_overlaps(pres: Presentation) -> None:
    """Raises InputError at the first Bergman overlap whose two
    sides differ under the engine's products.

    The relations and x_i * r = sigma_i(r) * x_i rewrite compatibly with
    the degree, so by the diamond lemma (Bergman, Adv. Math. 1978) the PBW
    monomials are a basis exactly when every overlap resolves: x_k*x_j*x_i
    for k > j > i, and x_j*x_i*r for j > i and r a scalar. An automorphism
    of Q(zeta_m) is fixed by its value at zeta, so the field primitive
    stands for every r.

    A triple is skipped when its three relations have no lower terms and
    sigma_i, sigma_j, sigma_k are the identity: both reductions of
    x_k*x_j*x_i then use only the rules x_b*x_a = c_ab*x_a*x_b, and each
    scalar moves left past x_i, x_j or x_k unchanged, so
        x_k*x_j*x_i -> c_jk*x_j*x_k*x_i -> c_jk*c_ik*x_j*x_i*x_k,
        x_k*x_j*x_i -> c_ij*x_k*x_i*x_j -> c_ij*c_ik*x_i*x_k*x_j,
    and one more step takes both to c_ij*c_ik*c_jk*x_i*x_j*x_k. With every
    sigma the identity and no lower terms all overlaps resolve, and the
    constructor skips the check.
    """
    names, x = pres.names, [poly.Polynomial.variable(pres, k) for k in range(pres.n)]
    overlaps = [
        (f"{names[k]}*{names[j]}*{names[i]}", x[k], x[j], x[i])
        for k, j, i in _overlap_triples(pres)
    ]
    if not pres.sigma_all_identity:
        r = pres.field.primitive()
        c = poly.Polynomial.constant(pres, r)
        overlaps += [
            (f"{names[j]}*{names[i]}*{r}", x[j], x[i], c)
            for j, i in itertools.combinations(reversed(range(pres.n)), 2)
        ]
    for name, a, b, c in overlaps:
        diff = (a * b) * c - a * (b * c)
        if not diff.is_zero():
            raise InputError(
                f"inconsistent relations: the overlap {name} has two normal forms,"
                f" differing by {diff}"
            )


def _overlap_triples(pres: Presentation) -> list:
    """The (k, j, i), k > j > i, that hold a pair with lower terms or a
    variable whose sigma is not the identity, in the order of
    `itertools.combinations` over the indices from the last down: the
    triples `_check_overlaps` must form, found from those pairs and
    variables without a scan of all C(n, 3) triples."""
    n = pres.n
    triples = set()
    for pair, rel in pres.relations.items():
        if not rel.is_trivial_lower():
            triples.update(
                tuple(sorted((*pair, m), reverse=True)) for m in range(n) if m not in pair
            )
    for v, sigma in enumerate(pres.sigma_maps):
        if sigma is not None:
            others = [m for m in reversed(range(n)) if m != v]
            triples.update(
                tuple(sorted((v, a, b), reverse=True))
                for a, b in itertools.combinations(others, 2)
            )
    return sorted(triples, reverse=True)


def require_commutative(pres: Presentation) -> None:
    """InputError unless pres is a commutative polynomial ring: every
    relation y*x = x*y and every sigma the identity."""
    if pres.commutative:
        return
    names = pres.names
    for (i, j), rel in pres.relations.items():
        if not rel.is_commuting():
            raise InputError(
                f"{pres} is not commutative: {names[j]}*{names[i]} is not "
                f"{names[i]}*{names[j]}"
            )
    for name, sigma in zip(names, pres.sigma_maps):
        if sigma is not None:
            raise InputError(f"{pres} is not commutative: sigma of {name} is not the identity")


def quantum_plane(field: Field, q: Scalar, names=("x", "y")) -> Presentation:
    """y*x = q*x*y in two variables."""
    if len(names) != 2:
        raise InputError("quantum plane has two variables")
    return Presentation(field, names, relations={(0, 1): Relation(q, (), field.zero)})


def extend_with_central(pres: Presentation) -> Presentation:
    """Presentation with one fresh central variable in front (index 0).

    It is named by the first of t, t1, t2, ... that is not a variable yet.
    It is built on first use and kept as pres._extension, so the calls on
    one ring share its insertion cache; it holds no reference to pres.
    """
    if pres._extension is not None:
        return pres._extension
    name, k = "t", 0
    while name in pres.names:
        k += 1
        name = f"t{k}"
    names = (name,) + pres.names
    rels = {
        (i + 1, j + 1): rel._replace(linear=tuple((k + 1, a) for k, a in rel.linear))
        for (i, j), rel in pres.relations.items()
        if not rel.is_commuting()
    }
    pres._extension = Presentation(pres.field, names, sigma=(1,) + pres.sigma, relations=rels)
    return pres._extension


def central_multiple(ext: Presentation, f: poly.Polynomial, k: int) -> poly.Polynomial:
    """t^k * f in ext = extend_with_central(f.pres), t its central variable:
    each term of f gains t-degree k, which keeps their deglex order."""
    return poly.Polynomial.from_raw(ext, [((k,) + e, c) for e, c in f.raw], ordered=True)


# ---------------------------------------------------------------------------
# documents


def load_presentation(text: str) -> Presentation:
    """Parse a presentation document (field/vars/sigma/relation lines).

    Each relation's right side is parsed as a polynomial in commuting
    variables with the document's names: its normal form is the formal
    collection of c*x_i*x_j, the linear terms and the constant.
    """
    field: Optional[Field] = None
    names: Optional[tuple] = None
    sigma_tags: dict = {}
    relation_lines: list = []
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in ("field", "vars") and key in seen:
            raise InputError(f"line {lineno}: duplicate '{key}:' line")
        seen.add(key)
        if key == "field":
            try:
                field = get_field(FieldSpec.from_string(value))
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        elif key == "vars":
            names = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "sigma":
            for item in parsing.split_top_level(value, ","):
                if "=" not in item:
                    raise InputError(f"line {lineno}: sigma entries look like 'x = conj'")
                var, tag = item.split("=", 1)
                var = var.strip()
                if var in sigma_tags:
                    raise InputError(f"line {lineno}: duplicate sigma for {var}")
                sigma_tags[var] = (lineno, tag)
        elif key == "relation":
            relation_lines.append((lineno, value))
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if field is None:
        raise InputError("missing 'field:' line")
    if not names:
        raise InputError("missing 'vars:' line")
    index = {nm: k for k, nm in enumerate(names)}
    # tags are read once the field is known: 'field:' may follow 'sigma:'
    sigma = [1] * len(names)
    for var, (lineno, tag) in sigma_tags.items():
        if var not in index:
            raise InputError(f"line {lineno}: sigma for unknown variable {var!r}")
        try:
            sigma[index[var]] = galois_exponent(tag, field)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc

    comm = Presentation(field, names)
    relations = {}
    for lineno, line in relation_lines:
        if "=" not in line:
            raise InputError(f"line {lineno}: relation needs '='")
        lhs, rhs = line.split("=", 1)
        i, j = _parse_relation_lhs(lhs, index, lineno)
        if (i, j) in relations:
            raise InputError(f"line {lineno}: duplicate relation for {names[j]}*{names[i]}")
        try:
            f = poly.parse_polynomial(rhs, comm)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        relations[(i, j)] = _relation_of(f, i, j, lineno)
    return Presentation(field, names, sigma=sigma, relations=relations)


def load_presentation_file(path: str) -> Presentation:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return load_presentation(text)


def _parse_relation_lhs(lhs: str, index: dict, lineno: int):
    parts = [p.strip() for p in lhs.strip().split("*")]
    if len(parts) != 2:
        raise InputError(f"line {lineno}: relation left side must be 'x_j*x_i'")
    for p in parts:
        if p not in index:
            raise InputError(f"line {lineno}: unknown variable {p!r}")
    j, i = index[parts[0]], index[parts[1]]
    if j <= i:
        raise InputError(
            f"line {lineno}: left side must be (later var)*(earlier var), "
            f"got {parts[0]}*{parts[1]}"
        )
    return i, j


def _exponent(n: int, *ks: int) -> tuple:
    """Exponent of the product of the distinct variables ks among n."""
    return tuple(1 if t in ks else 0 for t in range(n))


def _relation_of(f, i: int, j: int, lineno: int) -> Relation:
    """The Relation whose right side is f, a polynomial in commuting variables."""
    field, names, n = f.pres.field, f.pres.names, f.pres.n
    c, linear, const = field.zero, [], field.zero
    pair_exp = _exponent(n, i, j)
    for exp, coeff in f.terms:
        if exp == pair_exp:
            c = coeff
        elif sum(exp) == 0:
            const = coeff
        elif sum(exp) == 1:
            linear.append((exp.index(1), coeff))
        else:
            raise InputError(
                f"line {lineno}: right side must be c*{names[i]}*{names[j]}"
                f" + linear terms + constant"
            )
    if c.is_zero():
        raise InputError(f"line {lineno}: coefficient of {names[i]}*{names[j]} must be nonzero")
    return Relation(c, tuple(linear), const)


def serialize_presentation(pres: Presentation) -> str:
    """Canonical document text; load(serialize(P)) reproduces P.

    A sigma prints from its exponent: conj for k = -1 mod m, galois:k for
    any other k but the identity, which prints nothing. So two spellings of
    one automorphism give one text and one `presentation_hash`.
    """
    lines = [f"field: {pres.field.spec}", "vars: " + ", ".join(pres.names)]
    m = pres.field.m
    tags = [
        f"{nm} = " + ("conj" if k == m - 1 else f"galois:{k}")
        for nm, k in zip(pres.names, pres.sigma)
        if k != 1
    ]
    if tags:
        lines.append("sigma: " + ", ".join(tags))
    n, one, names = pres.n, _exponent(pres.n), pres.names
    for (i, j), rel in sorted(pres.relations.items()):
        if rel.is_commuting():  # as `poly.to_string` prints x_i*x_j, with no n-tuple
            rhs = f"{names[i]}*{names[j]}"
        else:
            terms = {_exponent(n, k): a.value for k, a in rel.linear}
            terms[_exponent(n, i, j)] = rel.c.value
            terms[one] = rel.const.value
            # printing reads only the names and the field, never the relations
            rhs = poly.to_string(poly.Polynomial.from_raw(pres, terms.items()))
        lines.append(f"relation: {names[j]}*{names[i]} = {rhs}")
    return "\n".join(lines) + "\n"


def presentation_hash(pres: Presentation) -> str:
    return hashlib.sha256(serialize_presentation(pres).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# consistency probe


class ConsistencyReport(NamedTuple):
    consistent: bool
    checked: int
    failure: Optional[tuple] = None  # (exp_a, exp_b, exp_c, difference repr)


def check_pbw_consistency(pres: Presentation, degree_bound: int = 4) -> ConsistencyReport:
    """Associativity scan of the rewriting engine up to a total degree.

    Checks (x^a * x^b) * x^c == x^a * (x^b * x^c) for all variable triples
    and then for every monomial triple with |a|+|b|+|c| <= degree_bound.
    A failing triple witnesses an inconsistent presentation (the PBW basis
    assumption cannot hold for the given constants). The constructor's
    exact overlap check already refuses every such presentation, so on one
    that was built the scan finds none; the `consistency` command prints
    its count.
    """
    if degree_bound < 3:
        raise InputError("degree bound must be >= 3")
    n, one, bound = pres.n, pres.field.one, degree_bound
    exps = [(e, sum(e)) for e in poly.exponents_up_to(n, bound)]
    triples = itertools.chain(
        itertools.product([_exponent(n, k) for k in reversed(range(n))], repeat=3),
        (
            (ea, eb, ec) for ea, da in exps for eb, db in exps if da + db <= bound
            for ec, dc in exps if da + db + dc <= bound
        ),
    )
    for checked, triple in enumerate(triples, start=1):
        a, b, c = (poly.Polynomial.monomial(pres, e, one) for e in triple)
        left, right = (a * b) * c, a * (b * c)
        if left != right:
            return ConsistencyReport(False, checked, (*triple, str(left - right)))
    return ConsistencyReport(True, checked)
