"""Division, left Groebner bases, two-sided saturation and intersection.

The division algorithm peels leading terms: a term whose monomial is
divisible by some divisor's leading monomial is cancelled exactly (over a
field the coefficient condition is always solvable), otherwise it moves to
the remainder. Completion is Buchberger-style on left S-elements with the
normal selection strategy and Gebauer-Moller's chain criterion, plus
Buchberger's product criterion on a commutative ring. On a
quasi-commutative presentation every monomial is normal, so no pair of two
monomials and no right multiple of a monomial is formed.

One routine computes left and two-sided bases: a two-sided basis is a left
basis that is also closed under right multiples. It alternates left
completion with adjoining the reduced right multiples of the newly added
elements that no other lead divides, by a list of right factors: none for
a left ideal, the variables (and the field primitive when some sigma is
not the identity) for a two-sided one. Budgets make `unknown` a first
class outcome: right closure need not terminate in general.

Elements on their way to the basis, S-elements, right multiples and their
remainders, are `_Raw` dicts: only one that joins the basis becomes a
(monic) `Polynomial`, so the many that reduce to zero never build one.
Certificates stay raw for the whole computation, {(gen_index, q): p} with
p a dict of raw values; they become tuples of Polynomials only in the
returned handle.

One `_Memo` holds a computation: its order, its basis with each element's
lead and certificate, and its caches; every helper reads them from it.
"""

from __future__ import annotations

import heapq
import operator
from operator import le
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from skewpbw.poly import (
    DEGLEX,
    MonomialOrder,
    Polynomial,
    _acc,
    _bound_insert_cache,
    _multiply_raw,
    _var_times_dict,
    exp_sub,
    find_divisor,
    multiply,
)
from skewpbw.presentation import Presentation, central_multiple, extend_with_central
from skewpbw.scalars import InputError


class Budget(NamedTuple):
    """Caps for completion/saturation work; exceeding one yields `unknown`.

    - max_degree: a queued S-pair whose lcm has a higher total degree is
      skipped, and the result is `unknown`;
    - max_pairs: the S-elements one completion may form;
    - max_rounds: the right-closure rounds of a two-sided saturation. A
      round adjoins the reduced right multiples of the elements the last
      completion added; if the round that reaches the cap still adds
      elements, the result is `unknown`. The first round always runs, so
      0 acts as 1. A left basis runs no round and never reads it.

    Pairs pruned by the chain criterion, in a commutative ring the pairs
    of coprime leads, and in a quasi-commutative presentation the pairs of
    two monomials, are never formed: they count nowhere and never trip the
    degree budget. A saturation round multiplies only the new elements
    whose lead no other lead divides, and in a quasi-commutative
    presentation none that is a monomial, so fewer right multiples feed
    the next completion. So a budget goes further than it would without
    the criteria and with every right multiple, and an input that ran out
    of it there may be decided here. A proper or unit answer is
    exact whatever the budget; budgets count work, never time.
    """

    max_degree: int = 12
    max_pairs: int = 100_000
    max_rounds: int = 50


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# division


class _Raw(dict):
    """{exponent: raw value} of an element on its way to the basis: a
    generator, an S-element, a right multiple, or the remainder `divide`
    leaves of one, which lists its terms in descending order: its lead
    first, and under deglex as `Polynomial.raw` does."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


class DivisionResult:
    """f = sum quotients[i] * divisors[i] + remainder.

    The quotients are built from their raw dicts on first access: callers
    that need only the remainder never pay for them, and a Groebner
    computation's certificates read the raw dicts. A division run for its
    remainder alone records no quotients, and reading them raises.
    """

    def __init__(self, pres: Presentation, raw_quotients: Optional[List[dict]], remainder):
        self.remainder = remainder
        self._pres = pres
        self._raw_quotients = raw_quotients

    @cached_property
    def quotients(self) -> List[Polynomial]:
        if self._raw_quotients is None:
            raise RuntimeError("this division recorded no quotients")
        return [Polynomial.from_raw(self._pres, q.items()) for q in self._raw_quotients]

    def reconstruct(self, divisors: Sequence[Polynomial]) -> Polynomial:
        out = self.remainder
        for q, g in zip(self.quotients, divisors):
            out = out + q * g
        return out


class _Memo:
    """One Groebner computation: its order, its basis with each element's
    lead and certificate, and its caches; dropped when the computation
    returns.

    The basis only grows by appending, so a position names one element for
    the whole computation and the maps stay valid:
    - `certs`: position -> the element's certificate, a dict
      {(i, q): p} with element == sum p * gens[i] * q over the generators
      as given, zeros included, q a Polynomial and p a nonzero dict of raw
      values; None when nobody asked for one;
    - `first`: exponent -> (position of the first lead dividing it, or -1;
      number of leads checked), so a miss is searched again only among
      the leads appended since;
    - `multiples`: (position k, mu) -> raw dict of x^theta * basis[k] with
      theta = mu - lm(basis[k]), so mu is the multiple's lead monomial;
    - `products`: (k, mu) -> (that dict, inverse of its lead coefficient),
      for the keys a caller asked for: the exponent `divide` cancels, or
      the lcm an S-element is formed at. Both callers hold mu already;
    - `keys`: exponent -> its negated order key, for `divide`'s heap; a
      computation uses one order, so each key is built once.

    Every division of the computation runs on it, inter-reduction's too,
    so that reuses the multiples the completion climbed to. Only `basis`
    holds Polynomials; S-elements formed from the products are `_Raw`.

    A multiple is built by a ladder of one variable step per rung. With
    x_f the first variable of theta, x^theta * g = x_f * (x^(theta - e_f) * g)
    exactly: x_f * x^(theta - e_f) is already the normal monomial x^theta,
    and `poly._mono_times_dict` applies the same steps in the same order,
    the last variable first. So each rung is `_var_times_dict` of the rung
    below it, equal to the one-shot product term for term, in the same
    dict order. A new multiple walks down from mu to the nearest cached
    rung, or to mu = lm(g) whose rung is g's own dict, then climbs back one
    step per rung, caching each; the walk is a loop, so its depth is
    bounded by deg theta and not by the recursion limit. Rungs carry no
    inverse: only the keys callers ask for pay for one.
    """

    __slots__ = (
        "pres", "order", "basis", "leads", "certs", "first", "multiples", "products", "keys"
    )

    def __init__(self, pres: Presentation, order: MonomialOrder):
        self.pres = pres
        self.order = order
        self.basis: List[Polynomial] = []
        self.leads: List[tuple] = []
        self.certs: list = []
        self.first: dict = {}
        self.multiples: dict = {}
        self.products: dict = {}
        self.keys: dict = {}

    def append(self, g: Polynomial, lead: tuple, cert=None) -> None:
        self.basis.append(g)
        self.leads.append(lead)
        self.certs.append(cert)

    def product(self, k: int, mu: tuple):
        """(x^theta * basis[k] as a raw dict, inverse of its lead
        coefficient), for the theta with theta + lm(basis[k]) = mu."""
        key = (k, mu)
        hit = self.products.get(key)
        if hit is None:
            prod = self._multiple(k, mu)
            field = self.pres.field
            lead_c = prod.get(mu)
            if lead_c is None or lead_c == field.raw_zero:
                raise InputError(
                    "monomial order is not multiplicative for this presentation"
                )
            hit = self.products[key] = (prod, field.raw_inv(lead_c))
        return hit

    def _multiple(self, k: int, mu: tuple) -> dict:
        """The rung (k, mu) of basis[k]'s ladder; see the class docstring.
        Like every product, it starts with `_bound_insert_cache`."""
        pres = self.pres
        _bound_insert_cache(pres)
        multiples, lead = self.multiples, self.leads[k]
        n = len(lead)
        steps = []  # (first variable of theta, mu) from mu down
        f = 0  # theta's first variable only moves right as theta shrinks
        d = multiples.get((k, mu))
        while d is None:
            while f < n and mu[f] == lead[f]:
                f += 1
            if f == n:  # mu = lead
                d = multiples[(k, mu)] = dict(self.basis[k].raw)
                break
            steps.append((f, mu))
            mu = mu[:f] + (mu[f] - 1,) + mu[f + 1 :]
            d = multiples.get((k, mu))
        for f, mu in reversed(steps):
            d = multiples[(k, mu)] = _var_times_dict(pres, f, d)
        return d


def divide(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    *,
    memo: Optional[_Memo] = None,
    _quotients: bool = True,
) -> DivisionResult:
    """f = sum q_i * f_i + h with h reduced w.r.t. the divisors.

    Reduced means no term of h has a monomial divisible by any lm(f_i);
    terms are processed largest first, so lm(f) = max of the partial
    product leads and lm(h). Raises on an empty divisor list or a zero
    divisor. `memo` and `_quotients` are internal: the Groebner
    computation whose whole basis `divisors` is, whose order then rules,
    and False when only the remainder is read, so that no quotient is
    recorded. With a memo, f may be a `_Raw` of that computation; its
    remainder is then a `_Raw` too, and no `Polynomial` is built.
    """
    if not divisors:
        raise InputError("division requires at least one divisor")
    if memo is None:
        memo = _divisor_memo(f.pres, divisors, order)
    pres, order = memo.pres, memo.order
    raw = isinstance(f, _Raw)

    field = pres.field
    add, mul, neg, zero = field.raw_add, field.raw_mul, field.raw_neg, field.raw_zero
    key = order.key
    leads, first, product, keys = memo.leads, memo.first, memo.product, memo.keys
    products, heappop, heappush = memo.products, heapq.heappop, heapq.heappush
    n = len(leads)
    work = dict(f if raw else f.raw)
    # a min-heap on negated order keys pops the largest term first
    heap = []
    for e in work:
        k = keys.get(e)
        if k is None:
            k = keys[e] = tuple(map(operator.neg, key(e)))
        heap.append((k, e))
    heapq.heapify(heap)
    quotients = [dict() for _ in range(n)] if _quotients else None
    remainder = _Raw()

    while heap:
        _, exp = heappop(heap)
        coeff = work.pop(exp, None)
        if coeff is None:
            continue  # stale entry
        hit = first.get(exp)
        if hit is None:
            i = find_divisor(leads, exp)
            first[exp] = (i, n)
        elif hit[0] < 0 and hit[1] < n:
            i = find_divisor(leads, exp, hit[1])
            first[exp] = (i, n)
        else:
            i = hit[0]
        if i < 0:
            remainder[exp] = coeff
            continue
        prod, inv_lc = products.get((i, exp)) or product(i, exp)
        r = mul(coeff, inv_lc)
        if quotients is not None:
            _acc(quotients[i], exp_sub(exp, leads[i]), r, add, zero)
        r = neg(r)
        for e, c in prod.items():
            if e == exp:
                continue
            cur = work.get(e)
            if cur is None:
                work[e] = mul(r, c)  # nonzero: r and c are
                k = keys.get(e)
                if k is None:
                    k = keys[e] = tuple(map(operator.neg, key(e)))
                heappush(heap, (k, e))
            else:
                cur = add(cur, mul(r, c))
                if cur == zero:
                    del work[e]  # its heap entry goes stale
                else:
                    work[e] = cur

    if not raw:
        remainder = Polynomial.from_raw(pres, remainder.items(), ordered=order.kind == "deglex")
    return DivisionResult(pres, quotients, remainder)


def _divisor_memo(
    pres: Presentation, divisors: Sequence[Polynomial], order: MonomialOrder
) -> _Memo:
    """A memo whose basis is the divisors; refuses a zero divisor or one
    from another presentation."""
    memo = _Memo(pres, order)
    for g in divisors:
        if g.pres is not pres:
            raise InputError("divisors from a different presentation")
        lead = g.leading(order)
        if lead is None:
            raise InputError("division by the zero polynomial")
        memo.append(g, lead[0])
    return memo


# ---------------------------------------------------------------------------
# ideal handles

LEFT = "left"
TWO_SIDED = "two-sided"

PROPER = "proper"
UNIT = "unit"
UNKNOWN = "unknown"


class IdealHandle(NamedTuple):
    """Generators plus resolution status and (when proper) a left GB.

    For two-sided handles the basis is additionally closed under reduced
    right multiples, so left membership against it decides two-sided
    membership.
    """

    presentation: Presentation
    generators: Tuple[Polynomial, ...]
    sidedness: str
    status: str
    order: MonomialOrder
    basis: Tuple[Polynomial, ...] = ()
    certificates: Optional[tuple] = None  # per basis element: ((p, gen_idx, q), ...)
    note: str = ""

    def __repr__(self):
        body = ", ".join(str(g) for g in self.basis)
        return f"IdealHandle({self.sidedness}, {self.status}, basis=[{body}])"


def _cert_add(out: dict, pres: Presentation, w, cert: dict) -> None:
    """Add w * (the element of cert) into the certificate out: w, raw
    (exponent, value) pairs, multiplies each p on the left. A part that
    cancels stays as an empty dict, in its place; the caller drops it."""
    for key, p in cert.items():
        _multiply_raw(pres, w, p, out.setdefault(key, {}))


def _cert_minus(cert: dict, res: DivisionResult, memo: _Memo) -> dict:
    """Certificate of f - sum q_i * basis[i] from the division of f by the
    memo's basis, read from the division's raw quotients."""
    neg = memo.pres.field.raw_neg
    out = {key: dict(p) for key, p in cert.items()}
    for q, c in zip(res._raw_quotients, memo.certs):
        if q:
            _cert_add(out, memo.pres, [(e, neg(v)) for e, v in q.items()], c)
    return {key: p for key, p in out.items() if p}


def _reduce_with_cert(f, cert, memo: _Memo):
    """f reduced by the memo's basis, and the remainder's raw certificate.

    Only a certificate reads the quotients, so none are recorded without
    one. Every caller drops a zero remainder, so its certificate is never
    expanded: it comes back None."""
    if f.is_zero():
        return f, None
    res = divide(f, memo.basis, memo=memo, _quotients=cert is not None)
    rem = res.remainder
    if cert is not None:
        cert = None if rem.is_zero() else _cert_minus(cert, res, memo)
    return rem, cert


def _monic(memo: _Memo, g: _Raw, cert):
    """The Polynomial of g, a `_Raw` whose lead comes first (under deglex,
    all its terms in descending order), and its raw certificate, scaled
    to lead coefficient 1: one scaling, and a sort under any other order."""
    field = memo.pres.field
    u = field.raw_inv(next(iter(g.values())))
    mul = field.raw_mul
    if cert is not None:
        # a nonzero scale creates no zero part
        cert = {key: {e: mul(u, k) for e, k in p.items()} for key, p in cert.items()}
    pairs = [(e, mul(u, k)) for e, k in g.items()]
    return Polynomial.from_raw(memo.pres, pairs, ordered=memo.order.kind == "deglex"), cert


def _completion(items: List[Tuple[_Raw, Optional[tuple]]], budget: Budget, memo: _Memo):
    """Left Buchberger completion of the memo's basis and the new items;
    returns (status, items, note).

    The memo's basis must already be a left GB of monic nonconstant
    elements: no pair among them is formed. The new items are nonzero
    `_Raw`s as `_monic` takes them, with their certificates; each element
    the completion adds is appended to the memo as a Polynomial with its
    certificate. The returned items are the memo's (element, certificate)
    pairs. status UNIT means a nonzero constant was derived; the single
    returned item is then 1.

    Pairs are managed with Gebauer-Moller's chain criterion. Buchberger's
    product criterion, which drops a pair whose leads share no variable,
    holds only in a commutative ring (`Presentation.commutative`); there it
    is applied after the update, as Gebauer and Moller do, and elsewhere
    it fails for these algebras. The chain criterion is sound because in a
    bijective skew PBW extension lm(x^a * g) = x^(a + lm g) with a nonzero
    coefficient, so S-elements of a chain i-k-j whose lcms divide the lcm
    of i and j combine into a standard representation of the S-element of
    i and j. `_gebauer_moller` updates the queue on each insertion; its M
    step compares each new lcm only with kept lcms of lower total degree,
    the only ones that can divide it properly.

    In a quasi-commutative presentation (`Presentation.quasi_commutative`,
    any sigma), x^theta * x^alpha = c * x^(theta + alpha) with c nonzero, so
    both products of a pair of two monomials are x^gamma once scaled to
    lead coefficient 1: its S-element is 0. Such a pair is never queued;
    like the product criterion, this is applied after the update, and the
    chain criterion stays sound, since a zero S-element has a standard
    representation.

    The same multiplicativity keys the memo's products by their lead: the
    S-element of i and j is formed from the products of basis[i] and
    basis[j] with lead gamma, and a division step cancels exponent mu with
    the product of lead mu, so neither computes theta on a cache hit, and
    the products of every division and S-element of the computation share
    the memo's ladders of lower multiples.
    """
    order, leads, basis = memo.order, memo.leads, memo.basis
    # two_sided_saturate([]) completes nothing, on no presentation
    commutative = memo.pres is not None and memo.pres.commutative
    quasi = memo.pres is not None and memo.pres.quasi_commutative
    pairs: dict = {}  # queued pair (i, j), i < j -> lcm of the two leads
    heap: list = []  # (order key of the lcm, i, j); pairs pruned later go stale

    def add(g: Polynomial, cert):
        k = len(leads)
        lead = g.leading(order)[0]
        monomial = quasi and len(g.raw) == 1
        for gamma, i in _gebauer_moller(pairs, leads, lead).items():
            if commutative and not any(map(min, leads[i], lead)):
                continue  # coprime leads: the product criterion
            if monomial and len(basis[i].raw) == 1:
                continue  # two monomials: both products are x^gamma
            pairs[(i, k)] = gamma
            heapq.heappush(heap, (order.key(gamma), i, k))
        memo.append(g, lead, cert)

    for g, cert in items:
        g, cert = _monic(memo, g, cert)
        if g.is_constant():
            return UNIT, [(g, cert)], "derived a nonzero constant"
        add(g, cert)

    processed = 0
    skipped = False
    while heap:
        _, i, j = heapq.heappop(heap)
        gamma = pairs.pop((i, j), None)
        if gamma is None:
            continue  # pruned by B_k after it was queued
        if sum(gamma) > budget.max_degree:
            skipped = True
            continue
        processed += 1
        if processed > budget.max_pairs:
            return UNKNOWN, list(zip(memo.basis, memo.certs)), "pair budget exhausted"

        s, cert_s = _s_element(memo, i, j, gamma)
        rem, cert_s = _reduce_with_cert(s, cert_s, memo)
        if rem.is_zero():
            continue
        rem, cert_s = _monic(memo, rem, cert_s)
        if rem.is_constant():
            return UNIT, [(rem, cert_s)], "derived a nonzero constant"
        add(rem, cert_s)

    note = "degree budget exhausted" if skipped else ""
    return UNKNOWN if skipped else PROPER, list(zip(memo.basis, memo.certs)), note


def _gebauer_moller(pairs: dict, leads: Sequence[tuple], lead: tuple) -> dict:
    """Gebauer-Moller update for a new element with this lead, after
    `leads`: drops the queued pairs it makes redundant from `pairs`, a
    dict (i, j) -> lcm, and returns its new pairs to queue as {lcm: i}.

    B_k drops a queued pair (i, j) whose lcm the new lead divides, by a
    chain through the new element with both lcms different from it. M
    drops a new pair whose lcm another new lcm properly divides; F keeps
    one new pair per lcm, the first position. A proper divisor has a
    lower total degree, so M visits the new lcms by (degree, position) and
    tests each only against the kept lcms of lower degree: by
    transitivity, a dropped lcm divides nothing a kept one does not.
    """
    lcms = [tuple(map(max, lead_i, lead)) for lead_i in leads]
    for ij in [
        ij
        for ij, gamma in pairs.items()
        if all(map(le, lead, gamma)) and lcms[ij[0]] != gamma and lcms[ij[1]] != gamma
    ]:
        del pairs[ij]
    fresh: dict = {}
    lower: list = []  # kept lcms of degree below the current one
    level: list = []  # kept lcms of the current degree
    degree = -1
    degrees = [sum(gamma) for gamma in lcms]
    for i in sorted(range(len(lcms)), key=degrees.__getitem__):  # stable
        gamma = lcms[i]
        if degrees[i] != degree:
            lower += level
            level = []
            degree = degrees[i]
        if gamma in fresh:
            continue
        for other in lower:  # stop at the first that divides gamma
            if all(map(le, other, gamma)):
                break
        else:
            fresh[gamma] = i
            level.append(gamma)
    return fresh


def _s_element(memo: _Memo, i, j, gamma):
    """Left S-element of basis[i], basis[j] w.r.t. the common multiple
    gamma, as a `_Raw` for `divide`, and its certificate."""
    pres = memo.pres
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    pi, ui = memo.product(i, gamma)
    pj, uj = memo.product(j, gamma)
    uj = field.raw_neg(uj)
    s = _Raw({e: mul(ui, c) for e, c in pi.items()})
    for e, c in pj.items():
        _acc(s, e, mul(uj, c), add, zero)
    cert, certs = None, memo.certs
    if certs[i] is not None:
        cert = {}
        _cert_add(cert, pres, ((exp_sub(gamma, memo.leads[i]), ui),), certs[i])
        _cert_add(cert, pres, ((exp_sub(gamma, memo.leads[j]), uj),), certs[j])
        cert = {key: p for key, p in cert.items() if p}
    return s, cert


def _minimal(leads: Sequence[tuple], start: int = 0) -> List[int]:
    """Positions from `start` on whose lead no other lead divides; of equal
    leads, only the first position counts."""
    return [
        k
        for k in range(start, len(leads))
        if not any(
            all(map(le, other, leads[k])) and (other != leads[k] or j < k)
            for j, other in enumerate(leads)
            if j != k
        )
    ]


def _inter_reduce(memo: _Memo):
    """Reduced GB from the memo's basis, a left GB of monic elements, with
    their certificates, sorted by lead.

    Each `_minimal` element becomes its lead plus the remainder of its
    tail, the terms below the lead, divided by the whole basis on the
    completion's memo. No term of that division lies above the lead, so
    the element's own lead divides none. The basis is a left GB of the
    ideal L, so the remainder is the unique normal form of the tail
    modulo L: each element is the one that dividing it by the other
    minimal elements gives, though its certificate may differ. A tail no
    lead divides is its own remainder and is not divided. A tail that
    divides to zero leaves the lead, so its certificate is expanded.
    """
    basis, leads, order = memo.basis, memo.leads, memo.order
    out = []
    for k in sorted(_minimal(leads), key=lambda k: order.key(leads[k])):
        g, cert = basis[k], memo.certs[k]
        tail = _Raw(g.raw)
        lead = (leads[k], tail.pop(leads[k]))
        if any(find_divisor(leads, e) >= 0 for e in tail):
            res = divide(tail, basis, memo=memo, _quotients=cert is not None)
            tail = res.remainder
            if cert is not None:
                cert = _cert_minus(cert, res, memo)
        terms = (lead, *tail.items())
        out.append((Polynomial.from_raw(g.pres, terms, ordered=order.kind == "deglex"), cert))
    return out


def _groebner(
    gens: Tuple[Polynomial, ...],
    order: MonomialOrder,
    budget: Optional[Budget],
    right_factors: Optional[List[Polynomial]],
    track: bool,
) -> IdealHandle:
    """Reduced left basis of the ideal of gens closed under right multiples
    by right_factors; None asks for the left ideal.

    Each round completes the left basis, then adjoins the reduced right
    multiples of the elements that completion added and that are minimal:
    no other lead divides theirs (of equal leads, the first counts). A
    left ideal stops after its one completion. With `track`, elements
    carry raw certificates, generator k's seeded as {(k, 1): 1}, and the
    handle's are built from them as tuples of (p, i, q) Polynomials.

    In a quasi-commutative presentation (any sigma) a monomial g = x^alpha
    is normal: g * w = c * w * g for every variable w, with c nonzero, and
    g * r = sigma^alpha(r) * g for a scalar r. So its right multiples lie
    in its left ideal already, and none is formed.

    Why the minimal elements suffice. Let G be the left GB a completion
    returns, L its left ideal and G' its minimal elements. Every lead in G
    is divisible by a lead in G', so G' is a left GB of L as well, and each
    g in G reduces to 0 by G': g = sum a_h * h over h in G', hence
    g * w = sum a_h * (h * w) for each right factor w. For an h this
    completion added, h * w is adjoined now, or lies in L already when h
    is a normal monomial; an h from an earlier round
    lies in that round's left ideal, whose products with w were adjoined
    then, by the same argument. So after the round the left ideal contains
    L * w, as if every element of G had been multiplied.

    The computation is one `_Memo`, which holds the order, the basis and
    its certificates; its caches go when this returns.
    """
    budget = budget or DEFAULT_BUDGET
    pres = gens[0].pres if gens else None
    if any(g.pres is not pres for g in gens):
        raise InputError("generators from a different presentation")
    one = Polynomial.one(pres) if track and gens else None
    items = [  # each as a `_Raw` whose lead comes first, for `_monic`
        (_Raw((g.leading(order), *g.raw)), None if one is None else {(k, one): dict(one.raw)})
        for k, g in enumerate(gens)
        if not g.is_zero()
    ]
    memo = _Memo(pres, order)
    rounds = 0
    while True:
        added = len(memo.basis)  # the position of this completion's first element
        status, out, note = _completion(items, budget, memo)
        if status != PROPER:
            break
        items = []
        for k in _minimal(memo.leads, added) if right_factors else ():
            g, cert = memo.basis[k], memo.certs[k]
            if len(g.raw) == 1 and pres.quasi_commutative:
                continue  # a normal monomial: g * w = c * w * g
            for w in right_factors:
                # right multiplication by w != 0 is injective: no keys merge
                cw = None if cert is None else {
                    (i, multiply(q, w)): p for (i, q), p in cert.items()
                }
                rem, cw = _reduce_with_cert(_multiply_raw(pres, g.raw, w.raw, _Raw()), cw, memo)
                if not rem.is_zero():
                    items.append((rem, cw))
        if not items:
            out = _inter_reduce(memo)
            break
        rounds += 1
        if rounds >= budget.max_rounds:
            status, note = UNKNOWN, "saturation round budget exhausted"
            out += [(Polynomial.from_raw(pres, r.items()), c) for r, c in items]
            break
    side = LEFT if right_factors is None else TWO_SIDED
    certs = tuple(
        tuple((Polynomial.from_raw(pres, p.items()), i, q) for (i, q), p in c.items())
        for _, c in out
    ) if track else None
    return IdealHandle(pres, gens, side, status, order, tuple(g for g, _ in out), certs, note)


def left_groebner(
    gens: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    budget: Optional[Budget] = None,
    track: bool = False,
) -> IdealHandle:
    """Left Groebner basis of the left ideal generated by gens."""
    return _groebner(tuple(gens), order, budget, None, track)


def normal_forms(handle: IdealHandle) -> Callable[[object], dict]:
    """A function: raw terms, a dict or pairs -> those of their remainder by
    the handle's basis, all on one memo: each multiple x^theta * g is formed once."""
    if not handle.basis:
        return _Raw
    memo = _divisor_memo(handle.presentation, handle.basis, handle.order)
    return lambda terms: divide(_Raw(terms), handle.basis, memo=memo, _quotients=False).remainder


def _check_presentation(pres: Presentation, handle: IdealHandle) -> None:
    """InputError unless the handle's basis, if any, lies in pres."""
    if handle.basis and pres is not handle.presentation:
        raise InputError("divisors from a different presentation")


def is_member_left(f: Polynomial, handle: IdealHandle) -> str:
    """'yes', 'no' or 'unknown' membership of f in the handle's ideal.

    A zero remainder certifies membership, also against the partial basis
    of an UNKNOWN handle, which can never refute it.
    """
    _check_presentation(f.pres, handle)
    if handle.status != UNIT and not f.is_zero() and normal_forms(handle)(f.raw):
        return "unknown" if handle.status == UNKNOWN else "no"
    return "yes"


def two_sided_saturate(
    gens: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    budget: Optional[Budget] = None,
    track: bool = False,
) -> IdealHandle:
    """Left basis of the two-sided ideal of gens, by right-closure rounds.

    The right factors are every variable, and the field primitive when
    some sigma is not the identity, so closure under right scalar
    multiplication holds too.
    """
    gens = tuple(gens)
    if not gens:
        return _groebner(gens, order, budget, [], track)
    pres = gens[0].pres
    right_factors = [Polynomial.variable(pres, j) for j in range(pres.n)]
    if not pres.sigma_all_identity:  # some sigma moves the primitive
        right_factors.append(Polynomial.constant(pres, pres.field.primitive()))
    return _groebner(gens, order, budget, right_factors, track)


# ---------------------------------------------------------------------------
# intersection of left ideals (central-variable elimination)


class IntersectionResult(NamedTuple):
    elements: List[Polynomial]
    complete: bool
    note: str = ""


def intersect_left(
    I: IdealHandle,
    J: IdealHandle,
    budget: Optional[Budget] = None,
) -> IntersectionResult:
    """Generators of the intersection of two proper left ideals.

    Joins t*gens(I) with (1-t)*gens(J) over an added central variable t and
    eliminates t with a block order; the t-free basis elements generate
    I ∩ J (substituting t at 0 and 1 is a ring map because t is central).
    """
    if None not in (I.presentation, J.presentation) and I.presentation is not J.presentation:
        raise InputError("ideals over different presentations")
    if I.status != PROPER or J.status != PROPER:
        raise InputError("intersection needs both ideals proper")
    if not (I.basis and J.basis):  # the intersection with a zero ideal is zero
        return IntersectionResult([], True)
    pres = I.presentation
    ext = extend_with_central(pres)
    block = MonomialOrder.block([0], ext.n)
    gens = [central_multiple(ext, f, 1) for f in I.generators if not f.is_zero()]
    gens += [
        central_multiple(ext, g, 0) - central_multiple(ext, g, 1)
        for g in J.generators if not g.is_zero()
    ]
    handle = left_groebner(gens, block, budget)
    if handle.status == UNIT:
        # 1 is t-free and lies in both ideals only if both are improper;
        # cannot happen for proper inputs, but the elimination ideal may
        # still contain units of the extension: keep the contract honest.
        raise RuntimeError("elimination produced a unit from proper ideals")
    out = []
    for g in handle.basis:
        if all(e[0] == 0 for e, _ in g.raw):
            out.append(
                Polynomial.from_raw(pres, [(e[1:], c) for e, c in g.raw], ordered=True)
            )
    complete = handle.status == PROPER
    return IntersectionResult(
        out, complete, "" if complete else handle.note
    )
