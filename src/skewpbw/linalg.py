"""Exact linear algebra over a coefficient field, on raw values: one
incremental echelon.

Vectors are sparse dicts {row key: raw value}, in the raw values
`Polynomial.raw` stores, combined with the field's raw functions. A
normal form's terms or a monomial's values at points are such a vector
as they stand, so callers build no matrix: they feed vectors one at a
time, each under a key of their own, and read back either "kept" or the
linear relation that puts it in the span of the vectors kept before it.
Sizes here are desk scale (tens of vectors), so plain Gaussian
elimination is enough. `Echelon` is the only routine the library calls.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from skewpbw.scalars import Field


class Echelon:
    """The span of the vectors kept so far, in echelon form.

    Each row is scaled to 1 at its pivot and is zero at the pivots of the
    rows before it; it carries its combination {key: raw} of the kept
    vectors it equals.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows = []  # (pivot, row, combination)

    def reduce(self, key: Hashable, vec: dict) -> Optional[dict]:
        """Keep vec under key, a key not used before, or return its relation
        to the kept vectors.

        When vec lies in the span of the kept vectors, nothing is kept and
        the relation {key: 1, key_j: c_j} with vec + sum c_j * vec_j = 0 is
        returned (zero c_j left out). The kept vectors are independent, so
        the relation is unique, whichever pivots were chosen. Otherwise vec
        is kept under key and the result is None.
        """
        field = self.field
        add, mul, neg, zero = field.raw_add, field.raw_mul, field.raw_neg, field.raw_zero
        vec = {k: v for k, v in vec.items() if v != zero}
        comb = {key: field.raw_one}
        for pivot, row, rcomb in self.rows:
            a = vec.get(pivot)
            if a is None:
                continue
            a = neg(a)
            for k, v in row.items():
                s = add(vec.get(k, zero), mul(a, v))
                if s == zero:
                    del vec[k]
                else:
                    vec[k] = s
            for k, v in rcomb.items():
                comb[k] = add(comb.get(k, zero), mul(a, v))
        if not vec:
            return {k: c for k, c in comb.items() if c != zero}
        pivot = next(iter(vec))
        s = field.raw_inv(vec[pivot])
        self.rows.append((
            pivot,
            {k: mul(s, v) for k, v in vec.items()},
            {k: mul(s, c) for k, c in comb.items()},
        ))
        return None


def nullspace(rows: List[list], field: Field, ncols: Optional[int] = None):
    """Basis of the right kernel {v : rows @ v = 0}, one vector per column
    that depends on the columns before it.

    Columns at or past the rows' width (all of them when there are no
    rows) are zero, so each gives a unit vector. No library code calls
    it: only `perfbench/tracing.py`, which wraps it by name, and
    `tests/test_raw_kernels.py`.
    """
    width = len(rows[0]) if rows else 0
    if ncols is None:
        ncols = width
    zero = field.raw_zero
    echelon = Echelon(field)
    basis = []
    for c in range(ncols):
        column = {r: row[c] for r, row in enumerate(rows)} if c < width else {}
        relation = echelon.reduce(c, column)
        if relation is not None:
            v = [zero] * ncols
            for k, a in relation.items():
                v[k] = a
            basis.append(v)
    return basis
