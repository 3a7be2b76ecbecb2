"""Dense exact linear algebra over a coefficient field, on raw values.

Matrices are lists of row lists of the field's raw values, the values
`Polynomial.raw` stores, combined with the field's raw functions. Callers
read matrix cells from `Polynomial.raw` and build polynomials from the
solution vectors with `Polynomial.from_raw`, so no Scalar is built on
either side. Sizes here are desk scale (tens of columns), so plain
Gaussian elimination is enough.
"""

from __future__ import annotations

from typing import List, Optional

from skewpbw.scalars import Field


def rref(rows: List[list], field: Field):
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    add, mul, neg, inv, zero = (
        field.raw_add, field.raw_mul, field.raw_neg, field.raw_inv, field.raw_zero
    )
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(m)) if m[k][c] != zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        u = inv(m[r][c])
        m[r] = [mul(u, v) for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != zero:
                f = neg(m[k][c])
                m[k] = [add(a, mul(f, b)) for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: List[list], field: Field, ncols: Optional[int] = None):
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column.

    Columns at or past the rows' width (all of them when there are no
    rows) are zero, so each is free with a unit vector.
    """
    width = len(rows[0]) if rows else 0
    if ncols is None:
        ncols = width
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.raw_zero] * ncols
        v[free] = field.raw_one
        if free < width:
            for r, pc in enumerate(pivots):
                v[pc] = field.raw_neg(red[r][free])
        basis.append(v)
    return basis


def solve(rows: List[list], rhs: list, field: Field):
    """One solution of rows @ v = rhs, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if pivots and pivots[-1] == ncols:
        return None
    v = [field.raw_zero] * ncols
    for r, pc in enumerate(pivots):
        v[pc] = red[r][-1]
    return v
