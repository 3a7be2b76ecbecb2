"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of Scalars. Sizes here are desk scale
(tens of columns), so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from typing import List, Optional

from skewpbw.scalars import Field, Scalar


def rref(rows: List[List[Scalar]], field: Field):
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(m)):
            if not m[k][c].is_zero():
                pivot = k
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [inv * v for v in m[r]]
        for k in range(len(m)):
            if k != r and not m[k][c].is_zero():
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: List[List[Scalar]], field: Field, ncols: Optional[int] = None):
    """Basis of the right kernel {v : rows @ v = 0}."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [_unit(field, ncols, k) for k in range(ncols)]
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def _unit(field: Field, n: int, k: int):
    v = [field.zero] * n
    v[k] = field.one
    return v


def solve(rows: List[List[Scalar]], rhs: List[Scalar], field: Field):
    """One solution of rows @ v = rhs, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    for row in red:
        if all(v.is_zero() for v in row[:-1]) and not row[-1].is_zero():
            return None
    v = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        v[pc] = red[r][-1]
    return v
