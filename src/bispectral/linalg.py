"""Dense exact linear algebra over the rationals (small systems only)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def det(rows):
    """Determinant of a square matrix, by elimination with row swaps."""
    m = [list(r) for r in rows]
    size = len(m)
    out = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, size):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def nullspace(rows, ncols=None):
    """Basis of the solution space of rows * v = 0.

    Each basis vector carries a 1 in one free column and is reduced against
    the pivots, in increasing free-column order (a deterministic choice).
    """
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """A particular solution of rows * v = rhs, or None if inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None
    v = [Fraction(0)] * ncols
    for r, pc in zip(red, pivots):
        v[pc] = r[-1]
    return v


def rank(rows):
    return len(rref(rows)[1])
