"""Dense exact linear algebra over the rationals (small systems only).

Fraction-free.  Each row is scaled by the lcm of its denominators to
integers, which leaves the row space unchanged.  ``rref`` eliminates by
integer cross-multiplication, takes out each new row's content, and
divides each pivot row by its pivot once at the end; the reduced row
echelon form is unique, so it is the one elimination over Q gives.
``det`` runs Bareiss's fraction-free elimination on the integer rows.

``nullspace`` given more rows than columns (the over-determined ansatz
systems of ``darboux``) first picks a subset of rows that spans the same
row space, and eliminates only those.  It visits the primitive integer rows
from the smallest height up and keeps an integer basis B of the null space
of the rows kept so far, starting from the unit vectors: a row orthogonal
to all of B is in their span and is skipped; a kept row r takes one b0 with
d0 = r.b0 != 0 out of B and replaces every other b by the primitive part of
d0 b - (r.b) b0.  The scan stops when B is empty, so at most ``ncols`` rows
are kept, and it costs one dot product per remaining basis vector and row.
Equal row spaces have equal reduced row echelon forms, so the basis it
returns is the one elimination of all the rows gives, entry for entry.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .poly import _primitive
from .scalars import cleared


def _echelon(rows):
    """Integer rows in reduced echelon shape (each pivot row a multiple of
    its reduced row) and the pivot column list."""
    m = [_primitive(cleared(r)[0]) for r in rows]
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
        row = m[r]
        p = row[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], row)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m, pivots = _echelon(rows)
    return [[Fraction(v, row[c]) for v in row]
            for row, c in zip(m, pivots)], pivots


def det(rows):
    """Determinant of a square matrix, by Bareiss elimination with row
    swaps on the integer rows."""
    m, scale = [], 1
    for r in rows:
        ints, d = cleared(r)
        m.append(ints)
        scale *= d
    size = len(m)
    sign, prev = 1, 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for r in range(c + 1, size):
            f = m[r][c]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
    return Fraction(sign * prev, scale)


def _spanning_rows(rows, ncols):
    """Primitive integer rows, a subset of ``rows`` with the same row space.

    Rows are visited from the smallest height up.  B is an integer basis of
    the null space of the rows kept so far; a row orthogonal to all of B
    lies in their span and is skipped, and a kept row cuts B down by one.
    """
    ints = sorted((_primitive(cleared(r)[0]) for r in rows),
                  key=lambda row: max(map(abs, row), default=0))
    basis = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    kept = []
    for row in ints:
        dots = [sum(map(operator.mul, row, v)) for v in basis]
        k = next((i for i, d in enumerate(dots) if d), None)
        if k is None:
            continue
        kept.append(row)
        d0, b0 = dots[k], basis[k]
        basis = [_primitive([d0 * x - d * y for x, y in zip(v, b0)])
                 if d else v
                 for i, (v, d) in enumerate(zip(basis, dots)) if i != k]
        if not basis:
            break
    return kept


def nullspace(rows, ncols):
    """Basis of the solution space of rows * v = 0.

    Each basis vector carries a 1 in one free column and is reduced against
    the pivots, in increasing free-column order (a deterministic choice).
    Given more rows than columns, it eliminates only a spanning subset of
    them (``_spanning_rows``); the RREF, and so the basis, is the same.
    """
    if len(rows) > ncols:
        rows = _spanning_rows(rows, ncols)
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
    return len(_echelon(rows)[1])
