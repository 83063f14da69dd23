"""Exact rational linear feasibility via a fraction-free phase-1 simplex.

Solves: does x >= 0 with A x = b exist?  Each row, its right-hand side
and the phase-1 objective are held as Python integers: a row is scaled
by the lcm of its denominators on the way in, and every tableau row is
a positive integer multiple of the textbook row.  A pivot
cross-multiplies instead of dividing (row_i <- piv*row_i - f*row_r, as
in Bareiss 1968) and then divides the row by its gcd, so entries stay
small and no Fraction is built inside the loop.  The pivot sequence is
Bland's rule (first negative reduced cost enters; the ratio test,
compared by cross-multiplication, breaks ties by the lower basis
index), so there are no tolerances, no cycling, and the same vertex as
a Fraction tableau would find.  The solution is returned as exact
Fractions.  Sized for small instances; the joint-distribution problems
in this package have 16 variables and 17 rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

_ZERO = Fraction(0)


def find_feasible(
    a_matrix: Sequence[Sequence[Fraction]], b_vector: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Return some x >= 0 solving A x = b exactly, or None if infeasible.

    Entries may be Fractions or ints.
    """
    m = len(a_matrix)
    if m == 0:
        return []
    n = len(a_matrix[0])
    width = n + m

    # scale each row to integers, standardize to rhs >= 0, and append one
    # artificial column holding the row's scale
    rows: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        coeffs = a_matrix[i]
        if len(coeffs) != n:
            raise ValueError("ragged constraint matrix")
        rhs = b_vector[i]
        if type(rhs) is int and all(type(v) is int for v in coeffs):
            # already integers, as the constant rows of fine.find_joint are: scale 1
            scale, row = 1, list(coeffs)
        else:
            scale = lcm(rhs.denominator, *(v.denominator for v in coeffs))
            row = [v.numerator * (scale // v.denominator) for v in coeffs]
        row.extend([0] * (m + 1))
        row[n + i] = scale
        row[width] = rhs.numerator * (scale // rhs.denominator)
        if row[width] < 0:
            for j in range(n):
                row[j] = -row[j]
            row[width] = -row[width]
        rows.append(row)
        scales.append(scale)
    basis = [n + i for i in range(m)]

    # phase-1 objective: minimize the artificial sum; reduced costs after
    # pricing out the artificial basis, scaled by the lcm of the row scales
    total = lcm(*scales)
    weights = [total // s for s in scales]
    zrow = [0] * (width + 1)
    for j in [*range(n), width]:
        zrow[j] = -sum(w * row[j] for w, row in zip(weights, rows))

    while True:
        entering = next((j for j in range(width) if zrow[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        for i in range(m):
            coeff = rows[i][entering]
            if coeff <= 0:
                continue
            if pivot_row is not None:
                # rhs/coeff against best_rhs/best_coeff; both denominators are > 0
                here, best = rows[i][width] * best_coeff, best_rhs * coeff
                if not (here < best or (here == best and basis[i] < basis[pivot_row])):
                    continue
            pivot_row, best_rhs, best_coeff = i, rows[i][width], coeff
        if pivot_row is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is a bug")
        zrow = _pivot(rows, zrow, pivot_row, entering)
        basis[pivot_row] = entering

    if zrow[width] != 0:
        return None
    x = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][width], rows[i][var])
    return x


def _pivot(rows: list[list[int]], zrow: list[int], pr: int, pc: int) -> list[int]:
    """Eliminate column pc from every row but pr; return the new objective row.

    Each updated row is piv*row - f*pivot_row divided by its gcd; piv > 0,
    so every row stays a positive multiple of its textbook counterpart.
    """
    prow = rows[pr]
    piv = prow[pc]
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            rows[i] = _eliminate(row, prow, piv, row[pc])
    if zrow[pc] != 0:
        zrow = _eliminate(zrow, prow, piv, zrow[pc])
    return zrow


def _eliminate(row: list[int], prow: list[int], piv: int, f: int) -> list[int]:
    out = [piv * v - f * p for v, p in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out
