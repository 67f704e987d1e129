"""Textbook matrix routines the tests use as independent references.

The library takes every determinant by Laplace expansion and never
multiplies two polynomial matrices; these two routines take the other road,
so a cross-check against them does not share the code it checks.  The
library keeps a symmetric 3x3 matrix as the 6-vector of its entries in
``CONIC_BASIS`` order; ``sym3`` spreads one back into a full matrix.
"""

from sextactic.poly import (
    CONIC_BASIS,
    MPoly,
    NonSquareMatrix,
    PolyError,
    PolyMatrix,
    exact_div,
)


def sym3(six) -> PolyMatrix:
    """The symmetric matrix whose (i, j) entry is the entry of ``six`` on the
    conic monomial x_i * x_j."""
    index = {expo: k for k, expo in enumerate(CONIC_BASIS)}
    return PolyMatrix(
        [
            [six[index[tuple((i == k) + (j == k) for k in range(3))]] for j in range(3)]
            for i in range(3)
        ]
    )


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a * b."""
    if a.cols != b.rows:
        raise PolyError("dimension mismatch in matrix product")
    zero = MPoly.zero(a.variables)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def det_bareiss(m: PolyMatrix) -> MPoly:
    """Determinant by fraction-free Gaussian elimination (Bareiss 1968);
    every interior division is exact."""
    if m.rows != m.cols:
        raise NonSquareMatrix(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    a = [row[:] for row in m.entries]
    zero = MPoly.zero(m.variables)
    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev) if prev is not None else num
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d
