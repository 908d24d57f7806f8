"""Log-magnitude determinants and exact rational factorizations.

Determinants of moment and Vandermonde matrices overflow or underflow
double precision long before the interesting degree range is reached, so
every determinant in this package is a float log|det|, -inf when the
matrix is singular: the quantities studied here use magnitudes only.  Two
computation routes are provided: pivoted LU in doubles (numpy), and an
exact integer Bareiss elimination for matrices with rational entries.  The
exact route is what keeps large moment-matrix determinants meaningful: the
late LU pivots of those matrices sit far below the double-precision noise
floor, where a floating factorization returns garbage.  Gram and Hankel
matrices are both built here as a MomentMatrix from their distinct
moments, each evaluated once, and keep only their rational rows whenever
every moment is rational.  A whole sequence of leading principal minors
comes from one elimination without pivoting, whose pivots are exactly
those minors (Bareiss 1968), so a Hankel sequence H_1..H_n costs one
elimination, not n, and a single determinant is the last minor of that
pass; run over [cA | I], the same loop gives an exact LDL^T.  One Bareiss
loop serves both exact routes, and it exchanges rows only past a zero
leading minor.  Every moment matrix is symmetric, and the loop updates
one triangle of a symmetric class: its integer rows are S = diag(d) A,
d the row lcms and A symmetric, so after k steps entry (i, k) is entry
(k, i) times d_i / d_k, an exact division, and the pivots are the same
integers for half the products.  Symmetry is checked once per class, on
the rational entries; a class that is not symmetric, and the row
exchanges past a zero minor, keep the full update.  Each exact route
first splits the matrix into classes: the connected components of the
graph of its nonzero entries, found by one O(n^2) scan.  A symmetric
measure's moment matrix splits by parity, two classes (a checkerboard) in
one variable and up to 2^n in n (Dunkl & Xu 2014, centrally symmetric
functionals).  Each class is eliminated alone, and a determinant or
leading minor is the product of its classes' (Bareiss 1968): the
eliminations skip the structural zeros, a zero minor re-eliminates only
its own class, and since a zero entry has denominator 1, every row scale,
integer and logarithm is the one the whole matrix gives.  A single matrix
or configuration is evaluated as a batch of one, so each float route has
one body.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Sequence

import numpy as np

NEG_INF = float("-inf")


def logdet(matrix: np.ndarray) -> float:
    """log|det| of a square matrix via pivoted LU; -inf when singular."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return float(batch_logabs(matrix[None])[0])


@functools.cache
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, 1), built once per size; the arrays are read-only."""
    rows, cols = np.triu_indices(m, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def pairwise_difference_logdet(points: np.ndarray) -> float:
    """Classic 1D Vandermonde determinant prod_{i<j} (x_j - x_i), as log|V|.

    Mathematically identical to LU on the monomial matrix but immune to its
    conditioning; used as the 1D fast path everywhere.
    """
    return float(batch_pairwise_logabs(np.asarray(points, dtype=complex).reshape(1, -1))[0])


def batch_pairwise_logabs(points: np.ndarray) -> np.ndarray:
    """log|V| for a batch of 1D configurations, shape (batch, m) -> (batch,).

    A configuration with two coincident points gives log 0 = -inf.
    """
    pts = np.asarray(points, dtype=complex)
    b, m = pts.shape
    if m <= 1:
        return np.zeros(b)
    rows, cols = _upper_pairs(m)
    # take keeps each configuration's differences contiguous, so every row
    # is summed pairwise, as a batch of one is; a fancy-indexed batch is
    # column-major and would be summed left to right
    mags = np.abs(np.take(pts, cols, axis=1) - np.take(pts, rows, axis=1))
    with np.errstate(divide="ignore"):
        return np.sum(np.log(mags), axis=1)


def batch_logabs(matrices: np.ndarray) -> np.ndarray:
    """log|det| for a stack of square matrices, shape (batch, m, m); -inf if singular."""
    _, log_abs = np.linalg.slogdet(matrices)
    return log_abs


Rational = Fraction | int


def _fraction_rows(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """rows as Fractions, checked square; Fraction entries are kept, not copied."""
    fracs = [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in rows]
    if any(len(r) != len(fracs) for r in fracs):
        raise ValueError("matrix must be square")
    return fracs


def _scaled_rows(fracs: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as integers, and those lcms."""
    lcms = [math.lcm(*(f.denominator for f in row)) for row in fracs]
    scaled = [
        [(num := f.numerator) and num * (d // f.denominator) for f in row]  # 0: no division
        for row, d in zip(fracs, lcms)
    ]
    return scaled, lcms


def _symmetric(rows: Sequence[Sequence]) -> bool:
    """Whether a square matrix equals its transpose.

    Sequence comparison tests identity before ==, and mirrored entries of a
    moment matrix are mostly one object, so few entries are compared.
    """
    return list(map(tuple, rows)) == list(zip(*rows))


def _classes(rows: Sequence[Sequence]) -> list[list[int]]:
    """The connected components of the graph of nonzero entries, each in index order.

    Indices i and j are joined when rows[i][j] or rows[j][i] is nonzero.  No
    entry links two classes, so every leading principal submatrix is block
    diagonal over them, up to a permutation, and each block is a leading
    block of its class's submatrix.
    """
    n = len(rows)
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        members, stack = [start], [start]
        while stack:
            i = stack.pop()
            row = rows[i]
            for j in range(n):
                if not seen[j] and (row[j] or rows[j][i]):
                    seen[j] = True
                    members.append(j)
                    stack.append(j)
        classes.append(sorted(members))
    return classes


def _submatrix(rows: Sequence[Sequence], idx: list[int]) -> list[list]:
    return [[rows[i][j] for j in idx] for i in idx]


def exact_logdet(rows: Sequence[Sequence[Rational]]) -> float:
    """log|det| of a matrix with rational entries, by exact integer elimination.

    The determinant is the last leading principal minor, so this is the last
    entry of exact_prefix_logdets, and 0.0 (the empty product) for [].
    """
    prefix = exact_prefix_logdets(rows)
    return prefix[-1] if prefix else 0.0


def exact_prefix_logdets(rows: Sequence[Sequence[Rational]]) -> list[float]:
    """log|det| of every leading principal submatrix, sizes 1..n, by exact integer elimination.

    Each row is scaled by the lcm of its whole row's denominators.  The
    matrix splits into the classes of its zero pattern, and one Bareiss
    elimination without pivoting runs over each class's submatrix; its pivot
    p is the class's integer leading minor of size p + 1.  Past a zero pivot
    later minors need not vanish ([[0, 1], [1, 0]] has minors 0 and -1), so
    that class alone eliminates each larger leading block of its own with
    row exchanges; the other classes keep their single pass.  A zero entry
    has denominator 1, so a class's rows keep their whole rows' lcms, and
    the integer leading minor of size k + 1 is, up to sign, the product of
    each class's leading minor over the indices up to k.  Size k + 1 is then
    turned into the determinant of the matrix whose rows are scaled by the
    lcm of their first k + 1 denominators only, as that submatrix alone is
    scaled, so each entry equals the last one of this function on that
    submatrix, bit for bit.  Only the final logarithms are floating point.
    A class whose rational entries are symmetric, checked once, is
    eliminated over one triangle with its rows' lcms as the scales of
    _leading_minors; the same pivots come out.
    """
    fracs = _fraction_rows(rows)
    n = len(fracs)
    scaled, full_lcm = _scaled_rows(fracs)
    classes = _classes(scaled)
    class_minors = []
    for cls in classes:
        scales = [full_lcm[i] for i in cls] if _symmetric(_submatrix(fracs, cls)) else None
        minors = _leading_minors(_submatrix(scaled, cls), scales=scales)  # up to the first zero
        for size in range(len(minors) + 1, len(cls) + 1):
            minors.append(_leading_minors(_submatrix(scaled, cls[:size]), exchange=True)[-1])
        class_minors.append(minors)
    where = [(0, 0)] * n  # index -> (its class, its position in the class)
    for c, cls in enumerate(classes):
        for p, i in enumerate(cls):
            where[i] = (c, p)
    current = [1] * len(classes)  # each class's leading minor over the indices so far
    minor = 1  # their product
    out: list[float] = []
    prefix_lcm: list[int] = []  # at size k + 1: row r's lcm over its first k + 1 entries
    full_scale = 1
    for k in range(n):
        for r in range(k):
            prefix_lcm[r] = math.lcm(prefix_lcm[r], fracs[r][k].denominator)
        prefix_lcm.append(math.lcm(*(f.denominator for f in fracs[k][: k + 1])))
        full_scale *= full_lcm[k]
        log_scale = 0.0
        for d in prefix_lcm:  # row by row, as the submatrix alone sums them
            log_scale += math.log(d)
        c, p = where[k]
        last, current[c] = current[c], class_minors[c][p]
        # past its class's zero minor there is no last minor to divide out
        minor = minor // last * current[c] if last else math.prod(current)
        out.append(_scaled_logdet(minor * math.prod(prefix_lcm) // full_scale, log_scale))
    return out


def _scaled_logdet(det: int, log_scale: float) -> float:
    """log|det / exp(log_scale)|, for the integer det of a row-scaled matrix."""
    if det == 0:
        return NEG_INF
    return math.log(abs(det)) - log_scale


@dataclass(frozen=True)
class MomentMatrix:
    """A moment matrix (Gram or Hankel type): its exact rows, or else its float matrix."""

    size: int
    matrix: np.ndarray | None
    exact: tuple[tuple[Fraction, ...], ...] | None

    def logdet(self) -> float:
        if self.exact is not None:
            return exact_logdet(self.exact)
        return logdet(self.matrix)

    def prefix_logdets(self) -> list[float]:
        """The logdet of each leading submatrix, sizes 1..size, in order.

        Each entry equals the logdet of the matrix built afresh at that size,
        bit for bit, so `sharpness` and `zs-check` read every degree off the
        matrix of their largest degree.
        """
        if self.exact is not None:
            return exact_prefix_logdets(self.exact)
        return [logdet(self.matrix[:i, :i]) for i in range(1, self.size + 1)]


def moment_matrix(
    basis: Sequence,
    key: Callable[[Any, Any], Hashable],
    exact_value: Callable[[Any], Fraction | None],
    float_value: Callable[[Any], complex],
) -> MomentMatrix:
    """The matrix [value(key(a, b))] over a basis prefix, shared by Gram and Hankel.

    An entry depends on (a, b) only through its moment key, so each distinct
    key is evaluated once and the rows are filled by lookup.  Exact, with no
    float copy, when every exact value is rational; the first None switches
    the whole matrix to the float values, again one per distinct key.
    """
    keys = [[key(a, b) for b in basis] for a in basis]
    values = dict.fromkeys(k for row in keys for k in row)  # each distinct key once
    for k in values:
        values[k] = exact_value(k)
        if values[k] is None:
            floats = {k: float_value(k) for k in values}
            matrix = np.array([[floats[k] for k in row] for row in keys], dtype=complex)
            return MomentMatrix(len(basis), matrix, None)
    return MomentMatrix(len(basis), None, tuple(tuple(values[k] for k in row) for row in keys))


def _leading_minors(
    a: list[list[int]], exchange: bool = False, scales: Sequence[int] | None = None
) -> list[int]:
    """The pivots of Bareiss elimination over a's first len(a) columns, in place.

    Without row exchanges pivot k is the leading principal minor of size
    k + 1 (Bareiss 1968), and the list ends at the first zero.  With them,
    a zero pivot is first exchanged with the next row below that is nonzero
    in its column, so the last pivot is the determinant up to sign, 0 when
    a is singular.

    scales, given only without exchanges, says that a's square part is
    S = diag(scales) A with A symmetric.  After k steps entry (i, j), i and
    j >= k, is (prod_{r<k} d_r) d_i M_ij, d = scales, where M_ij = M_ji is
    the minor of A bordering its leading k x k block by row i and column j.
    So a[i][k] = a[k][i] d_i / d_k, an exact division, and each step updates
    only the upper triangle and the columns past the square part: the same
    pivots for half the integer products.
    """
    pivots = []
    prev = 1
    for k in range(len(a)):
        if exchange and a[k][k] == 0:
            below = next((i for i in range(k + 1, len(a)) if a[i][k]), k)
            a[k], a[below] = a[below], a[k]
        pivot = a[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        _bareiss_step(a, k, prev, scales)
        prev = pivot
    return pivots


def _bareiss_step(a: list[list[int]], k: int, prev: int, scales: Sequence[int] | None) -> None:
    """Eliminate below the nonzero pivot a[k][k] in place, to the rows' ends; prev: last pivot.

    With scales, a's square part is diag(scales) times a symmetric matrix,
    and row i is updated from column i on only: its multiplier a[i][k] is
    read off row k as a[k][i] * scales[i] // scales[k] (see _leading_minors),
    and the strictly lower triangle is neither read nor written.
    """
    pivot = a[k][k]
    row_k = a[k]
    for i in range(k + 1, len(a)):
        row_i = a[i]
        if scales is None:
            left, start = row_i[k], k + 1
            row_i[k] = 0
        else:
            left, start = row_k[i] * scales[i] // scales[k], i
        for j in range(start, len(row_k)):
            # Bareiss identity: the division by the previous pivot is exact
            row_i[j] = (row_i[j] * pivot - left * row_k[j]) // prev


def exact_ldl(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(L^-1, d) with A = L diag(d) L^T, L unit lower, for a rational SPD matrix A.

    L and L^-1 are zero between the classes of A's zero pattern, so each
    class is factored alone and its rows are scattered back.  Per class, one
    Bareiss pass without pivoting runs over [cA | I], A the class's
    submatrix and c the lcm of its denominators: after step k - 1, row k's
    right block is D_{k-1} (L^-1)_k, and d_k = D_k / (c D_{k-1}), D_k the
    pivot of step k and D_{-1} = 1.  Raises ValueError at the first index
    whose pivot is not positive, quoting that class's pivot, and before any
    elimination when A is not symmetric.  The left block cA has one scale
    for every row, so a_ik = a_ki and each step updates one triangle of it
    and the whole right block.
    """
    fracs = _fraction_rows(rows)
    n = len(fracs)
    if not _symmetric(fracs):
        raise ValueError("matrix is not symmetric")
    pivots: list[int] = [0] * n
    blocks = []
    for cls in _classes(fracs):
        sub = _submatrix(fracs, cls)
        m = len(cls)
        c = math.lcm(*(f.denominator for row in sub for f in row))
        aug = [
            [f.numerator * (c // f.denominator) for f in row] + [int(i == j) for j in range(m)]
            for i, row in enumerate(sub)
        ]
        minors = _leading_minors(aug, scales=[1] * m)  # cA: every row scale is c
        for i, d in zip(cls, minors):
            pivots[i] = d
        blocks.append((cls, c, aug, [1, *minors]))  # D_{p-1} at position p
    # in index order: a class's entries past its first zero are never reached
    for k, d in enumerate(pivots):
        if d <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {k} = {d})")
    zero = Fraction(0)
    inverse = [[zero] * n for _ in range(n)]
    diag = [zero] * n
    for cls, c, aug, prev in blocks:
        m = len(cls)
        for p, i in enumerate(cls):
            for j, v in zip(cls, aug[p][m:]):
                inverse[i][j] = Fraction(v, prev[p])
            diag[i] = Fraction(prev[p + 1], c * prev[p])
    return inverse, diag
