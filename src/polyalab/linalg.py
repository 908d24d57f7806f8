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
matrices are both built here as a MomentMatrix from a grid of integer
key codes, one moment per code, each distinct code evaluated once.  When
every moment is rational the matrix is that grid and one Fraction per
code, and the exact routes work from it: each code's numerator and
denominator is read once, and the numerator and denominator grids, so
the zero pattern, are filled by lookup; plain rows are a grid with one
code per entry, through the same body.  A whole sequence of leading minors
comes from one elimination without pivoting, whose pivots are exactly
those minors (Bareiss 1968), so a Hankel sequence H_1..H_n costs one
elimination, not n, and a single determinant is the last minor of that
pass; run over [B | I], the same loop gives an exact LDL^T.  One Bareiss
loop serves both exact routes, and it exchanges rows only past a zero
leading minor.  Both eliminate the integer matrix B = D A D, D = diag(d)
with d_i^2 about the denominators of row and column i, so that
det(B_k) = det(A_k) prod_{r<k} d_r^2: on the arcsine Hankel matrix at
size 61 its widest integer has 115 bits, where scaling each row by its
denominator lcm gives 886.  Every moment matrix is symmetric, and so is
its B, so the loop updates one triangle of a symmetric class: after k
steps entry (i, j) is a bordered minor of B and equals entry (j, i), and
the pivots are the same integers for half the products, and only that
triangle of B is built.  Symmetry is checked once per matrix; a matrix
that is not symmetric, and the row exchanges past a zero minor, build
their classes' whole B and keep the full update.  Each exact route
first splits the matrix into classes: the connected components of the
graph of its nonzero entries, found by one O(n^2) scan.  A symmetric
measure's moment matrix splits by parity, two classes (a checkerboard) in
one variable and up to 2^n in n (Dunkl & Xu 2014, centrally symmetric
functionals).  Each class is eliminated alone, and a determinant or
leading minor is the product of its classes' (Bareiss 1968): the
eliminations skip the structural zeros, a zero minor re-eliminates only
its own class, and since a zero entry has denominator 1, every scale,
integer and logarithm is the one the whole matrix gives.  A single matrix
or configuration is evaluated as a batch of one, so each float route has
one body.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Sequence

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
Grid = Sequence[Sequence[int]]


def _as_grid(rows: Sequence[Sequence[Rational]]) -> MomentMatrix:
    """rows, checked square, as an exact MomentMatrix with one code per entry."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    entries = chain.from_iterable(rows)
    values = dict(enumerate(v if isinstance(v, Fraction) else Fraction(v) for v in entries))
    return MomentMatrix(n, None, [range(i * n, i * n + n) for i in range(n)], values)


def _grids(rows: Sequence[Sequence[Rational]] | MomentMatrix) -> tuple[Grid, Grid]:
    """The numerator and denominator grids of a square rational matrix.

    Each distinct code's numerator and denominator is read once, and the
    grids are filled by lookup through the code grid; plain rows are first a
    grid with one code per entry.
    """
    grid = rows if isinstance(rows, MomentMatrix) else _as_grid(rows)
    nums = {c: v.numerator for c, v in grid.values.items()}
    dens = {c: v.denominator for c, v in grid.values.items()}
    getters = _row_getters(grid.codes)
    return [row(nums) for row in getters], [row(dens) for row in getters]


def _row_getters(codes: Grid) -> list[Callable[[dict], tuple]]:
    """Per row of codes, a function from a {code: value} dict to the row's values."""
    # itemgetter of a single key returns the bare value, not a 1-tuple
    return [itemgetter(*row) if len(row) > 1 else lambda t, c=row[0]: (t[c],) for row in codes]


def _scales(dens: Grid, classes: list[list[int]]) -> list[int]:
    """d with B = D A D an integer matrix, D = diag(d), from A's denominator grid.

    d_i starts at 2^ceil(v/2) times the odd part of den(A_ii), v its 2-adic
    valuation, so d_i^2 A_ii is an integer.  Then one pass over the upper
    triangle of each class of the zero pattern in index order: wherever
    d_a d_b A_ab or d_a d_b A_ba is not yet an integer, the later index's d_b
    is multiplied by q / gcd(q, d_a d_b), q the lcm of the two denominators.
    A bump multiplies a scale by an integer, so every entry already integral
    stays so, and the diagonal needs none.  No denominator is factored, any
    square rational matrix is served, and a zero entry (denominator 1) never
    bumps, so the entries between classes are skipped and each class gets
    the scales it would get alone.  B is symmetric whenever A is.
    """
    d = []
    for i, row in enumerate(dens):
        q = row[i]
        v = (q & -q).bit_length() - 1
        d.append((q >> v) << (v + 1) // 2)
    for cls in classes:
        for p, b in enumerate(cls):
            for a in cls[:p]:
                q, r = dens[a][b], dens[b][a]
                if q != r:
                    q = math.lcm(q, r)
                if q != 1 and (g := d[a] * d[b]) % q:
                    d[b] *= q // math.gcd(q, g)
    return d


def _scaled(
    nums: Grid, dens: Grid, d: list[int], idx: list[int], upper: bool = False
) -> list[list[int]]:
    """The rows of B = D A D over the indices idx, as integers, from A's grids.

    With upper, only the upper triangle is computed: each row's entries left
    of the diagonal are 0, which a symmetric pass never reads.
    """
    rows = []
    for p, i in enumerate(idx):
        num, den, di = nums[i], dens[i], d[i]
        row = [(v := num[j]) and v * (di * d[j] // den[j]) for j in (idx[p:] if upper else idx)]
        rows.append([0] * p + row if upper else row)
    return rows


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


def exact_logdet(rows: Sequence[Sequence[Rational]] | MomentMatrix) -> float:
    """log|det| of a matrix with rational entries, by exact integer elimination.

    The determinant is the last leading principal minor, so this is the last
    entry of exact_prefix_logdets, and 0.0 (the empty product) for [].
    """
    prefix = exact_prefix_logdets(rows)
    return prefix[-1] if prefix else 0.0


def exact_prefix_logdets(rows: Sequence[Sequence[Rational]] | MomentMatrix) -> list[float]:
    """log|det| of every leading principal submatrix, sizes 1..n, by exact integer elimination.

    rows is an exact MomentMatrix, whose grid is read once per distinct
    code (_grids), or plain rows, a grid with one code per entry.  The
    matrix A is eliminated as the integer matrix B = D A D of _scales.  It
    splits into the classes of its zero pattern, and one Bareiss elimination
    without pivoting runs over each class's rows of B, built alone; its
    pivot p is the class's integer leading minor of size p + 1.  When A is
    symmetric, checked once, so is B, and each class builds and eliminates
    one triangle; the same pivots come out.  Past a zero pivot later minors
    need not vanish ([[0, 1], [1, 0]] has minors 0 and -1), so that class
    alone builds its whole B and eliminates each larger leading block of it
    with row exchanges; the other classes keep their single pass.  A zero
    entry has denominator 1, so a class's scales are the whole matrix's,
    and det(B_{k+1}) is, up to sign, the product of each class's leading
    minor over the indices up to k.  As det(B_{k+1}) = det(A_{k+1})
    prod_{r<=k} d_r^2, an exact division turns it into the determinant of
    A_{k+1} with each row scaled by the lcm of its first k + 1 denominators,
    as that submatrix alone is scaled, so each entry equals the last one of
    this function on that submatrix, bit for bit.  Only the final logarithms
    are floating point, and each lcm's is taken once, when the lcm changes.
    """
    nums, dens = _grids(rows)
    n = len(nums)
    classes = _classes(nums)
    d = _scales(dens, classes)
    symmetric = _symmetric(nums) and _symmetric(dens)
    class_minors = []
    for cls in classes:
        minors = _leading_minors(_scaled(nums, dens, d, cls, upper=symmetric), symmetric=symmetric)
        if len(minors) < len(cls):  # stopped at a zero minor
            full = _scaled(nums, dens, d, cls)
            for size in range(len(minors) + 1, len(cls) + 1):
                block = [row[:size] for row in full[:size]]
                minors.append(_leading_minors(block, exchange=True)[-1])
        class_minors.append(minors)
    where = [(0, 0)] * n  # index -> (its class, its position in the class)
    for c, cls in enumerate(classes):
        for p, i in enumerate(cls):
            where[i] = (c, p)
    current = [1] * len(classes)  # each class's leading minor over the indices so far
    minor = 1  # their product: det(B_{k+1}) up to sign
    out: list[float] = []
    prefix_lcm: list[int] = []  # at size k + 1: row r's lcm over its first k + 1 entries
    logs: list[float] = []  # math.log of each prefix_lcm, recomputed only when it changes
    lcm_prod = 1  # prod(prefix_lcm)
    d_prod = 1  # prod_{r<=k} d_r^2
    for k in range(n):
        c, p = where[k]
        for r in classes[c][:p]:  # an entry outside k's class is 0, denominator 1
            old = prefix_lcm[r]
            if old % (q := dens[r][k]):
                prefix_lcm[r] = new = math.lcm(old, q)
                logs[r] = math.log(new)
                lcm_prod *= new // old
        new = math.lcm(*dens[k][: k + 1])
        prefix_lcm.append(new)
        logs.append(math.log(new))
        lcm_prod *= new
        d_prod *= d[k] * d[k]
        log_scale = 0.0
        for v in logs:  # row by row, as the submatrix alone sums them
            log_scale += v
        last, current[c] = current[c], class_minors[c][p]
        # past its class's zero minor there is no last minor to divide out
        minor = minor // last * current[c] if last else math.prod(current)
        out.append(_scaled_logdet(minor * lcm_prod // d_prod, log_scale))
    return out


def _scaled_logdet(det: int, log_scale: float) -> float:
    """log|det / exp(log_scale)|, for the integer det of a row-scaled matrix."""
    if det == 0:
        return NEG_INF
    return math.log(abs(det)) - log_scale


@dataclass(frozen=True)
class MomentMatrix:
    """A moment matrix (Gram or Hankel type): its exact grid, or else its float matrix.

    An exact one keeps what moment_matrix builds it from: the square grid
    of integer key codes of its entries and one Fraction per distinct code,
    so that entries with equal codes are one moment.  The exact routes read
    each code's numerator and denominator once and the rest through the
    grid.  A float one keeps only its matrix.  Its len is its number of
    rows, so an exact one passes as the rows of exact_logdet.
    """

    size: int
    matrix: np.ndarray | None
    codes: Grid | None
    values: dict[int, Fraction] | None

    def __len__(self) -> int:
        return self.size

    @property
    def exact(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The rational rows, by lookup through the grid; None for a float matrix."""
        if self.values is None:
            return None
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.codes)

    def logdet(self) -> float:
        if self.values is not None:
            return exact_logdet(self)
        return logdet(self.matrix)

    def prefix_logdets(self) -> list[float]:
        """The logdet of each leading submatrix, sizes 1..size, in order.

        Each entry equals the logdet of the matrix built afresh at that size,
        bit for bit, so `sharpness` and `zs-check` read every degree off the
        matrix of their largest degree.
        """
        if self.values is not None:
            return exact_prefix_logdets(self)
        return [logdet(self.matrix[:i, :i]) for i in range(1, self.size + 1)]


def moment_matrix(
    codes: Grid,
    decode: Callable[[int], Any],
    exact_value: Callable[[Any], Fraction | None],
    float_value: Callable[[Any], complex],
) -> MomentMatrix:
    """The matrix [value(decode(codes[a][b]))], shared by Gram and Hankel.

    codes is the square grid of integer key codes of the entries, and
    entries with equal codes share one moment, so each distinct code is
    decoded and evaluated once.  Exact when every exact value is rational:
    the grid and one value per code, with no rows and no float copy.  The
    first None switches the whole matrix to the float values, again one per
    distinct code, with the rows filled by lookup.
    """
    keys = {c: decode(c) for c in set(chain.from_iterable(codes))}
    values = {}
    for c, k in keys.items():
        if (value := exact_value(k)) is None:
            floats = {c: float_value(k) for c, k in keys.items()}
            matrix = np.array([row(floats) for row in _row_getters(codes)], dtype=complex)
            return MomentMatrix(len(codes), matrix, None, None)
        values[c] = value
    return MomentMatrix(len(codes), None, codes, values)


def _leading_minors(
    a: list[list[int]], exchange: bool = False, symmetric: bool = False
) -> list[int]:
    """The pivots of Bareiss elimination over a's first len(a) columns, in place.

    Without row exchanges pivot k is the leading principal minor of size
    k + 1 (Bareiss 1968), and the list ends at the first zero.  With them,
    a zero pivot is first exchanged with the next row below that is nonzero
    in its column, so the last pivot is the determinant up to sign, 0 when
    a is singular.

    symmetric, given only without exchanges, says that a's square part is
    symmetric.  After k steps entry (i, j), i and j >= k, is the minor of
    that square part bordering its leading k x k block by row i and column
    j, and those minors are symmetric too.  So a[i][k] = a[k][i], and each
    step updates only the upper triangle and the columns past the square
    part: the same pivots for half the integer products.
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
        _bareiss_step(a, k, prev, symmetric)
        prev = pivot
    return pivots


def _bareiss_step(a: list[list[int]], k: int, prev: int, symmetric: bool) -> None:
    """Eliminate below the nonzero pivot a[k][k] in place, to the rows' ends; prev: last pivot.

    When a's square part is symmetric, row i is updated from column i on
    only, with the multiplier a[k][i] (see _leading_minors), and the
    strictly lower triangle is neither read nor written.
    """
    pivot = a[k][k]
    row_k = a[k]
    for i in range(k + 1, len(a)):
        row_i = a[i]
        if symmetric:
            left, start = row_k[i], i
        else:
            left, start = row_i[k], k + 1
            row_i[k] = 0
        for j in range(start, len(row_k)):
            # Bareiss identity: the division by the previous pivot is exact
            row_i[j] = (row_i[j] * pivot - left * row_k[j]) // prev


def exact_ldl(
    rows: Sequence[Sequence[Rational]] | MomentMatrix,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(L^-1, d) with A = L diag(d) L^T, L unit lower, for a rational SPD matrix A.

    rows is an exact MomentMatrix or plain rows, read as exact_prefix_logdets
    reads them.  L and L^-1 are zero between the classes of A's zero
    pattern, so each class is factored alone and its rows are scattered
    back.  Per class, one Bareiss pass without pivoting runs over [B | I], B
    the class's rows of the symmetric integer matrix E A E of _scales,
    E = diag(e), of which one triangle is built: after step k - 1, row k's
    right block is D_{k-1} (L_B^-1)_k, D_k the pivot of step k and
    D_{-1} = 1, and since A = E^-1 B E^-1, (L^-1)_kj = (L_B^-1)_kj e_j / e_k
    and d_k = D_k / (D_{k-1} e_k^2).  Each Fraction is built once, and none
    for the zeros above the diagonal.  Raises ValueError at the first index
    whose pivot is not positive, quoting that class's pivot of B, and before
    any elimination when A is not symmetric.  Each step updates one triangle
    of B and the whole right block.
    """
    nums, dens = _grids(rows)
    n = len(nums)
    if not (_symmetric(nums) and _symmetric(dens)):
        raise ValueError("matrix is not symmetric")
    classes = _classes(nums)
    e = _scales(dens, classes)
    pivots: list[int] = [0] * n
    blocks = []
    for cls in classes:
        m = len(cls)
        upper = _scaled(nums, dens, e, cls, upper=True)
        aug = [row + [int(p == q) for q in range(m)] for p, row in enumerate(upper)]
        minors = _leading_minors(aug, symmetric=True)
        for i, pivot in zip(cls, minors):
            pivots[i] = pivot
        blocks.append((cls, aug, [1, *minors]))  # D_{p-1} at position p
    # in index order: a class's entries past its first zero are never reached
    for k, pivot in enumerate(pivots):
        if pivot <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {k} = {pivot})")
    zero = Fraction(0)
    inverse = [[zero] * n for _ in range(n)]
    diag = [zero] * n
    for cls, aug, prev in blocks:
        m = len(cls)
        for p, i in enumerate(cls):
            scale = prev[p] * e[i]
            row = inverse[i]
            # (L_B^-1)_p is zero past column p
            for j, v in zip(cls[: p + 1], aug[p][m : m + p + 1]):
                if v:
                    row[j] = Fraction(v * e[j], scale)
            diag[i] = Fraction(prev[p + 1], scale * e[i])
    return inverse, diag
