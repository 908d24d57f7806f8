"""Log-magnitude determinants and exact rational factorizations.

Determinants of moment and Vandermonde matrices overflow or underflow
double precision long before the interesting degree range is reached, so
every determinant in this package is carried as a (log|det|, phase) pair.
Two computation routes are provided: pivoted LU in doubles (numpy), and an
exact integer Bareiss elimination for matrices with rational entries.  The
exact route is what keeps large moment-matrix determinants meaningful: the
late LU pivots of those matrices sit far below the double-precision noise
floor, where a floating factorization returns garbage.  Gram and Hankel
matrices are both built here as a MomentMatrix, which takes the exact
route whenever every entry is rational.  A whole sequence of leading
principal minors comes from one elimination without pivoting, whose
pivots are exactly those minors (Bareiss 1968), so a Hankel sequence
H_1..H_n costs one elimination, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogDet:
    """A determinant stored as log|det| plus a unit-modulus phase.

    ``log_abs`` is -inf exactly when the determinant vanishes, in which
    case ``phase`` is 0.
    """

    log_abs: float
    phase: complex

    @staticmethod
    def zero() -> "LogDet":
        return LogDet(NEG_INF, 0j)

    @staticmethod
    def of(value: complex) -> "LogDet":
        value = complex(value)
        mag = abs(value)
        if mag == 0.0:
            return LogDet.zero()
        return LogDet(math.log(mag), value / mag)

    @property
    def is_zero(self) -> bool:
        return self.log_abs == NEG_INF

    def value(self) -> complex:
        """Reconstruct phase * exp(log_abs); overflows for huge log_abs."""
        if self.is_zero:
            return 0j
        return self.phase * math.exp(self.log_abs)

    def scaled(self, log_factor: float, phase_factor: complex = 1.0 + 0j) -> "LogDet":
        """The determinant multiplied by exp(log_factor) * phase_factor."""
        if self.is_zero:
            return self
        phase = self.phase * phase_factor
        mag = abs(phase)
        if mag == 0.0:
            return LogDet.zero()
        return LogDet(self.log_abs + log_factor, phase / mag)


def logdet(matrix: np.ndarray) -> LogDet:
    """log|det| and phase of a square matrix via pivoted LU (numpy slogdet)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    sign, log_abs = np.linalg.slogdet(matrix)
    if sign == 0 or log_abs == NEG_INF:
        return LogDet.zero()
    return LogDet(float(log_abs), complex(sign))


def pairwise_difference_logdet(points: np.ndarray) -> LogDet:
    """Classic 1D Vandermonde determinant prod_{i<j} (x_j - x_i), in log form.

    Mathematically identical to LU on the monomial matrix but immune to its
    conditioning; used as the 1D fast path everywhere.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    m = pts.shape[0]
    if m <= 1:
        return LogDet(0.0, 1 + 0j)
    diffs = pts[None, :] - pts[:, None]
    iu = np.triu_indices(m, 1)
    upper = diffs[iu]
    mags = np.abs(upper)
    if np.any(mags == 0.0):
        return LogDet.zero()
    log_abs = float(np.sum(np.log(mags)))
    angle = float(np.sum(np.angle(upper)))
    return LogDet(log_abs, complex(math.cos(angle), math.sin(angle)))


def batch_pairwise_logabs(points: np.ndarray) -> np.ndarray:
    """log|V| for a batch of 1D configurations, shape (batch, m) -> (batch,)."""
    pts = np.asarray(points, dtype=complex)
    b, m = pts.shape
    if m <= 1:
        return np.zeros(b)
    diffs = pts[:, None, :] - pts[:, :, None]
    iu = np.triu_indices(m, 1)
    mags = np.abs(diffs[:, iu[0], iu[1]])
    with np.errstate(divide="ignore"):
        return np.sum(np.log(mags), axis=1)


def batch_logabs(matrices: np.ndarray) -> np.ndarray:
    """log|det| for a stack of square matrices, shape (batch, m, m)."""
    _, log_abs = np.linalg.slogdet(matrices)
    return log_abs


Rational = Fraction | int


def exact_logdet(rows: Sequence[Sequence[Rational]]) -> LogDet:
    """Exact log|det| and sign for a matrix with rational entries.

    Rows are scaled to integers by their denominator lcm and the integer
    determinant is computed by fraction-free Bareiss elimination; only the
    final logarithm is taken in floating point.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    log_scale = 0.0
    scaled: list[list[int]] = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        scaled.append([int(f * denom) for f in fracs])
        log_scale += math.log(denom)
    return _scaled_logdet(_bareiss_int_det(scaled), log_scale)


def exact_prefix_logdets(rows: Sequence[Sequence[Rational]]) -> list[LogDet]:
    """exact_logdet of every leading principal submatrix, sizes 1..n, bit for bit.

    Each row is scaled by the lcm of its whole row's denominators and one
    Bareiss elimination without pivoting runs over the result; its pivot k
    is the integer leading minor of size k + 1.  Size k + 1 is then turned
    into the determinant of the matrix whose rows are scaled by the lcm of
    their first k + 1 denominators only, as exact_logdet scales them, so
    the same integer and the same scale reach the final logarithm.  A zero
    pivot stops the pass: that size is singular, but later minors need not
    be ([[0, 1], [1, 0]] has minors 0 and -1), so every larger size falls
    back to its own pivoted elimination.
    """
    # MomentMatrix rows hold Fractions already: keep those, copy nothing
    fracs = [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in rows]
    n = len(fracs)
    if any(len(r) != n for r in fracs):
        raise ValueError("matrix must be square")
    full_lcm = [math.lcm(*(f.denominator for f in row)) for row in fracs]
    scaled = [[f.numerator * (d // f.denominator) for f in row] for row, d in zip(fracs, full_lcm)]
    out: list[LogDet] = []
    prefix_lcm: list[int] = []  # at size k + 1: row r's lcm over its first k + 1 entries
    full_scale = 1
    prev = 1
    for k in range(n):
        for r in range(k):
            prefix_lcm[r] = math.lcm(prefix_lcm[r], fracs[r][k].denominator)
        prefix_lcm.append(math.lcm(*(f.denominator for f in fracs[k][: k + 1])))
        full_scale *= full_lcm[k]
        log_scale = 0.0
        for d in prefix_lcm:  # row by row as in exact_logdet, for the same float bits
            log_scale += math.log(d)
        pivot = scaled[k][k]
        out.append(_scaled_logdet(pivot * math.prod(prefix_lcm) // full_scale, log_scale))
        if pivot == 0:
            break
        _bareiss_step(scaled, k, prev)
        prev = pivot
    for size in range(len(out) + 1, n + 1):
        out.append(exact_logdet([row[:size] for row in fracs[:size]]))
    return out


def _scaled_logdet(det: int, log_scale: float) -> LogDet:
    """The LogDet of det / exp(log_scale), for the integer det of a row-scaled matrix."""
    if det == 0:
        return LogDet.zero()
    sign = 1.0 if det > 0 else -1.0
    return LogDet(math.log(abs(det)) - log_scale, complex(sign))


@dataclass(frozen=True)
class MomentMatrix:
    """A moment matrix (Gram or Hankel type), with an exact copy when available."""

    size: int
    matrix: np.ndarray
    exact: tuple[tuple[Fraction, ...], ...] | None

    def logdet(self) -> LogDet:
        if self.exact is not None:
            return exact_logdet(self.exact)
        return logdet(self.matrix)

    def prefix_logdets(self) -> list[LogDet]:
        """The logdet of each leading submatrix, sizes 1..size, in order.

        Each entry equals the logdet of the matrix built afresh at that size.
        """
        if self.exact is not None:
            return exact_prefix_logdets(self.exact)
        return [logdet(self.matrix[:i, :i]) for i in range(1, self.size + 1)]


def moment_matrix(
    basis: Sequence,
    exact_entry: Callable[[Any, Any], Fraction | None],
    float_entry: Callable[[Any, Any], complex],
) -> MomentMatrix:
    """The matrix [entry(a, b)] over a basis prefix, shared by Gram and Hankel.

    Exact when every exact entry is rational; the first None switches the
    whole matrix to the float entries.
    """
    exact_rows: list[tuple[Fraction, ...]] = []
    for a in basis:
        row = []
        for b in basis:
            f = exact_entry(a, b)
            if f is None:
                floats = [[float_entry(x, y) for y in basis] for x in basis]
                return MomentMatrix(len(basis), np.array(floats, dtype=complex), None)
            row.append(f)
        exact_rows.append(tuple(row))
    mat = np.array([[float(v) for v in row] for row in exact_rows], dtype=complex)
    return MomentMatrix(len(basis), mat, tuple(exact_rows))


def _bareiss_int_det(a: list[list[int]]) -> int:
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _bareiss_step(a: list[list[int]], k: int, prev: int) -> None:
    """Eliminate below the nonzero pivot a[k][k], in place; prev is the last pivot."""
    n = len(a)
    pivot = a[k][k]
    row_k = a[k]
    for i in range(k + 1, n):
        left = a[i][k]
        row_i = a[i]
        for j in range(k + 1, n):
            # Bareiss identity: the division by the previous pivot is exact
            row_i[j] = (row_i[j] * pivot - left * row_k[j]) // prev
        row_i[k] = 0


def exact_ldl(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact LDL^T factorization of a symmetric positive-definite rational matrix.

    Returns (L, d) with L unit lower-triangular and d the diagonal, such
    that A = L diag(d) L^T.  Raises ValueError if a pivot is not positive
    (the matrix is not numerically usable for orthonormalization then).
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    for j in range(n):
        d = a[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {j} = {d})")
        diag.append(d)
        for i in range(j + 1, n):
            off = a[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = off / d
    return lower, diag


def unit_lower_inverse(lower: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a unit lower-triangular rational matrix."""
    n = len(lower)
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv
