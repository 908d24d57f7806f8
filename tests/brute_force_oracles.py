"""Brute-force determinant and factorization oracles, for tests only.

The library computes Vandermonde and Hankel determinants in log form,
through LU, Bareiss or the 1D pairwise product.  These helpers compute
the same quantities literally, as a determinant value and as the
iterated functional summed over every tuple of atoms, so tests can
check the fast routes against an independent one.  The library's exact
LDL^T inverse comes from one Bareiss pass over [cA | I]; the oracle here
is the textbook route in Fraction arithmetic, an LDL^T followed by the
inverse of the unit lower factor.  The library's exact determinants split
a matrix along its zero pattern; the oracle here eliminates the whole
matrix at once.  The library's one-variable greedy start scores every
restart's pool in one array; the oracle here scores one pool at a time.
The library's sup/L2 kernel walks its grid one block at a time, a product
grid built block by block; the oracle here builds the whole grid first.
The library's samplers write each draw into their result in place; the
oracle here draws through float temporaries and stacks one column per
factor.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from polyalab import (
    ArcsineMeasure,
    Circle,
    DiscreteMeasure,
    Disk,
    Measure,
    ProductMeasure,
    ProductSet,
    basis_matrix,
    count_at_most,
    orthonormal_coefficients,
)
from polyalab.measures import _GRID_BLOCK

MAX_ORACLE_ATOMS = 4
MAX_ORACLE_SIZE = 3


def monomial_value(k, z) -> complex:
    """z^k as a scalar product of Python complex powers, coordinate by coordinate."""
    out = 1 + 0j
    for exp, coord in zip(k, z):
        if exp:
            out *= complex(coord) ** int(exp)
    return out


def vdm_value(points: np.ndarray) -> complex:
    """The determinant itself; only safe for small configurations."""
    pts = np.asarray(points, dtype=complex)
    if pts.shape[1] == 1:
        z = pts[:, 0]
        val = 1 + 0j
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                val *= z[j] - z[i]
        return val
    return complex(np.linalg.det(basis_matrix(pts, pts.shape[0]).T))


def greedy_line_start(pool: np.ndarray, size: int) -> np.ndarray:
    """One pool's one-variable greedy start: each next point maximizes the
    log-distance sum to the points chosen so far, ties to the first."""
    z = pool[:, 0]
    chosen = [int(np.argmax(np.abs(z)))]
    score = np.full(len(z), 0.0)
    with np.errstate(divide="ignore"):
        for _ in range(size - 1):
            score += np.log(np.abs(z - z[chosen[-1]]))
            chosen.append(int(np.argmax(score)))
    return pool[chosen]


def iterated_functional_oracle(measure: DiscreteMeasure, size: int) -> float:
    """Apply the functional once per variable to the squared determinant.

    For a discrete measure this is the exact weighted sum of V(config)^2
    (the plain square, not the squared modulus) over all atom tuples; its
    absolute value equals size! times |H_size| of the moment sequence.
    Deliberately brute force, hence the tight size limits.
    """
    if not isinstance(measure, DiscreteMeasure):
        raise TypeError("the brute-force route needs a discrete measure")
    atoms = np.asarray(measure.atoms, dtype=complex)
    nat = atoms.shape[0]
    if nat > MAX_ORACLE_ATOMS or size > MAX_ORACLE_SIZE:
        raise ValueError(
            f"brute-force oracle limited to {MAX_ORACLE_ATOMS} atoms and "
            f"size {MAX_ORACLE_SIZE}, got {nat} atoms at size {size}"
        )
    if size < 1:
        raise ValueError("size must be positive")
    weights = [complex(float(w)) for w in measure.weights]
    total = 0j
    for tup in itertools.product(range(nat), repeat=size):
        w = 1 + 0j
        for t in tup:
            w *= weights[t]
        v = vdm_value(atoms[list(tup)])
        total += w * v * v
    return abs(total)


def exact_ldl(rows):
    """(L, d) with L unit lower-triangular and A = L diag(d) L^T, in Fractions.

    Raises ValueError at the first pivot that is not positive.
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = []
    for j in range(n):
        d = a[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {j} = {d})")
        diag.append(d)
        for i in range(j + 1, n):
            off = a[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = off / d
    return lower, diag


def unit_lower_inverse(lower):
    """Inverse of a unit lower-triangular Fraction matrix, by forward substitution."""
    n = len(lower)
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def unsplit_logdet(rows) -> float:
    """log|det| of a rational matrix by one pivoted Bareiss elimination of the whole matrix.

    Rows are scaled to integers by their denominator lcm, as the library
    scales them, so a correct split route gives the same float bit for bit.
    """
    log_scale = 0.0
    a = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        denom = math.lcm(*(f.denominator for f in fracs))
        a.append([int(f * denom) for f in fracs])
        log_scale += math.log(denom)
    n = len(a)
    prev = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if a[i][k] != 0), None)
        if swap is None:
            return -math.inf
        a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return math.log(abs(prev)) - log_scale


def unsplit_prefix_logdets(rows) -> list[float]:
    """unsplit_logdet of every leading principal submatrix, sizes 1..n."""
    return [unsplit_logdet([row[:size] for row in rows[:size]]) for size in range(1, len(rows) + 1)]


def whole_grid(kset, per_axis: int) -> np.ndarray:
    """grid(per_axis) at once: a product's axes broadcast into one (N, dim) array."""
    if not isinstance(kset, ProductSet):
        return kset.grid(per_axis)
    axes = [f.grid(per_axis).reshape(-1) for f in kset.factors]
    out = np.empty((*(len(a) for a in axes), kset.dim), dtype=complex)
    for k, column in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        out[..., k] = column
    return out.reshape(-1, kset.dim)


def whole_grid_bm_ratio(measure, s: int, per_axis: int) -> float:
    """bernstein_markov_ratio with the whole grid built first, then swept in its blocks."""
    m = count_at_most(measure.dim, s)
    try:
        coeffs = orthonormal_coefficients(measure, m)
    except (ValueError, np.linalg.LinAlgError):
        return math.inf
    pts = whole_grid(measure.support, per_axis)
    peak = -math.inf
    step = max(1, _GRID_BLOCK // m)
    for start in range(0, pts.shape[0], step):
        q = coeffs @ basis_matrix(pts[start : start + step], m)
        peak = np.maximum(peak, np.max(np.sum(np.abs(q) ** 2, axis=0)))
    return float(np.sqrt(peak))


def sample(source, rng: np.random.Generator, count: int) -> np.ndarray:
    """source.sample(rng, count) through float temporaries and one stacked column per factor.

    source is a measure or a set; a uniform measure draws what its support
    draws, and an interval or a finite set draws as the library does.
    """
    if isinstance(source, (ProductMeasure, ProductSet)):
        cols = [sample(f, rng, count).reshape(-1) for f in source.factors]
        return np.stack(cols, axis=1)
    if isinstance(source, ArcsineMeasure):
        t = np.cos(math.pi * rng.uniform(0.0, 1.0, size=count))
        x = (source.a + source.b) / 2 + (source.b - source.a) / 2 * t
        return x.astype(complex).reshape(-1, 1)
    if isinstance(source, Circle):
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return (source.center + source.radius * np.exp(1j * theta)).reshape(-1, 1)
    if isinstance(source, Disk):
        r = source.radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return (source.center + r * np.exp(1j * theta)).reshape(-1, 1)
    if isinstance(source, Measure) and not isinstance(source, DiscreteMeasure):
        return sample(source.support, rng, count)
    return source.sample(rng, count)
