"""Probability measures on model sets: moments, Gram matrices, Z_s, kernels.

Each measure defines its hermitian moments, the integrals of
z^j conj(z)^l, and sampling.  A plain moment, the integral of z^k, is the
hermitian moment at l = 0, so no measure states it again.  Moments come
in two flavors: exact Fraction where the measure admits rational closed
forms, and floating complex (by default the exact moment, rounded); the
exact flavor is what lets the large determinants downstream escape
double-precision noise.  Since a Python float is an exact
rational, every interval and radius parameter has exact moments.

Z_s is the m_s-fold product integral of |V|^2.  By the standard
determinant-integral interchange it equals m_s! times the determinant of
the monomial Gram matrix, which is how z_s_gram computes it; a log-domain
Monte Carlo estimator cross-checks the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .domains import (
    Circle,
    CompactSet,
    Disk,
    FiniteSet,
    Interval,
    ProductSet,
)
from .linalg import LogDet, MomentMatrix, exact_ldl, moment_matrix, unit_lower_inverse
from .multiindex import as_multi_index, count_at_most, enumeration_for
from .vandermonde import as_seed_sequence, basis_matrix, vdm_logabs_batch


class Measure:
    """Base class for positive measures carried by a compact support.

    The built-in continuous kinds have total mass 1; discrete measures and
    ScaledMeasure wrappers can carry any positive mass, and sample() always
    draws from the normalized version.
    """

    dim: int = 1

    @property
    def support(self) -> CompactSet:
        raise NotImplementedError

    @property
    def mass(self) -> float:
        zero = (0,) * self.dim
        return float(self.moment(zero).real)

    def moment(self, k) -> complex:
        """Integral of z^k: the hermitian moment at l = 0."""
        return self.hermitian_moment(k, (0,) * self.dim)

    def moment_fraction(self, k) -> Fraction | None:
        """Exact integral of z^k, or None: the exact hermitian moment at l = 0."""
        return self.hermitian_moment_fraction(k, (0,) * self.dim)

    def hermitian_moment(self, j, l) -> complex:
        """Integral of z^j conj(z)^l; by default the exact moment, rounded."""
        return complex(self.hermitian_moment_fraction(j, l))

    def hermitian_moment_fraction(self, j, l) -> Fraction | None:
        """Exact rational hermitian moment, or None when no exact form exists."""
        return None

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dim) points distributed by the measure."""
        raise NotImplementedError


def _real_degree(j, l, dim: int) -> tuple[int, ...]:
    # on a real support conj(z) = z, so z^j conj(z)^l is z^(j + l)
    return tuple(a + b for a, b in zip(as_multi_index(j, dim), as_multi_index(l, dim)))


def _std_arcsine_moment(k: int) -> Fraction:
    # moments of the cosine of a uniform angle: central binomial over 2^k
    if k % 2 == 1:
        return Fraction(0)
    return Fraction(math.comb(k, k // 2), 2**k)


@functools.cache
def _arcsine_moment(a, b, deg: int) -> Fraction:
    """Exact degree-deg moment of the arcsine measure of [a, b], computed once.

    Keyed by the exact fields, never rounded: equal keys are equal numbers.
    """
    mid = (Fraction(a) + Fraction(b)) / 2
    half = (Fraction(b) - Fraction(a)) / 2
    total = Fraction(0)
    for i in range(deg + 1):
        total += math.comb(deg, i) * mid ** (deg - i) * half**i * _std_arcsine_moment(i)
    return total


@dataclass(frozen=True)
class ArcsineMeasure(Measure):
    """Equilibrium distribution of a segment [a, b]."""

    a: float = -1.0
    b: float = 1.0
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not float(self.a) < float(self.b):
            raise ValueError("need a < b")

    @property
    def support(self) -> CompactSet:
        return Interval(self.a, self.b)

    def hermitian_moment_fraction(self, j, l) -> Fraction:
        (deg,) = _real_degree(j, l, 1)
        return _arcsine_moment(self.a, self.b, deg)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        t = np.cos(math.pi * rng.uniform(0.0, 1.0, size=count))
        x = (self.a + self.b) / 2 + (self.b - self.a) / 2 * t
        return x.astype(complex).reshape(-1, 1)


@dataclass(frozen=True)
class UniformSegment(Measure):
    """Normalized length measure of a segment [a, b]."""

    a: float
    b: float
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not float(self.a) < float(self.b):
            raise ValueError("need a < b")

    @property
    def support(self) -> CompactSet:
        return Interval(self.a, self.b)

    def hermitian_moment_fraction(self, j, l) -> Fraction:
        (deg,) = _real_degree(j, l, 1)
        lo, hi = Fraction(self.a), Fraction(self.b)
        return (hi ** (deg + 1) - lo ** (deg + 1)) / ((deg + 1) * (hi - lo))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=(count, 1)).astype(complex)


@dataclass(frozen=True)
class CircleUniform(Measure):
    """Uniform angular measure on the circle |z| = radius."""

    radius: float = 1.0
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if float(self.radius) <= 0:
            raise ValueError("radius must be positive")

    @property
    def support(self) -> CompactSet:
        return Circle(0j, self.radius)

    def hermitian_moment_fraction(self, j, l) -> Fraction:
        (dj,) = as_multi_index(j, 1)
        (dl,) = as_multi_index(l, 1)
        if dj != dl:
            return Fraction(0)
        return Fraction(self.radius) ** (2 * dj)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return (self.radius * np.exp(1j * theta)).reshape(-1, 1)


@dataclass(frozen=True)
class DiskUniform(Measure):
    """Normalized area measure of the disk |z| <= radius."""

    radius: float = 1.0
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if float(self.radius) <= 0:
            raise ValueError("radius must be positive")

    @property
    def support(self) -> CompactSet:
        return Disk(0j, self.radius)

    def hermitian_moment_fraction(self, j, l) -> Fraction:
        (dj,) = as_multi_index(j, 1)
        (dl,) = as_multi_index(l, 1)
        if dj != dl:
            return Fraction(0)
        return Fraction(self.radius) ** (2 * dj) / (dj + 1)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return (r * np.exp(1j * theta)).reshape(-1, 1)


@dataclass(frozen=True)
class DiscreteMeasure(Measure):
    """Finitely many weighted atoms; total mass is the sum of the weights."""

    atoms: tuple[tuple[complex, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        pts = tuple(
            tuple(complex(v) for v in (p if isinstance(p, (tuple, list, np.ndarray)) else (p,)))
            for p in self.atoms
        )
        w = tuple(Fraction(x) for x in self.weights)
        if len(pts) != len(w) or not pts:
            raise ValueError("need matching nonempty atoms and weights")
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "weights", w)
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("atoms have mixed dimensions")
        object.__setattr__(self, "dim", dims.pop())

    @property
    def support(self) -> CompactSet:
        return FiniteSet(self.atoms)

    def atom_array(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=complex)

    def weight_array(self) -> np.ndarray:
        return np.asarray([float(w) for w in self.weights])

    def hermitian_moment(self, j, l) -> complex:
        jj = as_multi_index(j, self.dim)
        ll = as_multi_index(l, self.dim)
        total = 0j
        for p, w in zip(self.atoms, self.weights):
            term = 1 + 0j
            for v, ej, el in zip(p, jj, ll):
                term *= v**ej * np.conj(v) ** el
            total += float(w) * complex(term)
        return total

    def hermitian_moment_fraction(self, j, l) -> Fraction | None:
        if not self.support.is_real:
            return None
        kk = _real_degree(j, l, self.dim)
        total = Fraction(0)
        for p, w in zip(self.atoms, self.weights):
            term = Fraction(1)
            for v, e in zip(p, kk):
                term *= Fraction(v.real) ** e
            total += w * term
        return total

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        probs = self.weight_array()
        idx = rng.choice(len(self.atoms), size=count, p=probs / probs.sum())
        return self.atom_array()[idx]


@dataclass(frozen=True)
class ProductMeasure(Measure):
    """Independent product of one-dimensional measures."""

    factors: tuple[Measure, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            if f.dim != 1:
                raise ValueError("product factors must be one-dimensional")
        object.__setattr__(self, "dim", len(self.factors))

    @property
    def support(self) -> CompactSet:
        return ProductSet(tuple(f.support for f in self.factors))

    def hermitian_moment(self, j, l) -> complex:
        jj = as_multi_index(j, self.dim)
        ll = as_multi_index(l, self.dim)
        out = 1 + 0j
        for f, ej, el in zip(self.factors, jj, ll):
            out *= f.hermitian_moment(ej, el)
        return out

    def hermitian_moment_fraction(self, j, l) -> Fraction | None:
        jj = as_multi_index(j, self.dim)
        ll = as_multi_index(l, self.dim)
        out = Fraction(1)
        for f, ej, el in zip(self.factors, jj, ll):
            part = f.hermitian_moment_fraction(ej, el)
            if part is None:
                return None
            out *= part
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cols = [f.sample(rng, count).reshape(-1) for f in self.factors]
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ScaledMeasure(Measure):
    """A positive multiple of a base measure; sampling stays normalized."""

    base: Measure
    factor: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))
        if self.factor <= 0:
            raise ValueError("scaling factor must be positive")
        object.__setattr__(self, "dim", self.base.dim)

    @property
    def support(self) -> CompactSet:
        return self.base.support

    def hermitian_moment(self, j, l) -> complex:
        return float(self.factor) * self.base.hermitian_moment(j, l)

    def hermitian_moment_fraction(self, j, l) -> Fraction | None:
        part = self.base.hermitian_moment_fraction(j, l)
        return None if part is None else self.factor * part

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.base.sample(rng, count)


def gram(measure: Measure, count: int) -> MomentMatrix:
    """Gram matrix of the first count monomials: integrals of e_a conj(e_b)."""
    idx = enumeration_for(measure.dim).prefix(count)
    return moment_matrix(idx, measure.hermitian_moment_fraction, measure.hermitian_moment)


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def z_s_gram(measure: Measure, s: int) -> LogDet:
    """log Z_s through the determinant identity Z_s = m_s! det(Gram)."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    m = count_at_most(measure.dim, s)
    g = gram(measure, m)
    return g.logdet().scaled(log_factorial(m))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Log-domain mean of |V|^2 samples with a delta-method error bar."""

    log_value: float
    std_error_log: float
    samples: int

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value < 700 else math.inf


def z_s_montecarlo(
    measure: Measure,
    s: int,
    samples: int = 20000,
    seed=0,
    chunk_size: int = 2048,
) -> MonteCarloEstimate:
    """Monte Carlo Z_s: average |V|^2 over m_s-point draws from the measure.

    Sampling is chunked with one spawned seed per chunk, so the estimate is
    a pure function of (seed, samples, chunk_size), and memory is bounded
    by one chunk of configurations at a time.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    m = count_at_most(measure.dim, s)
    sizes = [chunk_size] * (samples // chunk_size)
    if samples % chunk_size:
        sizes.append(samples % chunk_size)
    children = as_seed_sequence(seed).spawn(len(sizes))
    chunks = []
    for child, size in zip(children, sizes):
        rng = np.random.default_rng(child)
        pts = measure.sample(rng, size * m).reshape(size, m, measure.dim)
        chunks.append(2.0 * vdm_logabs_batch(pts))
    logs = np.concatenate(chunks)

    # sampling is from the normalized measure; the mass comes back as a
    # deterministic factor mass^m in front of the product integral
    log_mass_term = m * math.log(measure.mass)
    peak = float(np.max(logs))
    if not np.isfinite(peak):
        return MonteCarloEstimate(float("-inf"), 0.0, samples)
    w = np.exp(logs - peak)
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(samples))
    return MonteCarloEstimate(log_mass_term + peak + math.log(mean), se / mean, samples)


def orthonormal_coefficients(measure: Measure, count: int) -> np.ndarray:
    """Lower-triangular C with q = C e orthonormal in L^2 of the measure.

    Uses an exact rational LDL^T factorization when the Gram matrix has
    one, postponing all rounding to the final float conversion.  Raises
    for a singular Gram matrix.
    """
    g = gram(measure, count)
    if g.exact is not None:
        lower, diag = exact_ldl(g.exact)
        inv = unit_lower_inverse(lower)
        out = np.zeros((count, count))
        for i in range(count):
            scale = 1.0 / math.sqrt(float(diag[i]))
            for j in range(i + 1):
                out[i, j] = float(inv[i][j]) * scale
        return out.astype(complex)
    chol = np.linalg.cholesky(g.matrix)
    return np.linalg.inv(chol)


def bernstein_markov_ratio(measure: Measure, s: int, per_axis: int = 4096) -> float:
    """Largest sup-to-L2 norm ratio among degree <= s polynomials.

    Equals the max over the support grid of the square root of the
    orthonormal kernel diagonal sum (a lower bound for the sup over the
    whole set).  A singular Gram matrix means some nonzero polynomial has
    zero L2 norm, so the ratio is reported as infinite.
    """
    m = count_at_most(measure.dim, s)
    try:
        coeffs = orthonormal_coefficients(measure, m)
    except (ValueError, np.linalg.LinAlgError):
        return math.inf
    pts = measure.support.grid(per_axis)
    basis = basis_matrix(pts, m)
    q = coeffs @ basis
    kernel = np.sum(np.abs(q) ** 2, axis=0)
    return float(np.sqrt(np.max(kernel.real)))
