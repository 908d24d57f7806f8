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
Monte Carlo estimator cross-checks the identity.  The Gram matrix reads
each distinct moment once: on a real support an entry is the moment of
its index sum a + b (conj(z) = z there), keyed by the sum of the two
indices' integer codes, elsewhere of its pair (a, b), keyed by the pair
code, whose exact value is that of (b, a).  A kind states its exact
formula once, on checked indices (_hermitian_fraction); the public
moments check their indices once, and a product measure multiplies its
factors' formulas without checking them again.

The batched point kernels hold one block of points at a time: Monte Carlo
draws MONTE_CARLO_CHUNK configurations per chunk, each draw written into
its result, and the sup/L2 kernel walks its grid through
CompactSet.grid_blocks, holding one block of grid points and their basis
values, never the whole grid.
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
    sample_columns,
)
from .linalg import MomentMatrix, exact_ldl, moment_matrix
from .multiindex import (
    MultiIndex, as_multi_index, count_at_most, enumeration_for, is_integer_at_least
)
from .vandermonde import as_seed_sequence, basis_matrix, vdm_logabs_batch

_GRID_BLOCK = 2**14  # basis entries (rows x grid points) per block of the sup/L2 kernel
MONTE_CARLO_CHUNK = 4096  # configurations per Monte Carlo chunk
DEFAULT_SAMPLES = 100_000  # Monte Carlo configurations of a Z_s estimate
DEFAULT_GRID = 4096  # sup/L2 grid points in all, the same count on every axis


class Measure:
    """Base class for positive measures carried by a compact support.

    The built-in continuous kinds have total mass 1; a discrete measure
    carries the sum of its weights, any positive mass, and sample() always
    draws from the normalized version.
    """

    dim: int = 1

    def __post_init__(self):
        self.support  # building the support checks the parameters

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
        return self._hermitian_fraction(as_multi_index(k, self.dim), (0,) * self.dim)

    def hermitian_moment(self, j, l) -> complex:
        """Integral of z^j conj(z)^l; by default the exact moment, rounded."""
        return complex(self.hermitian_moment_fraction(j, l))

    def hermitian_moment_fraction(self, j, l) -> Fraction | None:
        """Exact rational hermitian moment, or None when no exact form exists."""
        return self._hermitian_fraction(as_multi_index(j, self.dim), as_multi_index(l, self.dim))

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction | None:
        """The kind's exact moment formula, on indices already checked; None by default."""
        return None

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dim) points distributed by the measure; by default its support's draw.

        The uniform kinds draw what their support draws; arcsine, discrete
        and product measures draw another distribution and override it.
        """
        return self.support.sample(rng, count)


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

    @functools.cached_property
    def support(self) -> CompactSet:
        return Interval(self.a, self.b)

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction:
        # on a real support conj(z) = z, so z^j conj(z)^l is z^(j + l)
        return _arcsine_moment(self.a, self.b, j[0] + l[0])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # (a + b)/2 + (b - a)/2 * cos(pi u), each step in place on the draw
        x = rng.uniform(0.0, 1.0, size=count)
        np.multiply(math.pi, x, out=x)
        np.cos(x, out=x)
        np.multiply((self.b - self.a) / 2, x, out=x)
        np.add((self.a + self.b) / 2, x, out=x)
        return x.astype(complex).reshape(-1, 1)


@dataclass(frozen=True)
class UniformSegment(Measure):
    """Normalized length measure of a segment [a, b]."""

    a: float
    b: float
    dim: int = field(default=1, init=False)

    @functools.cached_property
    def support(self) -> CompactSet:
        return Interval(self.a, self.b)

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction:
        deg = j[0] + l[0]
        lo, hi = Fraction(self.a), Fraction(self.b)
        return (hi ** (deg + 1) - lo ** (deg + 1)) / ((deg + 1) * (hi - lo))


@dataclass(frozen=True)
class CircleUniform(Measure):
    """Uniform angular measure on the circle |z| = radius."""

    radius: float = 1.0
    dim: int = field(default=1, init=False)

    @functools.cached_property
    def support(self) -> CompactSet:
        return Circle(0j, self.radius)

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction:
        (dj,), (dl,) = j, l
        if dj != dl:
            return Fraction(0)
        return Fraction(self.radius) ** (2 * dj)


@dataclass(frozen=True)
class DiskUniform(Measure):
    """Normalized area measure of the disk |z| <= radius."""

    radius: float = 1.0
    dim: int = field(default=1, init=False)

    @functools.cached_property
    def support(self) -> CompactSet:
        return Disk(0j, self.radius)

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction:
        (dj,), (dl,) = j, l
        if dj != dl:
            return Fraction(0)
        return Fraction(self.radius) ** (2 * dj) / (dj + 1)


@dataclass(frozen=True)
class DiscreteMeasure(Measure):
    """Finitely many weighted atoms; total mass is the sum of the weights."""

    atoms: tuple[tuple[complex, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        # the support normalises the atoms and rejects mixed dimensions
        object.__setattr__(self, "atoms", self.support.points)
        object.__setattr__(self, "dim", self.support.dim)
        w = tuple(Fraction(x) for x in self.weights)
        if len(w) != len(self.atoms):
            raise ValueError("need one weight per atom")
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", w)

    @functools.cached_property
    def support(self) -> CompactSet:
        return FiniteSet(self.atoms)

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

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction | None:
        if not self.support.is_real:
            return None
        total = Fraction(0)
        for p, w in zip(self.atoms, self.weights):
            term = Fraction(1)
            for v, ej, el in zip(p, j, l):
                term *= Fraction(v.real) ** (ej + el)
            total += w * term
        return total

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        probs = np.asarray([float(w) for w in self.weights])
        idx = rng.choice(len(self.atoms), size=count, p=probs / probs.sum())
        return np.asarray(self.atoms, dtype=complex)[idx]


@dataclass(frozen=True)
class ProductMeasure(Measure):
    """Independent product of one-dimensional measures."""

    factors: tuple[Measure, ...]

    def __post_init__(self):
        # the support rejects an empty product and multivariate factors
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "dim", self.support.dim)

    @functools.cached_property
    def support(self) -> CompactSet:
        return ProductSet(tuple(f.support for f in self.factors))

    def hermitian_moment(self, j, l) -> complex:
        jj = as_multi_index(j, self.dim)
        ll = as_multi_index(l, self.dim)
        out = 1 + 0j
        for f, ej, el in zip(self.factors, jj, ll):
            out *= f.hermitian_moment(ej, el)
        return out

    def _hermitian_fraction(self, j: MultiIndex, l: MultiIndex) -> Fraction | None:
        out = None
        for f, ej, el in zip(self.factors, j, l):
            part = f._hermitian_fraction((ej,), (el,))
            if part is None:
                return None
            if out is None or not part:
                out = part
            elif out:  # a zero product stays zero, with no multiplication
                out *= part
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample_columns(self.factors, rng, count)


def gram(measure: Measure, count: int) -> MomentMatrix:
    """Gram matrix of the first count monomials: integrals of e_a conj(e_b)."""
    codes, decode = enumeration_for(measure.dim).key_codes(count)
    if measure.support.is_real:
        # an entry is the hermitian moment at (a + b, 0), coded c(a) + c(b)
        zero = (0,) * measure.dim
        return moment_matrix(
            np.add.outer(codes, codes).tolist(),
            decode,
            lambda k: measure.hermitian_moment_fraction(k, zero),
            measure.moment,
        )
    # the pair (j, l) is coded c(j) * top + c(l), and each route evaluates
    # each unordered pair once: a rational Hermitian matrix is real, so
    # symmetric, and a float fallback fills each entry below the diagonal
    # with the conjugate of its mirror, so it is exactly Hermitian
    top = int(codes.max()) + 1
    index = dict(zip(codes.tolist(), enumeration_for(measure.dim).prefix(count)))
    position = {c: p for p, c in enumerate(codes.tolist())}

    @functools.cache
    def exact(lo: int, hi: int) -> Fraction | None:
        return measure.hermitian_moment_fraction(index[lo], index[hi])

    @functools.cache
    def upper(j: int, l: int) -> complex:
        return measure.hermitian_moment(index[j], index[l])

    return moment_matrix(
        np.add.outer(codes * top, codes).tolist(),
        lambda c: divmod(c, top),
        lambda k: exact(*sorted(k)),
        lambda k: upper(*k) if position[k[0]] <= position[k[1]] else upper(k[1], k[0]).conjugate(),
    )


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def z_s_gram(measure: Measure, s: int) -> float:
    """log Z_s through the determinant identity Z_s = m_s! det(Gram)."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    m = count_at_most(measure.dim, s)
    g = gram(measure, m)
    return g.logdet() + log_factorial(m)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Log-domain mean of |V|^2 samples with a delta-method error bar."""

    log_value: float
    std_error_log: float
    samples: int


def z_s_montecarlo(
    measure: Measure,
    s: int,
    samples: int = DEFAULT_SAMPLES,
    seed=0,
) -> MonteCarloEstimate:
    """Monte Carlo Z_s: average |V|^2 over m_s-point draws from the measure.

    It draws samples configurations, DEFAULT_SAMPLES unless the caller
    sets them.  Sampling is chunked, MONTE_CARLO_CHUNK at a time, with
    one spawned seed per chunk, so the estimate is a pure function of
    (seed, samples), and memory is bounded by one chunk of configurations
    and one float per sample.
    """
    if not is_integer_at_least(samples, 2):
        raise ValueError(f"need an integer count of at least two samples, got {samples!r}")
    m = count_at_most(measure.dim, s)
    starts = range(0, samples, MONTE_CARLO_CHUNK)
    children = as_seed_sequence(seed).spawn(len(starts))
    logs = np.empty(samples)
    for child, start in zip(children, starts):
        size = min(MONTE_CARLO_CHUNK, samples - start)
        pts = measure.sample(np.random.default_rng(child), size * m)
        logs[start : start + size] = vdm_logabs_batch(pts.reshape(size, m, measure.dim))
        del pts  # before the next chunk is drawn
    logs *= 2.0

    # sampling is from the normalized measure; the mass comes back as a
    # deterministic factor mass^m in front of the product integral
    log_mass_term = m * math.log(measure.mass)
    peak = float(np.max(logs))
    if not np.isfinite(peak):
        return MonteCarloEstimate(float("-inf"), 0.0, samples)
    logs -= peak
    w = np.exp(logs, out=logs)  # the weights, in place of the logs
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(samples))
    return MonteCarloEstimate(log_mass_term + peak + math.log(mean), se / mean, samples)


def orthonormal_coefficients(measure: Measure, count: int) -> np.ndarray:
    """Lower-triangular C with q = C e orthonormal in L^2 of the measure.

    For an exact Gram matrix, C = diag(d)^(-1/2) L^-1 from linalg.exact_ldl,
    the Bareiss kernel of the determinants and prefix minors too, so rounding
    waits for the final float conversion.  Raises for a singular Gram matrix.
    """
    g = gram(measure, count)
    if g.values is not None:
        inv, diag = exact_ldl(g)
        scales = [1.0 / math.sqrt(float(d)) for d in diag]
        out = [[float(v) * scale for v in row] for row, scale in zip(inv, scales)]
        return np.array(out, dtype=complex).reshape(count, count)
    chol = np.linalg.cholesky(g.matrix)
    return np.linalg.inv(chol)


def bernstein_markov_ratio(measure: Measure, s: int, per_axis: int | None = None) -> float:
    """Largest sup-to-L2 norm ratio among degree <= s polynomials.

    Equals the max over the support grid of the square root of the
    orthonormal kernel diagonal sum (a lower bound for the sup over the
    whole set).  The grid takes per_axis points per axis; by default
    round(DEFAULT_GRID ** (1 / dim)), about DEFAULT_GRID points in all in
    every dimension.  A singular Gram matrix means some nonzero polynomial
    has zero L2 norm, so the ratio is reported as infinite.
    """
    if per_axis is None:
        per_axis = round(DEFAULT_GRID ** (1 / measure.dim))
    elif not is_integer_at_least(per_axis, 1):
        raise ValueError(f"per_axis must be an integer >= 1, got {per_axis!r}")
    m = count_at_most(measure.dim, s)
    try:
        coeffs = orthonormal_coefficients(measure, m)
    except (ValueError, np.linalg.LinAlgError):
        return math.inf
    peak = -math.inf
    for pts in measure.support.grid_blocks(per_axis, max(1, _GRID_BLOCK // m)):
        q = coeffs @ basis_matrix(pts, m)
        peak = np.maximum(peak, np.max(np.sum(np.abs(q) ** 2, axis=0)))
    return float(np.sqrt(peak))
