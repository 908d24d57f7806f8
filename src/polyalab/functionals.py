"""Coefficient germs of analytic functionals and their Hankel quantities.

A functional is handled through the sequence a_k indexed by multi-indices:
its values on the monomial basis.  Sources are measure moments, explicit
tables, or numerical contour integration of a germ that decays at infinity
(coefficients are read off a torus grid by an inverse FFT; the quadrature
error falls off geometrically in the grid size).  From the coefficients the
package builds the Hankel-type determinants H_i = det(a_{k(a)+k(b)}) and
the normalized quantities D_i = |H_i|^(1/(2 l_s(i))), whose comparison
against diameter estimates is the point of the whole exercise.  H_i is the
i-th leading principal minor of one matrix, so a whole sequence
H_1..H_n comes from one Hankel matrix, which reads each distinct
coefficient once, and, on the exact route, one elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping

import numpy as np

from .linalg import MomentMatrix, moment_matrix
from .measures import Measure
from .multiindex import (
    MultiIndex, count_exact, degree_counts, enumeration_for, is_integer_at_least
)

MIN_CONTOUR_GRID = 4  # torus points per axis, at the least, of a contour germ


@dataclass(frozen=True)
class GermCoefficients:
    """Coefficient source: a float route and an optional exact route."""

    dim: int
    fn: Callable[[MultiIndex], complex]
    exact_fn: Callable[[MultiIndex], Fraction | None] | None = None


def coeffs_from_measure(measure: Measure) -> GermCoefficients:
    """The moment sequence of a measure, exact when the measure is."""
    return GermCoefficients(
        dim=measure.dim,
        fn=measure.moment,
        exact_fn=measure.moment_fraction,
    )


def coeffs_from_table(
    dim: int,
    table: Mapping[MultiIndex, complex | Fraction],
) -> GermCoefficients:
    """Coefficients from an explicit finite table; missing or non-finite entries are errors."""
    clean: dict[MultiIndex, complex] = {}
    exact: dict[MultiIndex, Fraction] = {}
    rational = True
    for key, val in table.items():
        k = (key,) if isinstance(key, (int, np.integer)) else tuple(int(v) for v in key)
        clean[k] = complex(val)
        if not np.isfinite(clean[k]):
            raise ValueError(f"coefficient table entry {k} is not finite: {val!r}")
        if rational and isinstance(val, (int, float, Fraction)):
            exact[k] = Fraction(val)
        else:
            rational = False

    def fn(k: MultiIndex) -> complex:
        if k not in clean:
            raise ValueError(f"coefficient table has no entry for {k}")
        return clean[k]

    return GermCoefficients(dim=dim, fn=fn, exact_fn=exact.get if rational else None)


def coeffs_from_contour(
    germ: Callable[..., np.ndarray],
    dim: int = 1,
    radius: float = 1.0,
    grid_size: int = 64,
) -> GermCoefficients:
    """Recover coefficients of a germ vanishing at infinity from torus values.

    The germ is the function sum_k a_k / z^(k+1) (per axis in several
    variables), sampled on the torus of the given radius at grid_size
    points per axis.  The trapezoid rule on each circle is exact up to
    aliasing, so coefficients with every component below grid_size - 1 come
    out with an error on the order of (c/radius)^grid_size, c being the
    decay radius of the coefficients.  Aliased indices raise.
    """
    if not is_integer_at_least(dim, 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    if not is_integer_at_least(grid_size, MIN_CONTOUR_GRID):
        raise ValueError(f"grid_size must be an integer >= {MIN_CONTOUR_GRID}, got {grid_size!r}")
    if not 0.0 < radius < math.inf:  # also rejects NaN
        raise ValueError(f"radius must be positive and finite, got {radius}")
    theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
    ring = radius * np.exp(1j * theta)
    axes = np.meshgrid(*([ring] * dim), indexing="ij")
    values = np.asarray(germ(*axes), dtype=complex)
    if values.shape != axes[0].shape:
        raise ValueError("germ must evaluate elementwise on the grid")
    spectrum = np.fft.ifftn(values)

    def fn(k: MultiIndex) -> complex:
        if any(v + 1 >= grid_size for v in k):
            raise ValueError(
                f"index {k} exceeds the contour resolution (grid_size {grid_size})"
            )
        idx = tuple(v + 1 for v in k)
        return complex(spectrum[idx]) * radius ** (sum(k) + len(k))

    return GermCoefficients(dim=dim, fn=fn, exact_fn=None)


def hankel_matrix(germ: GermCoefficients, size: int) -> MomentMatrix:
    """The size-by-size Hankel-type matrix a_{k(a)+k(b)} of the coefficient sequence."""
    if size < 1:
        raise ValueError("size must be positive")
    codes, decode = enumeration_for(germ.dim).key_codes(size)
    exact = germ.exact_fn or (lambda k: None)
    return moment_matrix(np.add.outer(codes, codes).tolist(), decode, exact, germ.fn)


def hankel_logdet(germ: GermCoefficients, size: int) -> float:
    """log|H_size|, -inf when the Hankel matrix is singular."""
    return hankel_matrix(germ, size).logdet()


@dataclass(frozen=True)
class PolyaTerm:
    """One step of the normalized determinant sequence."""

    index: int
    degree: int
    degree_sum: int
    hankel: float  # log|H_index|
    quantity: float | None


def polya_term(germ: GermCoefficients, index: int) -> PolyaTerm:
    """D_index = |H_index|^(1 / (2 l_s)), s the degree of the index-th monomial.

    At index 1 the normalizing degree sum is zero, so the quantity is
    undefined and reported as None.
    """
    s = sum(enumeration_for(germ.dim).prefix(index)[-1])
    return _term(index, s, degree_counts(germ.dim, s).degree_sum, hankel_logdet(germ, index))


def _term(index: int, s: int, degree_sum: int, ld: float) -> PolyaTerm:
    """The PolyaTerm at index, of degree s, given log|H_index| as ld; a singular H gives D = 0."""
    if degree_sum == 0:
        return PolyaTerm(index, s, 0, ld, None)
    return PolyaTerm(index, s, degree_sum, ld, math.exp(ld / (2.0 * degree_sum)))


def polya_sequence(germ: GermCoefficients, max_index: int) -> tuple[PolyaTerm, ...]:
    """The terms at indices 1..max_index, in order; no limit value is claimed.

    H_1..H_max_index are the leading minors of the one max_index Hankel
    matrix; each equals hankel_logdet at its own size, bit for bit.
    """
    if max_index < 1:
        raise ValueError("max_index must be positive")
    logdets = hankel_matrix(germ, max_index).prefix_logdets()
    degrees = [sum(k) for k in enumeration_for(germ.dim).prefix(max_index)]
    # degree_counts(dim, s).degree_sum for every degree s up to the last
    sums = list(accumulate(q * count_exact(germ.dim, q) for q in range(degrees[-1] + 1)))
    return tuple(
        _term(i, s, sums[s], ld) for i, (s, ld) in enumerate(zip(degrees, logdets), start=1)
    )

