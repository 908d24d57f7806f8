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
H_1..H_n comes from one Hankel matrix and, on the exact route, one
elimination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .linalg import LogDet, MomentMatrix, moment_matrix
from .measures import Measure
from .multiindex import MultiIndex, as_multi_index, count_at_most, degree_counts, enumeration_for


@dataclass(frozen=True)
class GermCoefficients:
    """Coefficient source: a float route and an optional exact route."""

    dim: int
    label: str
    fn: Callable[[MultiIndex], complex]
    exact_fn: Callable[[MultiIndex], Fraction | None] | None = None

    def coeff(self, k) -> complex:
        return self.fn(as_multi_index(k, self.dim))

    def coeff_fraction(self, k) -> Fraction | None:
        if self.exact_fn is None:
            return None
        return self.exact_fn(as_multi_index(k, self.dim))


def coeffs_from_measure(measure: Measure, label: str = "moments") -> GermCoefficients:
    """The moment sequence of a measure, exact when the measure is."""
    return GermCoefficients(
        dim=measure.dim,
        label=label,
        fn=functools.cache(measure.moment),
        exact_fn=functools.cache(measure.moment_fraction),
    )


def coeffs_from_table(
    dim: int,
    table: Mapping[MultiIndex, complex | Fraction],
    label: str = "table",
) -> GermCoefficients:
    """Coefficients from an explicit finite table; missing entries are errors."""
    clean: dict[MultiIndex, complex] = {}
    exact: dict[MultiIndex, Fraction] = {}
    rational = True
    for key, val in table.items():
        k = (key,) if isinstance(key, (int, np.integer)) else tuple(int(v) for v in key)
        clean[k] = complex(val)
        if rational and isinstance(val, (int, Fraction)):
            exact[k] = Fraction(val)
        elif rational and isinstance(val, float):
            exact[k] = Fraction(val)
        else:
            rational = False

    def fn(k: MultiIndex) -> complex:
        if k not in clean:
            raise ValueError(f"coefficient table has no entry for {k}")
        return clean[k]

    exact_fn = None
    if rational:

        def exact_fn(k: MultiIndex) -> Fraction | None:
            return exact.get(k)

    return GermCoefficients(dim=dim, label=label, fn=fn, exact_fn=exact_fn)


def coeffs_from_contour(
    germ: Callable[..., np.ndarray],
    dim: int = 1,
    radius: float = 1.0,
    grid_size: int = 64,
    label: str = "contour",
) -> GermCoefficients:
    """Recover coefficients of a germ vanishing at infinity from torus values.

    The germ is the function sum_k a_k / z^(k+1) (per axis in several
    variables), sampled on the torus of the given radius at grid_size
    points per axis.  The trapezoid rule on each circle is exact up to
    aliasing, so coefficients with every component below grid_size - 1 come
    out with an error on the order of (c/radius)^grid_size, c being the
    decay radius of the coefficients.  Aliased indices raise.
    """
    if grid_size < 4:
        raise ValueError("grid_size must be at least 4")
    if radius <= 0:
        raise ValueError("radius must be positive")
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

    return GermCoefficients(dim=dim, label=label, fn=fn, exact_fn=None)


def hankel_matrix(germ: GermCoefficients, size: int) -> MomentMatrix:
    """The size-by-size Hankel-type matrix a_{k(a)+k(b)} of the coefficient sequence."""
    if size < 1:
        raise ValueError("size must be positive")
    idx = enumeration_for(germ.dim).prefix(size)

    def index_sum(j: MultiIndex, l: MultiIndex) -> MultiIndex:
        return tuple(x + y for x, y in zip(j, l))

    return moment_matrix(
        idx,
        lambda j, l: germ.coeff_fraction(index_sum(j, l)),
        lambda j, l: germ.coeff(index_sum(j, l)),
    )


def hankel_logdet(germ: GermCoefficients, size: int) -> LogDet:
    return hankel_matrix(germ, size).logdet()


@dataclass(frozen=True)
class PolyaTerm:
    """One step of the normalized determinant sequence."""

    index: int
    degree: int
    degree_sum: int
    hankel: LogDet
    quantity: float | None

    @property
    def defined(self) -> bool:
        return self.quantity is not None


def polya_term(germ: GermCoefficients, index: int) -> PolyaTerm:
    """D_index = |H_index|^(1 / (2 l_s)), s the degree of the index-th monomial.

    At index 1 the normalizing degree sum is zero, so the quantity is
    undefined and reported as None.
    """
    return _term(germ.dim, index, hankel_logdet(germ, index))


def _term(dim: int, index: int, ld: LogDet) -> PolyaTerm:
    """The PolyaTerm at index, given H_index as ld."""
    s = enumeration_for(dim).degree_of(index)
    counts = degree_counts(dim, s)
    if counts.degree_sum == 0:
        return PolyaTerm(index, s, 0, ld, None)
    if ld.is_zero:
        quantity = 0.0
    else:
        quantity = math.exp(ld.log_abs / (2.0 * counts.degree_sum))
    return PolyaTerm(index, s, counts.degree_sum, ld, quantity)


@dataclass(frozen=True)
class HankelSequenceReport:
    """D_i for i = 1..i_max, with the complete-degree subsequence split out."""

    dim: int
    terms: tuple[PolyaTerm, ...]
    diagonal: tuple[PolyaTerm, ...]

    def max_quantity(self) -> float | None:
        vals = [t.quantity for t in self.terms if t.quantity is not None]
        return max(vals) if vals else None


def polya_sequence(germ: GermCoefficients, max_index: int) -> HankelSequenceReport:
    """The full D_i sequence up to max_index; no limit value is claimed.

    H_1..H_max_index are the leading minors of the one max_index Hankel
    matrix; each equals hankel_logdet at its own size, bit for bit.
    """
    if max_index < 1:
        raise ValueError("max_index must be positive")
    logdets = hankel_matrix(germ, max_index).prefix_logdets()
    terms = tuple(_term(germ.dim, i, ld) for i, ld in enumerate(logdets, start=1))
    enum = enumeration_for(germ.dim)
    diagonal = tuple(
        t for t in terms if t.index == count_at_most(germ.dim, enum.degree_of(t.index))
    )
    return HankelSequenceReport(germ.dim, terms, diagonal)


def polya_quantity(germ: GermCoefficients, s: int) -> PolyaTerm:
    """The term at the full degree-s basis, index m_s."""
    if s < 1:
        raise ValueError("degree must be at least 1")
    return polya_term(germ, count_at_most(germ.dim, s))
