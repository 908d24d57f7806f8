"""Graded-lexicographic enumeration of multi-indices and degree counting.

The basis order used everywhere in this package: multi-indices are sorted
by total degree first, and within a fixed degree by ascending lexicographic
order on (k_1, ..., k_n), comparing k_1 first.  So for n = 2 the sequence
starts (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ...
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MultiIndex = tuple[int, ...]


def degree(k: MultiIndex) -> int:
    """Total degree |k| = k_1 + ... + k_n."""
    return sum(k)


def is_integer_at_least(value, minimum: int) -> bool:
    """The one rule for integer settings: a true int >= minimum; no bool, float or string."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def as_multi_index(k, dim: int) -> MultiIndex:
    """Validate k (an int in one variable, else a sequence) as a dim-variable index."""
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(v) for v in k)
    if len(k) != dim or any(v < 0 for v in k):
        raise ValueError(f"bad multi-index {k} for dimension {dim}")
    return k


def indices_of_degree(dim: int, s: int) -> list[MultiIndex]:
    """All multi-indices of exact degree ``s`` in ascending lex order."""
    if dim == 1:
        return [(s,)]
    out: list[MultiIndex] = []
    for first in range(s + 1):
        out.extend((first,) + rest for rest in indices_of_degree(dim - 1, s - first))
    return out


def count_at_most(dim: int, s: int) -> int:
    """Number of multi-indices of degree <= s, i.e. C(s + dim, s)."""
    return math.comb(s + dim, s)


def count_exact(dim: int, s: int) -> int:
    """Number of multi-indices of degree exactly s."""
    if s == 0:
        return 1
    return math.comb(dim + s - 1, s)


@dataclass(frozen=True)
class DegreeCounts:
    """Counting data for the degree-<= s prefix of the enumeration.

    ``at_most`` is the prefix length, ``exact`` the size of the top degree
    block, and ``degree_sum`` the sum of the degrees of all indices in the
    prefix (the normalizing exponent of transfinite-diameter quantities).
    """

    degree: int
    at_most: int
    exact: int
    degree_sum: int


def degree_counts(dim: int, s: int) -> DegreeCounts:
    """Counting sequences for dimension ``dim`` at degree ``s``."""
    _validate_dim(dim)
    if s < 0:
        raise ValueError(f"degree must be >= 0, got {s}")
    weighted = sum(q * count_exact(dim, q) for q in range(s + 1))
    return DegreeCounts(
        degree=s,
        at_most=count_at_most(dim, s),
        exact=count_exact(dim, s),
        degree_sum=weighted,
    )


class GradedEnumeration:
    """The graded-lex sequence of multi-indices for a fixed dimension.

    Indices are generated lazily degree block by degree block and cached,
    so prefixes of any length can be requested repeatedly at no cost.
    """

    def __init__(self, dim: int):
        _validate_dim(dim)
        self.dim = dim
        self._indices: list[MultiIndex] = []
        self._generated_degree = -1

    def _extend_to(self, count: int) -> None:
        while len(self._indices) < count:
            self._generated_degree += 1
            self._indices.extend(indices_of_degree(self.dim, self._generated_degree))

    def prefix(self, count: int) -> list[MultiIndex]:
        """The first ``count`` multi-indices in graded-lex order."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._extend_to(count)
        return self._indices[:count]

    def exponents(self, count: int) -> np.ndarray:
        """Prefix as an integer array of shape (count, dim)."""
        return np.array(self.prefix(count), dtype=np.int64)

    def degrees(self, count: int) -> list[int]:
        """Degrees s(i) of the first ``count`` indices."""
        return [sum(k) for k in self.prefix(count)]

    def degree_of(self, i: int) -> int:
        """Degree of the i-th index (1-based position)."""
        return sum(self.prefix(i)[i - 1])


def enumerate_indices(dim: int, count: int) -> list[MultiIndex]:
    """First ``count`` multi-indices of dimension ``dim`` in graded-lex order."""
    return GradedEnumeration(dim).prefix(count)


def monomial(k: MultiIndex, z) -> complex:
    """Evaluate z^k = z_1^{k_1} ... z_n^{k_n}; 0^0 counts as 1."""
    point = np.asarray(z, dtype=complex).reshape(1, -1)
    return complex(monomial_matrix(point, np.array([k], dtype=np.int64))[0, 0])


def monomial_matrix(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Evaluation matrix M[a, b] = points[b] ** exponents[a] (product over axes).

    ``points`` has shape (npoints, dim), ``exponents`` shape (nbasis, dim).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != exponents.shape[1]:
        raise ValueError(
            f"points shape {pts.shape} incompatible with exponents {exponents.shape}"
        )
    # (nbasis, npoints, dim) powers, then product over the axis dimension
    powers = pts[None, :, :] ** exponents[:, None, :]
    return np.prod(powers, axis=2)


def _validate_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")


@functools.cache
def enumeration_for(dim: int) -> GradedEnumeration:
    """Shared per-dimension enumeration; callers must not mutate its arrays."""
    return GradedEnumeration(int(dim))
