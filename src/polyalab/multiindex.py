"""Graded-lexicographic enumeration of multi-indices and degree counting.

The basis order used everywhere in this package: multi-indices are sorted
by total degree first, and within a fixed degree by ascending lexicographic
order on (k_1, ..., k_n), comparing k_1 first.  So for n = 2 the sequence
starts (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ...

Monomials are evaluated from power tables: for each axis k one table
``points[:, k] ** arange(top + 1)``, whose rows are gathered by the
exponents on that axis, and the factors are multiplied one axis at a time.
A row skips every axis where its exponent is 0 and takes its first
nonzero factor as it is, so only rows with two or more nonzero exponents
are multiplied (3 of the 10 rows of degree <= 3 in two variables).  Those
products are written out unfused, ``re = ar*br - ai*bi`` and
``im = ar*bi + ai*br``: that is the arithmetic of ``np.prod``'s scalar
reduce over the axes, which numpy's vectorised complex ``*`` (with fused
multiply-adds) does not reproduce in the last bit.  So every entry equals
(``==``) the broadcast ``np.prod`` form; the bytes differ at most in the
sign of an exactly-zero imaginary part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MultiIndex = tuple[int, ...]


def is_integer_at_least(value, minimum: int) -> bool:
    """The one rule for integer settings: a true int >= minimum; no bool, float or string."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def as_multi_index(k, dim: int) -> MultiIndex:
    """Validate k (an int in one variable, else a sequence) as a dim-variable index."""
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(map(int, k))
    if len(k) != dim or (k and min(k) < 0):
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
        self._exponents: dict[int, np.ndarray] = {}

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
        """Prefix as a read-only integer array of shape (count, dim), cached per count."""
        arr = self._exponents.get(count)
        if arr is None:
            arr = np.array(self.prefix(count), dtype=np.int64)
            arr.flags.writeable = False
            self._exponents[count] = arr
        return arr

    def key_codes(self, count: int) -> tuple[np.ndarray, Callable[[int], MultiIndex]]:
        """Additive integer codes of the first count indices, and their decoder.

        The code of an index is c(k) = sum_i k_i R^i, R = 2 s + 1 for the
        prefix's top degree s, read off the cached exponent array.  No axis
        of a sum j + l of two prefix indices reaches R, so c(j) + c(l) =
        c(j + l), and decode reads such a sum back off its base-R digits: a
        Hankel or real Gram entry's moment key is the sum of two codes.  The
        codes are int64 while a pair code c(j) C + c(l), C > every code,
        fits, and Python ints past that.
        """
        exps = self.exponents(count)
        radix = 2 * int(exps[-1].sum()) + 1
        dtype = np.int64 if radix ** (2 * self.dim) < 2**63 else object
        weights = np.array([radix**i for i in range(self.dim)], dtype=dtype)
        dim = self.dim

        def decode(code: int) -> MultiIndex:
            digits = []
            for _ in range(dim):
                code, digit = divmod(code, radix)
                digits.append(digit)
            return tuple(digits)

        return exps.astype(dtype, copy=False) @ weights, decode


def monomial_matrix(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Evaluation matrix M[a, b] = points[b] ** exponents[a] (product over axes).

    ``points`` has shape (npoints, dim), ``exponents`` shape (nbasis, dim)
    with integer entries >= 0.  One power table holds ``points[:, k] ** j`` for
    every axis k and every j up to the largest exponent.  Row a is the
    table row of its first axis with a nonzero exponent (z^0 = 1 if it has
    none) times its later nonzero-exponent factors, multiplied axis by axis
    in the unfused arithmetic of ``np.prod``'s reduce (see the module
    docstring); axes where its exponent is 0 are skipped.  Which rows each
    product and each output row take is planned once per exponent array.
    """
    pts = np.asarray(points, dtype=complex)
    exps = np.asarray(exponents)
    if exps.dtype.kind not in "iu":
        raise ValueError(f"monomial exponents must be integers, got dtype {exps.dtype}")
    exps = exps.astype(np.int64, copy=False)
    if pts.ndim != 2 or exps.ndim != 2 or not 0 < pts.shape[1] == exps.shape[1]:
        raise ValueError(
            f"points shape {pts.shape} incompatible with exponents {exps.shape}"
        )
    powers, nstage, steps, final = _monomial_plan(exps.shape, exps.tobytes())
    npoints, dim = pts.shape
    out = np.empty((len(final), npoints), dtype=complex)
    # in blocks of points, so the working rows stay small on large grids
    for start in range(0, npoints, _POINT_BLOCK):
        block = pts[start : start + _POINT_BLOCK]
        # rows k * width + j hold block[:, k] ** j, the products follow
        stage = np.empty((nstage, len(block)), dtype=complex)
        table = stage[: dim * len(powers)].reshape(dim, len(powers), len(block))
        np.power(block.T[:, None, :], powers, out=table)
        for lo, hi, left, right in steps:
            a, b = stage.take(left, axis=0).ravel(), stage.take(right, axis=0).ravel()
            # 1-D views: numpy's strided loops run much faster on them than on 2-D ones
            product = stage[lo:hi].ravel()
            np.subtract(a.real * b.real, a.imag * b.imag, out=product.real)
            np.add(a.real * b.imag, a.imag * b.real, out=product.imag)
        # every index is in range; with a single block out is contiguous, and
        # "clip" then writes straight into it where "raise" buffers
        stage.take(final, axis=0, out=out[:, start : start + _POINT_BLOCK], mode="clip")
    return out


_POINT_BLOCK = 2048


@functools.lru_cache(maxsize=256)
def _monomial_plan(shape: tuple[int, int], key: bytes) -> tuple:
    """Row plan of ``monomial_matrix`` for one exponent array.

    Returns the table's powers; the number of working rows (the table's,
    then one per product); for each further factor (the second, third, ...
    nonzero exponent in axis order, the order of the reduce) the block of
    rows its products fill, the rows they multiply and the table rows they
    multiply by; and the row that holds each output row.
    """
    exps = np.frombuffer(key, dtype=np.int64).reshape(shape)
    if exps.min(initial=0) < 0:
        raise ValueError("monomial exponents must be >= 0")
    width = int(exps.max(initial=0)) + 1
    factors = [[k * width + e for k, e in enumerate(row) if e] or [0] for row in exps.tolist()]
    final = [f[0] for f in factors]
    steps = []
    nstage = shape[1] * width
    for j in range(1, max((len(f) for f in factors), default=1)):
        rows = [a for a, f in enumerate(factors) if len(f) > j]
        left = np.array([final[a] for a in rows], dtype=np.intp)
        right = np.array([factors[a][j] for a in rows], dtype=np.intp)
        steps.append((nstage, nstage + len(rows), left, right))
        for a in rows:
            final[a] = nstage
            nstage += 1
    # complex exponents: the same power kernel, without a cast in its loop
    powers = np.arange(width, dtype=complex)[:, None]
    return powers, nstage, tuple(steps), np.array(final, dtype=np.intp)


def _validate_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")


@functools.cache
def enumeration_for(dim: int) -> GradedEnumeration:
    """Shared per-dimension enumeration; its exponent arrays are read-only."""
    return GradedEnumeration(dim)
