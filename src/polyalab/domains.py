"""Model compact sets in C^n and convergent families of them.

Every set knows how to project arbitrary points onto itself, draw random
points, lay down a deterministic evaluation grid, and (where classical
theory provides one) hand out a distinguished near-extremal point
configuration.  Membership up to a tolerance derives from the projection.
Products of one-dimensional sets cover the multivariate cases.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MEMBERSHIP_TOL = 1e-9


def as_points(z, dim: int) -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim}), got {arr.shape}")
    return arr


class CompactSet:
    """Base class: each set states its geometry in project, and membership derives from it."""

    dim: int = 1

    @property
    def is_real(self) -> bool:
        """True iff the set lies in R^n inside C^n."""
        return False

    def contains(self, z, tol: float = MEMBERSHIP_TOL) -> bool:
        """True iff projecting the one point z moves no coordinate by more than its tolerance.

        A coordinate's tolerance is tol times its projected size |p_k|, or tol
        below size 1: project rounds in proportion to the coordinates it forms.
        """
        w = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(1, -1)
        if w.shape[1] != self.dim:
            raise ValueError(f"point has dimension {w.shape[1]}, set has dimension {self.dim}")
        p = self.project(w)
        return bool(np.all(np.abs(p - w) <= tol * np.maximum(1.0, np.abs(p))))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dim) random points of the set."""
        raise NotImplementedError

    def grid(self, per_axis: int) -> np.ndarray:
        """Deterministic covering grid, (total, dim).

        total is about per_axis^dim: per_axis points on each axis of a
        product, per_axis points on an interval or circle, and about
        per_axis points, centre and boundary included, on a disk.  A
        finite set's grid is its points, whatever per_axis is.
        """
        raise NotImplementedError

    def grid_blocks(self, per_axis: int, size: int):
        """The rows of grid(per_axis) in grid order, size at a time; the last block may be short.

        Here each block is a slice of the whole grid; a product builds
        each block on its own, so only one block of points is held.
        """
        pts = self.grid(per_axis)
        for start in range(0, pts.shape[0], size):
            yield pts[start : start + size]

    def project(self, z) -> np.ndarray:
        """Nearest points of the set to an (n, dim) batch, as (n, dim).

        Used by local refinement, one batch of candidates per point.  Each
        row is projected on its own, bit for bit as a one-row batch would
        be.  Distances to a centre are np.hypot(d.real, d.imag), which is
        what the scalar abs() of a complex gives; np.abs on a complex
        array rounds differently in the last bit.
        """
        raise NotImplementedError

    def reference_points(self, count: int) -> np.ndarray | None:
        """A classical near-extremal configuration of the given size, if known."""
        return None


@dataclass(frozen=True)
class Interval(CompactSet):
    """Real segment [a, b] viewed inside C."""

    a: float
    b: float
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not -math.inf < self.a < self.b < math.inf:  # also rejects NaN
            raise ValueError(f"need -inf < a < b < inf, got [{self.a}, {self.b}]")

    @property
    def is_real(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=(count, 1)).astype(complex)

    def grid(self, per_axis: int) -> np.ndarray:
        return np.linspace(self.a, self.b, per_axis, dtype=complex).reshape(-1, 1)

    def project(self, z) -> np.ndarray:
        return np.clip(as_points(z, 1).real, self.a, self.b).astype(complex)

    def reference_points(self, count: int) -> np.ndarray | None:
        if count < 1:
            return None
        return gauss_lobatto_points(count, self.a, self.b).astype(complex).reshape(-1, 1)


def gauss_lobatto_points(count: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """count Gauss-Lobatto nodes on [a, b]: endpoints plus extrema of P_{count-1}."""
    if count == 1:
        inner = np.array([0.0])
        return (a + b) / 2 + (b - a) / 2 * inner
    from numpy.polynomial import legendre

    coeffs = np.zeros(count)
    coeffs[-1] = 1.0
    inner = legendre.legroots(legendre.legder(coeffs))  # none for count 2
    nodes = np.concatenate(([-1.0], inner, [1.0]))
    return (a + b) / 2 + (b - a) / 2 * nodes


@dataclass(frozen=True)
class _Round(CompactSet):
    """A finite centre and 0 < radius < inf: what Circle and Disk share."""

    center: complex = 0j
    radius: float = 1.0
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not cmath.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not 0.0 < self.radius < math.inf:  # also rejects NaN
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    def _on_rings(self, r, theta: np.ndarray) -> np.ndarray:
        """center + r * exp(1j * theta) as a (count, 1) column, each step in place."""
        out = np.multiply(1j, theta)
        np.exp(out, out=out)
        np.multiply(r, out, out=out)
        np.add(self.center, out, out=out)
        return out.reshape(-1, 1)


@dataclass(frozen=True)
class Circle(_Round):
    """Circle |z - center| = radius."""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return self._on_rings(self.radius, theta)

    def grid(self, per_axis: int) -> np.ndarray:
        theta = np.linspace(0.0, 2 * math.pi, per_axis, endpoint=False)
        return self._on_rings(self.radius, theta)

    def project(self, z) -> np.ndarray:
        d = as_points(z, 1) - self.center
        dist = np.hypot(d.real, d.imag)
        # the centre itself goes to the point at angle 0
        out = np.full(d.shape, self.center + self.radius)
        away = dist != 0.0
        out[away] = self.center + self.radius * d[away] / dist[away]
        return out

    def reference_points(self, count: int) -> np.ndarray | None:
        if count < 1:
            return None
        theta = 2 * math.pi * np.arange(count) / count
        return self._on_rings(self.radius, theta)


@dataclass(frozen=True)
class Disk(_Round):
    """Closed disk |z - center| <= radius."""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # area-uniform: radius via sqrt of a uniform variate
        r = rng.uniform(0.0, 1.0, size=count)
        np.sqrt(r, out=r)
        np.multiply(self.radius, r, out=r)
        theta = rng.uniform(0.0, 2 * math.pi, size=count)
        return self._on_rings(r, theta)

    def grid(self, per_axis: int) -> np.ndarray:
        # the centre and R concentric rings, the boundary the last; 8q points
        # on ring q make 1 + 4R(R + 1), about per_axis points in all
        rings = max(2, round(math.sqrt(per_axis) / 2))
        pts = [np.array([[self.center]])]
        for q in range(1, rings + 1):
            theta = np.linspace(0.0, 2 * math.pi, 8 * q, endpoint=False)
            pts.append(self._on_rings(self.radius * (q / rings), theta))
        return np.concatenate(pts)

    def project(self, z) -> np.ndarray:
        w = as_points(z, 1)
        d = w - self.center
        dist = np.hypot(d.real, d.imag)
        out = w.copy()
        outside = ~(dist <= self.radius)
        out[outside] = self.center + self.radius * d[outside] / dist[outside]
        return out

    def reference_points(self, count: int) -> np.ndarray | None:
        # sup-norm extremal configurations sit on the boundary circle
        return Circle(self.center, self.radius).reference_points(count)


def sample_columns(factors, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, len(factors)): column k is factors[k].sample(rng, count), drawn in factor order.

    Each column is written into the one output as it is drawn.
    """
    out = np.empty((count, len(factors)), dtype=complex)
    for k, f in enumerate(factors):
        out[:, k] = f.sample(rng, count)[:, 0]
    return out


@dataclass(frozen=True)
class ProductSet(CompactSet):
    """Product of one-dimensional sets; coordinates are independent.

    A box is the product of its intervals.
    """

    factors: tuple[CompactSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            if f.dim != 1:
                raise ValueError("product factors must be one-dimensional")
        object.__setattr__(self, "dim", len(self.factors))

    @property
    def is_real(self) -> bool:
        return all(f.is_real for f in self.factors)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample_columns(self.factors, rng, count)

    def grid(self, per_axis: int) -> np.ndarray:
        # the one block that covers the whole grid
        return next(self.grid_blocks(per_axis, sys.maxsize))

    def grid_blocks(self, per_axis: int, size: int):
        axes = [f.grid(per_axis).reshape(-1) for f in self.factors]
        shape = tuple(len(a) for a in axes)
        total = math.prod(shape)
        for start in range(0, total, size):
            # row i of the grid takes entry unravel_index(i)[k] of axis k
            flat = np.unravel_index(np.arange(start, min(start + size, total)), shape)
            out = np.empty((len(flat[0]), self.dim), dtype=complex)
            for k, (axis, index) in enumerate(zip(axes, flat)):
                out[:, k] = axis[index]
            yield out

    def project(self, z) -> np.ndarray:
        w = as_points(z, self.dim)
        return np.concatenate(
            [f.project(w[:, i : i + 1]) for i, f in enumerate(self.factors)], axis=1
        )


@dataclass(frozen=True)
class FiniteSet(CompactSet):
    """Finite point set; supports of discrete measures and brute-force tests.

    A point is a sequence of coordinates, or a scalar for a one-coordinate point.
    """

    points: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        clean = tuple(
            tuple(complex(v) for v in (p if isinstance(p, (tuple, list, np.ndarray)) else (p,)))
            for p in self.points
        )
        object.__setattr__(self, "points", clean)
        if not clean:
            raise ValueError("need at least one point")
        for p in clean:
            if not all(cmath.isfinite(v) for v in p):
                raise ValueError(f"points must be finite, got {p}")
        dims = {len(p) for p in clean}
        if len(dims) != 1:
            raise ValueError("points have mixed dimensions")
        object.__setattr__(self, "dim", dims.pop())

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for p in self.points for v in p)

    def _array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)

    def grid(self, per_axis: int) -> np.ndarray:
        return self._array()

    def project(self, z) -> np.ndarray:
        w = as_points(z, self.dim)
        arr = self._array()
        d = np.abs(arr[None, :, :] - w[:, None, :]).max(axis=2)
        return arr[np.argmin(d, axis=1)]


@dataclass(frozen=True)
class CompactFamily:
    """Sequence of compact sets K_1, K_2, ... approaching a limit set.

    direction is "outer" (nested decreasing onto the limit) or "inner"
    (nested increasing inside it).
    """

    direction: str
    limit: CompactSet
    member_fn: Callable[[int], CompactSet]

    def member(self, j: int) -> CompactSet:
        if j < 1:
            raise ValueError("family index starts at 1")
        return self.member_fn(j)


def interval_family(
    a: float, b: float, side: str = "outer", rate: float = 1.0
) -> CompactFamily:
    """Interval neighborhoods of [a, b] closing in at speed j^-rate.

    side "outer" gives [a - j^-rate, b + j^-rate]; side "inner" gives
    [a + j^-rate, b - j^-rate] and rejects indices that would collapse the
    interval.  rate = 1 is the harmonic schedule (outer j = 2 around
    [-1, 1] is [-1.5, 1.5]); larger rates close in faster.
    """
    if side not in ("outer", "inner"):
        raise ValueError(f"side must be 'outer' or 'inner', got {side!r}")
    if not 0.0 < rate < math.inf:  # also rejects NaN
        raise ValueError(f"rate must be positive and finite, got {rate}")

    def member(j: int) -> CompactSet:
        eps = float(j) ** (-rate)
        if side == "outer":
            return Interval(a - eps, b + eps)
        if b - a <= 2 * eps:
            raise ValueError(
                f"inner member j={j} degenerates: width {b - a} <= {2 * eps}"
            )
        return Interval(a + eps, b - eps)

    return CompactFamily(side, Interval(a, b), member)
