"""Sets for tests: a box is the product of its intervals, and a finite set that draws.

``box`` builds one from its (low, high) bounds; ``set_id`` names a set for
a test id, calling a product of intervals a "Box".  The library's
``FiniteSet`` is only a discrete measure's support, which it projects and
grids but never samples or searches; ``SampledFiniteSet`` adds the draw
and the reference configuration that the search's tests read, for pools
whose atoms repeat.
"""

import numpy as np

from polyalab import FiniteSet, Interval, ProductSet


def box(bounds) -> ProductSet:
    return ProductSet(tuple(Interval(a, b) for a, b in bounds))


class SampledFiniteSet(FiniteSet):
    """A FiniteSet that draws its atoms uniformly; its atoms are its reference configuration."""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        arr = self._array()
        return arr[rng.integers(0, arr.shape[0], size=count)]

    def reference_points(self, count: int) -> np.ndarray | None:
        arr = self._array()
        return arr if arr.shape[0] >= count else None


def set_id(kset) -> str:
    if isinstance(kset, ProductSet) and all(isinstance(f, Interval) for f in kset.factors):
        return "Box"
    if isinstance(kset, FiniteSet):
        return "FiniteSet"
    return type(kset).__name__
