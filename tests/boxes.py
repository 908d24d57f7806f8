"""Boxes for tests: a box is the product of its intervals.

``box`` builds one from its (low, high) bounds; ``set_id`` names a set for
a test id, calling a product of intervals a "Box".
"""

from polyalab import Interval, ProductSet


def box(bounds) -> ProductSet:
    return ProductSet(tuple(Interval(a, b) for a, b in bounds))


def set_id(kset) -> str:
    if isinstance(kset, ProductSet) and all(isinstance(f, Interval) for f in kset.factors):
        return "Box"
    return type(kset).__name__
