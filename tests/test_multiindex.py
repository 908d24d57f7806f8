import itertools
import math

import numpy as np
import pytest

from polyalab import (
    ArcsineMeasure,
    Circle,
    GradedEnumeration,
    Interval,
    ProductSet,
    count_at_most,
    count_exact,
    degree_counts,
    enumerate_indices,
    enumeration_for,
    monomial_matrix,
)
from polyalab.multiindex import _POINT_BLOCK

from boxes import box
from brute_force_oracles import monomial_value
from per_point_oracles import monomial_matrix as broadcast_monomial_matrix


def brute_order(dim: int, max_degree: int):
    """All multi-indices up to max_degree, ordered degree-major then lex."""
    pool = itertools.product(range(max_degree + 1), repeat=dim)
    keep = [k for k in pool if sum(k) <= max_degree]
    return sorted(keep, key=lambda k: (sum(k), k))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enumeration_matches_brute_force(dim):
    want = brute_order(dim, 6)
    got = enumerate_indices(dim, len(want))
    assert got == want


def test_order_breaks_ties_lexicographically():
    assert enumerate_indices(2, 6) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [0, 1, 4, 7])
def test_counts_against_binomials(dim, s):
    assert count_at_most(dim, s) == math.comb(s + dim, dim)
    assert count_exact(dim, s) == math.comb(dim + s - 1, s) if s else 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_degree_sum_accumulates_layer_sizes(dim):
    for s in range(0, 8):
        c = degree_counts(dim, s)
        assert c.at_most == count_at_most(dim, s)
        assert c.exact == count_exact(dim, s)
        assert c.degree_sum == sum(q * count_exact(dim, q) for q in range(s + 1))


def test_one_dimensional_degree_sum_closed_form():
    for s in range(0, 30):
        assert degree_counts(1, s).degree_sum == s * (s + 1) // 2


def test_degree_prefix_boundaries():
    # the first at_most(s) indices are exactly those of degree <= s
    for dim in (1, 2, 3):
        for s in range(5):
            m = count_at_most(dim, s)
            prefix = enumerate_indices(dim, m)
            assert all(sum(k) <= s for k in prefix)
            extra = enumerate_indices(dim, m + 1)[-1]
            assert sum(extra) == s + 1


def test_enumeration_prefix_is_stable():
    enum = GradedEnumeration(2)
    first = list(enum.prefix(6))
    longer = list(enum.prefix(20))
    assert longer[:6] == first


def test_degree_of_is_one_based_and_consistent():
    enum = GradedEnumeration(3)
    idx = enum.prefix(25)
    for i, k in enumerate(idx, start=1):
        assert enum.degree_of(i) == sum(k)
    # a fresh enumeration generates what it reads; position 0 does not exist
    fresh = GradedEnumeration(2)
    assert fresh.degree_of(10) == 3
    with pytest.raises(ValueError):
        fresh.degree_of(0)


@pytest.mark.parametrize("dim, count", [(1, 61), (2, 45), (3, 84), (20, 231)])
def test_key_codes_add_like_their_indices(dim, count):
    # c(j) + c(l) = c(j + l) for every pair of the prefix, and decode reads
    # each sum back; at 20 variables the codes outgrow int64 and are ints
    enum = GradedEnumeration(dim)
    codes, decode = enum.key_codes(count)
    idx = enum.prefix(count)
    assert [decode(c) for c in codes.tolist()] == idx
    sums = {}
    for (a, ca), (b, cb) in itertools.product(zip(idx, codes.tolist()), repeat=2):
        k = tuple(x + y for x, y in zip(a, b))
        assert decode(ca + cb) == k
        assert sums.setdefault(k, ca + cb) == ca + cb
    # distinct index sums have distinct codes
    assert len(set(sums.values())) == len(sums)
    assert codes.dtype == (object if dim == 20 else np.int64)


def test_exponent_array_matches_prefix():
    enum = GradedEnumeration(2)
    arr = enum.exponents(10)
    assert arr.shape == (10, 2)
    assert [tuple(r) for r in arr] == enum.prefix(10)
    assert arr.sum(axis=1).tolist() == [enum.degree_of(i) for i in range(1, 11)]


def test_exponent_array_is_cached_read_only():
    enum = GradedEnumeration(3)
    arr = enum.exponents(12)
    assert enum.exponents(12) is arr
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 5
    assert enum.exponents(4).tolist() == arr[:4].tolist()


def test_enumeration_factory_is_shared():
    assert enumeration_for(2) is enumeration_for(2)
    assert enumeration_for(2).dim == 2


def test_monomial_conventions():
    cases = [
        ((0,), (0.0,), 1.0),  # 0^0 counts as 1
        ((1, 2), (2.0, 3.0), 18.0),
        ((2,), (1.0 + 1.0j,), 2.0j),
    ]
    for k, z, want in cases:
        got = monomial_matrix(np.array([z], dtype=complex), np.array([k]))
        assert got.shape == (1, 1)
        assert got[0, 0] == monomial_value(k, z) == want
    with pytest.raises(ValueError):
        monomial_matrix(np.array([[2.0]]), np.array([[1, 0]]))


def test_monomial_matrix_agrees_with_scalar_monomials():
    pts = np.array([[0.5 + 0.1j, -0.3], [1.0, 2.0], [0.0, 0.0]], dtype=complex)
    exps = np.array(enumerate_indices(2, 6), dtype=np.int64)
    mat = monomial_matrix(pts, exps)
    assert mat.shape == (6, 3)
    for a, k in enumerate(exps):
        for b in range(3):
            assert mat[a, b] == pytest.approx(monomial_value(k, pts[b]))


def assert_matches_broadcast_form(points, exponents):
    got = monomial_matrix(points, exponents)
    want = broadcast_monomial_matrix(points, exponents)
    assert got.shape == want.shape == (len(exponents), len(points))
    assert got.dtype == want.dtype == complex
    # == ignores only the sign of an exact zero
    assert np.array_equal(got, want)


def graded(dim, count):
    return GradedEnumeration(dim).exponents(count)


def test_monomials_match_broadcast_form_on_arcsine_samples():
    rng = np.random.default_rng(5)
    x = ArcsineMeasure(-1.0, 1.0).sample(rng, 4000)
    y = ArcsineMeasure(-1.0, 0.5).sample(rng, 4000)
    assert_matches_broadcast_form(x, graded(1, 30))
    assert_matches_broadcast_form(np.hstack([x, y]), graded(2, 28))


def test_monomials_match_broadcast_form_on_box_grid():
    grid = box(((-1.0, 1.0), (-1.0, 1.0))).grid(256)
    assert grid.shape == (256 * 256, 2)
    assert_matches_broadcast_form(grid, graded(2, 15))


def test_monomials_match_broadcast_form_on_complex_points():
    rng = np.random.default_rng(6)
    circle_x_interval = ProductSet((Circle(0.0, 1.0), Interval(-1.0, 1.0))).sample(rng, 3000)
    assert_matches_broadcast_form(circle_x_interval, graded(2, 45))
    cube = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    assert_matches_broadcast_form(cube, graded(3, 56))


def test_monomials_edge_shapes_match_broadcast_form():
    rng = np.random.default_rng(7)
    line = rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))
    assert_matches_broadcast_form(line, graded(1, 12))
    with_origin = np.array([[0.0, 0.0], [0.0, 2.0 - 1.0j], [-1.5, 0.0]], dtype=complex)
    mat = monomial_matrix(with_origin, graded(2, 10))
    assert mat[0, 0] == 1.0 and np.all(mat[1:, 0] == 0.0)  # 0^0 = 1
    assert_matches_broadcast_form(with_origin, graded(2, 10))
    assert_matches_broadcast_form(with_origin, np.zeros((4, 2), dtype=np.int64))
    assert_matches_broadcast_form(np.zeros((0, 2), dtype=complex), graded(2, 6))
    assert_matches_broadcast_form(with_origin, np.zeros((0, 2), dtype=np.int64))
    # exponents need not be graded: repeats, and a later axis before an earlier one
    mixed = np.array([[0, 3, 1], [2, 0, 0], [0, 3, 1], [1, 1, 1], [0, 0, 4]], dtype=np.int64)
    assert_matches_broadcast_form(rng.standard_normal((7, 3)) + 0.5j, mixed)


def _straddling_block_boundary(rng):
    """Point sets longer than one 2,048-point block of the kernel."""
    square = box(((-1.0, 1.0), (-1.0, 1.0))).sample(rng, 2100)
    square[::97, 0] = 0.0  # exact zeros, and with them signed zeros in the products
    circle_x_interval = ProductSet((Circle(0.0, 1.0), Interval(-1.0, 1.0))).sample(rng, 2100)
    cube = rng.standard_normal((2100, 3)) + 1j * rng.standard_normal((2100, 3))
    return [(square, graded(2, 21)), (circle_x_interval, graded(2, 15)), (cube, graded(3, 20))]


@pytest.mark.parametrize("case", range(3), ids=["box", "circle-x-interval", "complex-cube"])
def test_monomial_column_is_independent_of_the_other_points(case):
    # a point's column has the same bytes whichever points share the call,
    # so the exchange pass may reuse basis rows across configurations
    points, exps = _straddling_block_boundary(np.random.default_rng(8))[case]
    assert len(points) > _POINT_BLOCK
    full = monomial_matrix(points, exps)
    differ = [
        i for i in range(len(points))
        if full[:, i].tobytes() != monomial_matrix(points[i : i + 1], exps)[:, 0].tobytes()
    ]
    assert differ == []
    tail = points[_POINT_BLOCK - 3 :]
    assert monomial_matrix(tail, exps).tobytes() == full[:, _POINT_BLOCK - 3 :].tobytes()


def test_monomial_matrix_rejects_negative_exponents():
    with pytest.raises(ValueError):
        monomial_matrix(np.ones((2, 2)), np.array([[0, -1]]))
    with pytest.raises(ValueError):
        monomial_matrix(np.ones((2, 2)), np.array([[0.5, 1.0]]))


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        GradedEnumeration(0)
    with pytest.raises(ValueError):
        enumerate_indices(-1, 3)
    with pytest.raises(ValueError):
        GradedEnumeration(2).prefix(0)


@pytest.mark.parametrize("dim", [True, False, 2.0, "2"])
def test_dimension_must_be_a_true_integer(dim):
    enumeration_for(1)  # a cached 1 must not answer for True
    with pytest.raises(ValueError):
        GradedEnumeration(dim)
    with pytest.raises(ValueError):
        degree_counts(dim, 2)
    with pytest.raises(ValueError):
        enumeration_for(dim)


def test_numpy_integer_dimension_is_accepted():
    assert GradedEnumeration(np.int64(2)).prefix(3) == [(0, 0), (0, 1), (1, 0)]
    assert degree_counts(np.int64(3), 2) == degree_counts(3, 2)
    assert enumeration_for(np.int64(2)).exponents(3).tolist() == [[0, 0], [0, 1], [1, 0]]
