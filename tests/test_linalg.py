import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import brute_force_oracles
from per_point_oracles import exact_matrix, exact_rows
from polyalab import (
    ArcsineMeasure,
    CircleUniform,
    DiscreteMeasure,
    DiskUniform,
    GermCoefficients,
    ProductMeasure,
    UniformSegment,
    coeffs_from_measure,
    coeffs_from_table,
    count_at_most,
    enumeration_for,
    gram,
    hankel_logdet,
    hankel_matrix,
    z_s_gram,
)
from polyalab import linalg
from polyalab.linalg import (
    MomentMatrix,
    _classes,
    _grids,
    _leading_minors,
    _scaled,
    _scales,
    _symmetric,
    _upper_pairs,
    batch_logabs,
    batch_pairwise_logabs,
    exact_ldl,
    exact_logdet,
    exact_prefix_logdets,
    logdet,
    moment_matrix,
    pairwise_difference_logdet,
)


def fraction_det(rows):
    """Textbook cofactor expansion, exact, for small matrices."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        sign = -1 if c % 2 else 1
        total += sign * Fraction(rows[0][c]) * fraction_det(minor)
    return total


def test_logdet_reconstructs_numpy_det():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert math.exp(logdet(m)) == pytest.approx(abs(np.linalg.det(m)), rel=1e-10)


def test_logdet_flags_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert logdet(m) == -math.inf


def test_logdet_rejects_nonsquare():
    with pytest.raises(ValueError):
        logdet(np.ones((2, 3)))


def test_logdet_of_and_scaled():
    # a determinant is log|det|: scaling it adds the log of the factor,
    # and a singular one stays -inf
    ld = logdet(np.array([[-2.0]]))
    assert ld == pytest.approx(math.log(2.0))
    assert logdet(np.array([[-6.0]])) == pytest.approx(ld + math.log(3.0))
    assert logdet(np.zeros((2, 2))) + 5.0 == -math.inf


def test_pairwise_formula_matches_direct_product():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
    direct = 1.0 + 0j
    flat = pts[:, 0]
    for b in range(6):
        for c in range(b + 1, 6):
            direct *= flat[c] - flat[b]
    ld = pairwise_difference_logdet(pts)
    assert math.exp(ld) == pytest.approx(abs(direct), rel=1e-12)


def test_pairwise_formula_matches_monomial_determinant():
    # same invariant through the generic LU route
    rng = np.random.default_rng(3)
    flat = rng.normal(size=7) + 1j * rng.normal(size=7)
    mat = np.vander(flat, increasing=True).T
    lu = logdet(mat)
    pw = pairwise_difference_logdet(flat.reshape(-1, 1))
    assert pw == pytest.approx(lu, abs=1e-10)


def test_pairwise_detects_collision_exactly():
    pts = np.array([[0.5], [0.5], [1.0]], dtype=complex)
    assert pairwise_difference_logdet(pts) == -math.inf


def test_batch_pairwise_matches_loop():
    rng = np.random.default_rng(23)
    batch = rng.normal(size=(10, 5)) + 1j * rng.normal(size=(10, 5))
    got = batch_pairwise_logabs(batch)
    for r in range(10):
        want = pairwise_difference_logdet(batch[r].reshape(-1, 1))
        assert got[r] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("m", range(2, 13))
def test_batch_pairwise_rows_equal_their_batch_of_one(m):
    # a search evaluates its restarts' trials as one batch, so each row must
    # be summed as a batch of one is: pairwise from 8 terms on, where a
    # column-major batch would be added left to right
    rng = np.random.default_rng(m)
    for batch in range(1, 65):
        configs = np.sqrt(rng.uniform(size=(batch, m))) * np.exp(
            2j * np.pi * rng.uniform(size=(batch, m))
        )
        got = batch_pairwise_logabs(configs)
        alone = [batch_pairwise_logabs(configs[r : r + 1])[0] for r in range(batch)]
        assert got.tolist() == alone


def _counted(fn, calls):
    def counted(k):
        calls[k] += 1
        return fn(k)

    return counted


@pytest.mark.parametrize("dim,s", [(1, 11), (2, 4)], ids=["1d", "2d"])
@pytest.mark.parametrize("route", ["exact", "float", "exact-then-float", "gram"])
def test_moment_matrix_evaluates_each_distinct_moment_once(dim, s, route, monkeypatch):
    # an entry is the moment of its index sum: 2n - 1 sums for a Hankel
    # matrix of size n in one variable, every index of degree <= 2s at full
    # degree s in several; each must be evaluated once on the exact route
    # and, once an exact value is missing, once more as a float
    mu = ProductMeasure((UniformSegment(-1.0, 2.0),) * dim)
    n = count_at_most(dim, s)
    sums = sorted(enumeration_for(dim).prefix(count_at_most(dim, 2 * s)))
    exact_calls, float_calls = Counter(), Counter()
    if route == "gram":
        hermitian = ProductMeasure.hermitian_moment_fraction

        def counted(self, j, l):
            exact_calls[tuple(a + b for a, b in zip(j, l))] += 1
            return hermitian(self, j, l)

        monkeypatch.setattr(ProductMeasure, "hermitian_moment_fraction", counted)
        mat = gram(mu, n)
    else:
        exact = {
            "exact": mu.moment_fraction,
            "float": lambda k: None,
            "exact-then-float": lambda k: mu.moment_fraction(k) if sum(k) < s else None,
        }[route]
        germ = GermCoefficients(dim, _counted(mu.moment, float_calls), _counted(exact, exact_calls))
        mat = hankel_matrix(germ, n)
    assert set(exact_calls.values()) == {1}
    if route in ("exact", "gram"):
        assert sorted(exact_calls) == sums
        assert not float_calls
        assert mat.matrix is None and len(exact_rows(mat)) == n
    else:
        assert len(exact_calls) <= len(sums)
        assert sorted(float_calls) == sums and set(float_calls.values()) == {1}
        assert mat.values is None and mat.matrix.shape == (n, n)


def test_a_moment_matrix_holds_one_copy():
    exact = gram(ArcsineMeasure(), 20)
    assert exact.matrix is None
    assert len(exact_rows(exact)) == 20
    atoms = ((0.2 + 0.1j,), (1.0,))  # a complex atom: no rational moments
    floats = gram(DiscreteMeasure(atoms, (Fraction(1, 2), Fraction(1, 2))), 2)
    assert floats.values is None
    assert floats.matrix.shape == (2, 2)


def test_cached_upper_pairs_are_read_only():
    rows, cols = _upper_pairs(4)
    assert rows.tolist() == [0, 0, 0, 1, 1, 2]
    assert cols.tolist() == [1, 2, 3, 2, 3, 3]
    for arr in (rows, cols):
        with pytest.raises(ValueError):
            arr[0] = 3
    assert _upper_pairs(4)[0].tolist() == [0, 0, 0, 1, 1, 2]


def test_batch_logabs_matches_slogdet_loop():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(4, 3, 3))
    got = batch_logabs(mats)
    for r in range(4):
        assert got[r] == pytest.approx(logdet(mats[r]), abs=1e-12)


def test_exact_logdet_against_cofactor_expansion():
    rows = [
        [Fraction(1, 2), Fraction(2, 5), Fraction(1, 4)],
        [Fraction(2, 5), Fraction(1, 7), Fraction(3)],
        [Fraction(1, 4), Fraction(3), Fraction(5, 6)],
    ]
    want = fraction_det(rows)
    got = exact_logdet(exact_matrix(rows))
    assert got == pytest.approx(math.log(abs(want)), abs=1e-14)


def test_exact_logdet_hilbert_is_tiny_but_nonzero():
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    got = exact_logdet(exact_matrix(rows))
    want = fraction_det(rows)
    assert got > -math.inf
    assert got == pytest.approx(math.log(abs(want)), rel=1e-14)


def test_exact_logdet_singular_and_trivial():
    assert exact_logdet(exact_matrix([[1, 2], [2, 4]])) == -math.inf
    assert exact_logdet(exact_matrix([])) == 0.0  # empty product convention
    assert exact_logdet(exact_matrix([[Fraction(7)]])) == pytest.approx(math.log(7.0))


def test_exact_logdet_handles_row_swaps():
    rows = [[0, 1], [1, 0]]
    # a zero first pivot: the elimination must swap rows to reach |det| = 1
    assert exact_logdet(exact_matrix(rows)) == pytest.approx(0.0)


def assert_prefixes_match_per_size(rows):
    """Each prefix-pass entry equals exact_logdet of that leading submatrix, bit for bit."""
    got = exact_prefix_logdets(exact_matrix(rows))
    assert len(got) == len(rows)
    for size, ld in enumerate(got, start=1):
        want = exact_logdet(exact_matrix([row[:size] for row in rows[:size]]))
        assert ld == want, size
    assert got == brute_force_oracles.unsplit_prefix_logdets(rows)


_ARCSINE = ArcsineMeasure(-1.0, 1.0)
# zero odd moments: a checkerboard, two classes
CHECKERBOARD = exact_rows(hankel_matrix(coeffs_from_measure(_ARCSINE), 13))
# the product of two: four parity classes, m = 15 (s = 4)
FOUR_CLASSES = exact_rows(gram(ProductMeasure((_ARCSINE, _ARCSINE)), 15))
# arcsine on [0, 2] has no zero moment: one class
ONE_CLASS = exact_rows(gram(ArcsineMeasure(0.0, 2.0), 10))


@pytest.mark.parametrize(
    "rows, classes",
    [
        (CHECKERBOARD, [list(range(0, 13, 2)), list(range(1, 13, 2))]),
        (FOUR_CLASSES, [[0, 3, 5, 10, 12, 14], [1, 6, 8], [2, 7, 9], [4, 11, 13]]),
        (ONE_CLASS, [list(range(10))]),
        ([[1, 0, 2], [0, 0, 0], [2, 0, 3]], [[0, 2], [1]]),  # joined by one pair; a zero row
    ],
    ids=["checkerboard", "four-classes", "one-class", "upper-triangular"],
)
def test_classes_are_the_components_of_the_nonzero_entries(rows, classes):
    assert _classes(rows) == classes


PER_SIZE_MATRICES = [
    [[0, 1], [1, 0]],  # zero first minor, then -1
    [[0, 0, 0], [0, 3, 4], [0, 4, 7]],  # zero first column (and row): every minor vanishes
    [  # rank 1, v v^T: every minor past the first vanishes
        [Fraction(1, 4), Fraction(1, 2), Fraction(-1, 8)],
        [Fraction(1, 2), Fraction(1), Fraction(-1, 4)],
        [Fraction(-1, 8), Fraction(-1, 4), Fraction(1, 16)],
    ],
    # row denominators grow along the row, so prefix and full lcms differ
    [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)],
    [[Fraction(1), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 5)]],
    CHECKERBOARD,
    FOUR_CLASSES,
    # one dense class each, with denominators that grow along every row:
    # the off-centre arcsine and the Hilbert-like uniform [0, 1] Hankel
    exact_rows(hankel_matrix(coeffs_from_measure(ArcsineMeasure(0.0, 2.0)), 25)),
    exact_rows(hankel_matrix(coeffs_from_measure(UniformSegment(0.0, 1.0)), 20)),
]
PER_SIZE_IDS = ["swap", "zero-column", "rank-1", "hilbert-8", "mixed-denominators",
                "checkerboard", "four-classes", "arcsine-0-2-hankel", "uniform-0-1-hankel"]


@pytest.mark.parametrize("rows", PER_SIZE_MATRICES, ids=PER_SIZE_IDS)
def test_prefix_logdets_match_per_size(rows):
    assert_prefixes_match_per_size(rows)


# a_0 = 0 and a_1 != 0: H_1 = 0 and H_2 = -a_1^2 < 0, one class that is not
# PSD, so each leading block past size 1 is eliminated with row exchanges
ZERO_FIRST_TABLE = coeffs_from_table(1, {(k,): Fraction(k, k + 1) for k in range(20)})
ZERO_FIRST_HANKEL = exact_rows(hankel_matrix(ZERO_FIRST_TABLE, 10))


@pytest.mark.parametrize(
    "rows",
    [*PER_SIZE_MATRICES, ZERO_FIRST_HANKEL],
    ids=[*PER_SIZE_IDS, "table-zero-first"],
)
def test_exact_logdet_is_the_unsplit_elimination(rows):
    assert exact_logdet(exact_matrix(rows)) == brute_force_oracles.unsplit_logdet(rows)


@pytest.mark.parametrize(
    "germ, rows",
    [
        (coeffs_from_measure(_ARCSINE), CHECKERBOARD),
        (ZERO_FIRST_TABLE, ZERO_FIRST_HANKEL),
    ],
    ids=["checkerboard", "table-zero-first"],
)
def test_hankel_logdet_is_the_unsplit_elimination(germ, rows):
    assert hankel_logdet(germ, len(rows)) == brute_force_oracles.unsplit_logdet(rows)


def test_z_s_gram_is_the_unsplit_elimination_plus_log_m_factorial():
    # FOUR_CLASSES is the product-arcsine Gram matrix at s = 4, m = 15
    got = z_s_gram(ProductMeasure((_ARCSINE, _ARCSINE)), 4)
    assert got == brute_force_oracles.unsplit_logdet(FOUR_CLASSES) + math.lgamma(16)


def test_prefix_logdets_continue_past_a_zero_minor():
    first, second = exact_prefix_logdets(exact_matrix([[0, 1], [1, 0]]))
    assert first == -math.inf
    assert second == 0.0
    with pytest.raises(ValueError):
        exact_prefix_logdets(exact_matrix([[1, 2]]))


def test_exact_ldl_reconstructs_matrix():
    rows = [
        [Fraction(4), Fraction(2), Fraction(1, 3)],
        [Fraction(2), Fraction(5), Fraction(3)],
        [Fraction(1, 3), Fraction(3), Fraction(7, 2)],
    ]
    inv, diag = exact_ldl(exact_matrix(rows))
    n = 3
    # L^-1 A L^-T = diag(d), exactly
    left = [[sum(inv[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    whitened = [[sum(left[i][k] * inv[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    assert whitened == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        assert inv[i][i] == 1
        assert all(v == 0 for v in inv[i][i + 1 :])
    assert diag == [Fraction(4), Fraction(4), fraction_det(rows) / 16]


def test_exact_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        exact_ldl(exact_matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]))


def test_exact_ldl_rejects_singular_semidefinite():
    # the first pivot is 1, the second is exactly 0
    with pytest.raises(ValueError, match="pivot 1 = 0"):
        exact_ldl(exact_matrix([[1, 1], [1, 1]]))


def test_exact_ldl_rejects_a_matrix_that_is_not_symmetric():
    # its leading minors are positive, so only the symmetry check rejects it
    with pytest.raises(ValueError, match="not symmetric"):
        exact_ldl(exact_matrix([[2, 1], [0, 2]]))


# not symmetric: a tridiagonal chain (one class) with a_01 != a_10, two
# classes of which only {1, 3} is not symmetric, every mirrored pair with
# unequal denominators, and a Toeplitz grid t_(i-j) of rational values
NOT_SYMMETRIC = {
    "chain": lambda: exact_matrix(
        [[Fraction(1, 2), 3, 0], [1, Fraction(2, 3), Fraction(1, 5)], [0, 7, 4]]
    ),
    "one-class-of-two": lambda: exact_matrix(
        [[2, 0, Fraction(1, 3), 0], [0, 1, 0, 3], [Fraction(1, 3), 0, 5, 0], [0, 2, 0, 1]]
    ),
    "unequal-mirrors": lambda: exact_matrix([
        [Fraction(1, 2**41), Fraction(3, 1_000_003), Fraction(1, 6)],
        [Fraction(5, 2**40), Fraction(7, 9), Fraction(2, 2**20 * 1_000_003)],
        [0, Fraction(1, 35), Fraction(1, 3)],
    ]),
    "toeplitz": lambda: moment_matrix(
        [[i - j + 11 for j in range(12)] for i in range(12)],
        int,
        lambda c: Fraction((7 * c) % 11 - 3, 1 + c % 5),
        None,
    ),
}


@pytest.mark.parametrize("name", list(NOT_SYMMETRIC))
def test_both_exact_routes_raise_on_a_grid_that_is_not_symmetric(name):
    # every moment matrix is symmetric, and the exact routes read one
    # triangle: both check the grids once, where they read them
    mat = NOT_SYMMETRIC[name]()
    for route in (exact_prefix_logdets, exact_logdet, exact_ldl, MomentMatrix.logdet):
        with pytest.raises(ValueError, match="not symmetric"):
            route(mat)


def _motzkin(count):
    motzkin = [1, 1]
    for i in range(2, count):
        motzkin.append(((2 * i + 1) * motzkin[-1] + (3 * i - 3) * motzkin[-2]) // (i + 2))
    return motzkin


# every kind of exact moment matrix the library builds
LIBRARY_MATRICES = {
    "arcsine-gram": lambda: gram(_ARCSINE, 30),
    "uniform-gram": lambda: gram(UniformSegment(0.0, 1.0), 30),
    "product-arcsine-gram": lambda: gram(ProductMeasure((_ARCSINE, _ARCSINE)), 45),
    "circle-gram": lambda: gram(CircleUniform(1.5), 20),
    "disk-gram": lambda: gram(DiskUniform(2.0), 20),
    "circle-x-interval-gram": lambda: gram(
        ProductMeasure((CircleUniform(1.0), UniformSegment(-1.0, 1.0))), 28
    ),
    "real-discrete-gram": lambda: gram(
        DiscreteMeasure(((0.0,), (1.0,), (-1.0,)), tuple(map(Fraction, (1, 1, 2), (4, 4, 4)))), 20
    ),
    "measure-hankel": lambda: hankel_matrix(coeffs_from_measure(ArcsineMeasure(0.0, 2.0)), 30),
    "product-measure-hankel": lambda: hankel_matrix(
        coeffs_from_measure(ProductMeasure((_ARCSINE, UniformSegment(0.0, 1.0)))), 28
    ),
    "table-zero-first-hankel": lambda: hankel_matrix(ZERO_FIRST_TABLE, 10),
    "shifted-motzkin-hankel": lambda: hankel_matrix(
        coeffs_from_table(1, {(k,): v for k, v in enumerate(_motzkin(62)[1:])}), 30
    ),
}


@pytest.mark.parametrize("name", list(LIBRARY_MATRICES))
def test_every_exact_moment_matrix_the_library_builds_is_symmetric(name):
    # what the exact routes rest on: they check the grids and then read one
    # triangle, so their one pass without exchanges is the one-triangle pass
    mat = LIBRARY_MATRICES[name]()
    assert mat.values is not None
    rows = exact_rows(mat)
    nums = [[v.numerator for v in row] for row in rows]
    dens = [[v.denominator for v in row] for row in rows]
    assert nums == [list(col) for col in zip(*nums)]
    assert dens == [list(col) for col in zip(*dens)]


def _lower_as_none(a):
    """a with every strictly lower entry of its square part replaced by None."""
    return [[None if j < i else v for j, v in enumerate(row)] for i, row in enumerate(a)]


# symmetric, with unequal scales; the last has leading minors 1, 0 and
# stops at the zero
SYMMETRIC = [
    CHECKERBOARD,
    FOUR_CLASSES,
    ONE_CLASS,
    [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)],
    [[1, 1, Fraction(1, 2)], [1, 1, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3), 4]],
]


SYMMETRIC_IDS = ["checkerboard", "four-classes", "one-class", "hilbert-8", "zero-minor"]


def _dad(rows):
    """The integer rows of D A D, d from _scales, and d."""
    nums, dens = _grids(exact_matrix(rows))
    d = _scales(dens, _classes(nums))
    return _scaled(nums, dens, d, list(range(len(rows)))), d


@pytest.mark.parametrize("rows", SYMMETRIC, ids=SYMMETRIC_IDS)
def test_symmetric_scaling_is_d_a_d_in_integers(rows):
    scaled, d = _dad(rows)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            assert type(scaled[i][j]) is int
            assert scaled[i][j] == d[i] * d[j] * Fraction(v)
    assert _symmetric(scaled) == _symmetric(rows)


def test_symmetric_scaling_starts_at_half_the_diagonal_twos_and_bumps_the_later_index():
    # d_i = 2^ceil(v/2) times the odd part of den(A_ii): 1/8 -> 4, 1/12 -> 6
    assert _dad([[Fraction(1, 8), 0, 0], [0, Fraction(1, 12), 0], [0, 0, 3]])[1] == [4, 6, 1]
    # d_0 d_1 A_01 = 1/3 is not an integer: d_1, the later index, takes the 3
    assert _dad([[1, Fraction(1, 3)], [Fraction(1, 3), 1]]) == ([[1, 1], [1, 9]], [1, 3])


def test_bareiss_integers_stay_narrow_on_the_arcsine_hankel(monkeypatch):
    # on D A D every integer the elimination leaves at size 61 fits in 115
    # bits; rows scaled by their lcms reach 886
    widest = 0
    step = linalg._bareiss_step

    def measured(a, k, prev, exchange):
        nonlocal widest
        step(a, k, prev, exchange)
        widest = max(widest, *(abs(v).bit_length() for row in a for v in row))

    monkeypatch.setattr(linalg, "_bareiss_step", measured)
    exact_prefix_logdets(hankel_matrix(coeffs_from_measure(_ARCSINE), 61))
    assert 0 < widest <= 160


def _fraction_minors(a):
    """The leading principal minors of a's square part, to the first zero, by Fractions."""
    m = [[Fraction(v) for v in row[: len(a)]] for row in a]
    minors, det = [], Fraction(1)
    for k in range(len(m)):
        det *= m[k][k]
        minors.append(int(det))
        if det == 0:
            break
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return minors


@pytest.mark.parametrize("rows", SYMMETRIC, ids=SYMMETRIC_IDS)
def test_a_symmetric_pass_reads_and_writes_only_the_upper_triangle(rows):
    scaled, _ = _dad(rows)
    want = _fraction_minors(scaled)
    sentinel = _lower_as_none(scaled)
    assert _leading_minors(sentinel) == want
    assert all(v is None for i, row in enumerate(sentinel) for v in row[:i])


def test_a_symmetric_pass_over_an_augmented_matrix_keeps_its_right_block():
    # exact_ldl's [DAD | I]: the right block is updated whole; the class is
    # positive definite, so the pass with exchanges makes none and is the
    # full update
    scaled, _ = _dad(ONE_CLASS)
    m = len(scaled)
    aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(scaled)]
    full = [row[:] for row in aug]
    want = _leading_minors(full, exchange=True)
    sentinel = _lower_as_none(aug)
    assert _leading_minors(sentinel) == want
    assert [row[m:] for row in sentinel] == [row[m:] for row in full]


# The exact routes read a MomentMatrix through its grid of key codes, one
# numerator and denominator per distinct code; the same rows as a grid with
# one code per entry must give the same bits on every branch.
GRID_FORMS = {
    # Hankel codes over a_0 = 0, a_1 = 1, a_2 = 0: the row exchange at size 2
    "swap": lambda: moment_matrix([[0, 1], [1, 2]], int, lambda c: Fraction(c % 2), None),
    "table-zero-first-30": lambda: hankel_matrix(
        coeffs_from_table(1, {(k,): Fraction(k, k + 1) for k in range(59)}), 30
    ),
    # pair codes c(j) * top + c(l): a grid that is not symmetric, of
    # symmetric values, and one class per index
    "circle-complex-gram": lambda: gram(CircleUniform(1.0), 20),
    # rank 3: every minor past size 3 is zero, each larger block exchanged
    "rank-3-discrete-gram-40": lambda: gram(
        DiscreteMeasure(((0.0,), (1.0,), (-1.0,)), tuple(map(Fraction, (1, 1, 2), (4, 4, 4)))), 40
    ),
    "product-arcsine-hankel-45": lambda: hankel_matrix(
        coeffs_from_measure(ProductMeasure((_ARCSINE, _ARCSINE))), 45
    ),
    "product-arcsine-gram-28": lambda: gram(ProductMeasure((_ARCSINE, _ARCSINE)), 28),
}


def _ldl_or_error(rows):
    try:
        return exact_ldl(rows)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("name", list(GRID_FORMS))
def test_the_grid_form_and_the_plain_rows_agree_bit_for_bit(name):
    mat = GRID_FORMS[name]()
    rows = exact_matrix(exact_rows(mat))
    assert len(rows) == len(mat) == mat.size
    got = [v.hex() for v in exact_prefix_logdets(mat)]
    assert got == [v.hex() for v in exact_prefix_logdets(rows)]
    assert got == [v.hex() for v in mat.prefix_logdets()]
    assert exact_logdet(mat).hex() == exact_logdet(rows).hex() == got[-1]
    assert _ldl_or_error(mat) == _ldl_or_error(rows)
    if name == "circle-complex-gram":
        assert not _symmetric(mat.codes) and _symmetric(exact_rows(mat))
    if name in ("swap", "table-zero-first-30", "rank-3-discrete-gram-40"):
        assert "-inf" in got[:-1]  # a zero minor before the last: the row-exchange path


# exact_prefix_logdets of the product-arcsine Hankel matrix at size 45,
# recorded before the exact routes read the code grid
PRODUCT_ARCSINE_HANKEL_45_HEX = [
    "0x0.0p+0", "-0x1.62e42fefa39efp-1", "-0x1.62e42fefa39efp+0", "-0x1.bb9d3beb8c86ap+1",
    "-0x1.3687a9f1af2b1p+2", "-0x1.bb9d3beb8c86ap+2", "-0x1.4cb5ecf0a9650p+3",
    "-0x1.a56ef8ec924ccp+3", "-0x1.fe2804e87b347p+3", "-0x1.3687a9f1af2b2p+4",
    "-0x1.8429946e1af5ep+4", "-0x1.c6b45d6b09a3ap+4", "-0x1.049f9333fc28bp+5",
    "-0x1.25e4f7b2737f9p+5", "-0x1.4cb5ecf0a964fp+5", "-0x1.7e9e03ae5c674p+5",
    "-0x1.aafa89ac50db2p+5", "-0x1.d7570faa454efp+5", "-0x1.01d9cad41ce16p+6",
    "-0x1.18080dd3171b5p+6", "-0x1.30fc1931f09c8p+6", "-0x1.4f7bb55088ac4p+6",
    "-0x1.6b35890f4174cp+6", "-0x1.86ef5ccdfa3d3p+6", "-0x1.a2a9308cb305ap+6",
    "-0x1.be63044b6bce0p+6", "-0x1.da1cd80a24964p+6", "-0x1.f89c7428bca5ep+6",
    "-0x1.0e53d08389a20p+7", "-0x1.1ef682c2c54d7p+7", "-0x1.2f99350200f8ep+7",
    "-0x1.403be7413ca45p+7", "-0x1.50de9980784fcp+7", "-0x1.61814bbfb3fb3p+7",
    "-0x1.7223fdfeefa6ap+7", "-0x1.8429946e1af5ap+7", "-0x1.98f4f33d258c0p+7",
    "-0x1.ac5d6ddc407eap+7", "-0x1.bfc5e87b5b716p+7", "-0x1.d32e631a76642p+7",
    "-0x1.e696ddb99156ep+7", "-0x1.f9ff5858ac49ap+7", "-0x1.06b3e97be39e3p+8",
    "-0x1.106826cb71179p+8", "-0x1.1acdd632f662cp+8",
]


def test_the_product_arcsine_hankel_keeps_its_recorded_bits():
    mat = GRID_FORMS["product-arcsine-hankel-45"]()
    assert [v.hex() for v in exact_prefix_logdets(mat)] == PRODUCT_ARCSINE_HANKEL_45_HEX
