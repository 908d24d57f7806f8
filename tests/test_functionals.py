import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyalab import (
    ArcsineMeasure,
    CircleUniform,
    DiscreteMeasure,
    ProductMeasure,
    UniformSegment,
    build_germ,
    coeffs_from_contour,
    coeffs_from_measure,
    coeffs_from_table,
    count_at_most,
    degree_counts,
    enumeration_for,
    hankel_logdet,
    hankel_matrix,
    polya_sequence,
    polya_term,
)
from polyalab import functionals

from brute_force_oracles import MAX_ORACLE_ATOMS, MAX_ORACLE_SIZE, iterated_functional_oracle
from per_point_oracles import exact_rows


def test_measure_coefficients_are_the_moments():
    mu = ArcsineMeasure(-1.0, 1.0)
    germ = coeffs_from_measure(mu)
    assert germ.dim == 1
    for k in range(8):
        assert germ.fn((k,)) == mu.moment((k,))
        assert germ.exact_fn((k,)) == mu.moment_fraction((k,))


def test_table_coefficients_and_validation():
    germ = coeffs_from_table(1, {(0,): Fraction(1), (1,): Fraction(1, 2)})
    assert germ.fn((0,)) == 1.0
    assert germ.exact_fn((1,)) == Fraction(1, 2)
    # tables are strict: zeros must be listed, absences are mistakes
    with pytest.raises(ValueError):
        germ.fn((5,))
    with pytest.raises(ValueError):
        germ.fn((0, 0))
    with pytest.raises(ValueError):
        germ.fn((-1,))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_table_rejects_a_non_finite_entry_by_its_index(value):
    with pytest.raises(ValueError, match=r"entry \(2,\) is not finite"):
        coeffs_from_table(1, {0: 1.0, 1: 0.5, 2: value})


def test_contour_inverse_gives_delta():
    germ = coeffs_from_contour(lambda z: 1.0 / z, dim=1, radius=2.0, grid_size=32)
    assert germ.fn((0,)) == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 8):
        assert germ.fn((k,)) == pytest.approx(0.0, abs=1e-12)


def test_contour_geometric_recovers_powers():
    w = 0.3
    germ = coeffs_from_contour(lambda z: 1.0 / (z - w), dim=1, radius=2.0, grid_size=64)
    for k in range(11):
        assert germ.fn((k,)) == pytest.approx(w**k, abs=1e-10)


def test_contour_radius_independence():
    w = 0.3
    vals = []
    for r in (1.5, 2.0, 4.0):
        germ = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=r, grid_size=64)
        vals.append([germ.fn((k,)) for k in range(9)])
    for other in vals[1:]:
        assert np.allclose(vals[0], other, atol=1e-9)


def test_contour_two_dimensional_product():
    germ = coeffs_from_contour(
        lambda z1, z2: 1.0 / (z1 * z2), dim=2, radius=1.5, grid_size=32
    )
    assert germ.fn((0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert germ.fn((1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert germ.fn((2, 3)) == pytest.approx(0.0, abs=1e-12)


def test_contour_index_limit():
    germ = coeffs_from_contour(lambda z: 1.0 / z, radius=2.0, grid_size=16)
    with pytest.raises(ValueError):
        germ.fn((15,))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"radius": math.nan}, "radius must be positive and finite"),
        ({"radius": math.inf}, "radius must be positive and finite"),
        ({"grid_size": 4.5}, "grid_size must be an integer"),
        ({"dim": 0}, "dim must be an integer"),
        ({"dim": True}, "dim must be an integer"),
    ],
    ids=["radius-nan", "radius-inf", "grid-size-float", "dim-0", "dim-bool"],
)
def test_contour_rejects_what_the_config_layer_rejects(kwargs, message):
    with pytest.raises(ValueError, match=message):
        coeffs_from_contour(lambda z: 1.0 / z, **kwargs)


def test_contour_aliasing_shrinks_with_grid():
    w = 0.9  # slow decay, visible aliasing on a coarse grid
    coarse = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=2.0, grid_size=8)
    fine = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=2.0, grid_size=128)
    err_coarse = abs(coarse.fn((3,)) - w**3)
    err_fine = abs(fine.fn((3,)) - w**3)
    assert err_fine < err_coarse * 1e-3


def test_hankel_matrix_entries_are_index_sums():
    mu = UniformSegment(0.0, 1.0)
    germ = coeffs_from_measure(mu)
    h = hankel_matrix(germ, 4)
    assert h.size == 4
    assert h.values is not None
    for a in range(4):
        for b in range(4):
            assert h.values[h.codes[a][b]] == mu.moment_fraction((a + b,))
            assert float(h.values[h.codes[a][b]]) == pytest.approx(mu.moment((a + b,)))


def test_hankel_two_dimensional_entries():
    mu = ProductMeasure((UniformSegment(0.0, 1.0), UniformSegment(0.0, 1.0)))
    germ = coeffs_from_measure(mu)
    h = hankel_matrix(germ, 5)
    idx = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
    for a in range(5):
        for b in range(5):
            ka = tuple(x + y for x, y in zip(idx[a], idx[b]))
            assert float(h.values[h.codes[a][b]]) == pytest.approx(mu.moment(ka))


def test_hankel_matrix_names_the_coefficient_it_cannot_read():
    # the matrix reads its germ's routes once per distinct index sum, so it
    # must still fail on an index sum past a contour grid or missing from a table
    contour = coeffs_from_contour(lambda z: 1.0 / (z - 0.3), grid_size=8)
    with pytest.raises(ValueError, match=r"index \((7|8),\) exceeds the contour resolution"):
        hankel_matrix(contour, 5)
    table = coeffs_from_table(1, {k: Fraction(1, k + 1) for k in range(9) if k != 6})
    with pytest.raises(ValueError, match=r"coefficient table has no entry for \(6,\)"):
        hankel_matrix(table, 5)
    # smaller matrices read only coefficients the germs have
    assert hankel_matrix(contour, 4).matrix.shape == (4, 4)
    assert len(exact_rows(hankel_matrix(table, 3))) == 3


def test_hankel_logdet_exact_route_used():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    # the arcsine moment Hankel determinant has the closed form 2^(-s^2);
    # at s = 60 float LU gives about -1615 against the true -2495.3
    for s, tol in ((1, 1e-12), (2, 1e-12), (3, 1e-12), (4, 1e-12),
                   (20, 1e-10), (40, 1e-10), (60, 1e-10)):
        ld = hankel_logdet(germ, s + 1)
        assert ld == pytest.approx(-(s * s) * math.log(2.0), abs=tol)


def test_polya_term_first_index_is_undefined():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    t = polya_term(germ, 1)
    assert t.degree_sum == 0
    assert t.quantity is None


def test_polya_term_degree_is_one_based_and_consistent():
    # the degree of the index-th monomial of the graded-lex enumeration
    germ = coeffs_from_measure(ProductMeasure((ArcsineMeasure(-1.0, 1.0),) * 3))
    for i, k in enumerate(enumeration_for(3).prefix(25), start=1):
        assert polya_term(germ, i).degree == sum(k)
    # position 0 does not exist
    plane = coeffs_from_measure(ProductMeasure((ArcsineMeasure(-1.0, 1.0),) * 2))
    assert polya_term(plane, 10).degree == 3
    with pytest.raises(ValueError):
        polya_term(plane, 0)


def test_polya_term_singular_hankel_gives_zero():
    table = {(k,): Fraction(1) if k == 0 else Fraction(0) for k in range(4)}
    germ = coeffs_from_table(1, table)  # rank one
    t = polya_term(germ, 2)
    assert t.hankel == -math.inf
    assert t.quantity == 0.0


def _contour_1d():
    return coeffs_from_contour(
        lambda z: 1.0 / (z - 0.3) + 0.5 / (z + 0.6j), radius=1.5, grid_size=64
    )


def _contour_2d():
    return coeffs_from_contour(
        lambda z, w: 1.0 / ((z - 0.3) * (w + 0.2)), dim=2, radius=1.5, grid_size=32
    )


_ARCSINE = ArcsineMeasure(-1.0, 1.0)
_COMPLEX_ATOMS = DiscreteMeasure(((0.2 + 0.7j,), (-0.5,), (0.1 - 0.3j,)), (1, 2, 1))


@pytest.mark.parametrize(
    "make_germ, n",
    [
        (lambda: coeffs_from_measure(_ARCSINE), 61),
        (lambda: coeffs_from_measure(ProductMeasure((_ARCSINE, _ARCSINE))), 45),
        # rank one: H_2 is a zero pivot, and each larger size falls back
        (lambda: build_germ({"kind": "point-mass", "c": 0}), 12),
        (lambda: build_germ({"kind": "geometric", "c": 0.3}), 12),
        # H_1 = 0 but the later minors are not
        (lambda: coeffs_from_table(1, {(k,): Fraction(k, k + 1) for k in range(20)}), 10),
        # float routes
        (_contour_1d, 12),
        (_contour_2d, 10),
        (lambda: coeffs_from_measure(_COMPLEX_ATOMS), 8),
    ],
    ids=["arcsine", "product-arcsine", "point-mass-0", "geometric-0.3", "table-zero-first",
         "contour-1d", "contour-2d", "complex-atoms"],
)
def test_polya_sequence_matches_per_size_hankel(make_germ, n):
    germ = make_germ()
    terms = polya_sequence(germ, n)
    assert len(terms) == n
    for i, term in enumerate(terms, start=1):
        assert term.hankel == hankel_logdet(germ, i), i
        # index, degree, degree sum and D too, read off one prefix
        assert term == polya_term(germ, i), i


def test_polya_sequence_builds_one_hankel_matrix(monkeypatch):
    sizes = []
    build = functionals.hankel_matrix

    def counting(germ, size):
        sizes.append(size)
        return build(germ, size)

    monkeypatch.setattr(functionals, "hankel_matrix", counting)
    polya_sequence(coeffs_from_measure(_ARCSINE), 12)
    assert sizes == [12]


def _diagonal_term(germ, s):
    """The term at the full degree-s basis, index m_s."""
    return polya_term(germ, count_at_most(germ.dim, s))


def test_polya_diagonal_closed_form():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    for s in (1, 2, 3, 6, 8):
        t = _diagonal_term(germ, s)
        assert t.index == s + 1
        assert t.degree == s
        assert t.degree_sum == degree_counts(1, s).degree_sum
        assert t.quantity == pytest.approx(2.0 ** (-s / (s + 1.0)), rel=1e-12)


def test_polya_sequence_report_structure():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    terms = polya_sequence(germ, 6)
    assert len(terms) == 6
    assert [t.index for t in terms] == [1, 2, 3, 4, 5, 6]
    assert terms[0].quantity is None
    assert max(t.quantity for t in terms[1:]) == pytest.approx(2.0 ** (-0.5))


def test_polya_sequence_two_dimensional_diagonal():
    mu = ProductMeasure((ArcsineMeasure(-1.0, 1.0), ArcsineMeasure(-1.0, 1.0)))
    germ = coeffs_from_measure(mu)
    terms = polya_sequence(germ, count_at_most(2, 2))
    assert [t.degree for t in terms] == [0, 1, 1, 2, 2, 2]
    # the terms that close a degree block are the diagonal quantities
    assert terms[2] == _diagonal_term(germ, 1)
    assert terms[5] == _diagonal_term(germ, 2)


def test_geometric_growth_is_invisible_to_normalization():
    # after c-scaling of the variable, D picks up exactly a factor |c|
    base = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    half = coeffs_from_measure(ArcsineMeasure(-0.5, 0.5))
    for s in (2, 4):
        a = _diagonal_term(base, s).quantity
        b = _diagonal_term(half, s).quantity
        assert b == pytest.approx(0.5 * a, rel=1e-10)


def brute_pair_integral(atoms, weights, size):
    """Literal sum over atom tuples of the squared configuration determinant."""
    total = 0.0
    for combo in itertools.product(range(len(atoms)), repeat=size):
        v = 1.0
        for a in range(size):
            for b in range(a + 1, size):
                v *= atoms[combo[b]] - atoms[combo[a]]
        wprod = 1.0
        for c in combo:
            wprod *= weights[c]
        total += wprod * v * v
    return total


@pytest.mark.parametrize("size", [1, 2, 3])
def test_oracle_matches_literal_sum(size):
    atoms = (0.0, 1.0, -0.5, 0.25)
    weights = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 3), Fraction(1, 6))
    mu = DiscreteMeasure(tuple((a,) for a in atoms), weights)
    got = iterated_functional_oracle(mu, size)
    want = brute_pair_integral([float(a) for a in atoms], [float(w) for w in weights], size)
    assert got == pytest.approx(want, rel=1e-12)


def test_oracle_agrees_with_hankel_determinants():
    atoms = ((0.0,), (1.0,))
    mu = DiscreteMeasure(atoms, (Fraction(1, 2), Fraction(1, 2)))
    germ = coeffs_from_measure(mu)
    for i in (1, 2):
        lhs = math.gamma(i + 1) * math.exp(hankel_logdet(germ, i))
        rhs = iterated_functional_oracle(mu, i)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    # the half/half two-atom pair integral works out to exactly 1/2
    assert iterated_functional_oracle(mu, 2) == pytest.approx(0.5, rel=1e-14)


def test_oracle_enforces_its_limits():
    big = DiscreteMeasure(
        tuple((float(i),) for i in range(MAX_ORACLE_ATOMS + 1)),
        tuple(Fraction(1, MAX_ORACLE_ATOMS + 1) for _ in range(MAX_ORACLE_ATOMS + 1)),
    )
    with pytest.raises(ValueError):
        iterated_functional_oracle(big, 2)
    small = DiscreteMeasure(((0.0,), (1.0,)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        iterated_functional_oracle(small, MAX_ORACLE_SIZE + 1)
    with pytest.raises(TypeError):
        iterated_functional_oracle(ArcsineMeasure(-1.0, 1.0), 2)


def test_circle_hermitian_moments_not_used_here():
    # plain moment coefficients of the circle measure: a_0 = 1, rest 0,
    # so the Hankel sequence degenerates immediately
    germ = coeffs_from_measure(CircleUniform(1.0))
    assert polya_term(germ, 2).quantity == 0.0


# A germ gallery: integer sequences whose Hankel determinants are known in
# closed form (Krattenthaler, "Advanced determinant calculus: a complement",
# Linear Algebra Appl. 411, 2005).  As table germs they share no code with
# any measure's moments, so they check the Hankel builder's index sums and
# the exact elimination on their own.


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _gallery_sequence(dim, entry, size):
    """polya_sequence of the table germ a_k = entry(k) over every index sum of size."""
    top = 2 * sum(enumeration_for(dim).prefix(size)[-1])
    table = {k: entry(k) for k in enumeration_for(dim).prefix(count_at_most(dim, top))}
    return polya_sequence(coeffs_from_table(dim, table), size)


def test_catalan_hankel_determinants_are_one():
    # the moments of the semicircle law on [0, 4]: H_n = 1 at every n
    terms = _gallery_sequence(1, lambda k: _catalan(k[0]), 60)
    assert [t.hankel for t in terms] == [0.0] * 60
    # so D_n = 1, the capacity of [0, 4], exactly
    assert all(t.quantity == 1.0 for t in terms[1:])


def test_tensor_catalan_leading_minors_are_one():
    # a_(j, k) = C_j C_k: each monomial's residual against the earlier ones
    # is the product of two monic orthogonal polynomials of norm 1, so every
    # leading minor in graded order is 1, not only those that close a degree
    terms = _gallery_sequence(2, lambda k: _catalan(k[0]) * _catalan(k[1]), 45)
    assert [t.hankel for t in terms] == [0.0] * 45


def test_central_binomial_hankel_determinants_are_powers_of_two():
    # the moments of the arcsine law on [0, 4]: H_n = 2^(n - 1)
    terms = _gallery_sequence(1, lambda k: math.comb(2 * k[0], k[0]), 60)
    for n, t in enumerate(terms, start=1):
        # log of an exact integer against (n - 1) log 2 in floats
        assert t.hankel == pytest.approx((n - 1) * math.log(2.0), rel=0.0, abs=1e-12), n


def test_shifted_motzkin_zero_minors_follow_the_period_six_pattern():
    # a_k = M_(k+1): H_n = 1, 0, -1, -1, 0, 1 repeated with period 6, so
    # every third minor is zero and the minors past it reach the row-exchange
    # re-elimination; each zero must come out -inf and every other value 0.0
    motzkin = [1, 1]
    for i in range(2, 122):
        motzkin.append(((2 * i + 1) * motzkin[-1] + (3 * i - 3) * motzkin[-2]) // (i + 2))
    pattern = (1, 0, -1, -1, 0, 1)
    terms = _gallery_sequence(1, lambda k: motzkin[k[0] + 1], 60)
    for n, t in enumerate(terms, start=1):
        assert t.hankel == (-math.inf if pattern[(n - 1) % 6] == 0 else 0.0), n


# The next three germs carry denominators other than powers of two
# (Hilbert) or no denominators at all (factorial, Bell), where every measure
# of the workloads has power-of-two denominators.  Their closed forms are
# products of factorials, c_n = prod_{i<n} i! (Krattenthaler 2005).


def _superfactorial(n: int) -> int:
    return math.prod(math.factorial(i) for i in range(n))


def test_hilbert_hankel_determinants_are_the_cauchy_closed_form():
    # a_k = 1/(k + 1), the moments of uniform [0, 1]: H_n = c_n^4 / c_2n,
    # a reciprocal integer with odd prime factors up to 2n - 1
    terms = _gallery_sequence(1, lambda k: Fraction(1, k[0] + 1), 40)
    for n, t in enumerate(terms, start=1):
        want = 4 * math.log(_superfactorial(n)) - math.log(_superfactorial(2 * n))
        assert t.hankel == pytest.approx(want, rel=1e-12, abs=0.0), n


def test_factorial_hankel_determinants_are_squared_superfactorials():
    # a_k = k!, the moments of the Laguerre weight e^-x on [0, inf)
    terms = _gallery_sequence(1, lambda k: math.factorial(k[0]), 30)
    for n, t in enumerate(terms, start=1):
        want = 2 * math.log(_superfactorial(n))
        assert t.hankel == pytest.approx(want, rel=1e-12, abs=0.0), n


def test_bell_hankel_determinants_are_superfactorials():
    # a_k = B_k, the moments of the Poisson law of mean 1 (Charlier)
    bell, row = [1], [1]
    for _ in range(2 * 40):  # the Bell triangle: each row starts with the last's end
        row = list(itertools.accumulate(row, initial=row[-1]))
        bell.append(row[0])
    terms = _gallery_sequence(1, lambda k: bell[k[0]], 40)
    for n, t in enumerate(terms, start=1):
        assert t.hankel == pytest.approx(math.log(_superfactorial(n)), rel=1e-12, abs=0.0), n
