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
    hankel_logdet,
    hankel_matrix,
    polya_quantity,
    polya_sequence,
    polya_term,
)
from polyalab import functionals

from brute_force_oracles import MAX_ORACLE_ATOMS, MAX_ORACLE_SIZE, iterated_functional_oracle


def test_measure_coefficients_are_the_moments():
    mu = ArcsineMeasure(-1.0, 1.0)
    germ = coeffs_from_measure(mu)
    assert germ.dim == 1
    for k in range(8):
        assert germ.coeff((k,)) == mu.moment((k,))
        assert germ.coeff_fraction((k,)) == mu.moment_fraction((k,))


def test_table_coefficients_and_validation():
    germ = coeffs_from_table(1, {(0,): Fraction(1), (1,): Fraction(1, 2)})
    assert germ.coeff((0,)) == 1.0
    assert germ.coeff_fraction((1,)) == Fraction(1, 2)
    # tables are strict: zeros must be listed, absences are mistakes
    with pytest.raises(ValueError):
        germ.coeff((5,))
    with pytest.raises(ValueError):
        germ.coeff((0, 0))
    with pytest.raises(ValueError):
        germ.coeff((-1,))


def test_contour_inverse_gives_delta():
    germ = coeffs_from_contour(lambda z: 1.0 / z, dim=1, radius=2.0, grid_size=32)
    assert germ.coeff((0,)) == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 8):
        assert germ.coeff((k,)) == pytest.approx(0.0, abs=1e-12)


def test_contour_geometric_recovers_powers():
    w = 0.3
    germ = coeffs_from_contour(lambda z: 1.0 / (z - w), dim=1, radius=2.0, grid_size=64)
    for k in range(11):
        assert germ.coeff((k,)) == pytest.approx(w**k, abs=1e-10)


def test_contour_radius_independence():
    w = 0.3
    vals = []
    for r in (1.5, 2.0, 4.0):
        germ = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=r, grid_size=64)
        vals.append([germ.coeff((k,)) for k in range(9)])
    for other in vals[1:]:
        assert np.allclose(vals[0], other, atol=1e-9)


def test_contour_two_dimensional_product():
    germ = coeffs_from_contour(
        lambda z1, z2: 1.0 / (z1 * z2), dim=2, radius=1.5, grid_size=32
    )
    assert germ.coeff((0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert germ.coeff((1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert germ.coeff((2, 3)) == pytest.approx(0.0, abs=1e-12)


def test_contour_index_limit():
    germ = coeffs_from_contour(lambda z: 1.0 / z, radius=2.0, grid_size=16)
    with pytest.raises(ValueError):
        germ.coeff((15,))


def test_contour_aliasing_shrinks_with_grid():
    w = 0.9  # slow decay, visible aliasing on a coarse grid
    coarse = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=2.0, grid_size=8)
    fine = coeffs_from_contour(lambda z: 1.0 / (z - w), radius=2.0, grid_size=128)
    err_coarse = abs(coarse.coeff((3,)) - w**3)
    err_fine = abs(fine.coeff((3,)) - w**3)
    assert err_fine < err_coarse * 1e-3


def test_hankel_matrix_entries_are_index_sums():
    mu = UniformSegment(0.0, 1.0)
    germ = coeffs_from_measure(mu)
    h = hankel_matrix(germ, 4)
    assert h.size == 4
    assert h.exact is not None
    for a in range(4):
        for b in range(4):
            assert h.matrix[a, b] == pytest.approx(mu.moment((a + b,)))
            assert h.exact[a][b] == mu.moment_fraction((a + b,))


def test_hankel_two_dimensional_entries():
    mu = ProductMeasure((UniformSegment(0.0, 1.0), UniformSegment(0.0, 1.0)))
    germ = coeffs_from_measure(mu)
    h = hankel_matrix(germ, 5)
    idx = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
    for a in range(5):
        for b in range(5):
            ka = tuple(x + y for x, y in zip(idx[a], idx[b]))
            assert h.matrix[a, b] == pytest.approx(mu.moment(ka))


def test_hankel_logdet_exact_route_used():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    # the arcsine moment Hankel determinant has the closed form 2^(-s^2);
    # at s = 60 float LU gives about -1615 against the true -2495.3
    for s, tol in ((1, 1e-12), (2, 1e-12), (3, 1e-12), (4, 1e-12),
                   (20, 1e-10), (40, 1e-10), (60, 1e-10)):
        ld = hankel_logdet(germ, s + 1)
        assert ld.log_abs == pytest.approx(-(s * s) * math.log(2.0), abs=tol)


def test_polya_term_first_index_is_undefined():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    t = polya_term(germ, 1)
    assert t.degree_sum == 0
    assert t.quantity is None
    assert not t.defined


def test_polya_term_singular_hankel_gives_zero():
    table = {(k,): Fraction(1) if k == 0 else Fraction(0) for k in range(4)}
    germ = coeffs_from_table(1, table)  # rank one
    t = polya_term(germ, 2)
    assert t.hankel.is_zero
    assert t.quantity == 0.0
    assert t.defined


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
    terms = polya_sequence(germ, n).terms
    assert len(terms) == n
    for i, term in enumerate(terms, start=1):
        want = hankel_logdet(germ, i)
        assert (term.hankel.log_abs, term.hankel.phase) == (want.log_abs, want.phase), i


def test_polya_sequence_builds_one_hankel_matrix(monkeypatch):
    sizes = []
    build = functionals.hankel_matrix

    def counting(germ, size):
        sizes.append(size)
        return build(germ, size)

    monkeypatch.setattr(functionals, "hankel_matrix", counting)
    polya_sequence(coeffs_from_measure(_ARCSINE), 12)
    assert sizes == [12]


def test_polya_diagonal_closed_form():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    for s in (1, 2, 3, 6, 8):
        t = polya_quantity(germ, s)
        assert t.index == s + 1
        assert t.degree == s
        assert t.degree_sum == degree_counts(1, s).degree_sum
        assert t.quantity == pytest.approx(2.0 ** (-s / (s + 1.0)), rel=1e-12)


def test_polya_sequence_report_structure():
    germ = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    rep = polya_sequence(germ, 6)
    assert rep.dim == 1
    assert len(rep.terms) == 6
    assert [t.index for t in rep.terms] == [1, 2, 3, 4, 5, 6]
    # in one variable every index closes a degree block
    assert len(rep.diagonal) == 6
    assert rep.max_quantity() == pytest.approx(2.0 ** (-0.5))


def test_polya_sequence_two_dimensional_diagonal():
    mu = ProductMeasure((ArcsineMeasure(-1.0, 1.0), ArcsineMeasure(-1.0, 1.0)))
    rep = polya_sequence(coeffs_from_measure(mu), count_at_most(2, 2))
    assert [t.index for t in rep.diagonal] == [1, 3, 6]


def test_geometric_growth_is_invisible_to_normalization():
    # after c-scaling of the variable, D picks up exactly a factor |c|
    base = coeffs_from_measure(ArcsineMeasure(-1.0, 1.0))
    half = coeffs_from_measure(ArcsineMeasure(-0.5, 0.5))
    for s in (2, 4):
        a = polya_quantity(base, s).quantity
        b = polya_quantity(half, s).quantity
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
        lhs = math.gamma(i + 1) * math.exp(hankel_logdet(germ, i).log_abs)
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
