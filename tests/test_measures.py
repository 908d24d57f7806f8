import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polyalab import (
    ArcsineMeasure,
    Circle,
    CircleUniform,
    DiscreteMeasure,
    Disk,
    DiskUniform,
    Interval,
    ProductMeasure,
    ProductSet,
    UniformSegment,
    bernstein_markov_ratio,
    coeffs_from_contour,
    coeffs_from_measure,
    coeffs_from_table,
    count_at_most,
    enumeration_for,
    gram,
    hankel_matrix,
    orthonormal_coefficients,
    z_s_gram,
    z_s_montecarlo,
)
from polyalab.linalg import exact_ldl
from polyalab.measures import _GRID_BLOCK, DEFAULT_GRID, log_factorial

import brute_force_oracles
import per_point_oracles
from per_point_oracles import exact_rows

PRODUCT_ARCSINE = ProductMeasure((ArcsineMeasure(-1.0, 1.0), ArcsineMeasure(-1.0, 1.0)))


def chebyshev_quadrature_moment(a, b, k, nodes=64):
    """Exact arcsine moment by Chebyshev-Gauss quadrature (independent route)."""
    i = np.arange(1, nodes + 1)
    x = np.cos((2 * i - 1) * np.pi / (2 * nodes))
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return float(np.mean((mid + half * x) ** k))


def legendre_quadrature_moment(a, b, k, nodes=40):
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = (a + b) / 2.0 + (b - a) / 2.0 * x
    return float(np.sum(w * t**k) / 2.0)


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 1.0), (-2.5, 0.5)])
def test_arcsine_moments_match_quadrature(a, b):
    mu = ArcsineMeasure(a, b)
    for k in range(0, 13):
        want = chebyshev_quadrature_moment(a, b, k)
        assert mu.moment((k,)) == pytest.approx(want, abs=1e-12)
        assert float(mu.moment_fraction((k,))) == pytest.approx(want, abs=1e-12)


def test_standard_arcsine_central_binomial():
    mu = ArcsineMeasure(-1.0, 1.0)
    for k in range(0, 11):
        want = Fraction(math.comb(k, k // 2), 2**k) if k % 2 == 0 else Fraction(0)
        assert mu.moment_fraction((k,)) == want


def direct_arcsine_moment(a, b, k):
    """The binomial sum over the standard arcsine moments, computed afresh."""
    mid = (Fraction(a) + Fraction(b)) / 2
    half = (Fraction(b) - Fraction(a)) / 2
    total = Fraction(0)
    for m in range(k // 2 + 1):  # odd standard moments vanish
        std = Fraction(math.comb(2 * m, m), 4**m)
        total += math.comb(k, 2 * m) * mid ** (k - 2 * m) * half ** (2 * m) * std
    return total


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 2.0), (-0.5, 0.5)])
def test_cached_arcsine_moments_are_the_binomial_sum(a, b):
    mu = ArcsineMeasure(a, b)
    for k in range(123):
        want = direct_arcsine_moment(a, b, k)
        assert mu.moment_fraction((k,)) == want
        assert mu.hermitian_moment_fraction((k // 2,), (k - k // 2,)) == want


def test_arcsine_moment_cache_is_keyed_by_the_exact_interval():
    third = ArcsineMeasure(Fraction(1, 3), 1)
    near_third = ArcsineMeasure(1 / 3, 1.0)  # the float nearest 1/3, a different interval
    measures = [ArcsineMeasure(-1.0, 1.0), ArcsineMeasure(0.0, 2.0),
                ArcsineMeasure(-0.5, 0.5), third, near_third]
    for k in range(12):  # interleaved, so a shared entry would be read by the wrong measure
        for mu in measures:
            assert mu.moment_fraction((k,)) == direct_arcsine_moment(mu.a, mu.b, k)
    assert third.moment_fraction((1,)) == Fraction(2, 3)
    assert near_third.moment_fraction((1,)) != Fraction(2, 3)


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.25, 2.0)])
def test_uniform_moments_match_quadrature(a, b):
    mu = UniformSegment(a, b)
    for k in range(0, 10):
        want = legendre_quadrature_moment(a, b, k)
        assert mu.moment((k,)) == pytest.approx(want, rel=1e-12)
        assert float(mu.moment_fraction((k,))) == pytest.approx(want, rel=1e-12)


def test_circle_hermitian_moments_match_trapezoid():
    r = 1.3
    mu = CircleUniform(r)
    theta = 2 * np.pi * np.arange(256) / 256
    z = r * np.exp(1j * theta)
    for j in range(4):
        for l in range(4):
            want = np.mean(z**j * np.conj(z) ** l)
            got = mu.hermitian_moment((j,), (l,))
            assert got == pytest.approx(want, abs=1e-10)
    # plain moments vanish except k = 0
    assert mu.moment((0,)) == 1.0
    assert mu.moment((3,)) == 0.0


def test_disk_hermitian_moments_match_quadrature():
    r = 1.5
    mu = DiskUniform(r)
    x, w = np.polynomial.legendre.leggauss(40)
    rad = r / 2.0 + r / 2.0 * x  # radial nodes on [0, r]
    wrad = w * r / 2.0
    theta = 2 * np.pi * np.arange(128) / 128
    for j in range(4):
        for l in range(4):
            ang = np.mean(np.exp(1j * (j - l) * theta))
            radial = np.sum(wrad * rad ** (j + l + 1))
            want = 2.0 / r**2 * radial * ang
            assert mu.hermitian_moment((j,), (l,)) == pytest.approx(want, abs=1e-10)


def test_discrete_moments_and_mass():
    mu = DiscreteMeasure(((0.0,), (1.0,), (-0.5,)), (Fraction(1, 2), Fraction(1, 4), Fraction(2)))
    assert mu.mass == pytest.approx(float(Fraction(1, 2) + Fraction(1, 4) + 2))
    for k in range(5):
        want = 0.5 * 0.0**k + 0.25 * 1.0**k + 2.0 * (-0.5) ** k if k else 2.75
        assert mu.moment((k,)) == pytest.approx(want)
        assert float(mu.moment_fraction((k,))) == pytest.approx(want)


def test_discrete_weights_stay_unnormalized():
    mu = DiscreteMeasure(((0.0,), (1.0,)), (Fraction(3), Fraction(1)))
    assert mu.mass == pytest.approx(4.0)
    assert mu.moment((0,)) == pytest.approx(4.0)
    # sampling still uses the normalized distribution
    rng = np.random.default_rng(0)
    pts = mu.sample(rng, 2000)
    assert abs(np.mean(pts.real) - 0.25) < 0.05


@pytest.mark.parametrize(
    "mu", [UniformSegment(-1.0, 2.0), CircleUniform(1.5), DiskUniform(0.5)],
    ids=lambda mu: type(mu).__name__,
)
def test_uniform_measures_draw_what_their_support_draws(mu):
    got = mu.sample(np.random.default_rng(3), 50)
    want = mu.support.sample(np.random.default_rng(3), 50)
    assert got.shape == (50, 1)
    assert got.tobytes() == want.tobytes()


def test_product_measure_moments_factorize():
    f1 = ArcsineMeasure(-1.0, 1.0)
    f2 = UniformSegment(0.0, 1.0)
    mu = ProductMeasure((f1, f2))
    assert mu.dim == 2
    for k1 in range(4):
        for k2 in range(4):
            want = f1.moment((k1,)) * f2.moment((k2,))
            assert mu.moment((k1, k2)) == pytest.approx(want)
            exact = mu.moment_fraction((k1, k2))
            assert float(exact) == pytest.approx(want)


_ATOMS = (0.5 + 0.25j, -1.0 + 0.5j, 0.75j)
_WEIGHTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2))
_COMPLEX_ATOMS = DiscreteMeasure(tuple((z,) for z in _ATOMS), _WEIGHTS)


def _atom_sum(j, l):
    """Sum of w z^j conj(z)^l over the complex atoms, computed directly."""
    return sum(float(w) * z**j * z.conjugate() ** l for z, w in zip(_ATOMS, _WEIGHTS))


@pytest.mark.parametrize(
    "mu, direct",
    [
        (_COMPLEX_ATOMS, lambda j, l: _atom_sum(j[0], l[0])),
        (
            ProductMeasure((_COMPLEX_ATOMS, ArcsineMeasure(-1.0, 1.0))),
            lambda j, l: _atom_sum(j[0], l[0])
            * chebyshev_quadrature_moment(-1.0, 1.0, j[1] + l[1]),
        ),
    ],
    ids=["discrete", "product"],
)
def test_complex_atom_moments_are_direct_sums(mu, direct):
    zero = (0,) * mu.dim
    for j in itertools.product(range(4), repeat=mu.dim):
        assert mu.moment(j) == pytest.approx(direct(j, zero), rel=1e-12, abs=1e-14)
        assert mu.moment_fraction(j) is None
        for l in itertools.product(range(4), repeat=mu.dim):
            assert mu.hermitian_moment(j, l) == pytest.approx(direct(j, l), rel=1e-12, abs=1e-14)


def test_gram_modes_coincide_for_real_measures():
    # on a real measure the hermitian Gram matrix is the Hankel moment matrix
    mu = ArcsineMeasure(-1.0, 1.0)
    g = gram(mu, 5)
    h = hankel_matrix(coeffs_from_measure(mu), 5)
    assert g.values is not None
    assert exact_rows(g) == exact_rows(h)
    assert g.matrix is None and h.matrix is None


def _gram_case(measure):
    idx = enumeration_for(measure.dim).prefix(15)
    return gram(measure, 15), per_point_oracles.gram_entries(measure, idx)


def _hankel_case(germ):
    return hankel_matrix(germ, 15), per_point_oracles.hankel_matrix_entries(germ, 15)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _gram_case(ArcsineMeasure(-1.0, 2.0)),
        lambda: _gram_case(ProductMeasure((ArcsineMeasure(0.0, 2.0), UniformSegment(-1.0, 0.5)))),
        lambda: _gram_case(DiskUniform(1.5)),
        lambda: _gram_case(CircleUniform(2.0)),
        lambda: _gram_case(DiscreteMeasure(
            ((0.0,), (1.0,), (-0.5,)), (Fraction(1, 2), Fraction(1, 4), Fraction(2))
        )),
        lambda: _hankel_case(coeffs_from_measure(
            ProductMeasure((ArcsineMeasure(-1.0, 2.0), UniformSegment(0.0, 1.0)))
        )),
        lambda: _hankel_case(coeffs_from_table(
            2, {k: Fraction(1 + k[0], 3 + k[1]) for k in enumeration_for(2).prefix(45)}
        )),
        lambda: _gram_case(DiscreteMeasure(
            ((0.2 + 0.1j, 1.0), (1.0, -0.5j), (-0.5, 0.3)), (Fraction(1, 2), Fraction(1, 3), 2)
        )),
        lambda: _hankel_case(coeffs_from_contour(lambda z: 1.0 / (z - 0.3 - 0.2j), grid_size=64)),
        lambda: _gram_case(ProductMeasure((CircleUniform(1.0), ArcsineMeasure(-1.0, 2.0)))),
    ],
    ids=["arcsine", "product", "disk", "circle", "discrete",
         "hankel-measure", "hankel-table", "complex-atoms", "hankel-contour", "circle-x-arcsine"],
)
def test_exact_gram_mirrors_the_full_build(case):
    # each distinct moment is evaluated once and looked up for every entry;
    # that must equal every entry evaluated on its own: exact rows by ==,
    # a float matrix byte for byte
    got, want = case()
    if want.values is not None:
        assert got.matrix is None
        assert exact_rows(got) == exact_rows(want)
    else:
        assert got.values is None
        assert got.matrix.tobytes() == want.matrix.tobytes()


# In 1-3 variables, measures and a table germ for each route of the
# builder: distinct moments that share no value (one atom at (2, 3, 5) and
# the table 2^j 3^k 5^l, by unique factorization), so an entry that read
# the wrong index sum could not match by chance; a real product measure; a
# complex support, whose Gram entries are keyed by pairs; and complex atoms,
# whose Gram matrix has no exact route and is built from floats.
_ORACLE_CASES = {
    "one-atom gram": lambda dim: DiscreteMeasure(((2.0, 3.0, 5.0)[:dim],), (Fraction(1, 3),)),
    "product gram": lambda dim: ProductMeasure(
        (ArcsineMeasure(-1.0, 2.0), UniformSegment(0.0, 1.0), ArcsineMeasure(0.0, 2.0))[:dim]
    ),
    "disk gram": lambda dim: ProductMeasure(
        (DiskUniform(1.5), DiskUniform(0.5), CircleUniform(2.0))[:dim]
    ),
    "complex-atom gram": lambda dim: DiscreteMeasure(
        tuple(p[:dim] for p in ((0.2 + 0.1j, 1.0, -0.5), (1.0, -0.5j, 0.3), (-0.5, 0.3, 0.25j))),
        (Fraction(1, 2), Fraction(1, 3), 2),
    ),
    "table hankel": lambda dim: coeffs_from_table(
        dim,
        {
            k: Fraction(math.prod(p**e for p, e in zip((2, 3, 5), k)), 7)
            for k in enumeration_for(dim).prefix(count_at_most(dim, 12))
        },
    ),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
@pytest.mark.parametrize("s", range(7))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_matrix_rows_equal_every_entry_built_alone(dim, s, case):
    # the builder keys each entry by an integer code and evaluates each
    # distinct code once; every row must equal the per-entry build: exact
    # rows by ==, a float matrix byte for byte
    source = _ORACLE_CASES[case](dim)
    m = count_at_most(dim, s)
    if case == "table hankel":
        got, want = hankel_matrix(source, m), per_point_oracles.hankel_matrix_entries(source, m)
    else:
        idx = enumeration_for(dim).prefix(m)
        got, want = gram(source, m), per_point_oracles.gram_entries(source, idx)
    assert (got.values is None) == (case == "complex-atom gram")
    if want.values is not None:
        assert got.matrix is None
        assert exact_rows(got) == exact_rows(want)
    else:
        assert got.values is None
        assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize(
    "mu",
    [
        CircleUniform(2.0),
        DiskUniform(1.5),
        ProductMeasure((CircleUniform(1.0), ArcsineMeasure(-1.0, 2.0))),
        ProductMeasure((DiskUniform(0.5), CircleUniform(3.0))),
        DiscreteMeasure(((0.2 + 0.1j,), (1.0,), (-0.5j,)), (Fraction(1, 2), Fraction(1, 3), 2)),
    ],
    ids=["circle", "disk", "circle-x-arcsine", "disk-x-circle", "complex-atoms"],
)
def test_rational_hermitian_moments_are_symmetric(mu):
    # a rational Hermitian matrix is real, so symmetric: gram's exact route
    # evaluates each unordered pair once
    assert not mu.support.is_real
    idx = enumeration_for(mu.dim).prefix(15)
    for j, l in itertools.product(idx, repeat=2):
        value, mirror = mu.hermitian_moment_fraction(j, l), mu.hermitian_moment_fraction(l, j)
        assert (value is None) == (mirror is None)
        assert value == mirror


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_complex_float_gram_evaluates_each_unordered_pair_once(dim, monkeypatch):
    # complex atoms have no exact moments, so gram takes the float fallback:
    # n (n + 1) / 2 moments, the entries below the diagonal their conjugates
    calls = []
    hermitian_moment = DiscreteMeasure.hermitian_moment

    def counted(self, j, l):
        calls.append((j, l))
        return hermitian_moment(self, j, l)

    monkeypatch.setattr(DiscreteMeasure, "hermitian_moment", counted)
    atoms = ((0.2 + 0.1j, 1.0, -0.5), (1.0, -0.5j, 0.3), (-0.5, 0.3, 0.25j), (0.7j, 0.1, 0.9))
    mu = DiscreteMeasure(tuple(p[:dim] for p in atoms), (Fraction(1, 2), Fraction(1, 3), 2, 1))
    n = count_at_most(dim, 4)
    g = gram(mu, n)
    assert g.values is None
    assert len(calls) == len(set(calls)) == n * (n + 1) // 2
    assert np.array_equal(g.matrix, g.matrix.conj().T)
    want = per_point_oracles.gram_entries(mu, enumeration_for(dim).prefix(n))
    assert g.matrix.tobytes() == want.matrix.tobytes()


def test_gram_arcsine_closed_form():
    # the arcsine moment matrix has determinant 2^(-(n-1)^2) at size n
    for n in (11, 21):
        ld = gram(ArcsineMeasure(-1.0, 1.0), n).logdet()
        assert ld == pytest.approx(-((n - 1) ** 2) * math.log(2.0), abs=1e-10)


def test_hermitian_gram_of_circle_is_diagonal():
    mu = CircleUniform(2.0)
    g = gram(mu, 4)
    assert exact_rows(g) == tuple(tuple(4**j if i == j else 0 for j in range(4)) for i in range(4))


def test_gram_exact_entries_match_floats():
    mu = ArcsineMeasure(-1.0, 1.0)
    g = gram(mu, 6)
    assert g.values is not None
    exact = np.array([[float(v) for v in row] for row in exact_rows(g)])
    assert np.allclose(exact, [[mu.moment((a + b,)) for b in range(6)] for a in range(6)])


def quadrature_z1(mu, a, b, weight):
    """Independent 2D quadrature of the s=1 pair integral of (x-y)^2."""
    x, w = np.polynomial.legendre.leggauss(60)
    t = (a + b) / 2.0 + (b - a) / 2.0 * x
    dens = weight(t) * (b - a) / 2.0 * w
    diff2 = (t[:, None] - t[None, :]) ** 2
    return float(dens @ diff2 @ dens)


def test_z1_against_direct_quadrature():
    val = z_s_gram(UniformSegment(0.0, 1.0), 1)
    want = quadrature_z1(None, 0.0, 1.0, lambda t: np.ones_like(t))
    assert math.exp(val) == pytest.approx(want, rel=1e-10)

    arc = z_s_gram(ArcsineMeasure(-1.0, 1.0), 1)
    # Chebyshev-Gauss pair quadrature is exact for this polynomial integrand
    i = np.arange(1, 65)
    t = np.cos((2 * i - 1) * np.pi / 128)
    w_arc = float(np.mean((t[:, None] - t[None, :]) ** 2))
    assert math.exp(arc) == pytest.approx(w_arc, rel=1e-12)
    assert arc == pytest.approx(0.0, abs=1e-12)


def test_z0_is_the_mass():
    mu = DiscreteMeasure((0.0, 1.0), (Fraction(3, 2), 1))
    assert math.exp(z_s_gram(mu, 0)) == pytest.approx(2.5)


def test_zs_mass_scaling_identity():
    atoms = (-1.0, -0.5, 0.0, 0.5, 1.0)
    base = DiscreteMeasure(atoms, (Fraction(1, 5),) * 5)
    t = Fraction(7, 3)
    for s in (1, 2, 3):
        m = count_at_most(1, s)
        lhs = z_s_gram(DiscreteMeasure(atoms, (t / 5,) * 5), s)
        rhs = z_s_gram(base, s) + m * math.log(float(t))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_z2_gram_against_discrete_brute_force():
    # three atoms: the pair/triple sums are tractable by hand
    mu = DiscreteMeasure(
        ((0.0,), (1.0,), (2.0,)), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    )
    atoms = [0.0, 1.0, 2.0]
    w = [1 / 3] * 3
    brute = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                v = (atoms[j] - atoms[i]) * (atoms[k] - atoms[i]) * (atoms[k] - atoms[j])
                brute += w[i] * w[j] * w[k] * v * v
    got = z_s_gram(mu, 2)
    assert math.exp(got) == pytest.approx(brute, rel=1e-12)


def test_montecarlo_agrees_with_gram():
    mu = ArcsineMeasure(-1.0, 1.0)
    for s in (1, 2):
        g = z_s_gram(mu, s)
        mc = z_s_montecarlo(mu, s, samples=40000, seed=11)
        assert abs(mc.log_value - g) < 4.0 * mc.std_error_log


def test_montecarlo_seed_determinism():
    mu = UniformSegment(-1.0, 1.0)
    a = z_s_montecarlo(mu, 2, samples=6000, seed=3)
    b = z_s_montecarlo(mu, 2, samples=6000, seed=3)
    assert a.log_value == b.log_value
    assert a.std_error_log == b.std_error_log
    seq = z_s_montecarlo(mu, 2, samples=6000, seed=np.random.SeedSequence(3))
    assert (seq.log_value, seq.std_error_log) == (a.log_value, a.std_error_log)
    c = z_s_montecarlo(mu, 2, samples=6000, seed=4)
    assert c.log_value != a.log_value


def test_montecarlo_sees_the_mass():
    # doubling every weight leaves the sampling probabilities bit for bit
    base = DiscreteMeasure((0.0, 0.5, 1.0), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    scaled = DiscreteMeasure((0.0, 0.5, 1.0), (Fraction(1, 2), Fraction(1, 2), 1))
    m = count_at_most(1, 1)
    a = z_s_montecarlo(base, 1, samples=4000, seed=5)
    b = z_s_montecarlo(scaled, 1, samples=4000, seed=5)
    assert b.log_value - a.log_value == pytest.approx(m * math.log(2.0), abs=1e-12)


def test_montecarlo_estimate_of_the_circle():
    mc = z_s_montecarlo(CircleUniform(1.0), 1, samples=30000, seed=1)
    assert math.exp(mc.log_value) == pytest.approx(2.0, rel=0.05)
    assert mc.samples == 30000


def test_orthonormal_coefficients_whiten_the_gram():
    for mu, count in (
        (ArcsineMeasure(-1.0, 1.0), 6),
        (CircleUniform(1.5), 5),
        (DiscreteMeasure(((0.2 + 0.1j,), (1.0,)), (Fraction(1, 2), Fraction(1, 2))), 2),
    ):
        c = orthonormal_coefficients(mu, count)
        g = gram(mu, count)
        mat = g.matrix if g.values is None else np.array(exact_rows(g), dtype=float)
        eye = c @ mat @ c.conj().T
        assert np.allclose(eye, np.eye(count), atol=1e-9)
        assert np.allclose(np.triu(c, 1), 0.0)


def test_orthonormal_rejects_singular_gram():
    one_atom = DiscreteMeasure(((0.5,),), (Fraction(1),))
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        orthonormal_coefficients(one_atom, 3)


def test_bm_ratio_closed_forms():
    circ = CircleUniform(1.0)
    for s in (1, 2, 4):
        assert bernstein_markov_ratio(circ, s, per_axis=256) == pytest.approx(
            math.sqrt(s + 1), rel=1e-9
        )
    arc = ArcsineMeasure(-1.0, 1.0)
    for s in (1, 2, 3):
        assert bernstein_markov_ratio(arc, s, per_axis=4096) == pytest.approx(
            math.sqrt(2 * s + 1), rel=1e-4
        )
    uni = UniformSegment(-1.0, 1.0)
    assert bernstein_markov_ratio(uni, 3, per_axis=4096) == pytest.approx(4.0, rel=1e-4)


@pytest.mark.parametrize(
    "measure",
    [
        PRODUCT_ARCSINE,
        ProductMeasure((ArcsineMeasure(0.0, 2.0), UniformSegment(-1.0, 0.5))),
        ArcsineMeasure(-1.0, 1.0),
    ],
    ids=["product-arcsine", "arcsine-x-uniform", "arcsine"],
)
@pytest.mark.parametrize("count", [15, 28, 45])
def test_exact_ldl_matches_fraction_oracle_on_gram(measure, count):
    mat = gram(measure, count)
    lower, diag = brute_force_oracles.exact_ldl(exact_rows(mat))
    assert exact_ldl(mat) == (brute_force_oracles.unit_lower_inverse(lower), diag)


@pytest.mark.parametrize(
    "measure, s, per_axis",
    [
        (PRODUCT_ARCSINE, 4, 64),
        (PRODUCT_ARCSINE, 6, 100),
        (CircleUniform(1.5), 5, 5000),
        (DiskUniform(2.0), 3, 16384),
        (ArcsineMeasure(-1.0, 1.0), 3, 5000),
    ],
)
def test_bm_ratio_blocks_equal_whole_grid(measure, s, per_axis):
    # every grid holds more than one block, and most end in a partial one
    block = _GRID_BLOCK // count_at_most(measure.dim, s)
    assert measure.support.grid(per_axis).shape[0] > block
    whole = per_point_oracles.bernstein_markov_ratio(measure, s, per_axis)
    assert bernstein_markov_ratio(measure, s, per_axis) == whole


def test_bm_ratio_memory_stays_within_a_few_blocks():
    # the whole-grid kernel peaks near 73 MiB here: 65,536 points x 28 basis rows
    bernstein_markov_ratio(PRODUCT_ARCSINE, 6, per_axis=256)  # warm the caches
    tracemalloc.start()
    try:
        bernstein_markov_ratio(PRODUCT_ARCSINE, 6, per_axis=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "measure, s, mib", [(PRODUCT_ARCSINE, 3, 4), (DiskUniform(1.0), 8, 3)], ids=["product", "disk"]
)
def test_montecarlo_memory_stays_within_a_block(measure, s, mib):
    # with one whole chunk's basis live these peaked at 9.4 and 5.8 MiB; the
    # log array alone, one float per sample, takes 0.8 MiB
    z_s_montecarlo(measure, s, samples=100_000)  # warm the caches
    tracemalloc.start()
    try:
        z_s_montecarlo(measure, s, samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


@pytest.mark.parametrize(
    "measure, s, per_axis",
    [
        (ArcsineMeasure(-1.0, 2.0), 4, 37),
        (ArcsineMeasure(-1.0, 2.0), 4, 256),
        (ArcsineMeasure(-1.0, 2.0), 9, 5003),
        (DiskUniform(1.5), 5, 4096),
        (ProductMeasure((ArcsineMeasure(), UniformSegment(0.0, 2.0))), 4, 37),
        (ProductMeasure((ArcsineMeasure(), UniformSegment(0.0, 2.0))), 6, 256),
        (ProductMeasure((ArcsineMeasure(), UniformSegment(0.0, 2.0), ArcsineMeasure())), 3, 16),
        (ProductMeasure((ArcsineMeasure(), UniformSegment(0.0, 2.0), ArcsineMeasure())), 3, 37),
    ],
    ids=["1d-37", "1d-256", "1d-5003", "disk-4096", "2d-37", "2d-256", "3d-16", "3d-37"],
)
def test_bm_ratio_blocked_sweep_equals_the_whole_grid_sweep(measure, s, per_axis):
    total = brute_force_oracles.whole_grid(measure.support, per_axis).shape[0]
    assert total % (_GRID_BLOCK // count_at_most(measure.dim, s)) != 0
    want = brute_force_oracles.whole_grid_bm_ratio(measure, s, per_axis)
    assert bernstein_markov_ratio(measure, s, per_axis) == want


def _traced_peak(call) -> int:
    call()  # warm the caches
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bm_ratio_sweep_holds_one_block_of_grid_points():
    # building the whole 65,536-point grid first took the peak to 3.25 MiB
    peak = _traced_peak(lambda: bernstein_markov_ratio(PRODUCT_ARCSINE, 6, per_axis=256))
    assert peak < 2 * 2**20


def test_bm_ratio_on_the_default_disk_grid_stays_small():
    # about 4,096 grid points; a grid of 1,050,625 points peaked at 32 MiB
    assert _traced_peak(lambda: bernstein_markov_ratio(DiskUniform(), 4)) < 2**20


@pytest.mark.parametrize(
    "source, count, mib",
    [(PRODUCT_ARCSINE, 40_960, 2.3), (DiskUniform(1.0), 36_864, 1.4)],
    ids=["product", "disk"],
)
def test_montecarlo_draws_write_into_their_result(source, count, mib):
    # drawing through float temporaries and stacked columns took 2.50 and 1.69 MiB
    peak = _traced_peak(lambda: source.sample(np.random.default_rng(0), count))
    assert peak < mib * 2**20


DRAW_SOURCES = [
    ArcsineMeasure(-3.0, 0.5),
    ProductMeasure((ArcsineMeasure(), ArcsineMeasure(0.5, 3.0))),
    ProductSet((Disk(0.5 - 1j, 2.5), Circle(-1.0 + 2j, 0.75), Interval(-2.0, 3.0))),
    Disk(-0.25 + 1.5j, 2.5),
    Circle(1.0 - 0.5j, 0.75),
    DiskUniform(1.0),
    CircleUniform(3.0),
]


@pytest.mark.parametrize("count", [1, 7, 512, 40_960])
@pytest.mark.parametrize("seed", [0, 5, 31])
@pytest.mark.parametrize(
    "source", DRAW_SOURCES,
    ids=["arcsine", "product-arcsine", "product-set", "disk", "circle", "disk-unit", "circle-3"],
)
def test_draws_keep_the_bits_of_the_stacked_draws(source, seed, count):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = source.sample(got_rng, count)
    want = brute_force_oracles.sample(source, want_rng, count)
    assert got.shape == want.shape == (count, source.dim) and got.dtype == want.dtype
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dim, per_axis", [(1, 4096), (2, 64), (3, 16)])
def test_bm_ratio_default_grid_holds_about_4096_points_in_every_dimension(
    monkeypatch, dim, per_axis
):
    measure = ArcsineMeasure() if dim == 1 else ProductMeasure((ArcsineMeasure(),) * dim)
    support = type(measure.support)
    calls = []
    blocks = support.grid_blocks
    monkeypatch.setattr(
        support, "grid_blocks", lambda kset, n, size: calls.append(n) or blocks(kset, n, size)
    )
    assert math.isfinite(bernstein_markov_ratio(measure, 1))
    assert calls == [per_axis] == [round(DEFAULT_GRID ** (1 / dim))]


def test_bm_ratio_singular_is_infinite():
    one_atom = DiscreteMeasure(((0.0,),), (Fraction(1),))
    assert bernstein_markov_ratio(one_atom, 2, per_axis=64) == math.inf


@pytest.mark.parametrize("per_axis", [0, True])
@pytest.mark.parametrize("measure", [ArcsineMeasure(), PRODUCT_ARCSINE], ids=["arcsine", "product"])
def test_bm_ratio_rejects_a_bad_grid(measure, per_axis):
    with pytest.raises(ValueError, match="per_axis"):
        bernstein_markov_ratio(measure, 2, per_axis=per_axis)


def test_montecarlo_rejects_bad_sizes():
    mu = UniformSegment(0.0, 1.0)
    with pytest.raises(ValueError, match="two samples"):
        z_s_montecarlo(mu, 1, samples=1)
    with pytest.raises(ValueError, match="integer count of at least two samples"):
        z_s_montecarlo(mu, 1, samples=2.5)


def test_log_factorial():
    assert log_factorial(5) == pytest.approx(math.log(120.0))
    assert log_factorial(0) == 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: ArcsineMeasure(-1.0, math.inf),
        lambda: UniformSegment(math.nan, 1.0),
        lambda: CircleUniform(math.nan),
        lambda: DiskUniform(math.inf),
    ],
    ids=["arcsine-inf", "uniform-nan", "circle-nan", "disk-inf"],
)
def test_measures_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="inf|finite"):
        make()


def test_measure_validation():
    with pytest.raises(ValueError):
        ArcsineMeasure(1.0, -1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0,), (1.0,)), (Fraction(1),))
    with pytest.raises(ValueError):
        CircleUniform(0.0)
    # the support's own checks: empty and multivariate factors, mixed atoms
    with pytest.raises(ValueError, match="at least one factor"):
        ProductMeasure(())
    with pytest.raises(ValueError, match="one-dimensional"):
        ProductMeasure((ArcsineMeasure(), PRODUCT_ARCSINE))
    with pytest.raises(ValueError, match="mixed"):
        DiscreteMeasure(((0.0,), (1.0, 2.0)), (1, 1))
    mu = DiscreteMeasure((0.5, (1j,)), (1, 2))
    assert mu.atoms == mu.support.points == ((0.5 + 0j,), (1j,))
