import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyalab import (
    ArcsineMeasure,
    CircleUniform,
    DiscreteMeasure,
    DiskUniform,
    ProductMeasure,
    ScaledMeasure,
    UniformSegment,
    bernstein_markov_ratio,
    coeffs_from_measure,
    count_at_most,
    gram,
    hankel_matrix,
    orthonormal_coefficients,
    z_s_gram,
    z_s_montecarlo,
)
from polyalab.measures import log_factorial


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


def test_scaled_measure_scales_everything():
    base = ArcsineMeasure(-1.0, 1.0)
    mu = ScaledMeasure(base, Fraction(3, 2))
    assert mu.mass == pytest.approx(1.5)
    for k in range(5):
        assert mu.moment((k,)) == pytest.approx(1.5 * base.moment((k,)))
    assert mu.moment_fraction((2,)) == Fraction(3, 2) * base.moment_fraction((2,))


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
        (ScaledMeasure(_COMPLEX_ATOMS, Fraction(3, 2)), lambda j, l: 1.5 * _atom_sum(j[0], l[0])),
    ],
    ids=["discrete", "product", "scaled"],
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
    assert g.exact is not None
    assert g.exact == h.exact
    assert np.array_equal(g.matrix, h.matrix)


def test_gram_arcsine_closed_form():
    # the arcsine moment matrix has determinant 2^(-(n-1)^2) at size n
    for n in (11, 21):
        ld = gram(ArcsineMeasure(-1.0, 1.0), n).logdet()
        assert ld.log_abs == pytest.approx(-((n - 1) ** 2) * math.log(2.0), abs=1e-10)


def test_hermitian_gram_of_circle_is_diagonal():
    mu = CircleUniform(2.0)
    g = gram(mu, 4)
    want = np.diag([4.0**j for j in range(4)])
    assert np.allclose(g.matrix, want)


def test_gram_exact_entries_match_floats():
    g = gram(ArcsineMeasure(-1.0, 1.0), 6)
    assert g.exact is not None
    exact = np.array([[float(v) for v in row] for row in g.exact])
    assert np.allclose(exact, g.matrix.real)


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
    assert math.exp(val.log_abs) == pytest.approx(want, rel=1e-10)

    arc = z_s_gram(ArcsineMeasure(-1.0, 1.0), 1)
    # Chebyshev-Gauss pair quadrature is exact for this polynomial integrand
    i = np.arange(1, 65)
    t = np.cos((2 * i - 1) * np.pi / 128)
    w_arc = float(np.mean((t[:, None] - t[None, :]) ** 2))
    assert math.exp(arc.log_abs) == pytest.approx(w_arc, rel=1e-12)
    assert arc.log_abs == pytest.approx(0.0, abs=1e-12)


def test_z0_is_the_mass():
    mu = ScaledMeasure(UniformSegment(0.0, 1.0), Fraction(5, 2))
    assert math.exp(z_s_gram(mu, 0).log_abs) == pytest.approx(2.5)


def test_zs_mass_scaling_identity():
    base = ArcsineMeasure(-1.0, 1.0)
    t = Fraction(7, 3)
    for s in (1, 2, 3):
        m = count_at_most(1, s)
        lhs = z_s_gram(ScaledMeasure(base, t), s).log_abs
        rhs = z_s_gram(base, s).log_abs + m * math.log(float(t))
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
    assert math.exp(got.log_abs) == pytest.approx(brute, rel=1e-12)


def test_montecarlo_agrees_with_gram():
    mu = ArcsineMeasure(-1.0, 1.0)
    for s in (1, 2):
        g = z_s_gram(mu, s).log_abs
        mc = z_s_montecarlo(mu, s, samples=40000, seed=11)
        assert abs(mc.log_value - g) < 4.0 * mc.std_error_log


def test_montecarlo_seed_determinism():
    mu = UniformSegment(-1.0, 1.0)
    a = z_s_montecarlo(mu, 2, samples=6000, seed=3, chunk_size=1024)
    b = z_s_montecarlo(mu, 2, samples=6000, seed=3, chunk_size=1024)
    assert a.log_value == b.log_value
    assert a.std_error_log == b.std_error_log
    seq = z_s_montecarlo(mu, 2, samples=6000, seed=np.random.SeedSequence(3), chunk_size=1024)
    assert (seq.log_value, seq.std_error_log) == (a.log_value, a.std_error_log)
    c = z_s_montecarlo(mu, 2, samples=6000, seed=4, chunk_size=1024)
    assert c.log_value != a.log_value


def test_montecarlo_sees_the_mass():
    base = UniformSegment(0.0, 1.0)
    scaled = ScaledMeasure(base, Fraction(2))
    m = count_at_most(1, 1)
    a = z_s_montecarlo(base, 1, samples=4000, seed=5)
    b = z_s_montecarlo(scaled, 1, samples=4000, seed=5)
    assert b.log_value - a.log_value == pytest.approx(m * math.log(2.0), abs=1e-12)


def test_montecarlo_estimate_value_property():
    mc = z_s_montecarlo(CircleUniform(1.0), 1, samples=30000, seed=1)
    assert mc.value == pytest.approx(2.0, rel=0.05)
    assert mc.samples == 30000


def test_orthonormal_coefficients_whiten_the_gram():
    for mu, count in (
        (ArcsineMeasure(-1.0, 1.0), 6),
        (CircleUniform(1.5), 5),
        (DiscreteMeasure(((0.2 + 0.1j,), (1.0,)), (Fraction(1, 2), Fraction(1, 2))), 2),
    ):
        c = orthonormal_coefficients(mu, count)
        g = gram(mu, count).matrix
        eye = c @ g @ c.conj().T
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


def test_bm_ratio_singular_is_infinite():
    one_atom = DiscreteMeasure(((0.0,),), (Fraction(1),))
    assert bernstein_markov_ratio(one_atom, 2, per_axis=64) == math.inf


def test_montecarlo_rejects_bad_sizes():
    mu = UniformSegment(0.0, 1.0)
    with pytest.raises(ValueError, match="chunk_size"):
        z_s_montecarlo(mu, 1, samples=100, chunk_size=0)
    with pytest.raises(ValueError, match="two samples"):
        z_s_montecarlo(mu, 1, samples=1)


def test_log_factorial():
    assert log_factorial(5) == pytest.approx(math.log(120.0))
    assert log_factorial(0) == 0.0


def test_measure_validation():
    with pytest.raises(ValueError):
        ArcsineMeasure(1.0, -1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0,), (1.0,)), (Fraction(1),))
    with pytest.raises(ValueError):
        CircleUniform(0.0)
