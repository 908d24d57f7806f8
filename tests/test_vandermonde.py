import math

import numpy as np
import pytest

from polyalab import (
    Box,
    Circle,
    FiniteSet,
    Interval,
    SearchStrategy,
    basis_matrix,
    fekete_search,
    transfinite_diameter_estimate,
    vdm_logdet,
    vdm_value,
)
from polyalab.linalg import logdet
from polyalab.multiindex import degree_counts
from polyalab.vandermonde import vdm_logabs_batch


def test_basis_matrix_orientation():
    pts = np.array([[2.0], [3.0]], dtype=complex)
    mat = basis_matrix(pts, 3)
    # rows run over the monomials 1, z, z^2; columns over the points
    assert mat.shape == (3, 2)
    assert np.allclose(mat[:, 0], [1.0, 2.0, 4.0])
    assert np.allclose(mat[:, 1], [1.0, 3.0, 9.0])


def test_one_dimensional_routes_agree():
    rng = np.random.default_rng(2)
    pts = (rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))).astype(complex)
    fast = vdm_logdet(pts)
    slow = logdet(basis_matrix(pts, 6).T)
    assert fast.log_abs == pytest.approx(slow.log_abs, abs=1e-9)
    assert fast.value() == pytest.approx(slow.value(), rel=1e-8)


def test_vdm_value_consistent_with_logdet():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, -1.0]], dtype=complex)
    val = vdm_value(pts)
    ld = vdm_logdet(pts)
    assert abs(val) == pytest.approx(math.exp(ld.log_abs), rel=1e-12)


def test_vdm_permutation_changes_only_sign():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(5, 2)).astype(complex)
    base = vdm_logdet(pts)
    perm = vdm_logdet(pts[[1, 0, 2, 3, 4]])
    assert perm.log_abs == pytest.approx(base.log_abs, abs=1e-10)
    assert perm.value() == pytest.approx(-base.value(), rel=1e-9)


def test_batch_matches_loop_in_two_dims():
    rng = np.random.default_rng(4)
    cfgs = rng.normal(size=(7, 6, 2)).astype(complex)
    got = vdm_logabs_batch(cfgs)
    for r in range(7):
        assert got[r] == pytest.approx(vdm_logdet(cfgs[r]).log_abs, abs=1e-9)


def test_batch_single_point_is_log_one():
    cfgs = np.zeros((3, 1, 1), dtype=complex)
    assert np.allclose(vdm_logabs_batch(cfgs), 0.0)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_circle_optimum_is_attained(n):
    found = fekete_search(Circle(0.0, 1.0), n, SearchStrategy(restarts=2), seed=0)
    assert found.log_abs == pytest.approx(0.5 * n * math.log(n), abs=1e-8)


def test_interval_search_matches_classical_nodes():
    iv = Interval(-1.0, 1.0)
    for size in (3, 5, 7):
        ref = fekete_search(iv, size, SearchStrategy(mode="reference"), seed=0)
        found = fekete_search(iv, size, SearchStrategy(restarts=3), seed=0)
        assert found.log_abs == pytest.approx(ref.log_abs, abs=1e-9)
        assert found.log_abs >= ref.log_abs - 1e-12


def test_search_is_deterministic():
    iv = Interval(-2.0, 1.0)
    a = fekete_search(iv, 6, SearchStrategy(restarts=3), seed=42)
    b = fekete_search(iv, 6, SearchStrategy(restarts=3), seed=42)
    assert a.log_abs == b.log_abs
    assert np.array_equal(a.points, b.points)
    assert a.restart_logs == b.restart_logs


def test_restart_schedule_is_a_prefix():
    disk = Circle(0.3, 1.1)
    small = fekete_search(disk, 5, SearchStrategy(restarts=2), seed=7)
    large = fekete_search(disk, 5, SearchStrategy(restarts=5), seed=7)
    assert large.restart_logs[:2] == small.restart_logs
    assert large.log_abs >= small.log_abs - 1e-12


def test_seed_sequence_accepted_directly():
    iv = Interval(0.0, 1.0)
    ss = np.random.SeedSequence(99)
    a = fekete_search(iv, 4, SearchStrategy(restarts=2), seed=ss)
    b = fekete_search(iv, 4, SearchStrategy(restarts=2), seed=np.random.SeedSequence(99))
    assert a.log_abs == b.log_abs


def test_reference_mode_requires_reference_points():
    box = Box(((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        fekete_search(box, 3, SearchStrategy(mode="reference"), seed=0)


def test_single_point_configuration():
    found = fekete_search(Interval(-1.0, 1.0), 1, SearchStrategy(restarts=1), seed=0)
    assert found.log_abs == 0.0
    assert found.points.shape == (1, 1)


def test_finite_set_brute_force():
    fset = FiniteSet(((0.0,), (0.5,), (1.0,)))
    found = fekete_search(fset, 2, SearchStrategy(restarts=2, pool_size=16), seed=0)
    # best pair is {0, 1} at distance 1
    assert found.log_abs == pytest.approx(0.0, abs=1e-12)


def test_strategy_defaults_and_validation():
    s = SearchStrategy()
    assert s.pool_size == 512
    assert s.restarts == 8
    assert s.exchange_passes == 8
    assert s.improvement_tol == 1e-10
    assert s.mode == "search"
    with pytest.raises(ValueError):
        SearchStrategy(mode="anneal")
    with pytest.raises(ValueError):
        SearchStrategy(restarts=0)


def test_diameter_estimate_fields():
    est = transfinite_diameter_estimate(
        Circle(0.0, 1.0), 4, SearchStrategy(restarts=2), seed=0
    )
    counts = degree_counts(1, 4)
    assert est.s == 4
    assert est.basis_size == counts.at_most
    assert est.degree_sum == counts.degree_sum
    assert est.d_s == pytest.approx(math.exp(est.log_vdm / counts.degree_sum))
    assert est.d_s == pytest.approx(5.0 ** 0.25, abs=1e-6)
    with pytest.raises(ValueError):
        transfinite_diameter_estimate(Circle(0.0, 1.0), 0, SearchStrategy(), seed=0)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_diameter_scales_linearly(scale):
    ref = SearchStrategy(mode="reference")
    for s in (3, 6):
        base = transfinite_diameter_estimate(Interval(-1.0, 1.0), s, ref, seed=0)
        scaled = transfinite_diameter_estimate(Interval(-scale, scale), s, ref, seed=0)
        assert math.log(scaled.d_s) - math.log(base.d_s) == pytest.approx(
            math.log(scale), abs=1e-12
        )
    circ = transfinite_diameter_estimate(Circle(0.0, 1.0), 4, ref, seed=0)
    circ2 = transfinite_diameter_estimate(Circle(0.0, scale), 4, ref, seed=0)
    assert math.log(circ2.d_s) - math.log(circ.d_s) == pytest.approx(
        math.log(scale), abs=1e-12
    )


def test_search_trace_is_monotone():
    found = fekete_search(Interval(-1.0, 1.0), 8, SearchStrategy(restarts=2), seed=5)
    diffs = np.diff(np.array(found.trace))
    assert np.all(diffs >= -1e-12)
