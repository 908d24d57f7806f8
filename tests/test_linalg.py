import math
from fractions import Fraction

import numpy as np
import pytest

from polyalab.linalg import (
    LogDet,
    batch_logabs,
    batch_pairwise_logabs,
    exact_ldl,
    exact_logdet,
    exact_prefix_logdets,
    logdet,
    pairwise_difference_logdet,
    unit_lower_inverse,
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
        ld = logdet(m)
        assert ld.value() == pytest.approx(np.linalg.det(m), rel=1e-10)


def test_logdet_flags_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert logdet(m).is_zero
    assert logdet(m).value() == 0j


def test_logdet_rejects_nonsquare():
    with pytest.raises(ValueError):
        logdet(np.ones((2, 3)))


def test_logdet_of_and_scaled():
    ld = LogDet.of(-2.0)
    assert ld.log_abs == pytest.approx(math.log(2.0))
    assert ld.value() == pytest.approx(-2.0)
    doubled = ld.scaled(math.log(3.0))
    assert doubled.value() == pytest.approx(-6.0)
    assert LogDet.zero().scaled(5.0).is_zero


def test_pairwise_formula_matches_direct_product():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
    direct = 1.0 + 0j
    flat = pts[:, 0]
    for b in range(6):
        for c in range(b + 1, 6):
            direct *= flat[c] - flat[b]
    ld = pairwise_difference_logdet(pts)
    assert ld.value() == pytest.approx(direct, rel=1e-12)


def test_pairwise_formula_matches_monomial_determinant():
    # same invariant through the generic LU route
    rng = np.random.default_rng(3)
    flat = rng.normal(size=7) + 1j * rng.normal(size=7)
    mat = np.vander(flat, increasing=True).T
    lu = logdet(mat)
    pw = pairwise_difference_logdet(flat.reshape(-1, 1))
    assert pw.log_abs == pytest.approx(lu.log_abs, abs=1e-10)
    assert pw.value() == pytest.approx(lu.value(), rel=1e-9)


def test_pairwise_detects_collision_exactly():
    pts = np.array([[0.5], [0.5], [1.0]], dtype=complex)
    assert pairwise_difference_logdet(pts).is_zero


def test_batch_pairwise_matches_loop():
    rng = np.random.default_rng(23)
    batch = rng.normal(size=(10, 5)) + 1j * rng.normal(size=(10, 5))
    got = batch_pairwise_logabs(batch)
    for r in range(10):
        want = pairwise_difference_logdet(batch[r].reshape(-1, 1)).log_abs
        assert got[r] == pytest.approx(want, abs=1e-12)


def test_batch_logabs_matches_slogdet_loop():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(4, 3, 3))
    got = batch_logabs(mats)
    for r in range(4):
        assert got[r] == pytest.approx(logdet(mats[r]).log_abs, abs=1e-12)


def test_exact_logdet_against_cofactor_expansion():
    rows = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
        [Fraction(2, 5), Fraction(1, 7), Fraction(3)],
        [Fraction(-1, 2), Fraction(0), Fraction(5, 6)],
    ]
    want = fraction_det(rows)
    got = exact_logdet(rows)
    assert got.log_abs == pytest.approx(math.log(abs(want)), abs=1e-14)
    sign = 1.0 if want > 0 else -1.0
    assert got.phase == pytest.approx(sign)


def test_exact_logdet_hilbert_is_tiny_but_nonzero():
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    got = exact_logdet(rows)
    want = fraction_det(rows)
    assert not got.is_zero
    assert got.log_abs == pytest.approx(math.log(abs(want)), rel=1e-14)


def test_exact_logdet_singular_and_trivial():
    assert exact_logdet([[1, 2], [2, 4]]).is_zero
    one = exact_logdet([])
    assert one.log_abs == 0.0  # empty product convention
    assert exact_logdet([[Fraction(7)]]).value() == pytest.approx(7.0)


def test_exact_logdet_handles_row_swaps():
    rows = [[0, 1], [1, 0]]
    got = exact_logdet(rows)
    assert got.log_abs == pytest.approx(0.0)
    assert got.phase == pytest.approx(-1.0)


def assert_prefixes_match_per_size(rows):
    """Each prefix-pass entry equals exact_logdet of that leading submatrix, bit for bit."""
    got = exact_prefix_logdets(rows)
    assert len(got) == len(rows)
    for size, ld in enumerate(got, start=1):
        want = exact_logdet([row[:size] for row in rows[:size]])
        assert (ld.log_abs, ld.phase) == (want.log_abs, want.phase), size


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],  # zero first minor, then -1
        [[0, 1, 2], [0, 3, 4], [0, 5, 7]],  # zero first column
        [  # rank 1: every minor past the first vanishes
            [Fraction(1, 2), Fraction(1), Fraction(3, 4)],
            [Fraction(1), Fraction(2), Fraction(3, 2)],
            [Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 8)],
        ],
        # row denominators grow along the row, so prefix and full lcms differ
        [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)],
        [[Fraction(1), Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 5)]],
    ],
    ids=["swap", "zero-column", "rank-1", "hilbert-8", "mixed-denominators"],
)
def test_prefix_logdets_match_per_size(rows):
    assert_prefixes_match_per_size(rows)


def test_prefix_logdets_continue_past_a_zero_minor():
    first, second = exact_prefix_logdets([[0, 1], [1, 0]])
    assert first.is_zero
    assert (second.log_abs, second.phase) == (0.0, -1 + 0j)
    with pytest.raises(ValueError):
        exact_prefix_logdets([[1, 2]])


def test_exact_ldl_reconstructs_matrix():
    rows = [
        [Fraction(4), Fraction(2), Fraction(1)],
        [Fraction(2), Fraction(5), Fraction(3)],
        [Fraction(1), Fraction(3), Fraction(6)],
    ]
    low, diag = exact_ldl(rows)
    n = 3
    rebuilt = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rebuilt[i][j] = sum(low[i][k] * diag[k] * low[j][k] for k in range(n))
    assert rebuilt == [[Fraction(v) for v in r] for r in rows]
    for i in range(n):
        assert low[i][i] == 1


def test_exact_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        exact_ldl([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_unit_lower_inverse():
    low = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1, 2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(2, 7), Fraction(1)],
    ]
    inv = unit_lower_inverse(low)
    n = 3
    for i in range(n):
        for j in range(n):
            prod = sum(low[i][k] * inv[k][j] for k in range(n))
            assert prod == (1 if i == j else 0)
