import dataclasses
import math

import numpy as np
import pytest

from polyalab import (
    Circle,
    Disk,
    FiniteSet,
    Interval,
    ProductSet,
    SearchStrategy,
    basis_matrix,
    fekete_search,
    transfinite_diameter_estimate,
    vdm_logdet,
)
from polyalab.linalg import logdet
from polyalab import vandermonde
from polyalab.multiindex import _POINT_BLOCK, degree_counts
from polyalab.vandermonde import (
    IMPROVEMENT_TOL,
    REFINE_CANDIDATES,
    _best_replacement_1d,
    _candidate_pool,
    _exchange_pass,
    _fixed_candidates,
    _greedy_start,
    _line_tables,
    _refinement_candidates,
    _row_sums,
    _run_restarts,
    vdm_logabs_batch,
)

from boxes import SampledFiniteSet, box, set_id
from brute_force_oracles import greedy_line_start, vdm_value
import per_point_oracles
from per_point_oracles import (
    best_replacement,
    candidate_pool,
    exchange_pass,
    greedy_start,
    refinement_candidates,
)


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
    assert fast == pytest.approx(slow, abs=1e-9)


def test_vdm_value_consistent_with_logdet():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, -1.0]], dtype=complex)
    val = vdm_value(pts)
    ld = vdm_logdet(pts)
    assert abs(val) == pytest.approx(math.exp(ld), rel=1e-12)


def test_vdm_permutation_changes_only_sign():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(5, 2)).astype(complex)
    # a swap of two points flips the sign of V, which log|V| does not see
    base = vdm_logdet(pts)
    perm = vdm_logdet(pts[[1, 0, 2, 3, 4]])
    assert perm == pytest.approx(base, abs=1e-10)


def test_batch_matches_loop_in_two_dims():
    rng = np.random.default_rng(4)
    cfgs = rng.normal(size=(7, 6, 2)).astype(complex)
    got = vdm_logabs_batch(cfgs)
    for r in range(7):
        assert got[r] == pytest.approx(vdm_logdet(cfgs[r]), abs=1e-9)


@pytest.mark.parametrize("dim, size", [(1, 9), (2, 10)])
def test_blocked_batch_equals_each_configuration(dim, size):
    # three full blocks of configurations and a partial fourth
    batch = 3 * (_POINT_BLOCK // size) + 5
    rng = np.random.default_rng(size)
    cfgs = rng.normal(size=(batch, size, dim)) + 1j * rng.normal(size=(batch, size, dim))
    want = np.array([vdm_logdet(c) for c in cfgs])
    assert vdm_logabs_batch(cfgs).tobytes() == want.tobytes()


def test_a_batch_within_one_block_evaluates_one_basis(monkeypatch):
    size = 10
    step = _POINT_BLOCK // size
    cfgs = _BOX.sample(np.random.default_rng(5), (step + 1) * size).reshape(step + 1, size, 2)
    widths = []
    build = vandermonde.basis_matrix

    def counting(points, count):
        widths.append(len(points))
        return build(points, count)

    monkeypatch.setattr(vandermonde, "basis_matrix", counting)
    vdm_logabs_batch(cfgs[:step])
    assert widths == [step * size]
    vdm_logabs_batch(cfgs)
    assert widths == [step * size, step * size, size]


def _complex_line(size, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, 1)) + 1j * rng.normal(size=(size, 1))


_BOX = box(((-1.0, 1.0), (-1.0, 1.0)))
_CIRCLE_X_INTERVAL = ProductSet((Circle(0.0, 1.0), Interval(-1.0, 1.0)))


@pytest.mark.parametrize(
    "points",
    [_complex_line(9, 1), _complex_line(17, 2), _complex_line(31, 3)]
    + [k.sample(np.random.default_rng(m), m)
       for k in (_BOX, _CIRCLE_X_INTERVAL) for m in (10, 15, 21)],
    ids=[f"line-{m}" for m in (9, 17, 31)]
    + [f"{name}-{m}" for name in ("box", "circle-x-interval") for m in (10, 15, 21)],
)
def test_vdm_logdet_matches_per_configuration_formulas(points):
    # a single configuration goes through the batched routes as a batch of
    # one; that must not change a bit of the one-configuration formulas
    got = vdm_logdet(points)
    assert type(got) is float
    assert got == per_point_oracles.vdm_logdet(points)


@pytest.mark.parametrize("kset, size", [(Interval(-1.0, 1.0), 9), (_BOX, 10)])
def test_coincident_points_give_minus_infinity(kset, size):
    pts = kset.sample(np.random.default_rng(8), size)
    pts[-1] = pts[0]
    assert vdm_logdet(pts) == per_point_oracles.vdm_logdet(pts) == -math.inf


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
        ref = fekete_search(iv, size, SearchStrategy(restarts=0), seed=0)
        assert ref.restart_logs == () and ref.trace == (ref.log_abs,)
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
    square = box(((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        fekete_search(square, 3, SearchStrategy(restarts=0), seed=0)


def test_single_point_configuration():
    found = fekete_search(Interval(-1.0, 1.0), 1, SearchStrategy(restarts=1), seed=0)
    assert found.log_abs == 0.0
    assert found.points.shape == (1, 1)


def test_finite_set_brute_force():
    fset = SampledFiniteSet(((0.0,), (0.5,), (1.0,)))
    found = fekete_search(fset, 2, SearchStrategy(restarts=2, pool_size=16), seed=0)
    # best pair is {0, 1} at distance 1
    assert found.log_abs == pytest.approx(0.0, abs=1e-12)


def test_strategy_defaults_and_validation():
    s = SearchStrategy()
    assert s.pool_size == 512
    assert s.restarts == 8
    assert s.exchange_passes == 8
    assert [f.name for f in dataclasses.fields(s)] == [
        "pool_size", "exchange_passes", "refine_levels", "restarts"
    ]
    assert (IMPROVEMENT_TOL, REFINE_CANDIDATES) == (1e-10, 12)
    with pytest.raises(ValueError):
        SearchStrategy(restarts=-1)


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
    ref = SearchStrategy(restarts=0)
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


EXCHANGE_SETS = [
    Interval(-1.0, 1.0),
    Circle(0.5 + 0.5j, 2.0),
    Disk(0.0, 1.5),
    # atoms drawn into the pool repeat, and may equal a current point
    SampledFiniteSet(tuple((v,) for v in np.linspace(-1.0, 2.0, 9))),
    box(((-1.0, 1.0), (-1.0, 1.0))),
    ProductSet((Circle(0.0, 1.0), Interval(-1.0, 1.0))),
]


ND_EXCHANGE_SETS = [k for k in EXCHANGE_SETS if k.dim > 1]

# 15 and 21 are the search-2d sizes, where the inverses are ill-conditioned
EXCHANGE_CASES = [(k, m) for k in EXCHANGE_SETS for m in (4, 7)] + [
    (k, m) for k in ND_EXCHANGE_SETS for m in (15, 21)
]


def _random_starts(kset, size, seed, restarts):
    """(current, log|V|, pool) of each restart: distinct pool points in random order."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(restarts):
        pool = candidate_pool(kset, size, 64, rng, kset.reference_points(size))
        # a random start of distinct points leaves most positions to swap, so
        # the table refresh after an accepted swap decides the later scores
        distinct = np.unique(pool, axis=0)
        current = distinct[rng.permutation(len(distinct))[:size]]
        starts.append((current, vdm_logdet(current), pool))
    return starts


def _stacked_pass(starts):
    current, log_abs, pools = (np.array(part) for part in zip(*starts))
    return _exchange_pass(current, log_abs, pools)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "kset, size", EXCHANGE_CASES, ids=[f"{set_id(k)}-{m}" for k, m in EXCHANGE_CASES]
)
def test_exchange_pass_matches_per_position_tables(kset, size, seed):
    # three restarts in one stacked pass: each must be its own sweep
    starts = _random_starts(kset, size, seed, 3)
    got_points, got_logs = _stacked_pass(starts)
    for r, ((current, log_abs, pool), points, log) in enumerate(zip(starts, got_points, got_logs)):
        want = exchange_pass(current, log_abs, pool)
        assert want[2] or r > 0
        assert points.tobytes() == want[0].tobytes()
        assert log == want[1]


@pytest.mark.parametrize("size", [4, 7, 15])
@pytest.mark.parametrize("kset", ND_EXCHANGE_SETS, ids=set_id)
def test_singular_restart_leaves_the_others_swapping(kset, size):
    starts = _random_starts(kset, size, 3, 3)
    # a repeated point makes restart 1's basis singular: its inverse fails,
    # and it must nominate nothing without stopping the other restarts
    current, _, pool = starts[1]
    current = current.copy()
    current[-1] = current[0]
    starts[1] = (current, vdm_logdet(current), pool)
    assert starts[1][1] == -math.inf
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(basis_matrix(current, size).T)
    got_points, got_logs = _stacked_pass(starts)
    for r, ((current, log_abs, pool), points, log) in enumerate(zip(starts, got_points, got_logs)):
        want = exchange_pass(current, log_abs, pool)
        # the singular restart nominates nothing; the others still swap
        assert want[2] == (r != 1)
        assert points.tobytes() == want[0].tobytes()
        assert log == want[1]


# a finite set's random start often has no better atom for position 0
REJECT_CASES = [(k, m) for k, m in EXCHANGE_CASES if not isinstance(k, FiniteSet)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "kset, size", REJECT_CASES, ids=[f"{set_id(k)}-{m}" for k, m in REJECT_CASES]
)
def test_rejected_swap_leaves_the_cached_rows_unchanged(kset, size, seed):
    starts = _random_starts(kset, size, seed, 2)
    current, log_abs, pool = starts[0]
    # a log|V| just above what position 0's nomination reaches: the exact
    # re-evaluation turns it down, restart 0 keeps that log|V|, and later
    # positions score against tables that must still hold the current
    # point 0; restart 1, in the same stack, accepts its swaps
    gain, _ = best_replacement(current, 0, pool)
    assert gain > IMPROVEMENT_TOL
    starts[0] = (current, log_abs + gain + 1e-6, pool)
    got_points, got_logs = _stacked_pass(starts)
    for r, ((current, log_abs, pool), points, log) in enumerate(zip(starts, got_points, got_logs)):
        want = exchange_pass(current, log_abs, pool)
        if r == 0:
            assert (want[0][0] == current[0]).all()
        else:
            assert want[2]
        assert points.tobytes() == want[0].tobytes()
        assert log == want[1]


def test_exchange_pass_evaluates_the_pool_basis_once(monkeypatch):
    square = box(((-1.0, 1.0), (-1.0, 1.0)))
    rng = np.random.default_rng(3)
    pools = square.sample(rng, 128).reshape(2, 64, 2)
    current = square.sample(rng, 12).reshape(2, 6, 2)
    log_abs = vdm_logabs_batch(current)
    widths = []
    build = vandermonde.basis_matrix

    def counting(points, count):
        widths.append(len(points))
        return build(points, count)

    monkeypatch.setattr(vandermonde, "basis_matrix", counting)
    _, after = _exchange_pass(current, log_abs, pools)
    assert (after > log_abs).all()
    # each restart's pool, then its configuration; trials and refreshed
    # inverses reuse these rows: no point is evaluated twice
    assert widths == [64, 6, 64, 6]


@pytest.mark.parametrize("size", [4, 7, 15])
@pytest.mark.parametrize("kset", ND_EXCHANGE_SETS, ids=set_id)
def test_greedy_start_matches_free_row_elimination(kset, size):
    pool = candidate_pool(kset, size, 64, np.random.default_rng(size), kset.reference_points(size))
    got = _greedy_start(pool[None], size)[0]
    want = greedy_start(pool, size)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("restarts", range(1, 9))
def test_stacked_line_start_matches_one_pool_at_a_time(restarts):
    iv = Interval(-1.0, 1.0)
    rng = np.random.default_rng(restarts)
    size = 9
    pools = []
    for _ in range(restarts):
        pool = candidate_pool(iv, size, 40, rng, iv.reference_points(size))
        # coincident points: a point drawn twice scores -inf against itself,
        # and the grid and the reference share both endpoints
        pool[5] = pool[3]
        pools.append(pool)
    got = _greedy_start(np.array(pools), size)
    assert got.shape == (restarts, size, 1)
    for points, pool in zip(got, pools):
        assert points.tobytes() == greedy_line_start(pool, size).tobytes()


def test_line_start_picks_the_first_of_tied_points():
    # 0.5 is drawn twice: once chosen, both copies score -inf, and the
    # remaining ties go to the first index in every restart
    pool = np.array([[1.0], [0.5], [0.5], [-1.0], [0.0], [0.0]], dtype=complex)
    pools = np.stack([pool, pool[::-1]])
    got = _greedy_start(pools, 4)
    for points, one in zip(got, pools):
        assert points.tobytes() == greedy_line_start(one, 4).tobytes()
    assert len(np.unique(got[0])) == 4


ROW_SUM_LENGTHS = list(range(1, 41)) + [127, 128, 129, 300]


@pytest.mark.parametrize("n", ROW_SUM_LENGTHS)
def test_row_sums_keep_the_bits_of_numpy_row_sums(n):
    # magnitudes from 1e-8 to 1e8 round differently in any other order
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, 17, n)) * 10.0 ** rng.integers(-8, 9, (3, 17, n))
    rows[0, 2, n // 2] = -np.inf
    rows[1, :4] = -np.inf
    rows[2, 5, 0] = np.nan
    rows[2, 6] = -0.0
    want = rows.sum(axis=-1)
    columns = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    got = _row_sums(columns)
    assert np.array_equal(got, want, equal_nan=True)
    assert (np.signbit(got) == np.signbit(want)).all()
    out = np.full(want.shape, 7.0)
    assert _row_sums(columns, out=out) is out
    assert np.array_equal(out, want, equal_nan=True)


def test_row_sums_follow_the_accumulator_order():
    big = 2.0**53  # big + 1 rounds back to big; big - 1 is exact
    # ((big + 1) + (1 - big)) + 0 = big - (big - 1) = 1, where left to
    # right gives ((big + 1) + 1) - big = 0
    terms = np.array([big, 1.0, 1.0, -big, 0.0, 0.0, 0.0, 0.0])
    assert terms.sum() == 1.0
    assert _row_sums(terms[:, None])[0] == 1.0
    # 16 terms: accumulator j adds terms j and j + 8, so r0 = big + 1 = big
    # and r1 = 1 - big, and again the sum is 1 where left to right gives 0
    terms = np.zeros(16)
    terms[[0, 8, 1, 9]] = [big, 1.0, 1.0, -big]
    assert terms.sum() == 1.0
    assert _row_sums(terms[:, None])[0] == 1.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("size", [9, 17, 31])
def test_line_scores_match_per_position_tables(size, seed):
    # numpy sums 8 or more terms pairwise, so at these sizes an own sum
    # that zeroed the diagonal instead of dropping it would differ in bits
    iv = Interval(-1.0, 1.0)
    rng = np.random.default_rng(seed)
    pools = [candidate_pool(iv, size, 64, rng, iv.reference_points(size)) for _ in range(2)]
    # drawn from the pool, so candidates coincide with current points
    current = [pool[rng.permutation(len(pool))[:size]] for pool in pools]
    with np.errstate(divide="ignore", invalid="ignore"):
        table, rowsum, own = _line_tables(np.array(pools), np.array(current))
        stacked = [_best_replacement_1d(rowsum, table[j], own[:, j]) for j in range(size)]
    for r, (pool, points) in enumerate(zip(pools, current)):
        # -inf: no finite score, which the per-position form returns as (0.0, None)
        got = [(0.0, None) if g[r] == -np.inf else (float(g[r]), int(k[r])) for g, k in stacked]
        assert got == [best_replacement(points, j, pool) for j in range(size)]


def test_coincident_points_nominate_no_swap(monkeypatch):
    # every candidate equals a current point, and z_1 = z_2: no swap can
    # raise log|V| above -inf, so none may be sent to the exact evaluation
    pool = np.array([[0.0], [1.0]], dtype=complex)
    current = np.array([[0.0], [1.0], [1.0]], dtype=complex)
    calls = []
    evaluate = vandermonde.vdm_logabs_batch

    def counting(configs):
        calls.append(configs)
        return evaluate(configs)

    monkeypatch.setattr(vandermonde, "vdm_logabs_batch", counting)
    got, log_abs = _exchange_pass(current[None], np.array([-np.inf]), pool[None])
    assert calls == []
    assert (got[0] == current).all()
    assert log_abs[0] == float("-inf")


@pytest.mark.parametrize("kset", EXCHANGE_SETS, ids=set_id)
def test_refinement_candidates_match_per_point_draws(kset):
    rng = np.random.default_rng(5)
    current = kset.sample(rng, 12).reshape(2, 6, kset.dim)
    h = np.array([0.1, 0.03])
    mine = [np.random.default_rng(6), np.random.default_rng(7)]
    theirs = [np.random.default_rng(6), np.random.default_rng(7)]
    got = _refinement_candidates(kset, current, h, mine)
    assert got.shape == (2, 6 * REFINE_CANDIDATES, kset.dim)
    for r in range(2):
        want = refinement_candidates(kset, current[r], float(h[r]), theirs[r])
        assert got[r].tobytes() == want.tobytes()
        assert mine[r].bit_generator.state == theirs[r].bit_generator.state


@pytest.mark.parametrize("kset", EXCHANGE_SETS, ids=set_id)
def test_candidate_pools_match_whole_rebuilds(kset):
    size, pool_size = 5, 48
    ref = kset.reference_points(size)
    fixed = _fixed_candidates(kset, size, pool_size, ref)
    mine, theirs = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(3):
        got = _candidate_pool(kset, pool_size, mine, fixed)
        want = candidate_pool(kset, size, pool_size, theirs, ref)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


def test_search_builds_the_grid_once(monkeypatch):
    calls = []
    grid = Interval.grid

    def counting(self, per_axis):
        calls.append(per_axis)
        return grid(self, per_axis)

    monkeypatch.setattr(Interval, "grid", counting)
    strategy = SearchStrategy(restarts=3, pool_size=32, exchange_passes=4, refine_levels=1)
    fekete_search(Interval(-1.0, 1.0), 6, strategy, seed=0)
    assert calls == [8]  # one build, at per_axis = 32 / 4


def test_refinement_projects_one_batch_per_level(monkeypatch):
    batches = []
    project = Interval.project

    def counting(self, z):
        batches.append(np.shape(z))
        return project(self, z)

    monkeypatch.setattr(Interval, "project", counting)
    strategy = SearchStrategy(restarts=1, pool_size=32, exchange_passes=0, refine_levels=1)
    fekete_search(Interval(-1.0, 1.0), 6, strategy, seed=0)
    assert batches == [(72, 1)]


SEARCH_CASES = [(k, m) for k in EXCHANGE_SETS for m in (2, 4, 7)] + [
    (k, m) for k in ND_EXCHANGE_SETS for m in (15, 21)
]
SEARCH_STRATEGY = SearchStrategy(pool_size=64, restarts=4, refine_levels=2)


def _float_bytes(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "kset, size", SEARCH_CASES, ids=[f"{set_id(k)}-{m}" for k, m in SEARCH_CASES]
)
def test_search_matches_restarts_run_alone(kset, size, seed):
    got = fekete_search(kset, size, SEARCH_STRATEGY, seed)
    want = per_point_oracles.fekete_search(kset, size, SEARCH_STRATEGY, seed)
    assert got.points.tobytes() == want.points.tobytes()
    assert _float_bytes(got.log_abs) == _float_bytes(want.log_abs)
    assert _float_bytes(got.trace) == _float_bytes(want.trace)
    assert _float_bytes(got.restart_logs) == _float_bytes(want.restart_logs)


def test_restarts_stop_after_different_numbers_of_passes():
    # lockstep restarts must each keep their own early stop: in these cases
    # some restarts of one search run more exchange passes than others
    uneven = []
    for kset, size in SEARCH_CASES:
        ref = kset.reference_points(size)
        children = np.random.SeedSequence(1).spawn(SEARCH_STRATEGY.restarts)
        runs = [
            per_point_oracles.run_restart(kset, size, SEARCH_STRATEGY, child, ref)
            for child in children
        ]
        fixed = _fixed_candidates(kset, size, SEARCH_STRATEGY.pool_size, ref)
        children = np.random.SeedSequence(1).spawn(SEARCH_STRATEGY.restarts)
        got = _run_restarts(kset, size, SEARCH_STRATEGY, children, fixed)
        assert [_float_bytes(g[2]) for g in got] == [_float_bytes(w[2]) for w in runs]
        if len({len(w[2]) for w in runs}) > 1:
            uneven.append((type(kset).__name__, size))
    assert uneven


def test_search_that_stays_singular_runs_every_pass():
    # two atoms cannot hold three distinct points: every pass goes from -inf
    # to -inf, a gain of nan, which is not below the tolerance, so no
    # restart stops early
    strategy = SearchStrategy(pool_size=16, restarts=2, exchange_passes=3, refine_levels=2)
    two_atoms = SampledFiniteSet(((0.0,), (1.0,)))
    got = fekete_search(two_atoms, 3, strategy, seed=1)
    want = per_point_oracles.fekete_search(two_atoms, 3, strategy, 1)
    assert got.trace == want.trace == (-math.inf,) * 6
    assert got.restart_logs == want.restart_logs == (-math.inf,) * 2
    assert got.points.tobytes() == want.points.tobytes()
