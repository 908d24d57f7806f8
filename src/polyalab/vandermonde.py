"""Generalized Vandermonde determinants and extremal configuration search.

The determinant in play is det(e_a(z_b)) where e_a runs through the first i
monomials in graded lexicographic order and z_1..z_i range over a compact
set.  Its sup over all i-point configurations, normalized by the degree sum
of the basis, yields the diameter-like quantities this package estimates.
Search combines a greedy pivoted start, cyclic single-point exchange driven
by determinant ratios, and multiscale local refinement, with independent
restarts merged deterministically.  Every candidate pool is fresh samples
followed by the set's covering grid and reference configuration, which a
search builds once for all its restarts and passes.

A search advances all its restarts in lockstep.  Each restart keeps its
own generator, pools, refinement draws and early stop.  In one variable
every restart's greedy start is one score array, and the restarts still
live share one exchange pass over stacked tables: every position
nominates a candidate for every restart with one set of array
operations, and every nominated trial is re-evaluated exactly in one
batch.  In several variables each restart sweeps alone, because its
pass holds its pool's basis rows, and holding every restart's at once
would multiply that memory by the number of restarts.

Each exchange pass builds its fixed tables once: in one variable the table
log|pool - current| of every restart, its row sums and every point's own
sum over the others; in several the basis rows of the pool and of the
current configuration and the inverse of the latter.  The one-variable
table is position-major: the column of one position, over every restart
and pool point, is one contiguous array, and the row sums add whole
columns in the order numpy adds a contiguous row (see _row_sums).  An
accepted swap refreshes only what it changed, and is accepted only after
an exact re-evaluation of log|V|; in several variables the trial and the
refreshed inverse come from the cached basis rows, so each pass evaluates
monomials twice, once for the pool and once for the configuration.  Each
refinement level draws every restart's steps around every point in one
call per restart and projects them all as one batch.  All of this gives,
bit for bit, the scores, points, traces and generator streams of each
restart run alone with per-position and per-point recomputation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import CompactSet
from .linalg import batch_logabs, batch_pairwise_logabs
from .multiindex import (
    _POINT_BLOCK, degree_counts, enumeration_for, is_integer_at_least, monomial_matrix
)

IMPROVEMENT_TOL = 1e-10  # least log|V| gain that counts as an improvement
REFINE_CANDIDATES = 12  # refinement steps drawn around each point at each level


def basis_matrix(points: np.ndarray, count: int) -> np.ndarray:
    """Matrix e_a(z_b), rows a = 1..count over basis, columns b over points."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise ValueError("points must have shape (npoints, dim)")
    exps = enumeration_for(pts.shape[1]).exponents(count)
    return monomial_matrix(pts, exps)


def vdm_logdet(points: np.ndarray) -> float:
    """log|V| at one configuration, -inf if singular; basis size equals point count."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise ValueError("points must have shape (npoints, dim)")
    return float(vdm_logabs_batch(pts[None])[0])


def vdm_logabs_batch(configs: np.ndarray) -> np.ndarray:
    """log|V| over a stack of configurations, shape (batch, i, dim)."""
    cfg = np.asarray(configs, dtype=complex)
    if cfg.ndim != 3:
        raise ValueError("configs must have shape (batch, npoints, dim)")
    batch, size, _ = cfg.shape
    if size <= 1:
        return np.zeros(batch)
    # at most one monomial block of points at a time: each value depends
    # only on its own configuration, so blocking keeps its bits
    step = max(1, _POINT_BLOCK // size)
    if batch <= step:
        return _logabs_block(cfg)
    out = np.empty(batch)
    for start in range(0, batch, step):
        out[start : start + step] = _logabs_block(cfg[start : start + step])
    return out


def _logabs_block(cfg: np.ndarray) -> np.ndarray:
    batch, size, dim = cfg.shape
    if dim == 1:
        # one variable: the basis is 1, z, .., z^(i-1), so the product
        # formula applies at every truncation length
        return batch_pairwise_logabs(cfg[:, :, 0])
    # one basis matrix over every point of every configuration; entry
    # [b, p, a] is monomial a at point p of configuration b
    mats = basis_matrix(cfg.reshape(batch * size, dim), size).reshape(size, batch, size)
    return batch_logabs(mats.transpose(1, 2, 0))


@dataclass(frozen=True)
class SearchStrategy:
    """Settings of the extremal search; defaults are sized for degree <= 30 work.

    restarts = 0 skips searching and evaluates the set's reference
    configuration alone, which is the only honest option at basis sizes
    too large to optimize.  The least gain that counts, IMPROVEMENT_TOL,
    and the steps per point of a refinement level, REFINE_CANDIDATES, are
    module constants.
    """

    pool_size: int = 512
    exchange_passes: int = 8
    refine_levels: int = 5
    restarts: int = 8

    def __post_init__(self):
        for name, minimum in (("pool_size", 1), ("restarts", 0),
                              ("exchange_passes", 0), ("refine_levels", 0)):
            value = getattr(self, name)
            if not is_integer_at_least(value, minimum):
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class FeketeResult:
    """Best configuration found, with the winning run's improvement trace."""

    points: np.ndarray
    log_abs: float
    size: int
    trace: tuple[float, ...]
    restart_logs: tuple[float, ...]


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def fekete_search(
    kset: CompactSet,
    size: int,
    strategy: SearchStrategy | None = None,
    seed=0,
) -> FeketeResult:
    """Maximize log|V| over size-point configurations of the set."""
    if size < 1:
        raise ValueError("configuration size must be positive")
    strategy = strategy or SearchStrategy()

    ref = kset.reference_points(size)
    if ref is None and strategy.restarts == 0:
        raise ValueError("the set has no reference configuration to evaluate in place of a search")

    if size == 1:
        if ref is not None:
            pt = ref[:1]
        else:
            pt = kset.sample(np.random.default_rng(as_seed_sequence(seed)), 1)
        return FeketeResult(np.asarray(pt, dtype=complex), 0.0, 1, (0.0,), (0.0,))

    runs = []
    if strategy.restarts:
        fixed = _fixed_candidates(kset, size, strategy.pool_size, ref)
        children = as_seed_sequence(seed).spawn(strategy.restarts)
        runs = _run_restarts(kset, size, strategy, children, fixed)

    candidates: list[tuple[float, int, np.ndarray, tuple[float, ...]]] = []
    if ref is not None:
        ref_pts = np.asarray(ref, dtype=complex)[:size]
        ref_log = vdm_logdet(ref_pts)
        candidates.append((ref_log, -1, ref_pts, (ref_log,)))
    for idx, (log_abs, pts, trace) in enumerate(runs):
        candidates.append((log_abs, idx, pts, trace))
    # deterministic merge: best log_abs, ties to the earliest candidate
    best = max(candidates, key=lambda c: (c[0], -c[1]))
    return FeketeResult(
        points=best[2],
        log_abs=best[0],
        size=size,
        trace=best[3],
        restart_logs=tuple(r[0] for r in runs),
    )


def _run_restarts(
    kset: CompactSet,
    size: int,
    strategy: SearchStrategy,
    children: list[np.random.SeedSequence],
    fixed: np.ndarray,
) -> list[tuple[float, np.ndarray, tuple[float, ...]]]:
    """Every restart of a search, advanced in lockstep: (log|V|, points, trace) each.

    Restart r draws its pools and refinement steps from its own generator,
    in the order a restart run alone would draw them, and stops its
    exchange passes when one gains less than IMPROVEMENT_TOL; the restarts
    still live share each pass, and every restart shares each refinement
    level.
    """
    rngs = [np.random.default_rng(child) for child in children]
    pools = np.stack([_candidate_pool(kset, strategy.pool_size, rng, fixed) for rng in rngs])
    current = _greedy_start(pools, size)
    log_abs = vdm_logabs_batch(current)
    traces = [[float(v)] for v in log_abs]

    live = np.arange(len(rngs))
    for _ in range(strategy.exchange_passes):
        if not live.size:
            break
        for r in live:
            pools[r] = _candidate_pool(kset, strategy.pool_size, rngs[r], fixed)
        before = log_abs[live]
        current[live], log_abs[live] = _exchange_pass(current[live], before, pools[live])
        for r in live:
            traces[r].append(float(log_abs[r]))
        # "not less than", not ">=": a pass from -inf to -inf gains nan and goes on
        with np.errstate(invalid="ignore"):
            live = live[~(log_abs[live] - before < IMPROVEMENT_TOL)]

    spreads = np.array([_spread(pool) for pool in pools])
    for level in range(strategy.refine_levels):
        candidates = _refinement_candidates(kset, current, spreads / 8.0 * 0.3**level, rngs)
        current, log_abs = _exchange_pass(current, log_abs, candidates)
        for trace, value in zip(traces, log_abs):
            trace.append(float(value))

    return [(trace[-1], pts, tuple(trace)) for pts, trace in zip(current, traces)]


def _refinement_candidates(
    kset: CompactSet,
    current: np.ndarray,
    h: np.ndarray,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """REFINE_CANDIDATES complex Gaussian steps of scale h[r] around each point of restart r.

    current has shape (restarts, size, dim).  Restart r's draw reads rngs[r]
    point by point, real parts before imaginary ones; every restart's
    candidates are projected as one batch, and each restart's are
    point-major, shape (restarts, size * REFINE_CANDIDATES, dim).
    """
    nrun, size, dim = current.shape
    steps = np.empty((nrun, size, REFINE_CANDIDATES, dim), dtype=complex)
    for r, rng in enumerate(rngs):
        normal = rng.standard_normal((size, 2, REFINE_CANDIDATES, dim))
        steps[r] = h[r] * (normal[:, 0] + 1j * normal[:, 1])
    moved = (current[:, :, None, :] + steps).reshape(-1, dim)
    return kset.project(moved).reshape(nrun, -1, dim)


def _fixed_candidates(
    kset: CompactSet, size: int, pool_size: int, ref: np.ndarray | None
) -> np.ndarray:
    """The covering grid, then the reference configuration: every pool's undrawn tail."""
    per_axis = max(4, int(round(pool_size ** (1.0 / kset.dim) / 4.0)))
    parts = [kset.grid(per_axis)]
    if ref is not None:
        parts.append(np.asarray(ref, dtype=complex)[:size])
    return np.concatenate(parts, axis=0)


def _candidate_pool(
    kset: CompactSet, pool_size: int, rng: np.random.Generator, fixed: np.ndarray
) -> np.ndarray:
    """pool_size fresh samples of the set, followed by the fixed candidates."""
    return np.concatenate([kset.sample(rng, pool_size), fixed], axis=0)


def _greedy_start(pools: np.ndarray, size: int) -> np.ndarray:
    """Pivoted greedy starting configurations, one per restart's pool.

    pools has shape (restarts, npool, dim), the result (restarts, size,
    dim).  In one variable every restart's scores are one array; in
    several each restart eliminates over its own pool's basis alone.
    """
    nrun, npts, dim = pools.shape
    if npts < size:
        raise ValueError(f"pool of {npts} points cannot seed {size}-point search")
    if dim > 1:
        return np.stack([_basis_start(pool, size) for pool in pools])
    # each point's score is its log-distance sum to the points chosen so
    # far; the next point is the first that maximizes it
    z = pools[:, :, 0]
    runs = np.arange(nrun)
    chosen = [np.abs(z).argmax(axis=1)]
    score = np.zeros(z.shape)
    with np.errstate(divide="ignore"):
        for _ in range(size - 1):
            score += np.log(np.abs(z - z[runs, chosen[-1], None]))
            chosen.append(score.argmax(axis=1))
    return pools[runs[:, None], np.stack(chosen, axis=1)]


def _basis_start(pool: np.ndarray, size: int) -> np.ndarray:
    """_greedy_start in several variables, for one pool."""
    npts = pool.shape[0]
    # column-by-column elimination with row pivoting; the pivot rows are
    # exactly a discrete analogue of a nested maximal-determinant choice
    a = basis_matrix(pool, size).T.astype(complex)
    chosen: list[int] = []
    free = np.ones(npts, dtype=bool)
    for k in range(size):
        col = np.abs(a[:, k])
        col[~free] = -1.0
        p = int(np.argmax(col))
        if col[p] <= 0.0:
            p = int(np.argmax(free))
        chosen.append(p)
        free[p] = False
        piv = a[p, k]
        if piv != 0:
            # neither the columns up to k nor the chosen rows are read again
            a[:, k + 1 :] -= np.outer(a[:, k] / piv, a[p, k + 1 :])
    return pool[chosen]


def _exchange_pass(
    current: np.ndarray,
    log_abs: np.ndarray,
    pools: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One cyclic sweep of best single-point replacements, for a stack of restarts.

    current has shape (restarts, size, dim), log_abs (restarts,) and pools
    (restarts, npool, dim): restart r draws its candidates from pools[r].
    Each restart's result is bit for bit its own per-position sweep.  In
    one variable the restarts sweep together; in several each sweeps alone
    (see the module docstring).
    """
    if current.shape[2] == 1:
        return _line_pass(current, log_abs, pools)
    swept = [_basis_pass(c, float(v), pool) for c, v, pool in zip(current, log_abs, pools)]
    return np.array([c for c, _ in swept]), np.array([v for _, v in swept])


def _line_pass(
    current: np.ndarray,
    log_abs: np.ndarray,
    pools: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """_exchange_pass in one variable, every restart at each position at once.

    Each score comes from the same entries, summed in the same order, as
    one restart's tables rebuilt at every position would give.
    """
    current, log_abs = current.copy(), log_abs.copy()
    runs = np.arange(len(current))
    # coincident points give log 0 = -inf, and a candidate equal to the
    # point under replacement gives -inf - (-inf) = nan
    with np.errstate(divide="ignore", invalid="ignore"):
        table, rowsum, own = _line_tables(pools, current)
        for j in range(current.shape[1]):
            gain, k = _best_replacement_1d(rowsum, table[j], own[:, j])
            nominated = runs[~(gain <= IMPROVEMENT_TOL)]
            if not nominated.size:
                continue
            trials = current[nominated]
            trials[:, j] = pools[nominated, k[nominated]]
            trial_log = vdm_logabs_batch(trials)
            # the table estimate nominated the move; accept it only on an
            # exact re-evaluation so the trace stays monotone
            accepted = trial_log > log_abs[nominated] + IMPROVEMENT_TOL
            won = nominated[accepted]
            if not won.size:
                continue
            current[won, j] = pools[won, k[won]]
            log_abs[won] = trial_log[accepted]
            table[j, won] = np.log(np.abs(pools[won, :, 0] - current[won, j]))
            # the rows of the other restarts are unchanged and sum to the same bits
            _row_sums(table, out=rowsum)
            own[won] = _own_sums(current[won, :, 0])
    return current, log_abs


def _line_tables(
    pools: np.ndarray, current: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """table[c, r, p] = log|pools[r, p] - z_rc|, its sums over c, and _own_sums(z_r)."""
    nrun, size = current.shape[:2]
    table = np.empty((size, nrun, pools.shape[1]))
    # restart by restart, so that only one restart's differences are held
    for r in range(nrun):
        np.log(np.abs(pools[r, None, :, 0] - current[r, :, :1]), out=table[:, r])
    return table, _row_sums(table), _own_sums(current[:, :, 0])


def _row_sums(table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """table summed over its first axis, each sum with the bits np.sum gives its row.

    A row is table[:, r, p], one pool point's terms over the positions.
    numpy adds a contiguous row pairwise (pairwise_sum in its loops): below
    8 terms left to right from 0.0; up to 128 terms in 8 interleaved
    accumulators, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7)), then the tail left to right, then added to 0.0; above that as
    the sum of two halves split at a multiple of 8.  Each of those
    additions here takes whole columns: one array operation, where a
    reduction over short rows pays a call per row.
    """
    n = len(table)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_row_sums(table[:half]), _row_sums(table[half:]), out=out)
    if n < 8:
        out = np.add(table[0], 0.0, out=out)
        for c in range(1, n):
            out += table[c]
        return out
    whole = n - n % 8
    acc = table[:8]
    if whole > 8:
        acc = acc.copy()
        for i in range(8, whole, 8):
            acc += table[i:i + 8]
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    out = np.add(quads[0], quads[1], out=out)
    for c in range(whole, n):
        out += table[c]
    # numpy's 0.0 start: it turns a sum of -0.0 terms into +0.0
    out += 0.0
    return out


@functools.cache
def _off_diagonal(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(~np.eye(m, dtype=bool)).nonzero(), built once per size; the arrays are read-only."""
    rows, cols = (~np.eye(m, dtype=bool)).nonzero()
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _own_sums(z: np.ndarray) -> np.ndarray:
    """sum over k != j of log|z_rj - z_rk|, for every restart r and position j."""
    nrun, m = z.shape
    rows, cols = _off_diagonal(m)
    # drop the diagonal rather than zero it: each row then sums the same
    # m - 1 terms in the same order as a sum over the row with z_j deleted,
    # which numpy adds pairwise, not left to right, from 8 terms on; take
    # keeps the terms of a row contiguous, where fancy indexing would not
    off = np.take(z, rows, axis=1) - np.take(z, cols, axis=1)
    return np.log(np.abs(off)).reshape(nrun, m, m - 1).sum(axis=2)


def _best_replacement_1d(
    rowsum: np.ndarray, column: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best log-gain and pool index of position j, for every restart.

    column[r, p] = log|pool_rp - z_rj|, rowsum[r, p] the sum of that pool
    point's row over every position, and own[r] the sum over k != j of
    log|z_rj - z_rk|.  The gain is -inf where no score is finite.
    """
    # the nan of a candidate equal to z_j becomes -inf, and -inf stays -inf,
    # so a position with no finite score nominates nothing
    scores = np.fmax(rowsum - column, -np.inf)
    k = scores.argmax(axis=1)
    best = scores[np.arange(len(k)), k]
    return np.where(best == -np.inf, -np.inf, best - own), k


def _basis_pass(
    current: np.ndarray, log_abs: float, pool: np.ndarray
) -> tuple[np.ndarray, float]:
    """_exchange_pass in several variables, for one restart.

    A trial is the configuration's basis rows with row j replaced by a pool
    row, and an accepted swap inverts the trial's rows: a point's monomials
    have the same bits whichever points share the call, so no basis row is
    evaluated twice.
    """
    size = current.shape[0]
    current = current.copy()
    # points as rows: row r holds every basis monomial at point r
    pool_basis = basis_matrix(pool, size).T
    rows = basis_matrix(current, size).T
    binv = _inverse(rows)
    for j in range(size):
        gain, k = _best_replacement(pool_basis, binv, j)
        if gain <= IMPROVEMENT_TOL or k is None:
            continue
        trial_rows = rows.copy()
        trial_rows[j] = pool_basis[k]
        trial_log = float(batch_logabs(trial_rows[None])[0])
        if trial_log > log_abs + IMPROVEMENT_TOL:
            current[j] = pool[k]
            log_abs = trial_log
            rows, binv = trial_rows, _inverse(trial_rows)
    return current, log_abs


def _inverse(rows: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.inv(rows)
    except np.linalg.LinAlgError:
        return None


def _best_replacement(
    pool_basis: np.ndarray, binv: np.ndarray | None, j: int
) -> tuple[float, int | None]:
    """Best log-gain and pool index for position j, by determinant ratios.

    pool_basis[r] @ binv[:, j] is det(B with row j replaced by pool point
    r's basis row) / det(B), B the current configuration's basis matrix.
    """
    if binv is None:
        return 0.0, None
    ratios = np.abs(pool_basis @ binv[:, j])
    ratios[~np.isfinite(ratios)] = 0.0
    k = int(np.argmax(ratios))
    if ratios[k] <= 0.0:
        return 0.0, None
    return float(np.log(ratios[k])), k


def _spread(pool: np.ndarray) -> float:
    center = pool.mean(axis=0)
    radii = np.abs(pool - center[None, :]).max(axis=1)
    val = float(radii.max())
    return val if val > 0 else 1.0


@dataclass(frozen=True)
class DiameterEstimate:
    """d_s estimate: the degree-s Vandermondian sup root-normalized."""

    s: int
    basis_size: int
    degree_sum: int
    log_vdm: float
    d_s: float
    search: FeketeResult


def transfinite_diameter_estimate(
    kset: CompactSet,
    s: int,
    strategy: SearchStrategy | None = None,
    seed=0,
) -> DiameterEstimate:
    """Estimate d_s(K) = sup|V|^(1/l_s) over configurations of m_s points."""
    if s < 1:
        raise ValueError("the diameter sequence starts at degree 1")
    counts = degree_counts(kset.dim, s)
    result = fekete_search(kset, counts.at_most, strategy, seed)
    d_s = math.exp(result.log_abs / counts.degree_sum)
    return DiameterEstimate(
        s=s,
        basis_size=counts.at_most,
        degree_sum=counts.degree_sum,
        log_vdm=result.log_abs,
        d_s=d_s,
        search=result,
    )
