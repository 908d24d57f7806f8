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

Each exchange pass builds its fixed tables once: in one variable the table
log|pool - current|, its row sums and every point's own sum over the
others, in several the basis rows of the pool and of the current
configuration and the inverse of the latter.  An accepted swap refreshes
only what it changed, and is accepted only after an exact re-evaluation
of log|V|; in several variables the trial and the refreshed inverse come
from the cached basis rows, so each pass evaluates monomials twice, once
for the pool and once for the configuration.  Each refinement
level draws the steps around every point in one call and projects them as
one batch.  Both give bit for bit the scores, points and generator stream
of per-position and per-point recomputation.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .domains import CompactSet
from .linalg import batch_logabs, batch_pairwise_logabs
from .multiindex import degree_counts, enumeration_for, is_integer_at_least, monomial_matrix


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
    batch, size, dim = cfg.shape
    if size <= 1:
        return np.zeros(batch)
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
    """Knobs of the extremal search; defaults are sized for degree <= 30 work.

    mode "search" runs the full pipeline; mode "reference" skips searching
    and evaluates the set's distinguished configuration, which is the only
    honest option at basis sizes too large to optimize.
    """

    pool_size: int = 512
    exchange_passes: int = 8
    refine_levels: int = 5
    refine_candidates: int = 12
    restarts: int = 8
    improvement_tol: float = 1e-10
    mode: str = "search"

    def __post_init__(self):
        if self.mode not in ("search", "reference"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, minimum in (("pool_size", 1), ("restarts", 1), ("refine_candidates", 1),
                              ("exchange_passes", 0), ("refine_levels", 0)):
            value = getattr(self, name)
            if not is_integer_at_least(value, minimum):
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        tol = self.improvement_tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
            raise ValueError(f"improvement_tol must be a finite real >= 0, got {tol!r}")


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
    if strategy.mode == "reference":
        if ref is None:
            raise ValueError("set has no reference configuration; use mode='search'")
        pts = np.asarray(ref, dtype=complex)[:size]
        log_abs = vdm_logdet(pts)
        return FeketeResult(pts, log_abs, size, (log_abs,), (log_abs,))

    if size == 1:
        if ref is not None:
            pt = ref[:1]
        else:
            pt = kset.sample(np.random.default_rng(as_seed_sequence(seed)), 1)
        return FeketeResult(np.asarray(pt, dtype=complex), 0.0, 1, (0.0,), (0.0,))

    fixed = _fixed_candidates(kset, size, strategy.pool_size, ref)
    children = as_seed_sequence(seed).spawn(strategy.restarts)
    runs = [_run_restart(kset, size, strategy, child, fixed) for child in children]

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


def _run_restart(
    kset: CompactSet,
    size: int,
    strategy: SearchStrategy,
    child: np.random.SeedSequence,
    fixed: np.ndarray,
) -> tuple[float, np.ndarray, tuple[float, ...]]:
    rng = np.random.default_rng(child)
    pool = _candidate_pool(kset, strategy.pool_size, rng, fixed)
    current = _greedy_start(pool, size)
    log_abs = vdm_logdet(current)
    trace = [log_abs]

    for _ in range(strategy.exchange_passes):
        pool = _candidate_pool(kset, strategy.pool_size, rng, fixed)
        before = log_abs
        current, log_abs, _ = _exchange_pass(
            current, log_abs, pool, strategy.improvement_tol
        )
        trace.append(log_abs)
        if log_abs - before < strategy.improvement_tol:
            break

    spread = _spread(pool)
    for level in range(strategy.refine_levels):
        h = spread / 8.0 * 0.3**level
        candidates = _refinement_candidates(
            kset, current, h, strategy.refine_candidates, rng
        )
        current, log_abs, _ = _exchange_pass(
            current, log_abs, candidates, strategy.improvement_tol
        )
        trace.append(log_abs)

    return log_abs, current, tuple(trace)


def _refinement_candidates(
    kset: CompactSet,
    current: np.ndarray,
    h: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """count complex Gaussian steps of scale h around each point, projected.

    The draw reads the generator point by point, real parts before
    imaginary ones, and the result is point-major, shape (size * count, dim).
    """
    size, dim = current.shape
    normal = rng.standard_normal((size, 2, count, dim))
    steps = h * (normal[:, 0] + 1j * normal[:, 1])
    return kset.project((current[:, None, :] + steps).reshape(size * count, dim))


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


def _greedy_start(pool: np.ndarray, size: int) -> np.ndarray:
    """Pivoted greedy selection of a well-spread starting configuration."""
    npts, dim = pool.shape
    if npts < size:
        raise ValueError(f"pool of {npts} points cannot seed {size}-point search")
    if dim == 1:
        z = pool[:, 0]
        chosen = [int(np.argmax(np.abs(z)))]
        score = np.full(npts, 0.0)
        with np.errstate(divide="ignore"):
            for _ in range(size - 1):
                score += np.log(np.abs(z - z[chosen[-1]]))
                chosen.append(int(np.argmax(score)))
        return pool[chosen]
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
            # the chosen rows change too, but none of them is read again
            a -= np.outer(a[:, k] / piv, a[p])
    return pool[chosen]


def _exchange_pass(
    current: np.ndarray,
    log_abs: float,
    pool: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, bool]:
    """One cyclic sweep of best single-point replacements from the pool.

    The tables are built before position 0 and refreshed only after an
    accepted swap: in one variable the table log|pool_r - z_c|, its row
    sums and each point's own sum over the others; in several the basis
    rows of the pool and of the configuration, and the inverse of the
    latter.  There a trial is the configuration's rows with row j replaced
    by a pool row, and an accepted swap inverts the trial's rows: a point's
    monomials have the same bits whichever points share the call, so no
    basis row is evaluated twice.  Each score comes from the same entries,
    summed in the same order, as tables rebuilt at every position would
    give, so the pass is bit for bit the per-position recomputation.
    """
    size, dim = current.shape
    improved = False
    current = current.copy()
    # one variable: coincident points give log 0 = -inf, and a candidate
    # equal to the point under replacement gives -inf - (-inf) = nan
    quiet = np.errstate(divide="ignore", invalid="ignore")
    with quiet if dim == 1 else contextlib.nullcontext():
        if dim == 1:
            table, rowsum, own = _line_tables(pool, current)
        else:
            # points as rows: row r holds every basis monomial at point r
            pool_basis = basis_matrix(pool, size).T
            rows = basis_matrix(current, size).T
            binv = _inverse(rows)
        for j in range(size):
            if dim == 1:
                gain, k = _best_replacement_1d(rowsum, table[:, j], own[j])
            else:
                gain, k = _best_replacement(pool_basis, binv, j)
            if gain <= tol or k is None:
                continue
            trial = current.copy()
            trial[j] = pool[k]
            if dim == 1:
                trial_log = vdm_logdet(trial)
            else:
                trial_rows = rows.copy()
                trial_rows[j] = pool_basis[k]
                trial_log = float(batch_logabs(trial_rows[None])[0])
            # the ratio estimate nominated the move; accept it only on an
            # exact re-evaluation so the trace stays monotone
            if trial_log > log_abs + tol:
                current, log_abs, improved = trial, trial_log, True
                if dim == 1:
                    table[:, j] = np.log(np.abs(pool[:, 0] - current[j, 0]))
                    rowsum, own = table.sum(axis=1), _own_sums(current[:, 0])
                else:
                    rows, binv = trial_rows, _inverse(trial_rows)
    return current, log_abs, improved


def _line_tables(
    pool: np.ndarray, current: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """table[r, c] = log|pool_r - z_c|, its row sums, and _own_sums(z)."""
    table = np.log(np.abs(pool[:, :1] - current[None, :, 0]))
    return table, table.sum(axis=1), _own_sums(current[:, 0])


def _own_sums(z: np.ndarray) -> np.ndarray:
    """sum over k != j of log|z_j - z_k|, for every j."""
    m = len(z)
    # drop the diagonal rather than zero it: each row then sums the same
    # m - 1 terms in the same order as a sum over the row with z_j deleted,
    # which numpy adds pairwise, not left to right, from 8 terms on
    off = (z[:, None] - z[None, :])[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    return np.log(np.abs(off)).sum(axis=1)


def _best_replacement_1d(
    rowsum: np.ndarray, column: np.ndarray, own: float
) -> tuple[float, int | None]:
    """Best log-gain and pool index for position j.

    column[r] = log|pool_r - z_j|, rowsum[r] the sum of pool point r's row
    over every position, and own the sum over k != j of log|z_j - z_k|.
    """
    # the nan of a candidate equal to z_j becomes -inf, and -inf stays -inf,
    # so a position with no finite score nominates nothing
    scores = np.fmax(rowsum - column, -np.inf)
    k = int(np.argmax(scores))
    if scores[k] == -np.inf:
        return 0.0, None
    return float(scores[k] - own), k


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
