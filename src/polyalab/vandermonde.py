"""Generalized Vandermonde determinants and extremal configuration search.

The determinant in play is det(e_a(z_b)) where e_a runs through the first i
monomials in graded lexicographic order and z_1..z_i range over a compact
set.  Its sup over all i-point configurations, normalized by the degree sum
of the basis, yields the diameter-like quantities this package estimates.
Search combines a greedy pivoted start, cyclic single-point exchange driven
by determinant ratios, and multiscale local refinement, with independent
restarts merged deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import CompactSet
from .linalg import (
    LogDet,
    batch_logabs,
    batch_pairwise_logabs,
    logdet,
    pairwise_difference_logdet,
)
from .multiindex import degree_counts, enumeration_for, monomial_matrix


def basis_matrix(points: np.ndarray, count: int) -> np.ndarray:
    """Matrix e_a(z_b), rows a = 1..count over basis, columns b over points."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise ValueError("points must have shape (npoints, dim)")
    exps = enumeration_for(pts.shape[1]).exponents(count)
    return monomial_matrix(pts, exps)


def vdm_logdet(points: np.ndarray) -> LogDet:
    """log|V| and phase at one configuration; basis size equals point count."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise ValueError("points must have shape (npoints, dim)")
    if pts.shape[1] == 1:
        # one variable: the basis is 1, z, .., z^(i-1), so the product
        # formula applies at every truncation length
        return pairwise_difference_logdet(pts[:, 0])
    return logdet(basis_matrix(pts, pts.shape[0]).T)


def vdm_value(points: np.ndarray) -> complex:
    """The determinant itself; only safe for small configurations."""
    pts = np.asarray(points, dtype=complex)
    if pts.shape[1] == 1:
        z = pts[:, 0]
        val = 1 + 0j
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                val *= z[j] - z[i]
        return val
    return complex(np.linalg.det(basis_matrix(pts, pts.shape[0]).T))


def vdm_logabs_batch(configs: np.ndarray) -> np.ndarray:
    """log|V| over a stack of configurations, shape (batch, i, dim)."""
    cfg = np.asarray(configs, dtype=complex)
    if cfg.ndim != 3:
        raise ValueError("configs must have shape (batch, npoints, dim)")
    if cfg.shape[1] <= 1:
        return np.zeros(cfg.shape[0])
    if cfg.shape[2] == 1:
        return batch_pairwise_logabs(cfg[:, :, 0])
    exps = enumeration_for(cfg.shape[2]).exponents(cfg.shape[1])
    mats = np.prod(cfg[:, None, :, :] ** exps[None, :, None, :], axis=3)
    return batch_logabs(np.swapaxes(mats, 1, 2))


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
        if min(self.pool_size, self.restarts) < 1:
            raise ValueError("pool_size and restarts must be positive")


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
        log_abs = vdm_logdet(pts).log_abs
        return FeketeResult(pts, log_abs, size, (log_abs,), (log_abs,))

    if size == 1:
        if ref is not None:
            pt = ref[:1]
        else:
            pt = kset.sample(np.random.default_rng(as_seed_sequence(seed)), 1)
        return FeketeResult(np.asarray(pt, dtype=complex), 0.0, 1, (0.0,), (0.0,))

    children = as_seed_sequence(seed).spawn(strategy.restarts)
    runs = [_run_restart(kset, size, strategy, child, ref) for child in children]

    candidates: list[tuple[float, int, np.ndarray, tuple[float, ...]]] = []
    if ref is not None:
        ref_pts = np.asarray(ref, dtype=complex)[:size]
        ref_log = vdm_logdet(ref_pts).log_abs
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
    ref: np.ndarray | None,
) -> tuple[float, np.ndarray, tuple[float, ...]]:
    rng = np.random.default_rng(child)
    pool = _candidate_pool(kset, size, strategy.pool_size, rng, ref)
    current = _greedy_start(pool, size)
    log_abs = vdm_logdet(current).log_abs
    trace = [log_abs]

    for _ in range(strategy.exchange_passes):
        pool = _candidate_pool(kset, size, strategy.pool_size, rng, ref)
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
        cand_rows = []
        for j in range(size):
            steps = h * (
                rng.standard_normal((strategy.refine_candidates, current.shape[1]))
                + 1j * rng.standard_normal((strategy.refine_candidates, current.shape[1]))
            )
            cand_rows.append(np.stack([kset.project(current[j] + st) for st in steps]))
        current, log_abs, _ = _exchange_pass(
            current,
            log_abs,
            np.concatenate(cand_rows),
            strategy.improvement_tol,
        )
        trace.append(log_abs)

    return log_abs, current, tuple(trace)


def _candidate_pool(
    kset: CompactSet,
    size: int,
    pool_size: int,
    rng: np.random.Generator,
    ref: np.ndarray | None,
) -> np.ndarray:
    parts = [kset.sample(rng, pool_size)]
    per_axis = max(4, int(round(pool_size ** (1.0 / kset.dim) / 4.0)))
    parts.append(kset.grid(per_axis))
    if ref is not None:
        parts.append(np.asarray(ref, dtype=complex)[:size])
    return np.concatenate(parts, axis=0)


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
    a = basis_matrix(pool, size).T.astype(complex).copy()
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
            rows = free.nonzero()[0]
            a[rows] -= np.outer(a[rows, k] / piv, a[p])
    return pool[chosen]


def _exchange_pass(
    current: np.ndarray,
    log_abs: float,
    pool: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, bool]:
    """One cyclic sweep of best single-point replacements from the pool."""
    size, dim = current.shape
    improved = False
    current = current.copy()
    for j in range(size):
        gain, cand = _best_replacement(current, j, pool)
        if gain <= tol or cand is None:
            continue
        trial = current.copy()
        trial[j] = cand
        trial_log = vdm_logdet(trial).log_abs
        # the ratio estimate nominated the move; accept it only on an
        # exact re-evaluation so the trace stays monotone
        if trial_log > log_abs + tol:
            current, log_abs, improved = trial, trial_log, True
    return current, log_abs, improved


def _best_replacement(
    current: np.ndarray,
    j: int,
    pool: np.ndarray,
) -> tuple[float, np.ndarray | None]:
    """Best log-gain for swapping position j against the pool, by ratios."""
    size, dim = current.shape
    if dim == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.log(np.abs(pool[:, :1] - current[None, :, 0]))
            scores = d.sum(axis=1) - d[:, j]
        # a candidate equal to the point under replacement produces inf - inf
        scores = np.nan_to_num(scores, nan=-np.inf)
        with np.errstate(divide="ignore"):
            own_row = np.log(np.abs(current[j, 0] - current[:, 0]))
        own = np.sum(np.delete(own_row, j))
        k = int(np.argmax(scores))
        if not np.isfinite(scores[k]):
            return 0.0, None
        return float(scores[k] - own), pool[k]
    b = basis_matrix(current, size).T
    try:
        binv = np.linalg.inv(b)
    except np.linalg.LinAlgError:
        return 0.0, None
    ratios = np.abs(basis_matrix(pool, size).T @ binv[:, j])
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=0.0)
    k = int(np.argmax(ratios))
    if not np.isfinite(ratios[k]) or ratios[k] <= 0.0:
        return 0.0, None
    return float(np.log(ratios[k])), pool[k]


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
