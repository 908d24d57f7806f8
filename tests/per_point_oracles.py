"""Per-restart, per-position and per-point forms of the search's kernels, for tests only.

The library's search advances all its restarts in lockstep, in one
variable with one stacked exchange pass per step; its exchange pass
builds its tables once per pass and refreshes them after an accepted
swap, in several variables from basis rows it already holds; its greedy
start scores every restart's pool at once in one variable and eliminates
over the whole pool in several; refinement draws and projects one batch
per level; its projections take a whole batch of points; a search builds
the fixed part of its candidate pools once; a single configuration's
log|V| is a batch of one; monomials are gathered from per-axis power
tables; the sup/L2 kernel walks its grid in blocks; a product set builds
its grid block by block; a moment matrix evaluates each distinct moment once.
These helpers are the plain forms
they replace: each restart runs alone, with a table-based pass of its
own (``run_restart``, ``restart_exchange_pass``); every position
rebuilds its tables from the current configuration and every trial
evaluates its own basis (``exchange_pass``); the greedy start takes one
pool at a time (``brute_force_oracles.greedy_line_start`` in one
variable) and in several variables updates only the rows not yet chosen,
refinement draws its steps and projects them point by point, every point
is projected on its own with scalar arithmetic, every pool is built
whole, log|V| comes from a formula for one configuration, every monomial
is its own broadcast power with a product reduce over the axes, the
kernel is evaluated on the whole grid at once, a product grid is
stacked from a dense ``np.meshgrid``, and a moment matrix evaluates
every entry.  Tests compare the two bit for bit, monomials by
``==``, which ignores the sign of an exact zero.
"""

import contextlib
import math

import numpy as np

from polyalab import (
    Circle,
    Disk,
    FiniteSet,
    Interval,
    ProductSet,
    basis_matrix,
    count_at_most,
    enumeration_for,
    orthonormal_coefficients,
)
from polyalab.linalg import MomentMatrix, batch_logabs
from polyalab.vandermonde import (
    IMPROVEMENT_TOL, REFINE_CANDIDATES, FeketeResult, _spread, as_seed_sequence
)

from brute_force_oracles import greedy_line_start


def monomial_matrix(points, exponents):
    """M[a, b] = points[b] ** exponents[a]: every (basis, point, axis) power, then np.prod."""
    pts = np.asarray(points, dtype=complex)
    return np.prod(pts[None, :, :] ** exponents[:, None, :], axis=2)


def vdm_logdet(points):
    """log|V| of one configuration: the pairwise product in one variable, else LU."""
    pts = np.asarray(points, dtype=complex)
    m = pts.shape[0]
    if pts.shape[1] == 1:
        if m <= 1:
            return 0.0
        z = pts[:, 0]
        mags = np.abs((z[None, :] - z[:, None])[np.triu_indices(m, 1)])
        if np.any(mags == 0.0):
            return -np.inf
        return float(np.sum(np.log(mags)))
    return float(np.linalg.slogdet(basis_matrix(pts, m).T)[1])


def candidate_pool(kset, size, pool_size, rng, ref):
    """A candidate pool built whole: fresh samples, the grid, the reference points."""
    parts = [kset.sample(rng, pool_size)]
    per_axis = max(4, int(round(pool_size ** (1.0 / kset.dim) / 4.0)))
    parts.append(kset.grid(per_axis))
    if ref is not None:
        parts.append(np.asarray(ref, dtype=complex)[:size])
    return np.concatenate(parts, axis=0)


def greedy_start(pool, size):
    """Pivoted greedy start in several variables, updating only the free rows."""
    npts = pool.shape[0]
    a = basis_matrix(pool, size).T.astype(complex).copy()
    chosen = []
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


def exchange_pass(current, log_abs, pool):
    """One cyclic sweep, every position's scores computed from scratch."""
    size = current.shape[0]
    improved = False
    current = current.copy()
    for j in range(size):
        gain, k = best_replacement(current, j, pool)
        if gain <= IMPROVEMENT_TOL or k is None:
            continue
        trial = current.copy()
        trial[j] = pool[k]
        trial_log = vdm_logdet(trial)
        if trial_log > log_abs + IMPROVEMENT_TOL:
            current, log_abs, improved = trial, trial_log, True
    return current, log_abs, improved


def best_replacement(current, j, pool):
    """Best log-gain and pool index for position j, tables rebuilt."""
    size, dim = current.shape
    if dim == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.log(np.abs(pool[:, :1] - current[None, :, 0]))
            scores = d.sum(axis=1) - d[:, j]
        scores = np.nan_to_num(scores, nan=-np.inf)
        with np.errstate(divide="ignore"):
            own_row = np.log(np.abs(current[j, 0] - current[:, 0]))
        own = np.sum(np.delete(own_row, j))
        k = int(np.argmax(scores))
        if not np.isfinite(scores[k]):
            return 0.0, None
        return float(scores[k] - own), k
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
    return float(np.log(ratios[k])), k


def refinement_candidates(kset, current, h, rng):
    """Refinement candidates drawn and projected one point at a time."""
    rows = []
    shape = (REFINE_CANDIDATES, current.shape[1])
    for j in range(current.shape[0]):
        steps = h * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        rows.append(kset.project(current[j][None, :] + steps))
    return np.concatenate(rows)


def project_point(kset, point):
    """Nearest point of the set to one point of shape (dim,), as (dim,)."""
    w = np.asarray(point, dtype=complex)
    if isinstance(kset, Interval):
        return np.array([complex(min(max(w[0].real, kset.a), kset.b))])
    if isinstance(kset, (Circle, Disk)):
        d = w[0] - kset.center
        if isinstance(kset, Disk) and abs(d) <= kset.radius:
            return np.array([w[0]])
        if abs(d) == 0.0:
            return np.array([kset.center + kset.radius])
        return np.array([kset.center + kset.radius * d / abs(d)])
    if isinstance(kset, ProductSet):
        return np.array([project_point(f, w[i : i + 1])[0] for i, f in enumerate(kset.factors)])
    if isinstance(kset, FiniteSet):
        arr = np.asarray(kset.points, dtype=complex)
        return arr[int(np.argmin(np.abs(arr - w[None, :]).max(axis=1)))]
    raise TypeError(f"no per-point projection for {type(kset).__name__}")


def project_each(kset, points):
    """Per-point projection of every row of an (n, dim) array."""
    return np.stack([project_point(kset, p) for p in np.asarray(points, dtype=complex)])


def bernstein_markov_ratio(measure, s, per_axis):
    """The sup/L2 ratio with the whole grid's basis, q and |q|^2 live at once."""
    m = count_at_most(measure.dim, s)
    try:
        coeffs = orthonormal_coefficients(measure, m)
    except (ValueError, np.linalg.LinAlgError):
        return math.inf
    pts = measure.support.grid(per_axis)
    q = coeffs @ basis_matrix(pts, m)
    kernel = np.sum(np.abs(q) ** 2, axis=0)
    return float(np.sqrt(np.max(kernel.real)))


def product_grid(kset, per_axis):
    """ProductSet.grid through np.meshgrid, one copy per axis, then np.stack."""
    axes = [f.grid(per_axis).reshape(-1) for f in kset.factors]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def fekete_search(kset, size, strategy, seed):
    """fekete_search with each restart run alone, one after another."""
    ref = kset.reference_points(size)
    children = as_seed_sequence(seed).spawn(strategy.restarts)
    runs = [run_restart(kset, size, strategy, child, ref) for child in children]
    candidates = []
    if ref is not None:
        ref_pts = np.asarray(ref, dtype=complex)[:size]
        ref_log = vdm_logdet(ref_pts)
        candidates.append((ref_log, -1, ref_pts, (ref_log,)))
    for idx, (log_abs, pts, trace) in enumerate(runs):
        candidates.append((log_abs, idx, pts, trace))
    best = max(candidates, key=lambda c: (c[0], -c[1]))
    return FeketeResult(best[2], best[0], size, best[3], tuple(r[0] for r in runs))


def run_restart(kset, size, strategy, child, ref):
    """One restart alone: greedy start, passes until one gains < IMPROVEMENT_TOL, refinement."""
    rng = np.random.default_rng(child)
    pool = candidate_pool(kset, size, strategy.pool_size, rng, ref)
    current = (greedy_line_start if kset.dim == 1 else greedy_start)(pool, size)
    log_abs = vdm_logdet(current)
    trace = [log_abs]
    for _ in range(strategy.exchange_passes):
        pool = candidate_pool(kset, size, strategy.pool_size, rng, ref)
        before = log_abs
        current, log_abs, _ = restart_exchange_pass(current, log_abs, pool)
        trace.append(log_abs)
        if log_abs - before < IMPROVEMENT_TOL:
            break
    spread = _spread(pool)
    for level in range(strategy.refine_levels):
        h = spread / 8.0 * 0.3**level
        candidates = refinement_candidates(kset, current, h, rng)
        current, log_abs, _ = restart_exchange_pass(current, log_abs, candidates)
        trace.append(log_abs)
    return log_abs, current, tuple(trace)


def restart_exchange_pass(current, log_abs, pool):
    """One restart's cyclic sweep, tables built once and refreshed after an accepted swap."""
    size, dim = current.shape
    improved = False
    current = current.copy()
    quiet = np.errstate(divide="ignore", invalid="ignore")
    with quiet if dim == 1 else contextlib.nullcontext():
        if dim == 1:
            table = np.log(np.abs(pool[:, :1] - current[None, :, 0]))
            rowsum, own = table.sum(axis=1), own_sums(current[:, 0])
        else:
            pool_basis = basis_matrix(pool, size).T
            rows = basis_matrix(current, size).T
            binv = inverse(rows)
        for j in range(size):
            if dim == 1:
                gain, k = line_replacement(rowsum, table[:, j], own[j])
            else:
                gain, k = ratio_replacement(pool_basis, binv, j)
            if gain <= IMPROVEMENT_TOL or k is None:
                continue
            trial = current.copy()
            trial[j] = pool[k]
            if dim == 1:
                trial_log = vdm_logdet(trial)
            else:
                trial_rows = rows.copy()
                trial_rows[j] = pool_basis[k]
                trial_log = float(batch_logabs(trial_rows[None])[0])
            if trial_log > log_abs + IMPROVEMENT_TOL:
                current, log_abs, improved = trial, trial_log, True
                if dim == 1:
                    table[:, j] = np.log(np.abs(pool[:, 0] - current[j, 0]))
                    rowsum, own = table.sum(axis=1), own_sums(current[:, 0])
                else:
                    rows, binv = trial_rows, inverse(trial_rows)
    return current, log_abs, improved


def own_sums(z):
    """sum over k != j of log|z_j - z_k|, for every j of one configuration."""
    m = len(z)
    off = (z[:, None] - z[None, :])[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    return np.log(np.abs(off)).sum(axis=1)


def line_replacement(rowsum, column, own):
    """Best log-gain and pool index of one position, from one restart's line tables."""
    scores = np.fmax(rowsum - column, -np.inf)
    k = int(np.argmax(scores))
    if scores[k] == -np.inf:
        return 0.0, None
    return float(scores[k] - own), k


def inverse(rows):
    """The inverse of one basis matrix, None when it is singular."""
    try:
        return np.linalg.inv(rows)
    except np.linalg.LinAlgError:
        return None


def ratio_replacement(pool_basis, binv, j):
    """Best log-gain and pool index of position j, by one restart's determinant ratios."""
    if binv is None:
        return 0.0, None
    ratios = np.abs(pool_basis @ binv[:, j])
    ratios[~np.isfinite(ratios)] = 0.0
    k = int(np.argmax(ratios))
    if ratios[k] <= 0.0:
        return 0.0, None
    return float(np.log(ratios[k])), k


def moment_matrix_entries(basis, exact_entry, float_entry):
    """A moment matrix with every entry evaluated on its own: rational rows, else floats."""
    rows = [[exact_entry(a, b) for b in basis] for a in basis]
    if any(f is None for row in rows for f in row):
        floats = [[float_entry(a, b) for b in basis] for a in basis]
        return MomentMatrix(len(basis), np.array(floats, dtype=complex), None, None)
    # one code per entry: code n a + b holds entry (a, b)
    n = len(basis)
    codes = [range(n * a, n * a + n) for a in range(n)]
    return MomentMatrix(n, None, codes, dict(enumerate(f for row in rows for f in row)))


def gram_entries(measure, basis):
    """gram with every entry evaluated on its own; below the diagonal a float
    entry is the conjugate of its mirror, as a Hermitian matrix's is."""
    position = {k: i for i, k in enumerate(basis)}

    def float_entry(a, b):
        if position[a] <= position[b]:
            return measure.hermitian_moment(a, b)
        return measure.hermitian_moment(b, a).conjugate()

    return moment_matrix_entries(basis, measure.hermitian_moment_fraction, float_entry)


def hankel_matrix_entries(germ, size):
    """hankel_matrix with every entry read on its own through coeff and coeff_fraction."""
    def at_sum(entry):
        return lambda a, b: entry(tuple(x + y for x, y in zip(a, b)))

    idx = enumeration_for(germ.dim).prefix(size)
    return moment_matrix_entries(idx, at_sum(germ.coeff_fraction), at_sum(germ.coeff))
