"""Independent oracles for the benchmark's output checks.

Nothing here imports polyalab: every reference value is derived from the
workload's YAML spec with closed forms or 50-digit mpmath arithmetic, so a
check fails when the library drifts, not when it agrees with itself.

Values are compared in log units (log|V|, log H_n, log Z_s).  The checks:

- arcsine on [a, b]: log H_n = -(n-1)^2 log 2 + n(n-1) log((b-a)/2), and
  log Z_s = log m! + log H_m for the Gram and Hankel routes of one variable
- product of arcsines: log det of the monomial moment matrix by mpmath LU
- the point-mass and geometric germs: H_1 = 1 and H_n = 0 beyond (rank one)
- interval [a, b]: log|V| of the Gauss-Lobatto (Fekete) nodes, found as
  eigenvalues of the Jacobi(1, 1) matrix at 50 digits, plus l log((b-a)/2)
- circle or disk of radius r: log|V| = (N/2) log N + l log r
- disk of radius r: log Z_s = l_s log(r^2), since its Gram matrix is diagonal
- configurations returned by a search: log|V| re-evaluated at 50 digits,
  and each point tested for membership in the set
- Monte Carlo log Z_s: finite, with a finite positive error bar, and within
  MC_SIGMAS error bars of the exact log Z_s where that error bar is usable
  (see check_montecarlo)
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

DPS = 50
TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
# The library's delta-method error bar of a Monte Carlo log Z_s is only
# trusted up to this relative error.  Over 80 seeds at 100k samples, cells
# below it scattered like their error bar (|z| <= 3.9); the disk at s = 8
# (error bar 0.13 to 0.54) scattered 1.45 times wider, with |z| up to 6.3,
# and its error bar stayed above 0.12 over 400 seeds.
MC_MAX_REL_ERROR = 0.1
MC_SIGMAS = 6.0
# The library's own 3-sigma flag on zs-check is a random event: it fires on
# a share of seeds even when every number is right (1 in 80 seeds for the
# product arcsine at s = 3, 9 in 80 for the disk at s = 8).  It is recorded
# but not counted; check_montecarlo takes its place.
STATISTICAL_FLAG = "Monte Carlo and Gram routes disagree"


def graded_lex(dim: int, count: int) -> list[tuple[int, ...]]:
    """First count multi-indices: degree-major, ascending lex within a degree."""

    def of_degree(d: int, s: int) -> list[tuple[int, ...]]:
        if d == 1:
            return [(s,)]
        return [(f,) + rest for f in range(s + 1) for rest in of_degree(d - 1, s - f)]

    out: list[tuple[int, ...]] = []
    s = 0
    while len(out) < count:
        out.extend(of_degree(dim, s))
        s += 1
    return out[:count]


def degree_sum(dim: int, count: int) -> int:
    return sum(sum(k) for k in graded_lex(dim, count))


def basis_size(dim: int, s: int) -> int:
    return math.comb(s + dim, dim)


def _log_factorial(n: int) -> mpmath.mpf:
    return mpmath.loggamma(n + 1)


def _arcsine_moment(k: int, a: Fraction, b: Fraction) -> Fraction:
    # E[(mid + half cos t)^k] for t uniform on [0, pi]
    mid, half = (a + b) / 2, (b - a) / 2
    total = Fraction(0)
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * mid ** (k - j) * half**j * Fraction(math.comb(j, j // 2), 2**j)
    return total


def _arcsine_log_hankel(n: int, a: float, b: float) -> mpmath.mpf:
    half = mpmath.mpf(b - a) / 2
    return -((n - 1) ** 2) * mpmath.log(2) + n * (n - 1) * mpmath.log(half)


@functools.lru_cache(maxsize=None)
def _product_arcsine_log_minors(bounds: tuple[tuple[float, float], ...], size: int) -> tuple:
    """log H_1 .. log H_size of the monomial moment matrix, by one elimination.

    The matrix is positive definite, so elimination needs no pivoting and
    the leading k x k minor is the product of the first k pivots.
    """
    idx = graded_lex(len(bounds), size)
    fb = [(Fraction(a), Fraction(b)) for a, b in bounds]
    with mpmath.workdps(2 * DPS):
        mat = []
        for r in range(size):
            row = []
            for c in range(size):
                entry = Fraction(1)
                for axis, (a, b) in enumerate(fb):
                    entry *= _arcsine_moment(idx[r][axis] + idx[c][axis], a, b)
                row.append(mpmath.mpf(entry.numerator) / entry.denominator)
            mat.append(row)
        logs, total = [], mpmath.mpf(0)
        for k in range(size):
            pivot = mat[k][k]
            if pivot <= 0:
                return tuple(logs) + (mpmath.mpf("-inf"),) * (size - k)
            total += mpmath.log(pivot)
            logs.append(total)
            for r in range(k + 1, size):
                factor = mat[r][k] / pivot
                for c in range(k + 1, size):
                    mat[r][c] -= factor * mat[k][c]
        return tuple(logs)


def _product_arcsine_log_hankel(bounds: tuple[tuple[float, float], ...], n: int) -> mpmath.mpf:
    size = 16 * math.ceil(n / 16)  # a whole sequence of n shares a few eliminations
    return _product_arcsine_log_minors(bounds, size)[n - 1]


@functools.lru_cache(maxsize=None)
def _gauss_lobatto_log_vdm(n: int) -> mpmath.mpf:
    """log|V| of the n Gauss-Lobatto nodes of [-1, 1], the interval's Fekete points."""
    if n <= 1:
        return mpmath.mpf(0)
    with mpmath.workdps(DPS):
        nodes = [mpmath.mpf(-1), mpmath.mpf(1)]
        k = n - 2
        if k:
            jac = mpmath.matrix(k, k)
            for i in range(1, k):
                off = mpmath.sqrt(mpmath.mpf(i * (i + 2)) / ((2 * i + 1) * (2 * i + 3)))
                jac[i - 1, i] = jac[i, i - 1] = off
            nodes.extend(mpmath.eigsy(jac, eigvals_only=True))
        return mpmath.fsum(
            mpmath.log(abs(nodes[j] - nodes[i])) for i in range(n) for j in range(i + 1, n)
        )


def _roots_of_unity_log_vdm(n: int) -> mpmath.mpf:
    return mpmath.mpf(n) / 2 * mpmath.log(n)


def _scalar(value) -> complex:
    if isinstance(value, dict):
        return complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
    return complex(float(value))


class SetOracle:
    """Closed-form Fekete log|V| and membership for one set spec."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        if self.kind == "interval":
            self.a, self.b = float(spec["a"]), float(spec["b"])
            self.dim = 1
        elif self.kind in ("circle", "disk"):
            self.center = _scalar(spec.get("center", 0.0))
            self.radius = float(spec["radius"])
            self.dim = 1
        elif self.kind == "box":
            self.factors = [
                SetOracle({"kind": "interval", "a": a, "b": b}) for a, b in spec["bounds"]
            ]
            self.dim = len(self.factors)
        elif self.kind == "product":
            self.factors = [SetOracle(f) for f in spec["factors"]]
            self.dim = len(self.factors)
        else:
            raise ValueError(f"no oracle for set kind {self.kind!r}")

    def fekete_log_vdm(self, n: int) -> mpmath.mpf | None:
        """Maximal log|V| over n-point configurations, where it is known."""
        pairs = n * (n - 1) // 2
        if self.kind == "interval":
            scale = mpmath.log(mpmath.mpf(self.b - self.a) / 2)
            return _gauss_lobatto_log_vdm(n) + pairs * scale
        if self.kind in ("circle", "disk"):
            return _roots_of_unity_log_vdm(n) + pairs * mpmath.log(self.radius)
        return None

    def contains(self, point: list[complex]) -> bool:
        if len(point) != self.dim:
            return False
        if self.dim > 1:
            return all(f.contains([z]) for f, z in zip(self.factors, point))
        (z,) = point
        tol = MEMBERSHIP_TOL
        if self.kind == "interval":
            return abs(z.imag) <= tol and self.a - tol <= z.real <= self.b + tol
        gap = abs(z - self.center) - self.radius
        if self.kind == "circle":
            return abs(gap) <= tol
        return gap <= tol


def log_vdm_at(points: list[list[complex]]) -> mpmath.mpf:
    """log|det e_a(z_b)| over the graded-lex basis of the same size, at 50 digits."""
    n, dim = len(points), len(points[0])
    idx = graded_lex(dim, n)
    with mpmath.workdps(DPS):
        mat = mpmath.matrix(n, n)
        for r, point in enumerate(points):
            z = [mpmath.mpc(v.real, v.imag) for v in point]
            for c, k in enumerate(idx):
                term = mpmath.mpc(1)
                for zi, e in zip(z, k):
                    term *= zi**e
                mat[r, c] = term
        det = mpmath.det(mat)
        return mpmath.log(abs(det)) if det != 0 else mpmath.mpf("-inf")


class MeasureOracle:
    """log H_n of the moment sequence and log Z_s, where they are known."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.factors: list[tuple[float, float]] = []
        if "mass" in spec:
            self.kind = "unsupported"
        elif self.kind == "arcsine":
            self.factors = [(float(spec.get("a", -1.0)), float(spec.get("b", 1.0)))]
        elif self.kind == "product" and all(f.get("kind") == "arcsine" for f in spec["factors"]):
            self.factors = [(float(f.get("a", -1.0)), float(f.get("b", 1.0))) for f in spec["factors"]]
        elif self.kind == "disk":
            self.radius = float(spec.get("radius", 1.0))
        else:
            self.kind = "unsupported"
        self.dim = max(1, len(self.factors))

    def log_hankel(self, n: int) -> mpmath.mpf | None:
        if len(self.factors) == 1:
            return _arcsine_log_hankel(n, *self.factors[0])
        if self.factors:
            return _product_arcsine_log_hankel(tuple(self.factors), n)
        return None

    def log_zs(self, s: int) -> mpmath.mpf | None:
        """log Z_s = log m_s! + log det Gram; real measures have Gram = Hankel."""
        if self.kind == "disk":
            # hermitian moments r^(2j) / (j+1) on the diagonal: m! cancels
            return degree_sum(1, s + 1) * 2 * mpmath.log(self.radius)
        m = basis_size(self.dim, s)
        hank = self.log_hankel(m)
        return None if hank is None else _log_factorial(m) + hank


def germ_log_hankel(spec: dict, n: int) -> mpmath.mpf | None:
    """Oracle for log|H_n| of a germ spec; -inf where H_n vanishes."""
    kind = spec["kind"]
    if kind == "measure":
        return MeasureOracle(spec["measure"]).log_hankel(n)
    if kind in ("point-mass", "geometric"):
        # a_k = c^k: rank one, so only H_1 = a_0 = 1 survives
        return mpmath.mpf(0) if n == 1 else mpmath.mpf("-inf")
    return None


class CheckLog:
    """Collects oracle comparisons; an entry beyond tolerance is a failure."""

    def __init__(self):
        self.entries: list[dict] = []

    def compare(self, where: str, reported: float, expected, tol: float = TOL) -> None:
        expected = float(expected) if expected is not None else None
        if expected is None:
            return
        if math.isinf(expected) or math.isinf(reported):
            err = 0.0 if reported == expected else math.inf
        else:
            err = abs(reported - expected)
            if math.isnan(err):
                err = math.inf
        limit = tol * max(1.0, abs(expected)) if math.isfinite(expected) else 0.0
        self.entries.append(
            {"cell": where, "reported": reported, "oracle": expected, "err": err, "ok": err <= limit}
        )

    def require(self, where: str, ok: bool, detail: str) -> None:
        self.entries.append({"cell": where, "detail": detail, "err": 0.0 if ok else math.inf, "ok": ok})

    @property
    def digits(self) -> float:
        """-log10 of the worst relative error, between 0 and double precision.

        Relative to max(1, |oracle|), so a cell of size 2500 and a cell of
        size 1 count alike; an exact match counts as the unit roundoff, and a
        value with no correct digit (or a failed membership test) as 0.
        """
        worst = 0.0
        for e in self.entries:
            scale = abs(e.get("oracle", 0.0))
            worst = max(worst, e["err"] / max(1.0, scale) if math.isfinite(scale) else e["err"])
        return max(0.0, -math.log10(min(max(worst, UNIT_ROUNDOFF), 1.0)))

    def failures(self) -> list[dict]:
        return [e for e in self.entries if not e["ok"]]


def _check_diameters(where: str, kset: SetOracle, rows: list[dict], log: CheckLog) -> None:
    """d_s and log_vdm rows of one set against its Fekete log|V|."""
    for row in rows:
        if row["quantity"] not in ("d_s", "log_vdm") or row["j"] is not None:
            continue
        n = basis_size(kset.dim, row["s"])
        expected = kset.fekete_log_vdm(n)
        if expected is None:
            continue
        reported = row["value"]
        if row["quantity"] == "d_s":
            reported = degree_sum(kset.dim, n) * math.log(reported)
        log.compare(f"{where} {row['quantity']} s={row['s']}", reported, expected)


def _check_hankel(where: str, germ: dict, rows: list[dict], log: CheckLog) -> None:
    for row in rows:
        if row["quantity"] == "log_hankel":
            log.compare(f"{where} log_hankel i={row['i']}", row["value"], germ_log_hankel(germ, row["i"]))


def counted_flags(flags: list[str]) -> list[str]:
    """The library flags that make an experiment fail: all but the 3-sigma one."""
    return [f for f in flags if STATISTICAL_FLAG not in f]


def check_montecarlo(where: str, row: dict, expected, log: CheckLog) -> None:
    """A Monte Carlo log Z_s against the exact one, in units of its error bar.

    The entries carry no error, so they do not enter `digits`: a Monte Carlo
    estimate is only ever right to its error bar.
    """
    value, se = row["value"], row["std_error"]
    usable = se is not None and math.isfinite(value) and math.isfinite(se) and se > 0
    log.require(f"{where} finite", usable, "finite estimate with a positive error bar")
    if not usable or expected is None or se > MC_MAX_REL_ERROR:
        return
    z = (value - float(expected)) / se
    log.require(f"{where} z={z:.2f}", abs(z) <= MC_SIGMAS, f"within {MC_SIGMAS:g} error bars of the oracle")


def check_experiment(config: dict, rows: list[dict], extras: dict, log: CheckLog) -> None:
    """Compare every row of one experiment that has an oracle."""
    kind, label = config["experiment"], config["label"]
    if kind in ("tdiam", "sharpness"):
        _check_diameters(label, SetOracle(config["set"]), rows, log)
    if kind in ("sharpness", "zs-check"):
        measure = MeasureOracle(config["measure"])
        for row in rows:
            where = f"{label} {row['quantity']} s={row['s']}"
            if row["quantity"] in ("log_zs", "log_hankel_route", "log_zs_gram"):
                log.compare(where, row["value"], measure.log_zs(row["s"]))
            elif row["quantity"] == "log_zs_mc":
                check_montecarlo(where, row, measure.log_zs(row["s"]), log)
    if kind == "hankel":
        _check_hankel(label, config["germ"], rows, log)
    if kind == "polya-check":
        for idx, pair in enumerate(config["pairs"]):
            plabel = str(pair.get("label", f"pair{idx}"))
            mine = [r for r in rows if r["label"] == plabel]
            _check_diameters(f"{label}/{plabel}", SetOracle(pair["set"]), mine, log)
            _check_hankel(f"{label}/{plabel}", pair["germ"], mine, log)
    if kind == "stability":
        fam = config["family"]
        if fam["kind"] == "interval":
            a, b, rate = float(fam["a"]), float(fam["b"]), float(fam.get("rate", 1.0))
            sign = -1.0 if fam.get("side", "outer") == "outer" else 1.0
            n = basis_size(1, config["s"])
            for row in rows:
                eps = 0.0 if row["quantity"] == "d_s_limit" else float(row["j"]) ** (-rate)
                member = SetOracle({"kind": "interval", "a": a + sign * eps, "b": b - sign * eps})
                reported = degree_sum(1, n) * math.log(row["value"])
                log.compare(f"{label} d_s j={row['j']}", reported, member.fekete_log_vdm(n))
    if kind == "fekete":
        kset = SetOracle(config["set"])
        for row in rows:
            size = row["i"]
            points = [[complex(re, im) for re, im in p] for p in extras["configurations"][str(size)]]
            where = f"{label} size={size}"
            inside = all(kset.contains(p) for p in points)
            log.require(f"{where} points", len(points) == size and inside, "points lie in the set")
            log.compare(f"{where} log_vdm", row["value"], log_vdm_at(points))
            log.compare(f"{where} log_vdm vs Fekete", row["value"], kset.fekete_log_vdm(size))
