"""Experiment configuration and drivers behind the CLI.

A config file is one YAML mapping: `experiment` picks the driver, `label`,
`seed`, and `schema` are bookkeeping, and the remaining keys are the
driver's payload (sets, measures, germs, degree lists, search knobs).
Every driver is a pure function of (config, seed), so reports are
reproducible byte for byte.

The drivers share four cells.  `RunResult.add` appends one report row
under the run's experiment, seed and label.  `_Search` reads a driver's
`search` knobs and `search_cap` once; its `d_s` cell times one searched
d_s(K) estimate (the reference configuration alone above the cap) and adds
its row.  `_log_zs` reads log Z_s = log m_s! + log det G for every degree
off one Gram prefix pass (`sharpness`, `zs-check`), and `_hankel_rows`
turns one `polya_sequence` into log H_i and D_i rows (`hankel`,
`polya-check`); `sharpness` reads its Hankel route off `polya_sequence`
too.  A prefix pass's wall time goes to extras["prefix_pass_s"], never
to the rows read off it.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import reduce
from operator import truediv
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from .domains import (
    Circle,
    CompactFamily,
    CompactSet,
    Disk,
    Interval,
    ProductSet,
    interval_family,
)
from .functionals import (
    MIN_CONTOUR_GRID,
    GermCoefficients,
    PolyaTerm,
    coeffs_from_contour,
    coeffs_from_measure,
    polya_sequence,
)
from .measures import (
    ArcsineMeasure,
    CircleUniform,
    DiscreteMeasure,
    DiskUniform,
    Measure,
    ProductMeasure,
    UniformSegment,
    bernstein_markov_ratio,
    gram,
    log_factorial,
    z_s_montecarlo,
)
from .multiindex import count_at_most, is_integer_at_least
from .reporting import ReportRow, SCHEMA_VERSION
from .vandermonde import (
    SearchStrategy,
    fekete_search,
    transfinite_diameter_estimate,
)

DEFAULT_SLACK = 0.05
DEFAULT_SEARCH_CAP = 30
DEFAULT_SHARPNESS_TOL = 1e-10

_RESERVED_KEYS = {"schema", "experiment", "label", "seed"}
# libyaml's safe loader when PyYAML was built with it: the same documents,
# parsed several times faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(ValueError):
    """A config file that cannot be turned into a runnable experiment."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kind, identity, seed, and the kind-specific payload."""

    experiment: str
    label: str
    seed: int
    spec: dict

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not is_integer_at_least(self.seed, 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        _one_line(self.label, "label")
        bad = _RESERVED_KEYS & set(self.spec)
        if bad:
            raise ConfigError(f"payload keys collide with reserved names: {sorted(bad)}")
        _check_keys(self.spec, _EXPERIMENTS[self.experiment][0], self.experiment)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "label": self.label,
            "seed": self.seed,
            **self.spec,
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        payload = dict(data)
        schema = payload.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {schema!r}")
        try:
            experiment = payload.pop("experiment")
        except KeyError:
            raise ConfigError("config is missing the 'experiment' key") from None
        label = str(payload.pop("label", experiment))
        seed = payload.pop("seed", 0)
        return ExperimentConfig(experiment=experiment, label=label, seed=seed, spec=payload)

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    def dump_text(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


def _one_line(label: str, what: str) -> None:
    """A label is one CSV cell: `what` holding a carriage return or newline is a config error."""
    if "\r" in label or "\n" in label:
        raise ConfigError(f"{what} must be one line (CSV cell), got {label!r}")


def _check_keys(spec: dict, accepted: set, ctx: str) -> None:
    unknown = set(spec) - accepted
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}; accepted {sorted(accepted)}")


def _need(spec: dict, key: str, ctx: str):
    if key not in spec:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return spec[key]


def _to_float(value) -> float:
    """float(value), but a bool is a TypeError: YAML's true is not the number 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_scalar(value, what: str, ctx: str) -> complex:
    """A finite config scalar: a real number, or a {re:, im:} mapping; `what` names it."""
    z = None
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            z = complex(float(value))
        elif isinstance(value, dict) and set(value) <= {"re", "im"}:
            z = complex(_to_float(value.get("re", 0.0)), _to_float(value.get("im", 0.0)))
    except (TypeError, ValueError, OverflowError):
        pass
    if z is None or not cmath.isfinite(z):
        raise ConfigError(
            f"{ctx}: {what} must be a finite number or {{re, im}} mapping, got {value!r}"
        )
    return z


def _as_point(value, ctx: str) -> tuple[complex, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_scalar(v, "each coordinate", ctx) for v in value)
    return (_as_scalar(value, "each coordinate", ctx),)


def _as_fraction(value, ctx: str) -> Fraction:
    """A finite number or fraction string such as "1/3", kept exact."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ConfigError(f"{ctx}: expected a finite number or fraction string, got {value!r}")


def _bounds(value, ctx: str) -> tuple[tuple[float, float], ...]:
    """A box's bounds: a list of [low, high] pairs of real numbers."""
    try:
        return tuple((_to_float(a), _to_float(b)) for a, b in value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{ctx}: bounds must be a list of [low, high] number pairs, got {value!r}"
        ) from None


def _build(spec, ctx: str, noun: str, kinds: dict):
    """One `kind:` mapping, read by its entry (accepted keys, constructor) in `kinds`.

    Keys outside the kind's own and `kind` are a config error.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{ctx}: unknown {noun} kind {kind!r}")
    keys, make = kinds[kind]
    _check_keys(spec, {"kind", *keys}, ctx)
    try:
        return make(spec, ctx)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _each(build, spec: dict, key: str, ctx: str) -> tuple:
    """build over the list spec[key], each entry in its own context."""
    return tuple(build(f, f"{ctx}.{key}[{i}]") for i, f in enumerate(_need(spec, key, ctx)))


_SETS = {
    "interval": ({"a", "b"}, lambda s, c: Interval(_real(s, "a", c), _real(s, "b", c))),
    "circle": ({"radius"}, lambda s, c: Circle(radius=_real(s, "radius", c))),
    "disk": ({"radius"}, lambda s, c: Disk(radius=_real(s, "radius", c))),
    "box": ({"bounds"}, lambda s, c: ProductSet(
        tuple(Interval(a, b) for a, b in _bounds(_need(s, "bounds", c), c))
    )),
    "product": ({"factors"}, lambda s, c: ProductSet(_each(build_compact, s, "factors", c))),
}


def build_compact(spec, ctx: str = "set") -> CompactSet:
    return _build(spec, ctx, "compact-set", _SETS)


_FAMILIES = {
    "interval": ({"a", "b", "side", "rate"}, lambda s, c: interval_family(
        _real(s, "a", c),
        _real(s, "b", c),
        side=str(s.get("side", "outer")),
        rate=_real(s, "rate", c, 1.0),
    )),
}


def build_family(spec, ctx: str = "family") -> CompactFamily:
    return _build(spec, ctx, "family", _FAMILIES)


_MEASURES = {
    "arcsine": ({"a", "b"}, lambda s, c: ArcsineMeasure(
        _real(s, "a", c, -1.0), _real(s, "b", c, 1.0)
    )),
    "uniform": ({"a", "b"}, lambda s, c: UniformSegment(_real(s, "a", c), _real(s, "b", c))),
    "circle": ({"radius"}, lambda s, c: CircleUniform(_real(s, "radius", c, 1.0))),
    "disk": ({"radius"}, lambda s, c: DiskUniform(_real(s, "radius", c, 1.0))),
    "discrete": ({"atoms", "weights"}, lambda s, c: DiscreteMeasure(
        _each(_as_point, s, "atoms", c), _each(_as_fraction, s, "weights", c)
    )),
    "product": ({"factors"}, lambda s, c: ProductMeasure(_each(build_measure, s, "factors", c))),
}


def build_measure(spec, ctx: str = "measure") -> Measure:
    return _build(spec, ctx, "measure", _MEASURES)


def _geometric_contour(spec: dict, ctx: str) -> tuple[Callable[..., Any], int]:
    c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
    return (lambda z: 1.0 / (z - c)), 1


# each contour germ kind gives (function, dimension)
_CONTOUR_GERMS = {
    "inverse": (set(), lambda s, c: ((lambda z: 1.0 / z), 1)),
    "geometric": ({"c"}, _geometric_contour),
    "inverse-product": ({"dim"}, lambda s, c: (
        (lambda *zs: reduce(truediv, zs, 1.0)), _number_at_least(s, "dim", 2, 1, c)
    )),
}


def _point_mass_germ(spec: dict, ctx: str) -> GermCoefficients:
    # 1/(z - c) = sum_k c^k z^(-k-1): the moments of a unit point mass at c
    c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
    return coeffs_from_measure(DiscreteMeasure(((c,),), (1,)))


def _contour_germ(spec: dict, ctx: str) -> GermCoefficients:
    germ, dim = _build(_need(spec, "germ", ctx), f"{ctx}.germ", "contour germ", _CONTOUR_GERMS)
    radius = _real(spec, "radius", ctx)
    given = {}  # a grid the config sets; else coeffs_from_contour's default
    if "grid" in spec:
        given["grid_size"] = _number_at_least(spec, "grid", None, MIN_CONTOUR_GRID, ctx)
    return coeffs_from_contour(germ, dim=dim, radius=radius, **given)


_GERMS = {
    "measure": ({"measure"}, lambda s, c: coeffs_from_measure(
        build_measure(_need(s, "measure", c), f"{c}.measure")
    )),
    "point-mass": ({"c"}, _point_mass_germ),
    "geometric": ({"c"}, _point_mass_germ),
    "contour": ({"germ", "radius", "grid"}, _contour_germ),
}


def build_germ(spec, ctx: str = "germ") -> GermCoefficients:
    return _build(spec, ctx, "germ", _GERMS)


_STRATEGY_KEYS = {f.name for f in fields(SearchStrategy)}


def build_strategy(spec, ctx: str = "search") -> SearchStrategy:
    if spec is None:
        return SearchStrategy()
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    _check_keys(spec, _STRATEGY_KEYS, ctx)
    try:
        return SearchStrategy(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _degree_list(spec: dict, key: str, ctx: str, minimum: int = 1) -> list[int]:
    raw = _need(spec, key, ctx)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{ctx}: {key} must be a non-empty list of integers")
    out = []
    for v in raw:
        if not is_integer_at_least(v, minimum):
            raise ConfigError(f"{ctx}: {key} entries must be integers >= {minimum}")
        out.append(v)
    return out


def _number_at_least(spec: dict, key: str, default, minimum, ctx: str, kind=int):
    """spec[key] as an int (or finite float) >= minimum; a default of None means required.

    An int key takes only a true int, never a float to truncate; no key takes a bool.
    """
    raw = _need(spec, key, ctx) if default is None else spec.get(key, default)
    if kind is int:
        if not is_integer_at_least(raw, minimum):
            raise ConfigError(f"{ctx}: {key} must be an integer >= {minimum}, got {raw!r}")
        return raw
    try:
        value = _to_float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{ctx}: {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{ctx}: {key} must be a finite number, got {value}")
    if value < minimum:
        raise ConfigError(f"{ctx}: {key} must be at least {minimum}, got {value}")
    return value


def _real(spec: dict, key: str, ctx: str, default=None) -> float:
    """spec[key] as any finite real number; a default of None means required."""
    return _number_at_least(spec, key, default, -math.inf, ctx, float)


def _cell_seed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(int(v) for v in key))


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class RunResult:
    """Everything one experiment run produced, before serialization."""

    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def add(self, quantity: str, value: float, label: str | None = None, **where) -> None:
        """Append a row under this run's experiment, seed and, by default, label.

        `where` holds the row's address (s, i, j), std_error and wall_clock.
        """
        cfg = self.config
        label = cfg.label if label is None else label
        self.rows.append(ReportRow(cfg.experiment, label, quantity, value, cfg.seed, **where))


class _Search:
    """A driver's `search` knobs and `search_cap`, read once, and its timed search cells.

    Above the cap a cell scores the set's reference configuration alone, as
    it does with search.restarts 0; a set without one is a config error.
    A driver without a `search_cap` key (polya-check, stability) reads DEFAULT_SEARCH_CAP.
    """

    def __init__(self, result: RunResult, capped: bool = True):
        spec, ctx = result.config.spec, result.config.experiment
        self.result = result
        self.cap = math.inf
        if capped:
            self.cap = _number_at_least(spec, "search_cap", DEFAULT_SEARCH_CAP, 0, ctx)
        self.strategy = build_strategy(spec.get("search"))

    def run(self, search, kset: CompactSet, n: int, seed):
        """search(kset, n, strategy, seed) and its wall time; n is a degree or a size."""
        over = n > self.cap
        strategy = replace(self.strategy, restarts=0) if over else self.strategy
        try:
            return _timed(search, kset, n, strategy, seed)
        except ValueError as exc:
            if strategy.restarts:
                raise
            why = f"degree {n} exceeds the search cap {self.cap}" if over else None
            raise ConfigError(f"{why or 'search.restarts is 0'} and {exc}") from exc

    def d_s(self, kset: CompactSet, s: int, seed, quantity="d_s", label=None, **where):
        """The searched d_s cell: estimate d_s(K), append its timed row, return the estimate."""
        est, wall = self.run(transfinite_diameter_estimate, kset, s, seed)
        self.result.add(quantity, est.d_s, label, s=s, wall_clock=wall, **where)
        return est


def _log_zs(result: RunResult, measure: Measure, degrees: list[int]) -> list[float]:
    """log Z_s = log m_s! + log det G_{m_s} per degree, off one Gram prefix pass.

    Each value equals z_s_gram(measure, s) bit for bit; the pass's wall time
    goes to extras["prefix_pass_s"].
    """
    sizes = [count_at_most(measure.dim, s) for s in degrees]
    logdets, result.extras["prefix_pass_s"] = _timed(
        lambda: gram(measure, max(sizes)).prefix_logdets()
    )
    return [logdets[m - 1] + log_factorial(m) for m in sizes]


def _hankel_rows(
    result: RunResult, germ: GermCoefficients, i_max: int, label: str | None = None
) -> tuple[tuple[PolyaTerm, ...], float]:
    """log_hankel and, where defined, polya_D rows up to i_max; the terms and their time."""
    terms, wall = _timed(polya_sequence, germ, i_max)
    for term in terms:
        result.add("log_hankel", term.hankel, label, i=term.index)
        if term.quantity is not None:
            result.add("polya_D", term.quantity, label, i=term.index)
    return terms, wall


def run_tdiam(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    kset = build_compact(_need(spec, "set", "tdiam"))
    degrees = _degree_list(spec, "degrees", "tdiam")
    result = RunResult(cfg)
    search = _Search(result)
    for s in degrees:
        est = search.d_s(kset, s, _cell_seed(cfg.seed, 1, s))
        result.add("log_vdm", est.log_vdm, s=s)
    return result


def run_fekete(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    kset = build_compact(_need(spec, "set", "fekete"))
    sizes = _degree_list(spec, "sizes", "fekete")
    result = RunResult(cfg)
    search = _Search(result, capped=False)
    configs: dict[str, list] = {}
    for size in sizes:
        found, wall = search.run(fekete_search, kset, size, _cell_seed(cfg.seed, 2, size))
        result.add("log_vdm", found.log_abs, i=size, wall_clock=wall)
        configs[str(size)] = [
            [[float(v.real), float(v.imag)] for v in point] for point in found.points
        ]
    result.extras["configurations"] = configs
    return result


def run_hankel(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    germ = build_germ(_need(spec, "germ", "hankel"))
    i_max = _number_at_least(spec, "i_max", None, 1, "hankel")
    result = RunResult(cfg)
    _, result.extras["prefix_pass_s"] = _hankel_rows(result, germ, i_max)
    return result


def _build_pair(pair, p_idx: int) -> tuple[str, CompactSet, GermCoefficients, int, int]:
    """Polya-check pair p_idx, checked whole: (label, set, germ, s_max, i_max)."""
    ctx = f"polya-check.pairs[{p_idx}]"
    if not isinstance(pair, dict):
        raise ConfigError(f"{ctx}: expected a mapping")
    _check_keys(pair, _PAIR_KEYS, ctx)
    plabel = str(pair.get("label", f"pair{p_idx}"))
    _one_line(plabel, f"{ctx}: label")
    kset = build_compact(_need(pair, "set", ctx), f"{ctx}.set")
    germ = build_germ(_need(pair, "germ", ctx), f"{ctx}.germ")
    if kset.dim != germ.dim:
        raise ConfigError(f"{ctx}: set dimension {kset.dim} != germ dimension {germ.dim}")
    s_max = _number_at_least(pair, "s_max", None, 1, ctx)
    return plabel, kset, germ, s_max, count_at_most(kset.dim, s_max)


def run_polya_check(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    pairs = _need(spec, "pairs", "polya-check")
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("polya-check: pairs must be a non-empty list")
    slack = _number_at_least(spec, "slack", DEFAULT_SLACK, 0.0, "polya-check", float)
    result = RunResult(cfg)
    search = _Search(result)
    # every pair is checked before the first search runs
    built = [_build_pair(pair, p_idx) for p_idx, pair in enumerate(pairs)]
    passes = result.extras["prefix_pass_s"] = []
    for p_idx, (plabel, kset, germ, s_max, i_max) in enumerate(built):
        for s in range(1, s_max + 1):
            d_last = search.d_s(kset, s, _cell_seed(cfg.seed, 3, p_idx, s), label=plabel).d_s
        terms, wall = _hankel_rows(result, germ, i_max, plabel)
        passes.append(wall)
        # 0.0 when no D_i is defined (i_max 1), which never exceeds d_s + slack >= 0
        top = max((t.quantity for t in terms if t.quantity is not None), default=0.0)
        result.add("max_polya_D", top, plabel, i=i_max)
        if top > d_last + slack:
            result.flags.append(
                f"{plabel}: max D_i = {top:.6f} exceeds d_{s_max} = {d_last:.6f} "
                f"+ slack {slack}"
            )
    return result


def run_sharpness(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    kset = build_compact(_need(spec, "set", "sharpness"))
    if not kset.is_real:
        raise ConfigError(
            "sharpness: the pipeline is only valid for real sets (K inside R^n); "
            f"got a non-real set of kind {type(kset).__name__}"
        )
    measure = build_measure(_need(spec, "measure", "sharpness"))
    if measure.dim != kset.dim:
        raise ConfigError("sharpness: measure and set dimensions differ")
    # a coarse grid of the support holds every atom, endpoint and corner
    for point in measure.support.grid(4):
        if not kset.contains(point, tol=1e-6):
            raise ConfigError("sharpness: the measure is not supported on the set")
    degrees = _degree_list(spec, "degrees", "sharpness")
    result = RunResult(cfg)
    search = _Search(result)
    tol = _number_at_least(spec, "tolerance", DEFAULT_SHARPNESS_TOL, 0.0, "sharpness", float)
    log_zs = _log_zs(result, measure, degrees)
    m_top = count_at_most(kset.dim, max(degrees))
    terms, wall = _timed(polya_sequence, coeffs_from_measure(measure), m_top)
    result.extras["prefix_pass_s"] += wall  # the Hankel route's prefix pass
    for s, log_z in zip(degrees, log_zs):
        m = count_at_most(kset.dim, s)
        term = terms[m - 1]  # polya_term(germ, m): log|H_m| and D at degree s
        hankel_route = log_factorial(m) + term.hankel
        # equal values cover the doubly singular case (-inf on both sides)
        diff = 0.0 if log_z == hankel_route else log_z - hankel_route
        result.add("log_zs", log_z, s=s)
        result.add("log_hankel_route", hankel_route, s=s)
        result.add("sharpness_diff", diff, s=s)
        result.add("polya_D", term.quantity, s=s)  # 0 for a singular H
        d_s = search.d_s(kset, s, _cell_seed(cfg.seed, 4, s)).d_s
        result.add("sharpness_gap", abs(term.quantity - d_s), s=s)
        if abs(diff) > tol:  # False for a NaN diff
            result.flags.append(
                f"s={s}: Gram and Hankel routes disagree by {diff:.3e} (tolerance {tol})"
            )
    return result


def run_stability(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    family = build_family(_need(spec, "family", "stability"))
    s = _number_at_least(spec, "s", None, 1, "stability")
    j_values = _degree_list(spec, "j_values", "stability")
    if any(b <= a for a, b in zip(j_values, j_values[1:])):
        raise ConfigError("stability: j_values must be strictly increasing")
    result = RunResult(cfg)
    search = _Search(result)
    values = []
    for j in j_values:
        try:
            member = family.member(j)
        except ValueError as exc:
            raise ConfigError(f"stability: family member j={j} is degenerate: {exc}") from exc
        values.append(search.d_s(member, s, _cell_seed(cfg.seed, 5, j), j=j).d_s)
    base = search.d_s(family.limit, s, _cell_seed(cfg.seed, 5, 0), "d_s_limit").d_s
    # an outer column decreases onto the base and an inner one increases onto
    # it; negating an inner column makes both one comparison (negation is exact)
    sign = 1.0 if family.direction == "outer" else -1.0
    column = [sign * v for v in values]
    ordered = all(x > y for x, y in zip(column, column[1:]))
    if not (ordered and all(v >= sign * base - 1e-12 for v in column)):
        trend = "decreasing" if sign > 0 else "increasing"
        result.flags.append(
            f"{family.direction} family column is not strictly {trend} toward the base"
        )
    return result


def run_zs_check(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    measure = build_measure(_need(spec, "measure", "zs-check"))
    degrees = _degree_list(spec, "degrees", "zs-check", minimum=0)
    given = {}  # a sample count the config sets; else z_s_montecarlo's default
    if "samples" in spec:
        given["samples"] = _number_at_least(spec, "samples", None, 2, "zs-check")
    result = RunResult(cfg)
    for s, log_gram in zip(degrees, _log_zs(result, measure, degrees)):
        mc, wall = _timed(z_s_montecarlo, measure, s, seed=_cell_seed(cfg.seed, 6, s), **given)
        if mc.std_error_log > 0 and math.isfinite(mc.log_value) and math.isfinite(log_gram):
            zscore = (mc.log_value - log_gram) / mc.std_error_log
        else:
            # no error bar (every sample equal, as at s = 0) or a singular side:
            # agreement up to rounding, the doubly singular case included
            close = math.isclose(mc.log_value, log_gram, rel_tol=1e-12, abs_tol=1e-12)
            zscore = 0.0 if close else math.inf
        result.add("log_zs_gram", log_gram, s=s)
        result.add("log_zs_mc", mc.log_value, s=s, std_error=mc.std_error_log, wall_clock=wall)
        result.add("zscore", zscore, s=s)
        if abs(zscore) > 3.0:
            result.flags.append(f"s={s}: Monte Carlo and Gram routes disagree ({zscore:.2f} sigma)")
    return result


def run_bm_ratio(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    measure = build_measure(_need(spec, "measure", "bm-ratio"))
    degrees = _degree_list(spec, "degrees", "bm-ratio", minimum=0)
    grid = _number_at_least(spec, "grid", None, 1, "bm-ratio") if "grid" in spec else None
    result = RunResult(cfg)
    for s in degrees:
        ratio, wall = _timed(bernstein_markov_ratio, measure, s, per_axis=grid)
        result.add("bm_ratio", ratio, s=s, wall_clock=wall)
        if s >= 1 and math.isfinite(ratio):
            result.add("bm_ratio_root", ratio ** (1.0 / s), s=s)
        if not math.isfinite(ratio):
            result.flags.append(f"s={s}: ratio is infinite (singular Gram matrix)")
    return result


_PAIR_KEYS = {"label", "set", "germ", "s_max"}

# each experiment's payload keys, any other being a config error, and its driver
_EXPERIMENTS = {
    "tdiam": ({"set", "degrees", "search_cap", "search"}, run_tdiam),
    "fekete": ({"set", "sizes", "search"}, run_fekete),
    "hankel": ({"germ", "i_max"}, run_hankel),
    "polya-check": ({"pairs", "slack", "search"}, run_polya_check),
    "sharpness": ({"set", "measure", "degrees", "search_cap", "tolerance", "search"},
                  run_sharpness),
    "stability": ({"family", "s", "j_values", "search"}, run_stability),
    "zs-check": ({"measure", "degrees", "samples"}, run_zs_check),
    "bm-ratio": ({"measure", "degrees", "grid"}, run_bm_ratio),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunResult:
    """Dispatch to the driver; wall clock covers the whole run.

    Runs are serial. `workers` is kept only because the benchmark in
    `perfbench/` still passes `workers=1`; any other value is rejected.
    """
    if workers != 1:
        raise ConfigError(f"runs are serial; workers must be 1, got {workers!r}")
    result, wall = _timed(_EXPERIMENTS[cfg.experiment][1], cfg)
    result.wall_clock = wall
    return result
