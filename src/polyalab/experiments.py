"""Experiment configuration and drivers behind the CLI.

A config file is one YAML mapping: `experiment` picks the driver, `label`,
`seed`, and `schema` are bookkeeping, and the remaining keys are the
driver's payload (sets, measures, germs, degree lists, search knobs).
Every driver is a pure function of (config, seed), so reports are
reproducible byte for byte.
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
    FiniteSet,
    Interval,
    ProductSet,
    interval_family,
)
from .functionals import (
    GermCoefficients,
    HankelSequenceReport,
    coeffs_from_contour,
    coeffs_from_measure,
    hankel_matrix,
    polya_sequence,
)
from .measures import (
    ArcsineMeasure,
    CircleUniform,
    DiscreteMeasure,
    DiskUniform,
    Measure,
    ProductMeasure,
    ScaledMeasure,
    UniformSegment,
    bernstein_markov_ratio,
    gram,
    log_factorial,
    z_s_montecarlo,
)
from .multiindex import count_at_most, degree_counts, is_integer_at_least
from .reporting import ReportRow, SCHEMA_VERSION
from .vandermonde import (
    SearchStrategy,
    fekete_search,
    transfinite_diameter_estimate,
)

DEFAULT_SLACK = 0.05
DEFAULT_SEARCH_CAP = 30
DEFAULT_SHARPNESS_TOL = 1e-10
DEFAULT_SAMPLES = 100_000
DEFAULT_CHUNK = 4096
DEFAULT_GRID = 4096

_RESERVED_KEYS = {"schema", "experiment", "label", "seed"}


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
        if "\r" in self.label or "\n" in self.label:
            raise ConfigError(f"label must be one line (CSV cell), got {self.label!r}")
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
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    def dump_text(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


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


def _build(spec, ctx: str, noun: str, kinds: dict, shared: tuple = ()):
    """One `kind:` mapping, read by its entry (accepted keys, constructor) in `kinds`.

    Keys outside the kind's own, `kind` and `shared` are a config error.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{ctx}: unknown {noun} kind {kind!r}")
    keys, make = kinds[kind]
    _check_keys(spec, {"kind", *keys, *shared}, ctx)
    try:
        return make(spec, ctx)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _each(build, spec: dict, key: str, ctx: str) -> tuple:
    """build over the list spec[key], each entry in its own context."""
    return tuple(build(f, f"{ctx}.{key}[{i}]") for i, f in enumerate(_need(spec, key, ctx)))


def _center(spec: dict, ctx: str) -> complex:
    return _as_scalar(spec.get("center", 0.0), "center", ctx)


_SETS = {
    "interval": ({"a", "b"}, lambda s, c: Interval(_real(s, "a", c), _real(s, "b", c))),
    "circle": ({"center", "radius"}, lambda s, c: Circle(_center(s, c), _real(s, "radius", c))),
    "disk": ({"center", "radius"}, lambda s, c: Disk(_center(s, c), _real(s, "radius", c))),
    "box": ({"bounds"}, lambda s, c: ProductSet(
        tuple(Interval(a, b) for a, b in _bounds(_need(s, "bounds", c), c))
    )),
    "product": ({"factors"}, lambda s, c: ProductSet(_each(build_compact, s, "factors", c))),
    "finite": ({"points"}, lambda s, c: FiniteSet(_each(_as_point, s, "points", c))),
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
    """A measure of any kind, scaled to total mass `mass` when the spec gives one."""
    out = _build(spec, ctx, "measure", _MEASURES, ("mass",))
    mass = spec.get("mass")
    if mass is not None:
        out = ScaledMeasure(out, _as_fraction(mass, f"{ctx}.mass"))
    return out


def _geometric_contour(spec: dict, ctx: str) -> tuple[Callable[..., Any], int, str]:
    c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
    return (lambda z: 1.0 / (z - c)), 1, f"geometric({c})"


def _inverse_product_contour(spec: dict, ctx: str) -> tuple[Callable[..., Any], int, str]:
    dim = _number_at_least(spec, "dim", 2, 1, ctx)
    return (lambda *zs: reduce(truediv, zs, 1.0)), dim, f"inverse-product(dim={dim})"


# each contour germ kind gives (function, dimension, label)
_CONTOUR_GERMS = {
    "inverse": (set(), lambda s, c: ((lambda z: 1.0 / z), 1, "inverse")),
    "geometric": ({"c"}, _geometric_contour),
    "inverse-product": ({"dim"}, _inverse_product_contour),
}


def _point_mass_germ(spec: dict, ctx: str) -> GermCoefficients:
    # 1/(z - c) = sum_k c^k z^(-k-1): the moments of a unit point mass at c
    c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
    return coeffs_from_measure(DiscreteMeasure(((c,),), (1,)), spec["kind"])


def _contour_germ(spec: dict, ctx: str) -> GermCoefficients:
    germ, dim, label = _build(_need(spec, "germ", ctx), f"{ctx}.germ", "contour germ",
                              _CONTOUR_GERMS)
    radius = _real(spec, "radius", ctx)
    grid = _number_at_least(spec, "grid", 64, 1, ctx)
    return coeffs_from_contour(germ, dim=dim, radius=radius, grid_size=grid, label=label)


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


@dataclass
class RunResult:
    """Everything one experiment run produced, before serialization."""

    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_clock: float = 0.0


def _diameter_with_cap(
    kset: CompactSet,
    s: int,
    strategy: SearchStrategy,
    cap: int,
    seed,
):
    """Search up to the cap; above it evaluate the reference configuration alone."""
    if s > cap:
        strategy = replace(strategy, restarts=0)
    try:
        return transfinite_diameter_estimate(kset, s, strategy, seed)
    except ValueError as exc:
        if strategy.restarts:
            raise
        why = f"degree {s} exceeds the search cap {cap}" if s > cap else "search.restarts is 0"
        raise ConfigError(f"{why} and {exc}") from exc


def run_tdiam(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    kset = build_compact(_need(spec, "set", "tdiam"))
    degrees = _degree_list(spec, "degrees", "tdiam")
    cap = _number_at_least(spec, "search_cap", DEFAULT_SEARCH_CAP, 0, "tdiam")
    strategy = build_strategy(spec.get("search"))
    result = RunResult(cfg)
    for s in degrees:
        t0 = time.perf_counter()
        est = _diameter_with_cap(kset, s, strategy, cap, _cell_seed(cfg.seed, 1, s))
        wall = time.perf_counter() - t0
        result.rows.append(
            ReportRow(cfg.experiment, cfg.label, "d_s", est.d_s, cfg.seed, s=s, wall_clock=wall)
        )
        result.rows.append(
            ReportRow(cfg.experiment, cfg.label, "log_vdm", est.log_vdm, cfg.seed, s=s)
        )
    return result


def run_fekete(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    kset = build_compact(_need(spec, "set", "fekete"))
    sizes = _degree_list(spec, "sizes", "fekete")
    strategy = build_strategy(spec.get("search"))
    result = RunResult(cfg)
    configs: dict[str, list] = {}
    for size in sizes:
        t0 = time.perf_counter()
        try:
            found = fekete_search(kset, size, strategy, _cell_seed(cfg.seed, 2, size))
        except ValueError as exc:
            if strategy.restarts:
                raise
            raise ConfigError(f"search.restarts is 0 and {exc}") from exc
        wall = time.perf_counter() - t0
        result.rows.append(
            ReportRow(
                cfg.experiment, cfg.label, "log_vdm", found.log_abs, cfg.seed,
                i=size, wall_clock=wall,
            )
        )
        configs[str(size)] = [
            [[float(v.real), float(v.imag)] for v in point] for point in found.points
        ]
    result.extras["configurations"] = configs
    return result


def _hankel_rows(
    cfg: ExperimentConfig, label: str, report: HankelSequenceReport, wall: float
) -> list[ReportRow]:
    """log_hankel and, where defined, polya_D rows for each term of the sequence."""
    rows = []
    per_term = wall / len(report.terms)
    for term in report.terms:
        rows.append(
            ReportRow(
                cfg.experiment, label, "log_hankel", term.hankel,
                cfg.seed, i=term.index, wall_clock=per_term,
            )
        )
        if term.quantity is not None:
            rows.append(
                ReportRow(
                    cfg.experiment, label, "polya_D", term.quantity,
                    cfg.seed, i=term.index,
                )
            )
    return rows


def run_hankel(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    germ = build_germ(_need(spec, "germ", "hankel"))
    i_max = _number_at_least(spec, "i_max", None, 1, "hankel")
    result = RunResult(cfg)
    t0 = time.perf_counter()
    report = polya_sequence(germ, i_max)
    result.rows.extend(_hankel_rows(cfg, cfg.label, report, time.perf_counter() - t0))
    return result


def run_polya_check(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    pairs = _need(spec, "pairs", "polya-check")
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("polya-check: pairs must be a non-empty list")
    slack = _number_at_least(spec, "slack", DEFAULT_SLACK, 0.0, "polya-check", float)
    cap = _number_at_least(spec, "search_cap", DEFAULT_SEARCH_CAP, 0, "polya-check")
    strategy = build_strategy(spec.get("search"))
    result = RunResult(cfg)
    for p_idx, pair in enumerate(pairs):
        ctx = f"polya-check.pairs[{p_idx}]"
        if not isinstance(pair, dict):
            raise ConfigError(f"{ctx}: expected a mapping")
        _check_keys(pair, _PAIR_KEYS, ctx)
        plabel = str(pair.get("label", f"pair{p_idx}"))
        kset = build_compact(_need(pair, "set", ctx), f"{ctx}.set")
        germ = build_germ(_need(pair, "germ", ctx), f"{ctx}.germ")
        if kset.dim != germ.dim:
            raise ConfigError(f"{ctx}: set dimension {kset.dim} != germ dimension {germ.dim}")
        s_max = _number_at_least(pair, "s_max", None, 1, ctx)
        i_max = _number_at_least(pair, "i_max", count_at_most(kset.dim, s_max), 1, ctx)
        d_last = None
        for s in range(1, s_max + 1):
            t0 = time.perf_counter()
            est = _diameter_with_cap(kset, s, strategy, cap, _cell_seed(cfg.seed, 3, p_idx, s))
            wall = time.perf_counter() - t0
            result.rows.append(
                ReportRow(
                    cfg.experiment, plabel, "d_s", est.d_s, cfg.seed, s=s, wall_clock=wall
                )
            )
            d_last = est.d_s
        t0 = time.perf_counter()
        report = polya_sequence(germ, i_max)
        result.rows.extend(_hankel_rows(cfg, plabel, report, time.perf_counter() - t0))
        top = report.max_quantity()
        result.rows.append(
            ReportRow(
                cfg.experiment, plabel, "max_polya_D",
                top if top is not None else 0.0, cfg.seed, i=i_max,
            )
        )
        if top is not None and d_last is not None and top > d_last + slack:
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
    rng = np.random.default_rng(_cell_seed(cfg.seed, 4, 0))
    for point in measure.sample(rng, 16):
        if not kset.contains(point, tol=1e-6):
            raise ConfigError("sharpness: the measure is not supported on the set")
    degrees = _degree_list(spec, "degrees", "sharpness")
    cap = _number_at_least(spec, "search_cap", DEFAULT_SEARCH_CAP, 0, "sharpness")
    tol = _number_at_least(spec, "tolerance", DEFAULT_SHARPNESS_TOL, 0.0, "sharpness", float)
    strategy = build_strategy(spec.get("search"))
    result = RunResult(cfg)
    t0 = time.perf_counter()
    m_top = count_at_most(kset.dim, max(degrees))
    gram_logdets = gram(measure, m_top).prefix_logdets()
    hankel_logdets = hankel_matrix(coeffs_from_measure(measure), m_top).prefix_logdets()
    result.extras["prefix_pass_s"] = time.perf_counter() - t0
    for s in degrees:
        counts = degree_counts(kset.dim, s)
        m = counts.at_most
        log_z = gram_logdets[m - 1] + log_factorial(m)  # z_s_gram(measure, s)
        hank = hankel_logdets[m - 1]  # hankel_logdet(germ, m)
        hankel_route = log_factorial(m) + hank
        if log_z == hankel_route:
            diff = 0.0  # covers the doubly singular case (-inf on both sides)
        else:
            diff = log_z - hankel_route
        quantity = math.exp(hank / (2.0 * counts.degree_sum))  # 0 for a singular H
        t0 = time.perf_counter()
        est = _diameter_with_cap(kset, s, strategy, cap, _cell_seed(cfg.seed, 4, s))
        search_wall = time.perf_counter() - t0
        result.rows.extend(
            [
                ReportRow(cfg.experiment, cfg.label, "log_zs", log_z, cfg.seed, s=s),
                ReportRow(cfg.experiment, cfg.label, "log_hankel_route", hankel_route,
                          cfg.seed, s=s),
                ReportRow(cfg.experiment, cfg.label, "sharpness_diff", diff, cfg.seed, s=s),
                ReportRow(cfg.experiment, cfg.label, "polya_D", quantity, cfg.seed, s=s),
                ReportRow(cfg.experiment, cfg.label, "d_s", est.d_s, cfg.seed, s=s,
                          wall_clock=search_wall),
                ReportRow(cfg.experiment, cfg.label, "sharpness_gap",
                          abs(quantity - est.d_s), cfg.seed, s=s),
            ]
        )
        if not math.isnan(diff) and abs(diff) > tol:
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
    cap = _number_at_least(spec, "search_cap", DEFAULT_SEARCH_CAP, 0, "stability")
    strategy = build_strategy(spec.get("search"))
    result = RunResult(cfg)
    values = []
    for j in j_values:
        try:
            member = family.member(j)
        except ValueError as exc:
            raise ConfigError(f"stability: family member j={j} is degenerate: {exc}") from exc
        t0 = time.perf_counter()
        est = _diameter_with_cap(member, s, strategy, cap, _cell_seed(cfg.seed, 5, j))
        wall = time.perf_counter() - t0
        result.rows.append(
            ReportRow(cfg.experiment, cfg.label, "d_s", est.d_s, cfg.seed, s=s, j=j,
                      wall_clock=wall)
        )
        values.append(est.d_s)
    t0 = time.perf_counter()
    base = _diameter_with_cap(family.limit, s, strategy, cap, _cell_seed(cfg.seed, 5, 0))
    wall = time.perf_counter() - t0
    result.rows.append(
        ReportRow(cfg.experiment, cfg.label, "d_s_limit", base.d_s, cfg.seed, s=s,
                  wall_clock=wall)
    )
    if family.direction == "outer":
        ok = all(x > y for x, y in zip(values, values[1:])) and all(
            v >= base.d_s - 1e-12 for v in values
        )
        if not ok:
            result.flags.append("outer family column is not strictly decreasing toward the base")
    elif family.direction == "inner":
        ok = all(x < y for x, y in zip(values, values[1:])) and all(
            v <= base.d_s + 1e-12 for v in values
        )
        if not ok:
            result.flags.append("inner family column is not strictly increasing toward the base")
    return result


def run_zs_check(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    measure = build_measure(_need(spec, "measure", "zs-check"))
    degrees = _degree_list(spec, "degrees", "zs-check", minimum=0)
    samples = _number_at_least(spec, "samples", DEFAULT_SAMPLES, 2, "zs-check")
    result = RunResult(cfg)
    t0 = time.perf_counter()
    gram_logdets = gram(measure, count_at_most(measure.dim, max(degrees))).prefix_logdets()
    result.extras["prefix_pass_s"] = time.perf_counter() - t0
    for s in degrees:
        m = count_at_most(measure.dim, s)
        log_gram = gram_logdets[m - 1] + log_factorial(m)  # z_s_gram(measure, s)
        t0 = time.perf_counter()
        mc = z_s_montecarlo(
            measure, s, samples=samples, seed=_cell_seed(cfg.seed, 6, s), chunk_size=DEFAULT_CHUNK
        )
        wall = time.perf_counter() - t0
        if log_gram == mc.log_value:
            zscore = 0.0  # exact agreement, including the doubly singular case
        elif mc.std_error_log > 0 and math.isfinite(mc.log_value) and math.isfinite(log_gram):
            zscore = (mc.log_value - log_gram) / mc.std_error_log
        else:
            zscore = math.inf
        result.rows.extend(
            [
                ReportRow(cfg.experiment, cfg.label, "log_zs_gram", log_gram, cfg.seed,
                          s=s, wall_clock=wall),
                ReportRow(cfg.experiment, cfg.label, "log_zs_mc", mc.log_value, cfg.seed,
                          s=s, std_error=mc.std_error_log),
                ReportRow(cfg.experiment, cfg.label, "zscore", zscore, cfg.seed, s=s),
            ]
        )
        if abs(zscore) > 3.0:
            result.flags.append(
                f"s={s}: Monte Carlo and Gram routes disagree ({zscore:.2f} sigma)"
            )
    return result


def run_bm_ratio(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.spec
    measure = build_measure(_need(spec, "measure", "bm-ratio"))
    degrees = _degree_list(spec, "degrees", "bm-ratio", minimum=0)
    grid = _number_at_least(spec, "grid", DEFAULT_GRID, 1, "bm-ratio")
    result = RunResult(cfg)
    for s in degrees:
        t0 = time.perf_counter()
        ratio = bernstein_markov_ratio(measure, s, per_axis=grid)
        wall = time.perf_counter() - t0
        result.rows.append(
            ReportRow(cfg.experiment, cfg.label, "bm_ratio", ratio, cfg.seed, s=s,
                      wall_clock=wall)
        )
        if s >= 1 and math.isfinite(ratio):
            result.rows.append(
                ReportRow(cfg.experiment, cfg.label, "bm_ratio_root",
                          ratio ** (1.0 / s), cfg.seed, s=s)
            )
        if not math.isfinite(ratio):
            result.flags.append(f"s={s}: ratio is infinite (singular Gram matrix)")
    return result


_PAIR_KEYS = {"label", "set", "germ", "s_max", "i_max"}

# each experiment's payload keys, any other being a config error, and its driver
_EXPERIMENTS = {
    "tdiam": ({"set", "degrees", "search_cap", "search"}, run_tdiam),
    "fekete": ({"set", "sizes", "search"}, run_fekete),
    "hankel": ({"germ", "i_max"}, run_hankel),
    "polya-check": ({"pairs", "slack", "search_cap", "search"}, run_polya_check),
    "sharpness": ({"set", "measure", "degrees", "search_cap", "tolerance", "search"},
                  run_sharpness),
    "stability": ({"family", "s", "j_values", "search_cap", "search"}, run_stability),
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
    runner = _EXPERIMENTS[cfg.experiment][1]
    t0 = time.perf_counter()
    result = runner(cfg)
    result.wall_clock = time.perf_counter() - t0
    return result
