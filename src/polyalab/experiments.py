"""Experiment configuration and drivers behind the CLI.

A config file is one YAML mapping: `experiment` picks the driver, `label`,
`seed`, and `schema` are bookkeeping, and the remaining keys are the
driver's payload (sets, measures, germs, degree lists, search knobs).
Every driver is a pure function of (config, seed), so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from .domains import (
    Box,
    Circle,
    CompactFamily,
    CompactSet,
    Disk,
    FiniteSet,
    Interval,
    ProductSet,
    constant_family,
    interval_family,
)
from .functionals import (
    GermCoefficients,
    HankelSequenceReport,
    coeffs_from_contour,
    coeffs_from_measure,
    hankel_logdet,
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
    log_factorial,
    z_s_gram,
    z_s_montecarlo,
)
from .multiindex import count_at_most, degree_counts
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

EXPERIMENT_KINDS = (
    "tdiam",
    "fekete",
    "hankel",
    "polya-check",
    "sharpness",
    "stability",
    "zs-check",
    "bm-ratio",
)

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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        bad = _RESERVED_KEYS & set(self.spec)
        if bad:
            raise ConfigError(f"payload keys collide with reserved names: {sorted(bad)}")

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


def _need(spec: dict, key: str, ctx: str):
    if key not in spec:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return spec[key]


def _as_scalar(value, what: str, ctx: str) -> complex:
    """A config scalar: a real number, or a {re:, im:} mapping; `what` names it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value))
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        try:
            return complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{ctx}: {what} must be a number or {{re, im}} mapping, got {value!r}")


def _as_point(value, key: str, ctx: str) -> tuple[complex, ...]:
    what = f"each {key} coordinate"
    if isinstance(value, (list, tuple)):
        return tuple(_as_scalar(v, what, ctx) for v in value)
    return (_as_scalar(value, what, ctx),)


def _as_fraction(value, ctx: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            raise ConfigError(f"{ctx}: bad fraction literal {value!r}") from exc
    raise ConfigError(f"{ctx}: expected a number or fraction string, got {value!r}")


def _bounds(value, ctx: str) -> tuple[tuple[float, float], ...]:
    """A box's bounds: a list of [low, high] pairs of real numbers."""
    try:
        return tuple((float(a), float(b)) for a, b in value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{ctx}: bounds must be a list of [low, high] number pairs, got {value!r}"
        ) from None


def build_compact(spec, ctx: str = "set") -> CompactSet:
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    try:
        if kind == "interval":
            return Interval(_real(spec, "a", ctx), _real(spec, "b", ctx))
        if kind == "circle":
            center = _as_scalar(spec.get("center", 0.0), "center", ctx)
            return Circle(center, _real(spec, "radius", ctx))
        if kind == "disk":
            center = _as_scalar(spec.get("center", 0.0), "center", ctx)
            return Disk(center, _real(spec, "radius", ctx))
        if kind == "box":
            return Box(_bounds(_need(spec, "bounds", ctx), ctx))
        if kind == "product":
            factors = _need(spec, "factors", ctx)
            return ProductSet(
                tuple(build_compact(f, f"{ctx}.factors[{i}]") for i, f in enumerate(factors))
            )
        if kind == "finite":
            points = _need(spec, "points", ctx)
            return FiniteSet(tuple(_as_point(p, "points", ctx) for p in points))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}: unknown compact-set kind {kind!r}")


def build_family(spec, ctx: str = "family") -> CompactFamily:
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    try:
        if kind == "interval":
            return interval_family(
                _real(spec, "a", ctx),
                _real(spec, "b", ctx),
                side=str(spec.get("side", "outer")),
                rate=_real(spec, "rate", ctx, 1.0),
            )
        if kind == "constant":
            return constant_family(build_compact(_need(spec, "set", ctx), f"{ctx}.set"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}: unknown family kind {kind!r}")


def build_measure(spec, ctx: str = "measure") -> Measure:
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    mass = spec.get("mass")
    try:
        if kind == "arcsine":
            out: Measure = ArcsineMeasure(_real(spec, "a", ctx, -1.0), _real(spec, "b", ctx, 1.0))
        elif kind == "uniform":
            out = UniformSegment(_real(spec, "a", ctx), _real(spec, "b", ctx))
        elif kind == "circle":
            out = CircleUniform(_real(spec, "radius", ctx, 1.0))
        elif kind == "disk":
            out = DiskUniform(_real(spec, "radius", ctx, 1.0))
        elif kind == "discrete":
            atoms = tuple(
                _as_point(p, "atoms", ctx) for p in _need(spec, "atoms", ctx)
            )
            weights = tuple(
                _as_fraction(w, f"{ctx}.weights") for w in _need(spec, "weights", ctx)
            )
            out = DiscreteMeasure(atoms, weights)
        elif kind == "product":
            factors = _need(spec, "factors", ctx)
            out = ProductMeasure(
                tuple(build_measure(f, f"{ctx}.factors[{i}]") for i, f in enumerate(factors))
            )
        else:
            raise ConfigError(f"{ctx}: unknown measure kind {kind!r}")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    if mass is not None:
        out = ScaledMeasure(out, _as_fraction(mass, f"{ctx}.mass"))
    return out


def _contour_germ(spec, ctx: str) -> tuple[Callable[..., Any], int, str]:
    kind = _need(spec, "kind", ctx)
    if kind == "inverse":
        return (lambda z: 1.0 / z), 1, "inverse"
    if kind == "geometric":
        c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
        return (lambda z: 1.0 / (z - c)), 1, f"geometric({c})"
    if kind == "inverse-product":
        dim = _number_at_least(spec, "dim", 2, 1, ctx)

        def germ(*zs):
            out = 1.0
            for z in zs:
                out = out / z
            return out

        return germ, dim, f"inverse-product(dim={dim})"
    raise ConfigError(f"{ctx}: unknown contour germ kind {kind!r}")


def build_germ(spec, ctx: str = "germ") -> GermCoefficients:
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    kind = _need(spec, "kind", ctx)
    if kind == "measure":
        measure = build_measure(_need(spec, "measure", ctx), f"{ctx}.measure")
        return coeffs_from_measure(measure)
    if kind in ("point-mass", "geometric"):
        # 1/(z - c) = sum_k c^k z^(-k-1): the moments of a unit point mass at c
        c = _as_scalar(_need(spec, "c", ctx), "c", ctx)
        return coeffs_from_measure(DiscreteMeasure(((c,),), (1,)), kind)
    if kind == "contour":
        germ, dim, label = _contour_germ(_need(spec, "germ", ctx), f"{ctx}.germ")
        radius = _real(spec, "radius", ctx)
        grid = _number_at_least(spec, "grid", 64, 1, ctx)
        try:
            return coeffs_from_contour(
                germ,
                dim=dim,
                radius=radius,
                grid_size=grid,
                label=label,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}: unknown germ kind {kind!r}")


_STRATEGY_KEYS = {
    "pool_size",
    "exchange_passes",
    "refine_levels",
    "refine_candidates",
    "restarts",
    "improvement_tol",
    "mode",
}


def build_strategy(spec, ctx: str = "search") -> SearchStrategy:
    if spec is None:
        return SearchStrategy()
    if not isinstance(spec, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {spec!r}")
    unknown = set(spec) - _STRATEGY_KEYS
    if unknown:
        raise ConfigError(f"{ctx}: unknown strategy keys {sorted(unknown)}")
    try:
        return SearchStrategy(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _is_integer_at_least(value, minimum: int) -> bool:
    # the one rule for integer config values: no bool, no float, no string
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _degree_list(spec: dict, key: str, ctx: str, minimum: int = 1) -> list[int]:
    raw = _need(spec, key, ctx)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{ctx}: {key} must be a non-empty list of integers")
    out = []
    for v in raw:
        if not _is_integer_at_least(v, minimum):
            raise ConfigError(f"{ctx}: {key} entries must be integers >= {minimum}")
        out.append(v)
    return out


def _number_at_least(spec: dict, key: str, default, minimum, ctx: str, kind=int):
    """spec[key] as an int (or float) >= minimum; a default of None means required.

    An int key takes only a true int, never a float to truncate or a bool.
    """
    raw = _need(spec, key, ctx) if default is None else spec.get(key, default)
    if kind is int:
        if not _is_integer_at_least(raw, minimum):
            raise ConfigError(f"{ctx}: {key} must be an integer >= {minimum}, got {raw!r}")
        return raw
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{ctx}: {key} must be a number, got {raw!r}") from None
    if not value >= minimum:  # also rejects NaN
        raise ConfigError(f"{ctx}: {key} must be at least {minimum}, got {value}")
    return value


def _real(spec: dict, key: str, ctx: str, default=None) -> float:
    """spec[key] as any real number but NaN; a default of None means required."""
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
    """Search below the cap; above it fall back to the reference configuration."""
    if s <= cap:
        return transfinite_diameter_estimate(kset, s, strategy, seed)
    ref_strategy = replace(strategy, mode="reference")
    try:
        return transfinite_diameter_estimate(kset, s, ref_strategy, seed)
    except ValueError as exc:
        raise ConfigError(
            f"degree {s} exceeds the search cap {cap} and the set has no "
            f"reference configuration to evaluate instead"
        ) from exc


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
        found = fekete_search(kset, size, strategy, _cell_seed(cfg.seed, 2, size))
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
                cfg.experiment, label, "log_hankel", term.hankel.log_abs,
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
    germ = coeffs_from_measure(measure)
    result = RunResult(cfg)
    for s in degrees:
        counts = degree_counts(kset.dim, s)
        m = counts.at_most
        t0 = time.perf_counter()
        log_z = z_s_gram(measure, s).log_abs
        hank = hankel_logdet(germ, m)
        hankel_route = log_factorial(m) + hank.log_abs
        wall = time.perf_counter() - t0
        if log_z == hankel_route:
            diff = 0.0  # covers the doubly singular case (-inf on both sides)
        else:
            diff = log_z - hankel_route
        quantity = 0.0 if hank.is_zero else math.exp(hank.log_abs / (2.0 * counts.degree_sum))
        t0 = time.perf_counter()
        est = _diameter_with_cap(kset, s, strategy, cap, _cell_seed(cfg.seed, 4, s))
        search_wall = time.perf_counter() - t0
        result.rows.extend(
            [
                ReportRow(cfg.experiment, cfg.label, "log_zs", log_z, cfg.seed, s=s,
                          wall_clock=wall),
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
    chunk = _number_at_least(spec, "chunk_size", DEFAULT_CHUNK, 1, "zs-check")
    result = RunResult(cfg)
    for s in degrees:
        t0 = time.perf_counter()
        log_gram = z_s_gram(measure, s).log_abs
        mc = z_s_montecarlo(
            measure, s, samples=samples, seed=_cell_seed(cfg.seed, 6, s), chunk_size=chunk
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


_RUNNERS = {
    "tdiam": run_tdiam,
    "fekete": run_fekete,
    "hankel": run_hankel,
    "polya-check": run_polya_check,
    "sharpness": run_sharpness,
    "stability": run_stability,
    "zs-check": run_zs_check,
    "bm-ratio": run_bm_ratio,
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunResult:
    """Dispatch to the driver; wall clock covers the whole run.

    Runs are serial. `workers` is kept only because the benchmark in
    `perfbench/` still passes `workers=1`; any other value is rejected.
    """
    if workers != 1:
        raise ConfigError(f"runs are serial; workers must be 1, got {workers!r}")
    runner = _RUNNERS[cfg.experiment]
    t0 = time.perf_counter()
    result = runner(cfg)
    result.wall_clock = time.perf_counter() - t0
    return result
