import inspect
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from polyalab import (
    ArcsineMeasure,
    Circle,
    ConfigError,
    DiscreteMeasure,
    ExperimentConfig,
    Interval,
    ProductMeasure,
    ProductSet,
    coeffs_from_measure,
    count_at_most,
    hankel_logdet,
    run_experiment,
    z_s_gram,
    z_s_montecarlo,
)
from polyalab import experiments
from polyalab.cli import main as cli_main
from polyalab.experiments import (
    build_compact,
    build_family,
    build_germ,
    build_measure,
    build_strategy,
)
from polyalab.functionals import MIN_CONTOUR_GRID
from polyalab.measures import DEFAULT_SAMPLES, MonteCarloEstimate, log_factorial
from polyalab.reporting import rows_to_csv_text
from polyalab.vandermonde import transfinite_diameter_estimate


def make_config(**kwargs):
    base = {"experiment": "tdiam", "label": "t", "seed": 0}
    base.update(kwargs)
    spec = base.pop("spec", {"set": {"kind": "circle", "radius": 1.0}, "degrees": [2]})
    return ExperimentConfig(spec=spec, **base)


def test_config_round_trip_through_dict_and_yaml():
    cfg = make_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    loaded = ExperimentConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
    assert loaded == cfg


def test_config_load_from_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(make_config().to_dict()))
    assert ExperimentConfig.load(path) == make_config()
    with pytest.raises(ConfigError):
        ExperimentConfig.load(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("just a string")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(bad)


_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(_ROOT.glob("configs/*.yaml")) + sorted(
    _ROOT.glob("perfbench/workloads/*/*.yaml")
)
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_every_shipped_config_loads_alike_under_either_yaml_loader(monkeypatch, loader):
    assert len(SHIPPED_CONFIGS) == 25
    monkeypatch.setattr(experiments, "_YAML_LOADER", loader)
    for path in SHIPPED_CONFIGS:
        text = path.read_text()
        assert yaml.load(text, Loader=loader) == yaml.safe_load(text), path
        assert ExperimentConfig.load(path) == ExperimentConfig.from_dict(yaml.safe_load(text)), path


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_invalid_yaml_is_a_config_error_under_either_loader(monkeypatch, tmp_path, loader):
    monkeypatch.setattr(experiments, "_YAML_LOADER", loader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: hankel\ndegrees: [1, 2\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        ExperimentConfig.load(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(experiment="warp")
    with pytest.raises(ConfigError):
        make_config(seed=-1)
    for seed in (True, False, 1.0, "1"):
        with pytest.raises(ConfigError, match="seed"):
            make_config(seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(yaml.safe_load("experiment: hankel\nseed: true\n"))
    for label in ("a\rb", "a\nb", "\r\n"):
        with pytest.raises(ConfigError, match="label"):
            make_config(label=label)
    with pytest.raises(ConfigError):
        make_config(spec={"seed": 1})  # collides with a reserved key
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"label": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "tdiam", "schema": 99})


def test_build_compact_kinds():
    assert build_compact({"kind": "interval", "a": 0, "b": 1}) == Interval(0.0, 1.0)
    assert build_compact({"kind": "circle", "radius": 2}) == Circle(0.0, 2.0)
    box = build_compact({"kind": "box", "bounds": [[0, 1], [2, 3]]})
    assert box == ProductSet((Interval(0.0, 1.0), Interval(2.0, 3.0)))
    prod = build_compact(
        {"kind": "product", "factors": [{"kind": "interval", "a": 0, "b": 1}] * 2}
    )
    assert isinstance(prod, ProductSet)
    with pytest.raises(ConfigError):
        build_compact({"kind": "pentagon"})
    with pytest.raises(ConfigError):
        build_compact({"kind": "interval", "a": 0})
    with pytest.raises(ConfigError):
        build_compact({"kind": "interval", "a": 1, "b": 0})
    with pytest.raises(ConfigError):
        build_compact("interval")


def test_build_measure_kinds():
    arc = build_measure({"kind": "arcsine"})
    assert arc == ArcsineMeasure(-1.0, 1.0)
    disc = build_measure(
        {"kind": "discrete", "atoms": [0, 1], "weights": ["1/2", "1/2"]}
    )
    assert isinstance(disc, DiscreteMeasure)
    assert disc.moment_fraction((1,)) == Fraction(1, 2)
    prod = build_measure(
        {"kind": "product", "factors": [{"kind": "arcsine"}, {"kind": "uniform", "a": 0, "b": 1}]}
    )
    assert isinstance(prod, ProductMeasure)
    with pytest.raises(ConfigError):
        build_measure({"kind": "gaussian"})
    with pytest.raises(ConfigError):
        build_measure({"kind": "discrete", "atoms": [0], "weights": ["one"]})


def test_build_germ_kinds():
    point = build_germ({"kind": "point-mass", "c": 0.5})
    assert point.fn((3,)) == pytest.approx(0.125)
    assert point.exact_fn((3,)) == Fraction(1, 8)
    geo = build_germ({"kind": "geometric", "c": {"re": 0.0, "im": 0.5}})
    assert geo.fn((2,)) == pytest.approx(-0.25)
    assert geo.exact_fn((2,)) is None  # complex ratio has no rational moments
    assert all(geo.fn((k,)) == 0.5j**k for k in range(20))
    meas = build_germ({"kind": "measure", "measure": {"kind": "arcsine"}})
    assert meas.fn((2,)) == pytest.approx(0.5)
    cont = build_germ(
        {"kind": "contour", "germ": {"kind": "geometric", "c": 0.3}, "radius": 2.0}
    )
    assert cont.fn((4,)) == pytest.approx(0.3**4, abs=1e-10)
    prod = build_germ(
        {"kind": "contour", "germ": {"kind": "inverse-product", "dim": 2},
         "radius": 1.5, "grid": 16}
    )
    assert prod.dim == 2
    assert prod.fn((0, 0)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ConfigError):
        build_germ({"kind": "laurent"})
    with pytest.raises(ConfigError):
        build_germ({"kind": "contour", "germ": {"kind": "spiral"}, "radius": 1.0})


def test_build_family_and_strategy():
    fam = build_family({"kind": "interval", "a": -1, "b": 1, "side": "inner", "rate": 2})
    assert fam.direction == "inner"
    strat = build_strategy({"restarts": 3, "pool_size": 64})
    assert strat.restarts == 3 and strat.pool_size == 64
    assert build_strategy(None).pool_size == 512
    with pytest.raises(ConfigError):
        build_strategy({"temperature": 1.0})
    with pytest.raises(ConfigError):
        build_strategy({"workers": 2})
    bad = [
        ("restarts", 2.5), ("pool_size", 100.5), ("exchange_passes", 1.5),
        ("restarts", True), ("restarts", -1), ("pool_size", "64"),
        ("exchange_passes", -1), ("refine_levels", -1), ("refine_levels", 2.0),
    ]
    for key, value in bad:
        with pytest.raises(ConfigError, match=key):
            build_strategy({key: value})
    ok = build_strategy({"exchange_passes": 0, "refine_levels": 0})
    assert (ok.exchange_passes, ok.refine_levels) == (0, 0)
    with pytest.raises(ConfigError):
        build_family({"kind": "interval", "a": 0, "b": 1, "side": "diagonal"})


@pytest.mark.parametrize("key, value", [("improvement_tol", 1e-10), ("refine_candidates", 12)])
def test_search_fixes_its_tolerance_and_refinement_draws(key, value):
    # module constants of the search, not settings: even their own values are unknown keys
    with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
        build_strategy({key: value})


def test_tdiam_runner_is_deterministic():
    cfg = make_config(spec={"set": {"kind": "circle", "radius": 1.0},
                            "degrees": [2, 3],
                            "search": {"restarts": 2}})
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert rows_to_csv_text(a.rows) == rows_to_csv_text(b.rows)
    d2 = next(r for r in a.rows if r.quantity == "d_s" and r.s == 2)
    assert d2.value == pytest.approx(3.0 ** (1.0 / 2.0), abs=1e-6)
    assert a.wall_clock > 0


def test_fekete_runner_reports_points():
    cfg = ExperimentConfig(
        "fekete", "f", 0,
        {"set": {"kind": "interval", "a": -1, "b": 1}, "sizes": [3],
         "search": {"restarts": 2}},
    )
    res = run_experiment(cfg)
    pts = res.extras["configurations"]["3"]
    assert len(pts) == 3
    flat = sorted(p[0][0] for p in pts)
    assert flat == pytest.approx([-1.0, 0.0, 1.0], abs=1e-7)


def test_hankel_runner_rows():
    cfg = ExperimentConfig(
        "hankel", "h", 0,
        {"germ": {"kind": "measure", "measure": {"kind": "arcsine"}}, "i_max": 4},
    )
    res = run_experiment(cfg)
    ds = [r for r in res.rows if r.quantity == "polya_D"]
    assert [r.i for r in ds] == [2, 3, 4]  # index 1 has no defined quantity
    assert ds[0].value == pytest.approx(2.0 ** -0.5)
    # one prefix pass: its time is recorded once, not spread over the rows
    assert isinstance(res.extras["prefix_pass_s"], float) and res.extras["prefix_pass_s"] >= 0
    assert {r.wall_clock for r in res.rows} == {0.0}


def test_polya_check_flags_violations():
    good = ExperimentConfig(
        "polya-check", "ok", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -1, "b": 1},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 3}],
         "search": {"restarts": 2}},
    )
    assert run_experiment(good).flags == []
    # a small set with a functional built on a larger one must trip the
    # monitor: at s = 3, D_4 = 2^(-3/4) = 0.595 > d_3 = 0.511 + 0.05
    bad = ExperimentConfig(
        "polya-check", "bad", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -0.5, "b": 0.5},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 3}],
         "search": {"restarts": 2}},
    )
    flagged = run_experiment(bad)
    assert len(flagged.flags) == 1


def _polya_check_flags(measure, s_max):
    """The flags of one polya-check pair: [-1, 1] and the germ of measure, reference d_s."""
    pair = {"set": _INTERVAL, "germ": {"kind": "measure", "measure": measure}, "s_max": s_max}
    cfg = ExperimentConfig("polya-check", "p", 0, {"pairs": [pair], "search": {"restarts": 0}})
    return run_experiment(cfg).flags


def test_polya_check_passes_the_arcsine_witness_whose_d_falls():
    # the arcsine germ of K = [-1, 1] itself: D_i falls from D_2 = 2^(-1/2)
    # towards d(K) = 1/2, and D_{m_s} <= d_s(K) at each degree (Heine), so
    # comparing the largest D_i with d_{s_max} alone raised a false flag
    assert _polya_check_flags(_ARCSINE, 30) == []


@pytest.mark.parametrize(
    "measure, s_max, flagged",
    [
        # the uniform measure of [-2, 2]: D_{m_s} > d_s + slack from s = 3 on
        ({"kind": "uniform", "a": -2.0, "b": 2.0}, 8, [3, 4, 5, 6, 7, 8]),
        # atoms at -3 and 3: D_2 = 3 > d_1 = 2 + slack, and D is 0 past m_1
        ({"kind": "discrete", "atoms": [-3.0, 3.0], "weights": ["1/2", "1/2"]}, 4, [1]),
    ],
    ids=["uniform-of-a-larger-interval", "atoms-outside"],
)
def test_polya_check_flags_each_full_degree_whose_d_exceeds_d_s(measure, s_max, flagged):
    flags = _polya_check_flags(measure, s_max)
    assert [int(f.split("exceeds d_")[1].split(" ")[0]) for f in flags] == flagged
    assert all(f.startswith(f"pair0: D_{s + 1} = ") for f, s in zip(flags, flagged))


def test_sharpness_runner_rejects_non_real_sets():
    cfg = ExperimentConfig(
        "sharpness", "s", 0,
        {"set": {"kind": "circle", "radius": 1.0},
         "measure": {"kind": "arcsine"}, "degrees": [1]},
    )
    with pytest.raises(ConfigError, match="real"):
        run_experiment(cfg)


def test_sharpness_runner_checks_support():
    cfg = ExperimentConfig(
        "sharpness", "s", 0,
        {"set": {"kind": "interval", "a": 0.0, "b": 1.0},
         "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0}, "degrees": [1]},
    )
    with pytest.raises(ConfigError, match="supported"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "kset, measure",
    [
        # the atom at 5 has weight 1e-6: random draws almost never hit it
        ({"kind": "interval", "a": -1, "b": 1},
         {"kind": "discrete", "atoms": [0, 0.5, 5], "weights": [1, 1, "1/1000000"]}),
        # a sliver past the end of the set, and past one corner of a box
        ({"kind": "interval", "a": -1, "b": 1},
         {"kind": "uniform", "a": -1, "b": 1.001}),
        ({"kind": "box", "bounds": [[-1, 1], [-1, 1]]},
         {"kind": "product", "factors": [{"kind": "arcsine"},
                                         {"kind": "uniform", "a": -1, "b": 1.001}]}),
    ],
    ids=["light-atom", "endpoint", "box-corner"],
)
def test_sharpness_support_check_sees_all_of_the_support(kset, measure):
    cfg = ExperimentConfig(
        "sharpness", "s", 0,
        {"set": kset, "measure": measure, "degrees": [1, 2], "search": {"restarts": 1}},
    )
    with pytest.raises(ConfigError, match="supported"):
        run_experiment(cfg)


def test_sharpness_runner_clean_run():
    cfg = ExperimentConfig(
        "sharpness", "s", 0,
        {"set": {"kind": "interval", "a": -1.0, "b": 1.0},
         "measure": {"kind": "arcsine"}, "degrees": [1, 2, 3],
         "search": {"restarts": 2}},
    )
    res = run_experiment(cfg)
    assert res.flags == []
    diffs = [r.value for r in res.rows if r.quantity == "sharpness_diff"]
    assert diffs == [0.0, 0.0, 0.0]


def test_stability_runner_directions():
    outer = ExperimentConfig(
        "stability", "o", 0,
        {"family": {"kind": "interval", "a": -1, "b": 1, "side": "outer", "rate": 2},
         "s": 3, "j_values": [1, 2, 4], "search": {"restarts": 2}},
    )
    res = run_experiment(outer)
    assert res.flags == []
    vals = [r.value for r in res.rows if r.quantity == "d_s"]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(ConfigError, match="increasing"):
        run_experiment(ExperimentConfig(
            "stability", "x", 0,
            {"family": {"kind": "interval", "a": -1, "b": 1},
             "s": 3, "j_values": [4, 2]},
        ))


def test_stability_runner_degenerate_inner():
    cfg = ExperimentConfig(
        "stability", "x", 0,
        {"family": {"kind": "interval", "a": -1, "b": 1, "side": "inner"},
         "s": 2, "j_values": [1, 2]},
    )
    with pytest.raises(ConfigError, match="degenerate"):
        run_experiment(cfg)


def test_zs_check_runner():
    cfg = ExperimentConfig(
        "zs-check", "z", 0,
        {"measure": {"kind": "arcsine"}, "degrees": [1, 2], "samples": 20000},
    )
    res = run_experiment(cfg)
    assert res.flags == []
    zs = [r for r in res.rows if r.quantity == "zscore"]
    assert all(abs(r.value) < 3 for r in zs)
    mc = next(r for r in res.rows if r.quantity == "log_zs_mc")
    assert mc.std_error > 0


@pytest.mark.parametrize("weights", [["3/2", "1/5"], ["1/3", "1/5"], ["5/7", "1/5"], ["2", "1/5"]])
def test_zs_check_agrees_at_s0_whatever_the_mass(weights):
    # m_0 = 1: every sample has |V|^2 = 1, so the error bar is exactly 0 and
    # the two routes differ only in the rounding of log(mass)
    spec = {"measure": {"kind": "discrete", "atoms": [0.5, -0.25], "weights": weights},
            "degrees": [0, 1], "samples": 64}
    res = run_experiment(ExperimentConfig("zs-check", "z", 0, spec))
    zero = [r for r in res.rows if r.s == 0]
    assert next(r.std_error for r in zero if r.quantity == "log_zs_mc") == 0.0
    assert next(r.value for r in zero if r.quantity == "zscore") == 0.0
    assert not [f for f in res.flags if f.startswith("s=0:")]


def test_zs_check_flags_a_real_gap_under_a_zero_error_bar(monkeypatch):
    gram = z_s_gram(ArcsineMeasure(), 1)
    monkeypatch.setattr(
        experiments, "z_s_montecarlo",
        lambda measure, s, **kwargs: MonteCarloEstimate(gram + 1e-3, 0.0, 64),
    )
    spec = {"measure": _ARCSINE, "degrees": [1], "samples": 64}
    res = run_experiment(ExperimentConfig("zs-check", "z", 0, spec))
    assert _values(res, "zscore") == [math.inf]
    assert res.flags == ["s=1: Monte Carlo and Gram routes disagree (inf sigma)"]


@pytest.mark.parametrize(
    "experiment, key, value",
    [("zs-check", "samples", 1), ("bm-ratio", "grid", 0)],
)
def test_bad_sampling_sizes_are_config_errors(experiment, key, value):
    cfg = ExperimentConfig(
        experiment, "bad", 0,
        {"measure": {"kind": "arcsine"}, "degrees": [1], key: value},
    )
    with pytest.raises(ConfigError, match=key):
        run_experiment(cfg)


_INTERVAL = {"kind": "interval", "a": -1, "b": 1}
_ARCSINE = {"kind": "arcsine"}
_ARCSINE_GERM = {"kind": "measure", "measure": _ARCSINE}


# unsorted, with a repeat: every degree is read off the prefix pass at the largest
_DEGREES = [3, 1, 3, 2]
_DISCRETE_2 = {"kind": "discrete", "atoms": [-0.5, 0.5], "weights": [1, 1]}


def _values(result, quantity):
    return [r.value for r in result.rows if r.quantity == quantity]


@pytest.mark.parametrize(
    "kset, measure",
    [
        (_INTERVAL, _ARCSINE),
        ({"kind": "box", "bounds": [[-1, 1], [-1, 1]]},
         {"kind": "product", "factors": [_ARCSINE, _ARCSINE]}),
        (_INTERVAL, _DISCRETE_2),  # two atoms: singular Gram and Hankel past m = 2
    ],
    ids=["arcsine", "product-arcsine", "singular"],
)
def test_sharpness_rows_are_the_per_size_determinants(kset, measure):
    spec = {"set": kset, "measure": measure, "degrees": _DEGREES, "search": {"restarts": 1}}
    res = run_experiment(ExperimentConfig("sharpness", "p", 0, spec))
    mu = build_measure(measure)
    germ = coeffs_from_measure(mu)
    sizes = [count_at_most(mu.dim, s) for s in _DEGREES]
    assert _values(res, "log_zs") == [z_s_gram(mu, s) for s in _DEGREES]
    assert _values(res, "log_hankel_route") == [
        log_factorial(m) + hankel_logdet(germ, m) for m in sizes
    ]
    assert res.extras["prefix_pass_s"] >= 0.0


@pytest.mark.parametrize(
    "measure",
    [
        _ARCSINE,
        # complex atoms: the Gram matrix takes the float route
        {"kind": "discrete", "atoms": [{"re": 0.5, "im": 0.5}, 1, {"im": -0.75}, -0.25],
         "weights": [1, 2, 3, 4]},
        {"kind": "discrete", "atoms": [{"im": 1}, 0.5], "weights": [1, 1]},  # singular
        _DISCRETE_2,
        {"kind": "product", "factors": [_ARCSINE, {"kind": "uniform", "a": 0, "b": 1}]},
    ],
    ids=["arcsine", "complex-atoms", "complex-singular", "singular", "product"],
)
def test_zs_check_rows_are_the_per_size_determinants(measure):
    spec = {"measure": measure, "degrees": _DEGREES, "samples": 200}
    res = run_experiment(ExperimentConfig("zs-check", "z", 0, spec))
    mu = build_measure(measure)
    assert _values(res, "log_zs_gram") == [z_s_gram(mu, s) for s in _DEGREES]
    assert res.extras["prefix_pass_s"] >= 0.0


def test_zs_check_estimate_is_the_library_call_at_its_cell_seed():
    # 6,000 samples span two chunks, so the estimate depends on the chunk size
    spec = {"measure": _ARCSINE, "degrees": [2], "samples": 6000}
    res = run_experiment(ExperimentConfig("zs-check", "z", 7, spec))
    row = next(r for r in res.rows if r.quantity == "log_zs_mc")
    mc = z_s_montecarlo(ArcsineMeasure(), 2, samples=6000,
                        seed=np.random.SeedSequence(7, spawn_key=(6, 2)))
    assert (row.value, row.std_error) == (mc.log_value, mc.std_error_log)


def test_polya_check_records_one_prefix_pass_time_per_pair_in_order():
    # a pair on the interval reads H_i up to i = s_max + 1: 3, 2 and 4
    pairs = [{"label": f"p{k}", "set": _INTERVAL, "germ": _ARCSINE_GERM, "s_max": s}
             for k, s in enumerate([2, 1, 3])]
    res = run_experiment(ExperimentConfig("polya-check", "c", 0, {"pairs": pairs}))
    passes = res.extras["prefix_pass_s"]
    assert len(passes) == 3 and all(isinstance(v, float) and v >= 0.0 for v in passes)
    assert [r.wall_clock for r in res.rows if r.quantity == "log_hankel"] == [0.0] * 9
    assert [r.label for r in res.rows if r.quantity == "max_polya_D"] == ["p0", "p1", "p2"]


@pytest.mark.parametrize("label", ["a\nb", "a\rb"])
def test_pair_labels_are_one_line(label):
    pair = {"set": _INTERVAL, "germ": _ARCSINE_GERM, "s_max": 1}
    spec = {"pairs": [pair, {**pair, "label": label}], "search": {"restarts": 1}}
    with pytest.raises(ConfigError, match=r"^polya-check\.pairs\[1\]: label must be one line"):
        run_experiment(ExperimentConfig("polya-check", "ok", 0, spec))


@pytest.mark.parametrize(
    "bad",
    [{"label": "two\nlines"}, {"s_max": "two"}, {"set": {"kind": "interval", "a": 1, "b": 0}},
     {"germ": {"kind": "nope"}}, {"extra": 1}],
    ids=["label", "s_max", "set", "germ", "key"],
)
def test_polya_check_checks_every_pair_before_searching(monkeypatch, bad):
    searched = []
    search = experiments.transfinite_diameter_estimate
    monkeypatch.setattr(
        experiments, "transfinite_diameter_estimate",
        lambda *args: searched.append(args[1]) or search(*args),
    )
    pair = {"set": _INTERVAL, "germ": _ARCSINE_GERM, "s_max": 2}
    spec = {"pairs": [pair, {**pair, **bad}], "search": {"restarts": 1}}
    with pytest.raises(ConfigError, match=r"^polya-check\.pairs\[1\]"):
        run_experiment(ExperimentConfig("polya-check", "ok", 0, spec))
    assert searched == []


def _contour_grid(grid):
    return {"kind": "contour", "germ": {"kind": "inverse"}, "radius": 1.5, "grid": grid}


def test_contour_grid_takes_the_library_minimum():
    build_germ(_contour_grid(MIN_CONTOUR_GRID))
    with pytest.raises(ConfigError, match=rf"^germ: grid must be an integer >= {MIN_CONTOUR_GRID}"):
        build_germ(_contour_grid(MIN_CONTOUR_GRID - 1))


def test_contour_grid_default_is_the_library_one(monkeypatch):
    # an unset grid forwards no grid_size, so coeffs_from_contour states the default
    given = []
    contour = experiments.coeffs_from_contour
    monkeypatch.setattr(
        experiments, "coeffs_from_contour",
        lambda *args, **kwargs: given.append(kwargs) or contour(*args, **kwargs),
    )
    unset = _contour_grid(None)
    del unset["grid"]
    build_germ(unset)
    build_germ(_contour_grid(32))
    assert given == [{"dim": 1, "radius": 1.5}, {"dim": 1, "radius": 1.5, "grid_size": 32}]


@pytest.mark.parametrize(
    "experiment, key, spec",
    [
        ("zs-check", "samples", {"measure": _ARCSINE, "degrees": [1], "samples": "many"}),
        ("hankel", "i_max", {"germ": _ARCSINE_GERM, "i_max": "lots"}),
        ("polya-check", "s_max", {"pairs": [{"set": _INTERVAL, "germ": _ARCSINE_GERM,
                                             "s_max": "two"}]}),
        ("polya-check", "slack", {"pairs": [{"set": _INTERVAL, "germ": _ARCSINE_GERM,
                                             "s_max": 1}], "slack": "loose"}),
        ("tdiam", "search_cap", {"set": _INTERVAL, "degrees": [2], "search_cap": "none"}),
        ("sharpness", "tolerance", {"set": _INTERVAL, "measure": _ARCSINE, "degrees": [1],
                                    "tolerance": "tight"}),
        ("hankel", "i_max", {"germ": _ARCSINE_GERM, "i_max": 2.9}),
        ("hankel", "i_max", {"germ": _ARCSINE_GERM, "i_max": True}),
        ("zs-check", "samples", {"measure": _ARCSINE, "degrees": [1], "samples": 1000.7}),
        ("hankel", "grid", {"germ": _contour_grid(64.9), "i_max": 2}),
        ("hankel", "grid", {"germ": _contour_grid("many"), "i_max": 2}),
        ("hankel", "a", {"germ": {"kind": "measure", "measure": {"kind": "arcsine", "a": "left"}},
                         "i_max": 2}),
        ("tdiam", "a", {"set": {"kind": "interval", "a": "x", "b": 1}, "degrees": [2]}),
        ("tdiam", "bounds", {"set": {"kind": "box", "bounds": [["x", 1], [0, 1]]},
                             "degrees": [2]}),
        ("hankel", "c", {"germ": {"kind": "geometric", "c": {"re": "x"}}, "i_max": 2}),
        # YAML's true and false are not the numbers 1 and 0
        ("tdiam", "a", {"set": {"kind": "interval", "a": True, "b": 2}, "degrees": [2]}),
        ("tdiam", "radius", {"set": {"kind": "circle", "radius": True}, "degrees": [2]}),
        ("tdiam", "bounds", {"set": {"kind": "box", "bounds": [[False, True]]}, "degrees": [2]}),
        ("hankel", "c", {"germ": {"kind": "geometric", "c": {"re": True}}, "i_max": 2}),
    ],
)
def test_non_numeric_scalars_are_config_errors(experiment, key, spec):
    with pytest.raises(ConfigError, match=rf"\b{key} must be "):
        run_experiment(ExperimentConfig(experiment, "bad", 0, spec))


_VALID_PAYLOADS = {
    "tdiam": {"set": _INTERVAL, "degrees": [2]},
    "zs-check": {"measure": _ARCSINE, "degrees": [1]},
    "hankel": {"germ": _ARCSINE_GERM, "i_max": 2},
}


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("tdiam", "serach", {"restarts": 1}),
        ("zs-check", "sampels", 10),
        ("zs-check", "chunk_size", 0),
        ("hankel", "degrees", [2]),
    ],
)
def test_unknown_payload_keys_are_config_errors(experiment, key, value):
    spec = _VALID_PAYLOADS[experiment]
    ExperimentConfig(experiment, "ok", 0, spec)
    with pytest.raises(ConfigError, match=rf"{experiment}: unknown keys \['{key}'\]"):
        ExperimentConfig(experiment, "bad", 0, {**spec, key: value})


def test_every_shipped_config_passes_the_key_check():
    # every nested mapping is built too, so its keys are checked, but no driver runs
    builders = {"set": build_compact, "measure": build_measure, "germ": build_germ,
                "family": build_family, "search": build_strategy}
    assert len(SHIPPED_CONFIGS) == 25
    for path in SHIPPED_CONFIGS:
        spec = ExperimentConfig.load(path).spec
        for key in spec.keys() & builders.keys():
            builders[key](spec[key])
        for pair in spec.get("pairs", []):
            assert set(pair) <= experiments._PAIR_KEYS, path
            build_compact(pair["set"])
            build_germ(pair["germ"])


_CONTOUR = {"kind": "contour", "germ": {"kind": "inverse"}, "radius": 2.0, "grid": 16}

# a minimal valid spec of every kind of every `kind:` table, by builder
_KIND_CASES = {
    "set": (build_compact, experiments._SETS, [
        _INTERVAL,
        {"kind": "circle", "radius": 1},
        {"kind": "disk", "radius": 1},
        {"kind": "box", "bounds": [[0, 1], [0, 1]]},
        {"kind": "product", "factors": [_INTERVAL]},
    ]),
    "family": (build_family, experiments._FAMILIES, [{"kind": "interval", "a": -1, "b": 1}]),
    "measure": (build_measure, experiments._MEASURES, [
        _ARCSINE,
        {"kind": "uniform", "a": 0, "b": 1},
        {"kind": "circle"},
        {"kind": "disk"},
        {"kind": "discrete", "atoms": [0], "weights": [1]},
        {"kind": "product", "factors": [_ARCSINE]},
    ]),
    "germ": (build_germ, experiments._GERMS, [
        _ARCSINE_GERM,
        {"kind": "point-mass", "c": 0.5},
        {"kind": "geometric", "c": 0.5},
        _CONTOUR,
    ]),
    "germ.germ": (lambda g: build_germ({**_CONTOUR, "germ": g}), experiments._CONTOUR_GERMS, [
        {"kind": "inverse"},
        {"kind": "geometric", "c": 0.5},
        {"kind": "inverse-product", "dim": 2},
    ]),
}


def test_every_kind_has_a_key_check_case():
    for _, table, specs in _KIND_CASES.values():
        assert [spec["kind"] for spec in specs] == list(table)


@pytest.mark.parametrize(
    "ctx, spec",
    [(ctx, spec) for ctx, (_, _, specs) in _KIND_CASES.items() for spec in specs],
    ids=lambda v: v if isinstance(v, str) else v["kind"],
)
def test_unknown_nested_keys_are_config_errors(ctx, spec):
    build = _KIND_CASES[ctx][0]
    build(spec)
    with pytest.raises(ConfigError, match=rf"^{ctx}: unknown keys \['bogus'\]"):
        build({**spec, "bogus": 1})


@pytest.mark.parametrize(
    "experiment, ctx, key, spec",
    [
        ("tdiam", "set", "centre",
         {"set": {"kind": "circle", "radius": 1, "centre": {"re": 1}}, "degrees": [2]}),
        ("sharpness", "measure", "B",
         {"set": {"kind": "interval", "a": 0, "b": 2},
          "measure": {"kind": "arcsine", "a": 0, "B": 2}, "degrees": [1]}),
        ("hankel", "germ.measure", "bogus",
         {"germ": {"kind": "measure", "measure": {**_ARCSINE, "bogus": 1}}, "i_max": 2}),
        ("polya-check", r"polya-check\.pairs\[0\]\.set", "bogus",
         {"pairs": [{"set": {**_INTERVAL, "bogus": 1}, "germ": _ARCSINE_GERM, "s_max": 1}]}),
    ],
    ids=["set-centre", "measure-B", "germ-measure", "pair-set"],
)
def test_misspelt_nested_keys_in_runs_are_config_errors(experiment, ctx, key, spec):
    with pytest.raises(ConfigError, match=rf"^{ctx}: unknown keys \['{key}'\]"):
        run_experiment(ExperimentConfig(experiment, "bad", 0, spec))


_ONE = {"search": {"restarts": 1}}
_GEOMETRIC_INF = {"kind": "geometric", "c": math.inf}


@pytest.mark.parametrize(
    "experiment, key, spec",
    [
        ("hankel", "radius", {"germ": {**_CONTOUR, "radius": math.inf}, "i_max": 2}),
        ("polya-check", "slack", {"pairs": [{"set": _INTERVAL, "germ": _ARCSINE_GERM,
                                             "s_max": 1}], "slack": math.inf, **_ONE}),
        ("sharpness", "tolerance", {"set": _INTERVAL, "measure": _ARCSINE, "degrees": [1],
                                    "tolerance": math.inf, **_ONE}),
        ("stability", "rate", {"family": {"kind": "interval", "a": -1, "b": 1,
                                          "rate": math.inf}, "s": 1, "j_values": [1], **_ONE}),
        ("hankel", "c", {"germ": _GEOMETRIC_INF, "i_max": 2}),
        ("hankel", "c", {"germ": {**_CONTOUR, "germ": _GEOMETRIC_INF}, "i_max": 2}),
        ("hankel", "coordinate", {"germ": {"kind": "measure", "measure": {
            "kind": "discrete", "atoms": [0, -math.inf], "weights": [1, 1]}}, "i_max": 2}),
    ],
    ids=["radius", "slack", "tolerance", "rate", "point-mass-c", "contour-c", "point"],
)
def test_non_finite_numbers_are_config_errors(experiment, key, spec):
    with pytest.raises(ConfigError, match=rf"\b{key} must be a finite number"):
        run_experiment(ExperimentConfig(experiment, "bad", 0, spec))


@pytest.mark.parametrize(
    "spec, error",
    [
        ({"kind": "discrete", "atoms": [0], "weights": [math.inf]},
         r"^measure\.weights\[0\]: expected a finite"),
        ({"kind": "discrete", "atoms": [0], "weights": ["1/0"]},
         r"^measure\.weights\[0\]: expected a finite"),
        # no measure kind takes a mass: a non-unit mass is a discrete measure's weights
        ({"kind": "arcsine", "mass": math.inf}, r"^measure: unknown keys \['mass'\]"),
    ],
    ids=["weight-inf", "weight-1/0", "mass-inf"],
)
def test_non_finite_fractions_are_config_errors(spec, error):
    with pytest.raises(ConfigError, match=error):
        build_measure(spec)


_BOX = {"kind": "box", "bounds": [[0, 1], [0, 1]]}


@pytest.mark.parametrize(
    "experiment, spec",
    [("fekete", {"set": _BOX, "sizes": [3]}), ("tdiam", {"set": _BOX, "degrees": [1]})],
)
def test_no_restarts_without_a_reference_configuration_is_a_config_error(experiment, spec):
    cfg = ExperimentConfig(experiment, "bad", 0, {**spec, "search": {"restarts": 0}})
    with pytest.raises(ConfigError, match=r"^search\.restarts is 0 and the set has no reference"):
        run_experiment(cfg)


def test_no_restarts_scores_the_reference_configuration():
    spec = {"set": _INTERVAL, "degrees": [3, 5]}
    alone = ExperimentConfig("tdiam", "t", 0, {**spec, "search": {"restarts": 0}})
    capped = ExperimentConfig("tdiam", "t", 0, {**spec, "search_cap": 0})
    assert rows_to_csv_text(run_experiment(alone).rows) == rows_to_csv_text(
        run_experiment(capped).rows
    )


# the drivers that take a search_cap key; polya-check and stability read DEFAULT_SEARCH_CAP
_BOX_SPECS = {
    "tdiam": {"set": _BOX, "degrees": [1, 2]},
    "sharpness": {"set": {"kind": "box", "bounds": [[-1, 1], [-1, 1]]}, "degrees": [1, 2],
                  "measure": {"kind": "product", "factors": [_ARCSINE, _ARCSINE]}},
}


@pytest.mark.parametrize("experiment", sorted(_BOX_SPECS))
def test_a_degree_above_the_search_cap_without_a_reference_configuration_is_a_config_error(
    experiment,
):
    # a box has no reference configuration: degree 1 is searched, degree 2 is over the cap
    spec = {**_BOX_SPECS[experiment], "search_cap": 1, "search": {"restarts": 1}}
    with pytest.raises(
        ConfigError,
        match=r"^degree 2 exceeds the search cap 1 and the set has no reference configuration",
    ):
        run_experiment(ExperimentConfig(experiment, "bad", 0, spec))


def test_polya_check_reads_the_default_search_cap(monkeypatch):
    # polya-check takes no search_cap key; DEFAULT_SEARCH_CAP is its cap
    monkeypatch.setattr(experiments, "DEFAULT_SEARCH_CAP", 1)
    pair = {"set": _BOX, "s_max": 2, "germ": {
        "kind": "measure", "measure": {"kind": "product", "factors": [_ARCSINE, _ARCSINE]}}}
    spec = {"pairs": [pair], "search": {"restarts": 1}}
    with pytest.raises(
        ConfigError,
        match=r"^degree 2 exceeds the search cap 1 and the set has no reference configuration",
    ):
        run_experiment(ExperimentConfig("polya-check", "bad", 0, spec))


_CIRCLE_PAIR = {"set": {"kind": "circle", "radius": 1}, "germ": {"kind": "geometric", "c": 0.3},
                "s_max": 1}


@pytest.mark.parametrize(
    "experiment, spec, error",
    [
        # the finite set kind goes with its one key, points
        ("tdiam", {"set": {"kind": "finite", "points": [0, 1]}, "degrees": [1]},
         r"^set: unknown compact-set kind 'finite'"),
        ("tdiam", {"set": {"kind": "circle", "radius": 1, "center": 0}, "degrees": [1]},
         r"^set: unknown keys \['center'\]"),
        ("tdiam", {"set": {"kind": "disk", "radius": 1, "center": 0}, "degrees": [1]},
         r"^set: unknown keys \['center'\]"),
        ("polya-check", {"pairs": [{**_CIRCLE_PAIR, "i_max": 2}]},
         r"^polya-check\.pairs\[0\]: unknown keys \['i_max'\]"),
        ("polya-check", {"pairs": [_CIRCLE_PAIR], "search_cap": 5},
         r"^polya-check: unknown keys \['search_cap'\]"),
        ("stability", {"family": {"kind": "interval", "a": -1, "b": 1}, "s": 1, "j_values": [1],
                       "search_cap": 5},
         r"^stability: unknown keys \['search_cap'\]"),
    ],
    ids=["set-finite", "set-circle.center", "set-disk.center", "pair-i_max",
         "polya-check.search_cap", "stability.search_cap"],
)
def test_deleted_config_names_are_config_errors_naming_them(experiment, spec, error):
    with pytest.raises(ConfigError, match=error):
        run_experiment(ExperimentConfig(experiment, "old", 0, spec))


def _shipped_run(name):
    cfg = ExperimentConfig.load(_ROOT / "configs" / name)
    result = run_experiment(cfg)
    assert result.flags == []
    return cfg.spec, result


def test_circle_zs_config_is_the_diagonal_gram_closed_form():
    # on |z| = r the monomials are orthogonal with norms r^(2j), so
    # log Z_s = log m! + m(m - 1) log r with m = s + 1
    spec, result = _shipped_run("circle_zs.yaml")
    r = spec["measure"]["radius"]
    got = {row.s: row.value for row in result.rows if row.quantity == "log_zs_gram"}
    assert sorted(got) == spec["degrees"] == [0, 1, 2, 3, 4]
    for s, value in got.items():
        m = s + 1
        assert abs(value - (math.lgamma(m + 1) + m * (m - 1) * math.log(r))) <= 1e-12


def test_discrete_hankel_config_is_the_vandermonde_closed_form_then_zero():
    # H_n of r atoms x_i with weights w_i is prod w_i * prod_{i<j} (x_i - x_j)^2
    # at n = r, and exactly 0 past it (Kronecker)
    spec, result = _shipped_run("discrete_hankel.yaml")
    atoms = spec["germ"]["measure"]["atoms"]
    weights = [Fraction(w) for w in spec["germ"]["measure"]["weights"]]
    h3 = sum(math.log(w) for w in weights) + 2 * sum(
        math.log(abs(atoms[i] - atoms[j])) for i in range(3) for j in range(i + 1, 3)
    )
    assert round(h3, 4) == -3.8055
    got = {row.i: row.value for row in result.rows if row.quantity == "log_hankel"}
    assert sorted(got) == [1, 2, 3, 4, 5, 6]
    assert abs(got[3] - h3) <= 1e-12
    assert [got[i] for i in (4, 5, 6)] == [-math.inf] * 3


def _fake_estimates(member=None, limit=None):
    """transfinite_diameter_estimate with the members' or the limit's d_s set, where given."""

    def fake(kset, s, strategy, seed):
        est = transfinite_diameter_estimate(kset, s, strategy, seed)
        d_s = limit if kset == Interval(-1.0, 1.0) else member
        return est if d_s is None else replace(est, d_s=d_s)

    return fake


@pytest.mark.parametrize(
    "side, j_values, trend, wrong_base",
    [("outer", [1, 2, 4], "decreasing", 10.0), ("inner", [2, 3, 4], "increasing", 0.0)],
)
def test_stability_flags_a_column_that_breaks_its_trend(
    monkeypatch, side, j_values, trend, wrong_base
):
    spec = {"family": {"kind": "interval", "a": -1, "b": 1, "side": side},
            "s": 2, "j_values": j_values, "search": {"restarts": 1}}
    cfg = ExperimentConfig("stability", side, 0, spec)
    assert run_experiment(cfg).flags == []
    flag = f"{side} family column is not strictly {trend} toward the base"
    # a flat column
    monkeypatch.setattr(experiments, "transfinite_diameter_estimate", _fake_estimates(member=1.0))
    assert run_experiment(cfg).flags == [flag]
    # the true, strictly ordered column on the wrong side of its base
    monkeypatch.setattr(
        experiments, "transfinite_diameter_estimate", _fake_estimates(limit=wrong_base)
    )
    res = run_experiment(cfg)
    assert _values(res, "d_s_limit") == [wrong_base]
    assert res.flags == [flag]


@pytest.mark.parametrize("past, flagged", [(5e-13, False), (2e-12, True)])
@pytest.mark.parametrize("side, j_values", [("outer", [1, 2, 4]), ("inner", [2, 3, 4])])
def test_stability_slack_forgives_only_a_member_within_1e_12_past_its_base(
    monkeypatch, side, j_values, past, flagged
):
    family_spec = {"kind": "interval", "a": -1, "b": 1, "side": side}
    family = build_family(family_spec)
    # an outer column comes down onto its base, an inner one up; the last
    # member ends `past` beyond the base, on the side the slack forgives
    above = 1.0 if side == "outer" else -1.0
    base = 1.0
    values = [base + 2.0 * above, base + above, base - past * above]
    d_s = {family.member(j): v for j, v in zip(j_values, values)}
    d_s[family.limit] = base
    monkeypatch.setattr(
        experiments, "transfinite_diameter_estimate",
        lambda kset, s, strategy, seed: SimpleNamespace(d_s=d_s[kset]),
    )
    spec = {"family": family_spec, "s": 2, "j_values": j_values, "search": {"restarts": 1}}
    res = run_experiment(ExperimentConfig("stability", side, 0, spec))
    assert _values(res, "d_s") == values
    assert _values(res, "d_s_limit") == [base]
    assert bool(res.flags) == flagged


def test_unknown_polya_check_pair_keys_are_config_errors():
    pair = {"set": _INTERVAL, "germ": _ARCSINE_GERM, "s_max": 1, "smax": 2}
    cfg = ExperimentConfig("polya-check", "bad", 0, {"pairs": [pair]})
    with pytest.raises(ConfigError, match=r"pairs\[0\]: unknown keys \['smax'\]"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "circle", "radius": math.inf},
        {"kind": "disk", "radius": math.inf},
        {"kind": "interval", "a": -math.inf, "b": 1.0},
        {"kind": "box", "bounds": [[-1.0, 1.0], [0.0, math.inf]]},
        {"kind": "product", "factors": []},
        {"kind": "box", "bounds": []},
    ],
    ids=["circle-inf", "disk-inf", "interval-inf", "box-inf",
         "empty-product", "empty-box"],
)
def test_unbounded_or_empty_sets_are_config_errors(spec):
    cfg = ExperimentConfig("tdiam", "bad", 0, {"set": spec, "degrees": [2]})
    with pytest.raises(ConfigError, match=r"^set: "):
        run_experiment(cfg)


def test_run_experiment_is_serial():
    with pytest.raises(ConfigError, match="serial"):
        run_experiment(make_config(), workers=2)


def test_bm_ratio_runner():
    cfg = ExperimentConfig(
        "bm-ratio", "b", 0,
        {"measure": {"kind": "circle", "radius": 1.0}, "degrees": [1, 2], "grid": 128},
    )
    res = run_experiment(cfg)
    vals = {r.s: r.value for r in res.rows if r.quantity == "bm_ratio"}
    assert vals[2] == pytest.approx(math.sqrt(3.0), rel=1e-9)
    singular = ExperimentConfig(
        "bm-ratio", "b2", 0,
        {"measure": {"kind": "discrete", "atoms": [0], "weights": [1]},
         "degrees": [2], "grid": 16},
    )
    res2 = run_experiment(singular)
    assert len(res2.flags) == 1


_ARCSINE = {"kind": "arcsine", "a": -1.0, "b": 1.0}


@pytest.mark.parametrize("factors, per_axis", [(1, 4096), (2, 64), (3, 16)])
def test_bm_ratio_default_grid_holds_about_4096_points(monkeypatch, factors, per_axis):
    # without a grid key the driver forwards nothing: the grid is the library's
    calls = []
    blocks = ProductSet.grid_blocks
    monkeypatch.setattr(
        ProductSet, "grid_blocks", lambda kset, n, size: calls.append(n) or blocks(kset, n, size)
    )
    measure = {"kind": "product", "factors": [_ARCSINE] * factors}
    run_experiment(ExperimentConfig("bm-ratio", "b", 0, {"measure": measure, "degrees": [1]}))
    assert calls == [per_axis]


def test_zs_check_takes_the_library_sample_count(monkeypatch):
    library = inspect.signature(z_s_montecarlo)
    used = []

    def recording(*args, **kwargs):
        call = library.bind(*args, **kwargs)
        call.apply_defaults()
        used.append(call.arguments["samples"])
        return MonteCarloEstimate(0.0, 1.0, used[-1])

    monkeypatch.setattr(experiments, "z_s_montecarlo", recording)
    run_experiment(ExperimentConfig("zs-check", "z", 0, {"measure": _ARCSINE, "degrees": [1]}))
    assert used == [library.parameters["samples"].default] == [DEFAULT_SAMPLES] == [100_000]


def test_cli_writes_reports_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(ExperimentConfig(
        "tdiam", "cli-check", 7,
        {"set": {"kind": "circle", "radius": 1.0}, "degrees": [2],
         "search": {"restarts": 2}},
    ).to_dict()))
    code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-check" in out
    csv_path = tmp_path / "r" / "tdiam-cli-check.csv"
    json_path = tmp_path / "r" / "tdiam-cli-check.json"
    assert csv_path.exists() and json_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    assert payload["config"]["experiment"] == "tdiam"
    assert payload["rows"][0]["quantity"] == "d_s"
    assert "wall_clock" in payload["rows"][0]
    assert "wall_clock" not in csv_path.read_text()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(ExperimentConfig(
        "zs-check", "seeded", 1,
        {"measure": {"kind": "uniform", "a": 0, "b": 1}, "degrees": [1],
         "samples": 2000},
    ).to_dict()))
    assert cli_main(["--config", str(cfg_path), "--seed", "9",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "zs-check-seeded.csv").read_text()
    assert ",9\n" in text and ",1\n" not in text


def test_cli_error_and_flag_exit_codes(tmp_path, capsys):
    assert cli_main(["--config", str(tmp_path / "nope.yaml")]) == 1
    assert "error" in capsys.readouterr().err
    flagged = tmp_path / "flagged.yaml"
    flagged.write_text(yaml.safe_dump(ExperimentConfig(
        "polya-check", "flag", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -0.5, "b": 0.5},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 3}],
         "search": {"restarts": 2}},
    ).to_dict()))
    code = cli_main(["--config", str(flagged), "--out", str(tmp_path)])
    assert code == 2
    assert "FLAG" in capsys.readouterr().out


def test_cli_reports_a_write_failure(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(ExperimentConfig(
        "bm-ratio", "w", 0,
        {"measure": {"kind": "circle", "radius": 1.0}, "degrees": [1], "grid": 64},
    ).to_dict()))
    taken = tmp_path / "taken"  # a file where the report directory should go
    taken.write_text("kept")
    assert cli_main(["--config", str(cfg_path), "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write reports to {taken}: ")
    assert "wrote" not in captured.out
    assert taken.read_text() == "kept"


def test_cli_always_writes_both_reports(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(ExperimentConfig(
        "bm-ratio", "fmt", 0,
        {"measure": {"kind": "circle", "radius": 1.0}, "degrees": [1], "grid": 64},
    ).to_dict()))
    out = tmp_path / "j"
    assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["bm-ratio-fmt.csv", "bm-ratio-fmt.json"]
    with pytest.raises(SystemExit):  # there is no format to choose
        cli_main(["--config", str(cfg_path), "--out", str(out), "--format", "json"])


def test_cli_report_names_keep_dotted_labels(tmp_path):
    # a label slug may hold dots; neither may be cut at its last dot, or
    # both runs would write bm-ratio-rate-0.csv and the second overwrite the first
    out = tmp_path / "r"
    for label in ("rate-0.5", "rate-0.7"):
        cfg_path = tmp_path / f"{label}.yaml"
        cfg_path.write_text(yaml.safe_dump(ExperimentConfig(
            "bm-ratio", label, 0,
            {"measure": {"kind": "circle", "radius": 1.0}, "degrees": [1], "grid": 64},
        ).to_dict()))
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "bm-ratio-rate-0.5.csv", "bm-ratio-rate-0.5.json",
        "bm-ratio-rate-0.7.csv", "bm-ratio-rate-0.7.json",
    ]
    for label in ("rate-0.5", "rate-0.7"):
        assert json.loads((out / f"bm-ratio-{label}.json").read_text())["label"] == label
