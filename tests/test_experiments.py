import json
import math
from fractions import Fraction

import pytest
import yaml

from polyalab import (
    ArcsineMeasure,
    Box,
    Circle,
    ConfigError,
    DiscreteMeasure,
    ExperimentConfig,
    Interval,
    ProductMeasure,
    ProductSet,
    ScaledMeasure,
    run_experiment,
)
from polyalab.cli import main as cli_main
from polyalab.experiments import (
    build_compact,
    build_family,
    build_germ,
    build_measure,
    build_strategy,
)
from polyalab.reporting import rows_to_csv_text


def make_config(**kwargs):
    base = {"experiment": "tdiam", "label": "t", "seed": 0}
    base.update(kwargs)
    spec = base.pop("spec", {"set": {"kind": "circle", "radius": 1.0}, "degrees": [2]})
    return ExperimentConfig(spec=spec, **base)


def test_config_round_trip_through_dict_and_yaml():
    cfg = make_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    loaded = ExperimentConfig.from_dict(yaml.safe_load(cfg.dump_text()))
    assert loaded == cfg


def test_config_load_from_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(make_config().dump_text())
    assert ExperimentConfig.load(path) == make_config()
    with pytest.raises(ConfigError):
        ExperimentConfig.load(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("just a string")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(experiment="warp")
    with pytest.raises(ConfigError):
        make_config(seed=-1)
    with pytest.raises(ConfigError):
        make_config(spec={"seed": 1})  # collides with a reserved key
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"label": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "tdiam", "schema": 99})


def test_build_compact_kinds():
    assert build_compact({"kind": "interval", "a": 0, "b": 1}) == Interval(0.0, 1.0)
    assert build_compact({"kind": "circle", "radius": 2}) == Circle(0.0, 2.0)
    circ = build_compact({"kind": "circle", "radius": 1, "center": {"re": 1, "im": -1}})
    assert circ.center == 1.0 - 1.0j
    box = build_compact({"kind": "box", "bounds": [[0, 1], [2, 3]]})
    assert isinstance(box, Box) and box.dim == 2
    prod = build_compact(
        {"kind": "product", "factors": [{"kind": "interval", "a": 0, "b": 1}] * 2}
    )
    assert isinstance(prod, ProductSet)
    fin = build_compact({"kind": "finite", "points": [0, 1, {"re": 0, "im": 1}]})
    assert fin.dim == 1
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
    scaled = build_measure({"kind": "arcsine", "mass": "3/2"})
    assert isinstance(scaled, ScaledMeasure)
    assert scaled.mass == pytest.approx(1.5)
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
    assert point.coeff((3,)) == pytest.approx(0.125)
    assert point.coeff_fraction((3,)) == Fraction(1, 8)
    geo = build_germ({"kind": "geometric", "c": {"re": 0.0, "im": 0.5}})
    assert geo.coeff((2,)) == pytest.approx(-0.25)
    assert geo.coeff_fraction((2,)) is None  # complex ratio has no rational moments
    assert all(geo.coeff((k,)) == 0.5j**k for k in range(20))
    meas = build_germ({"kind": "measure", "measure": {"kind": "arcsine"}})
    assert meas.coeff((2,)) == pytest.approx(0.5)
    cont = build_germ(
        {"kind": "contour", "germ": {"kind": "geometric", "c": 0.3}, "radius": 2.0}
    )
    assert cont.coeff((4,)) == pytest.approx(0.3**4, abs=1e-10)
    prod = build_germ(
        {"kind": "contour", "germ": {"kind": "inverse-product", "dim": 2},
         "radius": 1.5, "grid": 16}
    )
    assert prod.dim == 2
    assert prod.coeff((0, 0)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ConfigError):
        build_germ({"kind": "laurent"})
    with pytest.raises(ConfigError):
        build_germ({"kind": "contour", "germ": {"kind": "spiral"}, "radius": 1.0})


def test_build_family_and_strategy():
    fam = build_family({"kind": "interval", "a": -1, "b": 1, "side": "inner", "rate": 2})
    assert fam.direction == "inner"
    const = build_family({"kind": "constant", "set": {"kind": "circle", "radius": 1}})
    assert const.direction == "constant"
    strat = build_strategy({"restarts": 3, "pool_size": 64})
    assert strat.restarts == 3 and strat.pool_size == 64
    assert build_strategy(None).pool_size == 512
    with pytest.raises(ConfigError):
        build_strategy({"temperature": 1.0})
    with pytest.raises(ConfigError):
        build_strategy({"workers": 2})
    with pytest.raises(ConfigError):
        build_family({"kind": "interval", "a": 0, "b": 1, "side": "diagonal"})


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


def test_polya_check_flags_violations():
    good = ExperimentConfig(
        "polya-check", "ok", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -1, "b": 1},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 3}],
         "search": {"restarts": 2}},
    )
    assert run_experiment(good).flags == []
    # a small set with a functional built on a larger one must trip the monitor
    bad = ExperimentConfig(
        "polya-check", "bad", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -0.5, "b": 0.5},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 2}],
         "search": {"restarts": 2}},
    )
    flagged = run_experiment(bad)
    assert len(flagged.flags) == 1


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


@pytest.mark.parametrize(
    "experiment, key, value",
    [("zs-check", "chunk_size", 0), ("zs-check", "samples", 1), ("bm-ratio", "grid", 0)],
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


def _contour_grid(grid):
    return {"kind": "contour", "germ": {"kind": "inverse"}, "radius": 1.5, "grid": grid}


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
        ("tdiam", "center", {"set": {"kind": "circle", "center": {"re": "x"}, "radius": 1},
                             "degrees": [2]}),
    ],
)
def test_non_numeric_scalars_are_config_errors(experiment, key, spec):
    with pytest.raises(ConfigError, match=rf"\b{key} must be "):
        run_experiment(ExperimentConfig(experiment, "bad", 0, spec))


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


def test_cli_writes_reports_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(ExperimentConfig(
        "tdiam", "cli-check", 7,
        {"set": {"kind": "circle", "radius": 1.0}, "degrees": [2],
         "search": {"restarts": 2}},
    ).dump_text())
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
    cfg_path.write_text(ExperimentConfig(
        "zs-check", "seeded", 1,
        {"measure": {"kind": "uniform", "a": 0, "b": 1}, "degrees": [1],
         "samples": 2000},
    ).dump_text())
    assert cli_main(["--config", str(cfg_path), "--seed", "9",
                     "--out", str(tmp_path), "--format", "csv"]) == 0
    text = (tmp_path / "zs-check-seeded.csv").read_text()
    assert ",9\n" in text and ",1\n" not in text


def test_cli_error_and_flag_exit_codes(tmp_path, capsys):
    assert cli_main(["--config", str(tmp_path / "nope.yaml")]) == 1
    assert "error" in capsys.readouterr().err
    flagged = tmp_path / "flagged.yaml"
    flagged.write_text(ExperimentConfig(
        "polya-check", "flag", 0,
        {"pairs": [{"set": {"kind": "interval", "a": -0.5, "b": 0.5},
                    "germ": {"kind": "measure", "measure": {"kind": "arcsine"}},
                    "s_max": 2}],
         "search": {"restarts": 2}},
    ).dump_text())
    code = cli_main(["--config", str(flagged), "--out", str(tmp_path)])
    assert code == 2
    assert "FLAG" in capsys.readouterr().out


def test_cli_format_selection(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(ExperimentConfig(
        "bm-ratio", "fmt", 0,
        {"measure": {"kind": "circle", "radius": 1.0}, "degrees": [1], "grid": 64},
    ).dump_text())
    assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "j"),
                     "--format", "json"]) == 0
    assert not (tmp_path / "j" / "bm-ratio-fmt.csv").exists()
    assert (tmp_path / "j" / "bm-ratio-fmt.json").exists()
