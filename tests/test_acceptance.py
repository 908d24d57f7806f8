"""End-to-end checks of the advertised guarantees.

Each test covers one numbered guarantee and prints exactly one
PASS/FAIL line (straight to the terminal, bypassing capture) before
asserting.  Tolerances and budgets are stated inline.
"""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polyalab as pl
from polyalab.cli import main as cli_main
from polyalab.linalg import batch_pairwise_logabs
from polyalab.measures import log_factorial

from lobatto_closed_form import lobatto_log_vdm

SEED = 20260822
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_index_combinatorics(capsys):
    t0 = time.time()
    ok = True
    for dim in range(1, 5):
        for s in range(0, 13):
            brute = sorted(
                (k for k in itertools.product(range(s + 1), repeat=dim) if sum(k) <= s),
                key=lambda k: (sum(k), k),
            )
            counts = pl.degree_counts(dim, s)
            ok &= counts.at_most == len(brute)
            ok &= counts.at_most == math.comb(s + dim, dim)
            ok &= counts.exact == sum(1 for k in brute if sum(k) == s)
            ok &= counts.degree_sum == sum(sum(k) for k in brute)
            ok &= pl.enumerate_indices(dim, len(brute)) == brute
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    verdict(capsys, 1, ok,
            f"graded order and counts match brute force for n<=4, s<=12 ({elapsed:.2f}s)")


def test_criterion_02_circle_optimum(capsys):
    t0 = time.time()
    circ = pl.Circle(0.0, 1.0)
    ok = True
    worst_log, worst_d = 0.0, 0.0
    for s in range(1, 9):  # configurations of N = s+1 <= 9 points
        n = s + 1
        est = pl.transfinite_diameter_estimate(circ, s, pl.SearchStrategy(), seed=SEED)
        log_err = abs(est.log_vdm - 0.5 * n * math.log(n))
        d_err = abs(est.d_s - (s + 1.0) ** (1.0 / s))
        worst_log, worst_d = max(worst_log, log_err), max(worst_d, d_err)
        ok &= log_err <= 1e-6 and d_err <= 1e-4
    # exhaustive cross-check on a fixed 24-point grid for N <= 6
    grid = np.exp(2j * np.pi * np.arange(24) / 24)
    for n in (4, 5, 6):
        combos = np.array(list(itertools.combinations(range(24), n)))
        best = float(np.max(batch_pairwise_logabs(grid[combos])))
        est = pl.transfinite_diameter_estimate(circ, n - 1, pl.SearchStrategy(), seed=SEED)
        ok &= best <= est.log_vdm + 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    verdict(capsys, 2, ok,
            f"circle configurations reach (N/2)logN (log err {worst_log:.1e}, "
            f"d err {worst_d:.1e}), beat exhaustive grids ({elapsed:.1f}s)")


def test_criterion_03_interval_value_and_trend(capsys):
    t0 = time.time()
    iv = pl.Interval(-1.0, 1.0)
    vals = {}
    worst_err, worst_search = 0.0, 0.0
    ok = True
    for s in (5, 10, 20, 30):
        est = pl.transfinite_diameter_estimate(
            iv, s, pl.SearchStrategy(restarts=4), seed=SEED
        )
        vals[s] = est.d_s
        # the s+1 Fekete points of [-1, 1] are the Gauss-Lobatto nodes
        exact = lobatto_log_vdm(s + 1)
        err = abs(est.log_vdm - exact)
        # best unconstrained restart, without the reference candidate
        search_gap = abs(max(est.search.restart_logs) - exact)
        worst_err, worst_search = max(worst_err, err), max(worst_search, search_gap)
        ok &= err <= 1e-9 and search_gap <= 1e-4
    seq = [vals[s] for s in (5, 10, 20, 30)]
    trend_ok = all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))
    ok &= trend_ok and vals[30] > 0.5  # d([-1, 1]) = 1/2
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    verdict(capsys, 3, ok,
            f"interval d_5..d_30 match the Gauss-Lobatto closed form (worst log|V| "
            f"error {worst_err:.1e}, search-only {worst_search:.1e}); "
            f"d_30 = {vals[30]:.6f} > 1/2, trend non-increasing: {trend_ok} "
            f"({elapsed:.1f}s)")


def test_criterion_04_scaling_covariance(capsys):
    ref = pl.SearchStrategy(mode="reference")
    worst = 0.0
    for c in (0.5, 2.0):
        for s in (4, 9):
            base = pl.transfinite_diameter_estimate(pl.Interval(-1.0, 1.0), s, ref, seed=0)
            scaled = pl.transfinite_diameter_estimate(
                pl.Interval(-c, c), s, ref, seed=0
            )
            worst = max(worst, abs(
                math.log(scaled.d_s) - math.log(base.d_s) - math.log(c)
            ))
            cbase = pl.transfinite_diameter_estimate(pl.Circle(0.0, 1.0), s, ref, seed=0)
            cscaled = pl.transfinite_diameter_estimate(pl.Circle(0.0, c), s, ref, seed=0)
            worst = max(worst, abs(
                math.log(cscaled.d_s) - math.log(cbase.d_s) - math.log(c)
            ))
    ok = worst <= 1e-9
    verdict(capsys, 4, ok,
            f"d_s(cK) = c d_s(K) at fixed configurations, worst log error {worst:.1e}")


def test_criterion_05_zs_two_routes(capsys):
    t0 = time.time()
    cells = [
        (0, pl.ArcsineMeasure(-1.0, 1.0), (1, 2, 3)),
        (1, pl.CircleUniform(1.0), (1, 2)),
        (2, pl.ProductMeasure((pl.ArcsineMeasure(-1.0, 1.0),
                               pl.ArcsineMeasure(-1.0, 1.0))), (1, 2)),
    ]
    ok = True
    worst = 0.0
    for cell, mu, degrees in cells:
        for s in degrees:
            g = pl.z_s_gram(mu, s).log_abs
            mc = pl.z_s_montecarlo(
                mu, s, samples=100_000,
                seed=np.random.SeedSequence(SEED, spawn_key=(5, cell, s)),
            )
            z = abs(mc.log_value - g) / mc.std_error_log
            worst = max(worst, z)
            ok &= z <= 3.0
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    verdict(capsys, 5, ok,
            f"Gram and Monte Carlo Z_s agree on 7 cells, worst {worst:.2f} sigma "
            f"with 1e5 samples ({elapsed:.1f}s)")


def test_criterion_06_hankel_vs_iterated_functional(capsys):
    measures = [
        pl.DiscreteMeasure(((0.0,), (1.0,)), (Fraction(1, 2), Fraction(1, 2))),
        pl.DiscreteMeasure(((0.0,), (1.0,), (-1.0,)),
                           (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
        pl.DiscreteMeasure(((-1.0,), (-0.25,), (0.5,), (2.0,)),
                           (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4))),
    ]
    ok = True
    worst = 0.0
    for mu in measures:
        germ = pl.coeffs_from_measure(mu)
        for i in (1, 2, 3):
            route = math.exp(log_factorial(i) + pl.hankel_logdet(germ, i).log_abs)
            brute = pl.iterated_functional_oracle(mu, i)
            rel = abs(route - brute) / max(abs(brute), 1e-300)
            worst = max(worst, rel)
            ok &= rel <= 1e-10
    half = pl.iterated_functional_oracle(measures[0], 2)
    ok &= abs(half - 0.5) <= 1e-14
    verdict(capsys, 6, ok,
            f"i! |H_i| equals the literal iterated sum (worst rel {worst:.1e}, "
            f"half/half pair integral = {half})")


def test_criterion_07_contour_recovery(capsys):
    w = 0.3
    germ = pl.coeffs_from_contour(lambda z: 1.0 / (z - w), dim=1,
                                  radius=2.0, grid_size=64)
    worst = max(abs(germ.coeff((k,)) - w**k) for k in range(11))
    ok = worst <= 1e-10
    tables = []
    for r in (1.5, 2.0, 4.0):
        g = pl.coeffs_from_contour(lambda z: 1.0 / (z - w), radius=r, grid_size=64)
        tables.append(np.array([g.coeff((k,)) for k in range(11)]))
    spread = max(
        float(np.max(np.abs(a - b))) for a, b in itertools.combinations(tables, 2)
    )
    ok &= spread <= 1e-9
    verdict(capsys, 7, ok,
            f"contour coefficients of 1/(z-0.3) hit 0.3^k (worst {worst:.1e}); "
            f"radius choice moves them by at most {spread:.1e}")


def test_criterion_08_sharpness_identity(capsys):
    worst = 0.0
    cases = [
        (pl.ArcsineMeasure(-1.0, 1.0), range(1, 9)),
        (pl.ProductMeasure((pl.ArcsineMeasure(-1.0, 1.0),
                            pl.ArcsineMeasure(-1.0, 1.0))), range(1, 5)),
    ]
    ok = True
    for mu, degrees in cases:
        germ = pl.coeffs_from_measure(mu)
        for s in degrees:
            m = pl.count_at_most(mu.dim, s)
            lhs = pl.z_s_gram(mu, s).log_abs
            rhs = log_factorial(m) + pl.hankel_logdet(germ, m).log_abs
            diff = abs(lhs - rhs)
            worst = max(worst, diff)
            ok &= diff <= 1e-10
    verdict(capsys, 8, ok,
            f"Z_s and m_s!|H_(m_s)| coincide on the interval (s<=8) and the "
            f"product square (s<=4), worst gap {worst:.1e}")


def test_criterion_09_limit_comparison(capsys):
    t0 = time.time()
    germ = pl.coeffs_from_measure(pl.ArcsineMeasure(-1.0, 1.0))
    iv = pl.Interval(-1.0, 1.0)
    gaps = []
    for s in (10, 20, 40, 60):
        term = pl.polya_quantity(germ, s)
        if s <= 30:
            est = pl.transfinite_diameter_estimate(
                iv, s, pl.SearchStrategy(restarts=2), seed=SEED
            )
        else:  # all larger sizes score the classical reference configuration
            est = pl.transfinite_diameter_estimate(
                iv, s, pl.SearchStrategy(mode="reference"), seed=SEED
            )
        gaps.append(abs(term.quantity - est.d_s))
    d60 = pl.polya_quantity(germ, 60).quantity
    near_half = abs(d60 - 0.5) <= 0.05
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.time() - t0
    ok = near_half and shrinking and elapsed < 120.0
    verdict(capsys, 9, ok,
            f"normalized determinant at m_60 is {d60:.5f} (within 0.05 of 0.5: "
            f"{near_half}); |D - d_s| falls {gaps[0]:.3f} -> {gaps[-1]:.3f} "
            f"({elapsed:.1f}s)")


def test_criterion_10_monitor_matrix(capsys, tmp_path):
    cfg_path = CONFIG_DIR / "polya_matrix.yaml"
    cfg = pl.ExperimentConfig.load(cfg_path)
    assert len(cfg.spec["pairs"]) >= 6
    result = pl.run_experiment(cfg)
    code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path)])
    labels = {r.label for r in result.rows}
    ok = len(cfg.spec["pairs"]) >= 6 and len(labels) >= 6
    ok &= result.flags == [] and code == 0
    verdict(capsys, 10, ok,
            f"monitor matrix of {len(cfg.spec['pairs'])} set/functional pairs "
            f"stays below d_s + 0.05 everywhere; CLI exit code {code}")


def test_criterion_11_family_stability(capsys):
    outer = pl.run_experiment(pl.ExperimentConfig.load(CONFIG_DIR / "stability_outer.yaml"))
    inner = pl.run_experiment(pl.ExperimentConfig.load(CONFIG_DIR / "stability_inner.yaml"))
    ok = outer.flags == [] and inner.flags == []
    gaps = {}
    for name, res in (("outer", outer), ("inner", inner)):
        col = [r.value for r in res.rows if r.quantity == "d_s"]
        base = next(r.value for r in res.rows if r.quantity == "d_s_limit")
        if name == "outer":
            ok &= all(a > b for a, b in zip(col, col[1:]))
        else:
            ok &= all(a < b for a, b in zip(col, col[1:]))
        gaps[name] = abs(col[-1] - base)
        ok &= gaps[name] <= 1e-3
    verdict(capsys, 11, ok,
            f"outer family decreases onto the base (final gap {gaps['outer']:.1e}), "
            f"inner family increases onto it (final gap {gaps['inner']:.1e})")


def test_criterion_12_repeat_invariance(capsys, tmp_path):
    mc_cfg = tmp_path / "mc.yaml"
    mc_cfg.write_text(pl.ExperimentConfig(
        "zs-check", "repeat", SEED,
        {"measure": {"kind": "arcsine"}, "degrees": [1, 2], "samples": 30000},
    ).dump_text())
    ok = True
    for cfg_path, name in ((mc_cfg, "zs-check-repeat"),
                           (CONFIG_DIR / "box2d_sharpness.yaml", "sharpness-box2d-arcsine")):
        bodies = []
        for run in (1, 2):
            out = tmp_path / f"run{run}-{name}"
            code = cli_main(["--config", str(cfg_path), "--out", str(out), "--format", "csv"])
            ok &= code == 0
            bodies.append((out / f"{name}.csv").read_bytes())
        ok &= bodies[0] == bodies[1]
    verdict(capsys, 12, ok,
            "CSV reports are byte-identical over two runs of the same config "
            "(sampling and search experiments)")
