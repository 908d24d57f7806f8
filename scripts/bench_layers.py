"""Block timings of the kernel layers at the call shapes of the benchmark workloads.

    python3 scripts/bench_layers.py                  # writes BENCH_monomial.json, BENCH_exchange.json
                                                     # and BENCH_exact.json
    python3 scripts/bench_layers.py --out-dir /tmp   # the same three files elsewhere

BENCH_monomial.json times `polyalab.monomial_matrix(points, exponents)` on
two-variable points, with the graded exponents of the first `nbasis`
monomials:

- 15 x 15: one 15-point configuration, the size of an exchange re-evaluation
  in `search-2d` (circle x interval)
- 548 x 15: a candidate pool of that search (512 samples, grid, reference)
- 40,960 x 10: one Monte Carlo chunk of the product-arcsine `zs-check` in
  `sampling` (`measures.MONTE_CARLO_CHUNK`, 4,096 configurations of 10
  points)
- 65,536 x 28: the 256 x 256 box grid of a sup-norm ratio in `sampling`

Its `traced peak` rows time the batched point kernels of `sampling` and
record `peak_mib`, the tracemalloc peak of one call after a warm-up call
(what the call allocates, its inputs excluded):

- `vandermonde.vdm_logabs_batch` on one Monte Carlo chunk of the
  product-arcsine `zs-check` at s = 3 (4,096 configurations of 10 points)
  and of the disk `zs-check` at s = 8 (4,096 configurations of 9 points)
- `measures.bernstein_markov_ratio` of the product arcsine at s = 6 on its
  256 x 256 grid, which it walks one block of points at a time
- the draw of one Monte Carlo chunk's points, `sample` of the product
  arcsine at s = 3 (40,960 points) and of the unit disk at s = 8 (36,864
  points), the returned array included

BENCH_exchange.json times one lockstep exchange pass,
`vandermonde._exchange_pass`, over the 8 restarts of a default search: at
the largest configuration of each `search-2d` set (the box at m = 21,
circle x interval at m = 15) and on the interval at m = 9, the largest
searched size of the `examples` configs.  The pass is the first of each
restart under the default `SearchStrategy`: pools built as `fekete_search`
builds them, the greedy starts from them, then the next pools, which the
pass scores against.  It also times those greedy starts,
`vandermonde._greedy_start` over the 8 restarts' first pools, on the
interval at m = 9 (one stacked score array) and the box at m = 21 (one
elimination per restart).

BENCH_exact.json times exact Bareiss elimination and the whole Hankel
sequence, `linalg.exact_prefix_logdets`, `linalg.exact_logdet` and
`linalg.exact_ldl`, on exact rational moment matrices:

- the arcsine Hankel prefix pass at size 61, the `hankel` config of
  `exact` (a checkerboard: two classes of nonzero entries)
- the product-arcsine Gram prefix pass at m = 153 (s = 16; four parity
  classes), a size past the workloads, where the elimination dominates
- `exact_ldl` of the product-arcsine Gram at m = 28, the largest
  `bm-ratio` of `sampling`
- the arcsine[0, 2] Gram prefix pass at m = 41, whose entries are all
  nonzero: one class, the control for matrices that do not split
- the Gram prefix pass at m = 153 (s = 16) of the uniform measure on the
  square [0, 1]^2: one dense class, where the elimination's cubic cost shows
- the Hankel prefix passes of the arcsine measure on [0, 2] at size 61 and
  of the uniform measure on [0, 1] at size 40 (a Hilbert matrix): one
  dense class each, whose denominators grow along every row
- the Gram prefix pass at m = 40 of a 3-atom real discrete measure (atoms
  0, 1 and -1): one class of rank 3, so every leading minor past size 3 is
  zero, and each larger leading block is eliminated with pivoting
- `exact_logdet`, the last entry of a prefix pass, of the product-arcsine
  Gram at m = 153, and of the Hankel matrix at size 30 of the table germ
  a_k = k / (k + 1): a_0 = 0, so its one class has a zero first minor and
  each larger leading block is eliminated with pivoting
- the Hankel prefix pass at size 60 of the shifted Motzkin germ
  a_k = M_(k+1), whose leading minors are 1, 0, -1, -1, 0, 1 repeated: 20
  zero minors in one class, each followed by pivoted re-eliminations

Each kernel is handed the `MomentMatrix` itself, as the library hands it
over, so that its grid of key codes is read once per distinct moment.

BENCH_exact.json also times building a moment matrix, `measures.gram` and
`functionals.hankel_matrix`, each distinct moment evaluated once:

- the Gram matrix of the uniform measure on the square [-1, 1]^2 at
  m = 153 and m = 231 (s = 16 and 20), whose 861 distinct moments at
  m = 231 are not cached between calls
- the arcsine Hankel matrix at size 61, the `hankel` config of `exact`;
  its moments are cached after the first call, so this row is the lookup
- the product-arcsine Hankel matrix at size 45 (s = 8), the two-variable
  `hankel` config of `exact`: 153 distinct moments, each a product of
  two cached one-variable moments
- the arcsine Gram matrix at m = 41, the largest of the `sharpness`
  config of `exact`

A timing is the mean seconds per call over a block of `number` calls,
with `number` doubled until one block lasts at least 0.2 s; each row
records the minimum and the median over `BLOCKS` blocks, so that a change
smaller than 2x stands out of the spread of a shared machine.  The points
come from a fixed seed.  BLAS is pinned to one thread before numpy is
first imported, and the library is imported from this checkout's `src/`.
Needs only numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polyalab  # noqa: E402
from polyalab import linalg, measures, vandermonde  # noqa: E402

BLOCKS = 7
MIN_BLOCK_S = 0.2
GREEDY_CASES = ("interval m=9", "box m=21")


def shapes(rng: np.random.Generator) -> list[tuple[str, np.ndarray, int]]:
    circle_x_interval = polyalab.ProductSet(
        (polyalab.Circle(0.0, 1.0), polyalab.Interval(-1.0, 1.0))
    )
    product_arcsine = polyalab.ProductMeasure(
        (polyalab.ArcsineMeasure(-1.0, 1.0), polyalab.ArcsineMeasure(-1.0, 1.0))
    )
    box = polyalab.ProductSet((polyalab.Interval(-1.0, 1.0), polyalab.Interval(-1.0, 1.0)))
    return [
        ("15x15 circle x interval configuration", circle_x_interval.sample(rng, 15), 15),
        ("548x15 circle x interval pool", circle_x_interval.sample(rng, 548), 15),
        ("40960x10 product arcsine Monte Carlo chunk", product_arcsine.sample(rng, 40960), 10),
        ("65536x28 box grid 256^2", box.grid(256), 28),
    ]


def peak_cases(rng: np.random.Generator) -> list[tuple[str, object]]:
    """(name, call) of each traced-peak row of BENCH_monomial.json."""
    product_arcsine = polyalab.ProductMeasure(
        (polyalab.ArcsineMeasure(-1.0, 1.0), polyalab.ArcsineMeasure(-1.0, 1.0))
    )
    chunk = measures.MONTE_CARLO_CHUNK
    product_chunk = product_arcsine.sample(rng, chunk * 10).reshape(chunk, 10, 2)
    disk_chunk = polyalab.DiskUniform(1.0).sample(rng, chunk * 9).reshape(chunk, 9, 1)
    return [
        ("4096x10 product arcsine Monte Carlo chunk",
         lambda: vandermonde.vdm_logabs_batch(product_chunk)),
        ("4096x9 disk Monte Carlo chunk", lambda: vandermonde.vdm_logabs_batch(disk_chunk)),
        ("256^2 product arcsine sup/L2 sweep, s=6",
         lambda: polyalab.bernstein_markov_ratio(product_arcsine, 6, per_axis=256)),
        ("40960-point product arcsine Monte Carlo draw",
         lambda: product_arcsine.sample(rng, chunk * 10)),
        ("36864-point disk Monte Carlo draw",
         lambda: polyalab.DiskUniform(1.0).sample(rng, chunk * 9)),
    ]


def traced_peak_mib(call) -> float:
    """tracemalloc peak of one call, in MiB, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_blocks(call) -> dict:
    """Minimum and median over BLOCKS blocks of the mean seconds per call."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= MIN_BLOCK_S:
            break
        number *= 2
    means = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(number):
            call()
        means.append((time.perf_counter() - start) / number)
    return {
        "min_s": min(means),
        "median_s": statistics.median(means),
        "number": number,
        "blocks": BLOCKS,
    }


def exchange_cases() -> list[tuple[str, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(name, size, first pools, current, log|V|, pools) of a default search's restarts.

    current holds the greedy starts from the first pools; pools are the
    next ones, which the first exchange pass scores against.
    """
    strategy = polyalab.SearchStrategy()
    box = polyalab.ProductSet((polyalab.Interval(-1.0, 1.0), polyalab.Interval(-1.0, 1.0)))
    circle_x_interval = polyalab.ProductSet(
        (polyalab.Circle(0.0, 1.0), polyalab.Interval(-1.0, 1.0))
    )
    cases = []
    for name, kset, size in (
        ("box m=21", box, 21),
        ("circle x interval m=15", circle_x_interval, 15),
        ("interval m=9", polyalab.Interval(-1.0, 1.0), 9),
    ):
        fixed = vandermonde._fixed_candidates(
            kset, size, strategy.pool_size, kset.reference_points(size)
        )
        children = np.random.SeedSequence(1).spawn(strategy.restarts)
        rngs = [np.random.default_rng(child) for child in children]

        def draw():
            return [vandermonde._candidate_pool(kset, strategy.pool_size, r, fixed) for r in rngs]

        first = np.stack(draw())
        current = vandermonde._greedy_start(first, size)
        pools = np.stack(draw())
        cases.append((name, size, first, current, vandermonde.vdm_logabs_batch(current), pools))
    return cases


def exact_cases() -> list[tuple[str, object, object]]:
    """(name, kernel, exact MomentMatrix) of each BENCH_exact.json elimination row."""
    arcsine = polyalab.ArcsineMeasure(-1.0, 1.0)
    product = polyalab.ProductMeasure((arcsine, arcsine))
    hankel = polyalab.hankel_matrix(polyalab.coeffs_from_measure(arcsine), 61)
    three_atoms = polyalab.DiscreteMeasure(
        ((0.0,), (1.0,), (-1.0,)), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    )
    zero_first = polyalab.coeffs_from_table(1, {(k,): Fraction(k, k + 1) for k in range(59)})
    unit_square = polyalab.ProductMeasure(
        (polyalab.UniformSegment(0.0, 1.0), polyalab.UniformSegment(0.0, 1.0))
    )
    off_centre = polyalab.coeffs_from_measure(polyalab.ArcsineMeasure(0.0, 2.0))
    unit_interval = polyalab.coeffs_from_measure(polyalab.UniformSegment(0.0, 1.0))
    motzkin = [1, 1]
    for i in range(2, 121):
        motzkin.append(((2 * i + 1) * motzkin[-1] + (3 * i - 3) * motzkin[-2]) // (i + 2))
    shifted_motzkin = polyalab.coeffs_from_table(1, {(k,): motzkin[k + 1] for k in range(119)})
    return [
        ("arcsine Hankel prefix pass, size 61", linalg.exact_prefix_logdets, hankel),
        ("product arcsine Gram prefix pass, m=153", linalg.exact_prefix_logdets,
         polyalab.gram(product, 153)),
        ("product arcsine Gram exact_ldl, m=28", linalg.exact_ldl,
         polyalab.gram(product, 28)),
        ("arcsine[0, 2] Gram prefix pass, m=41", linalg.exact_prefix_logdets,
         polyalab.gram(polyalab.ArcsineMeasure(0.0, 2.0), 41)),
        ("uniform [0, 1]^2 Gram prefix pass, m=153", linalg.exact_prefix_logdets,
         polyalab.gram(unit_square, 153)),
        ("arcsine[0, 2] Hankel prefix pass, size 61", linalg.exact_prefix_logdets,
         polyalab.hankel_matrix(off_centre, 61)),
        ("uniform [0, 1] Hankel prefix pass, size 40", linalg.exact_prefix_logdets,
         polyalab.hankel_matrix(unit_interval, 40)),
        ("3-atom discrete Gram prefix pass, m=40", linalg.exact_prefix_logdets,
         polyalab.gram(three_atoms, 40)),
        ("product arcsine Gram exact_logdet, m=153", linalg.exact_logdet,
         polyalab.gram(product, 153)),
        ("a_0 = 0 table Hankel exact_logdet, size 30", linalg.exact_logdet,
         polyalab.hankel_matrix(zero_first, 30)),
        ("shifted Motzkin Hankel prefix pass, size 60", linalg.exact_prefix_logdets,
         polyalab.hankel_matrix(shifted_motzkin, 60)),
    ]


def build_cases() -> list[tuple[str, int, object]]:
    """(name, size, build) of each moment-matrix build row of BENCH_exact.json."""
    square = polyalab.ProductMeasure(
        (polyalab.UniformSegment(-1.0, 1.0), polyalab.UniformSegment(-1.0, 1.0))
    )
    arcsine = polyalab.ArcsineMeasure(-1.0, 1.0)
    germ = polyalab.coeffs_from_measure(arcsine)
    product = polyalab.coeffs_from_measure(polyalab.ProductMeasure((arcsine, arcsine)))
    return [
        ("uniform square gram, m=153", 153, lambda: polyalab.gram(square, 153)),
        ("uniform square gram, m=231", 231, lambda: polyalab.gram(square, 231)),
        ("arcsine hankel_matrix, size 61", 61, lambda: polyalab.hankel_matrix(germ, 61)),
        ("product-arcsine hankel_matrix, size 45", 45, lambda: polyalab.hankel_matrix(product, 45)),
        ("arcsine gram, m=41", 41, lambda: polyalab.gram(arcsine, 41)),
    ]


def record(kernel: str, rows: list[dict]) -> dict:
    return {
        "kernel": kernel,
        "metric": "min_s, median_s: minimum and median over blocks of the mean seconds per call",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    rows = []
    for name, points, nbasis in shapes(np.random.default_rng(1)):
        exps = polyalab.enumeration_for(points.shape[1]).exponents(nbasis)
        timing = time_blocks(lambda: polyalab.monomial_matrix(points, exps))
        rows.append(
            {
                "shape": name,
                "npoints": int(points.shape[0]),
                "nbasis": nbasis,
                "dim": int(points.shape[1]),
                **timing,
            }
        )
        print(f"{name:45s} {timing['median_s'] * 1e6:12.1f} us", file=sys.stderr)
    for name, call in peak_cases(np.random.default_rng(2)):
        peak = traced_peak_mib(call)
        timing = time_blocks(call)
        rows.append({"layer": "traced peak", "shape": name, "peak_mib": peak, **timing})
        print(f"{name:45s} {timing['median_s'] * 1e3:12.2f} ms {peak:8.2f} MiB", file=sys.stderr)
    monomial = record(
        "multiindex.monomial_matrix; traced peak: vandermonde.vdm_logabs_batch, "
        "measures.bernstein_markov_ratio, ProductMeasure.sample, DiskUniform.sample",
        rows,
    )
    monomial["metric"] += "; peak_mib: tracemalloc peak of one call after a warm-up call"

    rows = []
    for name, size, first, current, log_abs, pools in exchange_cases():
        shape = {"restarts": int(current.shape[0]), "size": size, "npool": int(pools.shape[1]),
                 "dim": int(current.shape[2])}
        _, after = vandermonde._exchange_pass(current, log_abs, pools)
        timing = time_blocks(lambda: vandermonde._exchange_pass(current, log_abs, pools))
        rows.append({"layer": "exchange pass", "shape": name, **shape,
                     "log_gain": (after - log_abs).tolist(), **timing})
        print(f"exchange pass, {name:30s} {timing['median_s'] * 1e6:12.1f} us", file=sys.stderr)
        if name in GREEDY_CASES:
            timing = time_blocks(lambda: vandermonde._greedy_start(first, size))
            rows.append({"layer": "greedy start", "shape": name, **shape,
                         "start_log_abs": log_abs.tolist(), **timing})
            print(f"greedy start, {name:31s} {timing['median_s'] * 1e6:12.1f} us", file=sys.stderr)
    exchange = record("vandermonde._exchange_pass, vandermonde._greedy_start", rows)

    rows = []
    for name, kernel, matrix in exact_cases():
        timing = time_blocks(lambda: kernel(matrix))
        rows.append({"layer": "exact elimination", "shape": name, "size": len(matrix), **timing})
        print(f"{name:45s} {timing['median_s'] * 1e3:12.2f} ms", file=sys.stderr)
    for name, size, build in build_cases():
        timing = time_blocks(build)
        rows.append({"layer": "moment matrix build", "shape": name, "size": size, **timing})
        print(f"{name:45s} {timing['median_s'] * 1e3:12.2f} ms", file=sys.stderr)
    exact = record(
        "linalg.exact_prefix_logdets, linalg.exact_logdet, linalg.exact_ldl, measures.gram, "
        "functionals.hankel_matrix",
        rows,
    )

    for filename, payload in (
        ("BENCH_monomial.json", monomial),
        ("BENCH_exchange.json", exchange),
        ("BENCH_exact.json", exact),
    ):
        (args.out_dir / filename).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
