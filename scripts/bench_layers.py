"""Best-of-N timings of `monomial_matrix` at the call shapes of the benchmark workloads.

    python3 scripts/bench_layers.py                 # writes BENCH_monomial.json
    python3 scripts/bench_layers.py --out x.json

Each row times `polyalab.monomial_matrix(points, exponents)` on two-variable
points, with the graded exponents of the first `nbasis` monomials:

- 15 x 15: one 15-point configuration, the size of an exchange re-evaluation
  in `search-2d` (circle x interval)
- 548 x 15: a candidate pool of that search (512 samples, grid, reference)
- 20,480 x 10: one Monte Carlo chunk of the product-arcsine `zs-check` in
  `sampling`
- 65,536 x 28: the 256 x 256 box grid of a sup-norm ratio in `sampling`

A timing is the best, over `REPEAT` runs, of the mean over `number`
calls, with `number` doubled until one run lasts at least 0.05 s; the
points come from a fixed seed.  BLAS is pinned to one thread before numpy
is first imported, and the library is imported from this checkout's
`src/`.  Needs only numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polyalab  # noqa: E402

REPEAT = 7


def shapes(rng: np.random.Generator) -> list[tuple[str, np.ndarray, int]]:
    circle_x_interval = polyalab.ProductSet(
        (polyalab.Circle(0.0, 1.0), polyalab.Interval(-1.0, 1.0))
    )
    product_arcsine = polyalab.ProductMeasure(
        (polyalab.ArcsineMeasure(-1.0, 1.0), polyalab.ArcsineMeasure(-1.0, 1.0))
    )
    box = polyalab.Box(((-1.0, 1.0), (-1.0, 1.0)))
    return [
        ("15x15 circle x interval configuration", circle_x_interval.sample(rng, 15), 15),
        ("548x15 circle x interval pool", circle_x_interval.sample(rng, 548), 15),
        ("20480x10 product arcsine Monte Carlo chunk", product_arcsine.sample(rng, 20480), 10),
        ("65536x28 box grid 256^2", box.grid(256), 28),
    ]


def best_of(call, repeat: int, min_run: float = 0.05) -> tuple[float, int]:
    """Best mean seconds per call over `repeat` runs, and the calls per run."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= min_run:
            break
        number *= 2
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best, number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_monomial.json")
    args = parser.parse_args(argv)

    rows = []
    for name, points, nbasis in shapes(np.random.default_rng(1)):
        exps = polyalab.enumeration_for(points.shape[1]).exponents(nbasis)
        seconds, number = best_of(lambda: polyalab.monomial_matrix(points, exps), REPEAT)
        rows.append(
            {
                "shape": name,
                "npoints": int(points.shape[0]),
                "nbasis": nbasis,
                "dim": int(points.shape[1]),
                "best_s": seconds,
                "number": number,
                "repeat": REPEAT,
            }
        )
        print(f"{name:45s} {seconds * 1e6:12.1f} us", file=sys.stderr)
    record = {
        "kernel": "multiindex.monomial_matrix",
        "metric": "best_s: best of repeat runs of the mean seconds per call",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
