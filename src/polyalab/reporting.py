"""Report rows and machine-readable emission.

Every experiment produces a flat list of rows, one scalar each.  CSV holds
the deterministic payload: identical (config, seed) runs must produce
byte-identical CSV bodies, so wall-clock times are kept out of it and
live only in the JSON sidecar, which also embeds the full config for
provenance.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from .experiments import RunResult

SCHEMA_VERSION = 1

CSV_COLUMNS = ("experiment", "label", "quantity", "s", "i", "j", "value", "std_error", "seed")


@dataclass(frozen=True, slots=True)
class ReportRow:
    """One computed scalar, addressed by degree s, matrix size i, or family j."""

    experiment: str
    label: str
    quantity: str
    value: float
    seed: int
    s: int | None = None
    i: int | None = None
    j: int | None = None
    std_error: float | None = None
    wall_clock: float = 0.0


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv_text(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.experiment,
                r.label,
                r.quantity,
                _fmt(r.s),
                _fmt(r.i),
                _fmt(r.j),
                repr(float(r.value)),
                _fmt(r.std_error),
                str(r.seed),
            ]
        )
    return buf.getvalue()


def _json_safe(obj: Any) -> Any:
    """Recursively replace non-finite floats so the JSON stays portable."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def report_json_payload(result: RunResult) -> dict:
    """The JSON sidecar of one run: its config, rows, flags, extras and wall time."""
    cfg = result.config
    return _json_safe(
        {
            "schema": SCHEMA_VERSION,
            "experiment": cfg.experiment,
            "label": cfg.label,
            "seed": cfg.seed,
            "wall_clock_seconds": result.wall_clock,
            "config": cfg.to_dict(),
            "flags": result.flags,
            "rows": [asdict(r) for r in result.rows],
            "extras": result.extras,
        }
    )
