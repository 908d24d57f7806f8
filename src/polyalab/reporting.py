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
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

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


def parse_csv_text(text: str) -> list[ReportRow]:
    """Inverse of rows_to_csv_text, minus the wall-clock (CSV never has it)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        exp, label, quantity, s, i, j, value, std_error, seed = rec
        rows.append(
            ReportRow(
                experiment=exp,
                label=label,
                quantity=quantity,
                s=int(s) if s else None,
                i=int(i) if i else None,
                j=int(j) if j else None,
                value=float(value),
                std_error=float(std_error) if std_error else None,
                seed=int(seed),
            )
        )
    return rows


def write_csv(rows: Sequence[ReportRow], path: str | Path) -> Path:
    path = Path(path)
    try:
        path.write_text(rows_to_csv_text(rows))
    except OSError as exc:
        raise OSError(f"cannot write CSV report to {path}: {exc}") from exc
    return path


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


def report_json_payload(
    experiment: str,
    label: str,
    seed: int,
    config: dict,
    rows: Sequence[ReportRow],
    flags: Sequence[str],
    wall_clock: float,
    extras: dict | None = None,
) -> dict:
    return _json_safe(
        {
            "schema": SCHEMA_VERSION,
            "experiment": experiment,
            "label": label,
            "seed": seed,
            "wall_clock_seconds": wall_clock,
            "config": config,
            "flags": list(flags),
            "rows": [asdict(r) for r in rows],
            "extras": extras or {},
        }
    )


def write_json(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON report to {path}: {exc}") from exc
    return path
