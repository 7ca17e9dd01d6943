"""Trial-data ingestion and deterministic result/plot emission.

The CSV schema is one row per study arm:
``study,outcome,arm,treat,events,exposure`` with an optional ``arm_size``
column used when exposure (person-years) is unavailable. All floating-point
output is written with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import math
from typing import List, Optional, Sequence

import numpy as np

from .errors import ParseError
from .glm import ModelData

__all__ = [
    "TrialRecord",
    "parse_trial_csv",
    "bundled_trials_path",
    "trial_model_data",
    "format_float",
    "to_json_text",
    "emit_plot_csv",
]

REQUIRED_COLUMNS = ("study", "outcome", "arm", "treat", "events", "exposure")


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    study: str
    outcome: str
    arm: str
    treat: int
    events: int
    exposure: Optional[float]      # person-years; None -> arm_size fallback
    arm_size: Optional[float]

    @property
    def exposure_fallback(self) -> bool:
        return self.exposure is None


def _positive(row, column) -> Optional[float]:
    """The column's value as a finite number above 0, or None when it is empty or absent."""
    if row.get(column) in (None, ""):
        return None
    value = float(row[column])
    if not 0.0 < value < math.inf:
        raise ValueError(f"{column} must be finite and > 0")
    return value


def parse_trial_csv(path) -> List[TrialRecord]:
    """Read and validate trial arm records; raises ParseError with row numbers."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing column(s): {', '.join(missing)}")
        records = []
        for i, row in enumerate(reader, start=2):
            try:
                treat = int(row["treat"])
                if treat not in (0, 1):
                    raise ValueError("treat must be 0 or 1")
                events = int(row["events"])
                if events < 0:
                    raise ValueError("events must be >= 0")
                exposure = _positive(row, "exposure")
                arm_size = _positive(row, "arm_size")
                if exposure is None and arm_size is None:
                    raise ValueError("need exposure or arm_size")
                records.append(TrialRecord(
                    study=row["study"], outcome=row["outcome"], arm=row["arm"],
                    treat=treat, events=events, exposure=exposure, arm_size=arm_size,
                ))
            except (TypeError, ValueError, KeyError) as exc:
                raise ParseError(str(exc), row=i) from None
    if not records:
        raise ParseError("no data rows")
    return records


def bundled_trials_path() -> str:
    """Path of the packaged SGLT2i trial dataset."""
    return str(importlib.resources.files("piglm.data") / "sglt2i_trials.csv")


def trial_model_data(records: Sequence[TrialRecord], study: str, outcome: str,
                     exposure_scale: float = 1000.0):
    """Assemble a Poisson rate model for one study/outcome pair.

    Offsets are log(exposure / exposure_scale); arms lacking exposure fall
    back to arm size (flagged in the returned metadata).
    """
    rows = [r for r in records if r.study == study and r.outcome == outcome]
    if not rows:
        raise ParseError(f"no rows for study={study!r} outcome={outcome!r}")
    rows = sorted(rows, key=lambda r: -r.treat)
    y = np.array([float(r.events) for r in rows])
    X = np.column_stack([np.ones(len(rows)), [float(r.treat) for r in rows]])
    exposure = np.array([
        r.exposure if r.exposure is not None else r.arm_size for r in rows
    ])
    offset = np.log(exposure / exposure_scale)
    data = ModelData(y=y, X=X, offset=offset)
    meta = {
        "arms": [r.arm for r in rows],
        "exposure_fallback": any(r.exposure_fallback for r in rows),
        "exposure_scale": exposure_scale,
    }
    return data, meta


def format_float(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _json_value(obj, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_value(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{_json_value(str(k), indent, 0)}: {_json_value(v, indent, level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json_text(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _json_value(obj, 2, 0) + "\n"


def emit_plot_csv(path, header: Sequence[str], rows) -> None:
    """Plot-data CSV: one header line, fixed column order, 17-digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format_float(v) if isinstance(v, (float, np.floating)) else v
                for v in row
            ])
