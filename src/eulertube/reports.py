"""Structured residual reports and their serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field
from typing import List, Sequence

from .errors import IoError

# the emitted fields, in order; not the wall-clock runtime or a failed stage's
# error, so repeated runs of the same configuration write bitwise-identical files
_FIELDS = (
    "scenario",
    "stage",
    "sample_count",
    "max_residual",
    "mean_residual",
    "tolerance",
    "passed",
)

_NUMERIC = ("max_residual", "mean_residual", "tolerance")


@dataclass
class ResidualReport:
    scenario: str
    stage: str
    sample_count: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool = field(init=False)
    runtime_ms: float = 0.0
    error: str = ""  # a failed stage's exception, as "Class: message"

    def __post_init__(self):
        # the pass flag follows the residual/tolerance pair; a failed
        # stage's infinite residual fails even under an infinite bound
        r = self.max_residual
        self.passed = bool(math.isfinite(r) and r <= self.tolerance)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _json_number(x: float):
    v = float(_fmt(x))
    return v if math.isfinite(v) else None


def emit(reports: Sequence[ResidualReport], fmt: str = "table", path: str = None) -> str:
    """Serialize reports as a TSV table or JSON-lines records.

    Numbers carry 17 significant digits and the field order is fixed;
    records write a non-finite number (the residual of a failed stage) as
    null, which JSON (RFC 8259) allows and ``parse`` reads back as inf.
    The runtime and a failed stage's error are left out.
    """
    lines: List[str] = []
    if fmt == "table":
        lines.append("\t".join(_FIELDS))
        for r in reports:
            d = asdict(r)
            row = []
            for f in _FIELDS:
                v = d[f]
                row.append(_fmt(v) if f in _NUMERIC else str(v))
            lines.append("\t".join(row))
    elif fmt == "records":
        for r in reports:
            d = asdict(r)
            rec = {}
            for f in _FIELDS:
                rec[f] = _json_number(d[f]) if f in _NUMERIC else d[f]
            lines.append(json.dumps(rec, sort_keys=False, allow_nan=False))
    else:
        raise ValueError(f"unknown format {fmt!r} (use 'table' or 'records')")
    text = "\n".join(lines) + "\n"
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(str(exc)) from exc
    return text


def parse(text: str) -> List[ResidualReport]:
    """Parse the output of emit back into report objects (both formats),
    with a runtime of 0 and no error."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    out: List[ResidualReport] = []
    if lines[0].startswith("scenario\t"):
        header = lines[0].split("\t")
        for ln in lines[1:]:
            parts = dict(zip(header, ln.split("\t")))
            out.append(_from_dict(parts))
    else:
        for ln in lines:
            out.append(_from_dict(json.loads(ln)))
    return out


def _from_dict(d) -> ResidualReport:
    def num(key, default=0.0):
        if key not in d:
            return default
        if d[key] is None:
            return math.inf
        return float(d[key])

    return ResidualReport(
        scenario=str(d["scenario"]),
        stage=str(d["stage"]),
        sample_count=int(d["sample_count"]),
        max_residual=num("max_residual"),
        mean_residual=num("mean_residual"),
        tolerance=num("tolerance"),
    )
