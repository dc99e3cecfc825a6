"""Structured verification reports shared by every verifier and the CLI."""

from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .rationals import format_rational

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"

_EXIT_CODES = {PASS: 0, FAIL: 1, INCONCLUSIVE: 3, HYPOTHESIS_NOT_MET: 3}


def serialize(obj: Any) -> Any:
    """Convert nested values to JSON-safe data; rationals become "p/q" strings."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): serialize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [serialize(v) for v in obj]
    if hasattr(obj, "entries"):  # NonNegVector serializes as a flat list
        return serialize(list(obj.entries))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return serialize(dataclasses.asdict(obj))
    return str(obj)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    status is one of pass / fail / inconclusive / hypothesis_not_met; a
    fail must carry at least one witness. Exact values are serialized as
    "p/q" strings so output round-trips losslessly.
    """

    command: str
    status: str
    parameters: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    witnesses: list[Any] = field(default_factory=list)
    timing_ms: float = 0.0

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "status": self.status,
            "parameters": serialize(self.parameters),
            "details": serialize(self.details),
            "witnesses": serialize(self.witnesses),
            "timing_ms": self.timing_ms,
        }

    def _rows(self) -> list[tuple[str, str]]:
        """(key, value) per leaf of to_dict, timing_ms last."""
        rows: list[tuple[str, str]] = []
        _flatten("", self.to_dict(), rows)
        return rows

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("key,value\n")
        for key, value in self._rows():
            value = value.replace('"', '""')
            buf.write(f'{key},"{value}"\n')
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"{key}: {value}" for key, value in self._rows()[:-1]]
        lines.append(f"timing_ms: {self.timing_ms:.3f}")
        return "\n".join(lines)
