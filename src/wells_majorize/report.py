"""Structured verification reports shared by every verifier and the CLI.

`serialize` turns report contents into JSON-safe data (a `NonNegVector`,
known by its type, as its entries, and any other dataclass as its fields
one level at a time), and `to_dict`, the CSV and the text forms read it.
`to_json` writes the report in one pass straight from its values, with
the bytes `json.dumps(report.to_dict(), indent=2)` would give: each
`Fraction` as the string of `format_rational`, each vector entry as the
same string written from the vector's integers by `format_scaled`,
strings through json's C `encode_basestring_ascii`, floats in json's
form (`NaN`, `Infinity` and `-Infinity` included), dict keys through
`str` as `serialize` takes them, and any other value through `serialize`
first.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .majorize import NonNegVector
from .rationals import format_rational, format_scaled

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
    # A vector is a dataclass too, so its type is tested first.
    if isinstance(obj, NonNegVector):
        return format_scaled(*obj._scaled)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: serialize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return str(obj)


def _json_float(x: float) -> str:
    """json's form of a float: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_fraction(q: Fraction) -> str:
    return f'"{format_rational(q)}"'  # digits, "-" and "/" need no escapes


# The JSON text of each leaf type, by exact type. Containers,
# subclasses and every other value go through _write_json's checks.
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    Fraction: _json_fraction,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    int: int.__repr__,
    float: _json_float,
}


def _write_json(obj: Any, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON text of serialize(obj) to out, written at
    the depth whose line break and indentation is `newline`. Container
    loops write exact-type leaves themselves, saving a call each."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        # Keys equal under str merge as in serialize: first place, last value.
        for key, value in {str(k): v for k, v in obj.items()}.items():
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            leaf = _LEAVES.get(type(value))
            if leaf is None:
                _write_json(value, inner, out)
            else:
                out.append(leaf(value))
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for value in obj:
            out.append(separator)
            leaf = _LEAVES.get(type(value))
            if leaf is None:
                _write_json(value, inner, out)
            else:
                out.append(leaf(value))
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, (str, Fraction, int, float)):
        # A subclass (np.float64, an IntEnum) is written as its base type.
        out.append(next(write for kind, write in _LEAVES.items() if isinstance(obj, kind))(obj))
    elif isinstance(obj, NonNegVector):
        # A vector is never empty, and its entries' digits, "-" and "/"
        # need no escapes.
        inner = newline + "  "
        out.append(f'[{inner}"' + f'",{inner}"'.join(format_scaled(*obj._scaled)) + f'"{newline}]')
    else:
        _write_json(serialize(obj), newline, out)


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

    def _fields(self) -> dict[str, Any]:
        """The six report fields in output order, as they are held."""
        return {
            "command": self.command,
            "status": self.status,
            "parameters": self.parameters,
            "details": self.details,
            "witnesses": self.witnesses,
            "timing_ms": self.timing_ms,
        }

    def to_dict(self) -> dict[str, Any]:
        return serialize(self._fields())

    def _rows(self) -> list[tuple[str, str]]:
        """(key, value) per leaf of to_dict, timing_ms last."""
        rows: list[tuple[str, str]] = []
        _flatten("", self.to_dict(), rows)
        return rows

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2), written in one pass."""
        out: list[str] = []
        _write_json(self._fields(), "\n", out)
        return "".join(out)

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
