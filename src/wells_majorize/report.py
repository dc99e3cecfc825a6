"""Structured verification reports shared by every verifier and the CLI.

One writer, `_write_json`, decides the text form of every value a report
holds, and `to_json` is its output: the bytes `json.dumps` gives at
indent 2, written in one pass straight from the values. Each `Fraction`
is the string of `format_rational`, a `NonNegVector` (known by its type)
the list of its entries, written from its integers by `format_scaled`,
any other dataclass its fields one level at a time, and any other object
the string of `str(obj)`; strings go through json's C
`encode_basestring_ascii`, floats take json's form (`NaN`, `Infinity`
and `-Infinity` included), and dict keys go through `str`. `to_dict` is
the parse of that text, and the CSV and text forms hold its leaves."""

from __future__ import annotations

import dataclasses
import io
import json
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
    """Append the indent-2 JSON text of obj to out, written at the depth
    whose line break and indentation is `newline`. This is the one rule
    for a value's text form: to_dict parses what it writes, and the CSV
    and text forms are that parse's leaves. Container loops write
    exact-type leaves themselves, saving a call each."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        # Keys equal under str merge: first place, last value.
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
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, newline, out)
    else:
        out.append(encode_basestring_ascii(str(obj)))


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, rows)
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

    def _json(self) -> str:
        """The JSON text of the six fields, which vars holds in field
        order. to_dict and the CSV and text forms read it from here, not
        through to_json, which bench/spans.py times as rendered output."""
        out: list[str] = []
        _write_json(vars(self), "\n", out)
        return "".join(out)

    def to_dict(self) -> dict[str, Any]:
        return json.loads(self._json())

    def _rows(self) -> list[tuple[str, str]]:
        """(key, value) per leaf of to_dict, timing_ms last."""
        rows: list[tuple[str, str]] = []
        _flatten("", self.to_dict(), rows)
        return rows

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2), written in one pass."""
        return self._json()

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
