"""Tracing for the per-layer run: spans around the package's public
functions, recorded from outside the package.

Each wrapped function is replaced under its name in every module that
holds it, because `cli` imports `t_minus_upper` and `canonical_gap` by
name and `spin_sums` does the same with `majorizes`, `karamata_verify`
and `single_crossing_majorizes`; patching only the defining module would
miss those calls. A span is (id, parent id, name, start ns, end ns) and
stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (layer module, attribute path) of every wrapped callable. Methods and
# classmethods are given as "Class.method".
TRACED = (
    ("cli", "main"),
    ("report", "VerificationReport.to_json"),
    ("report", "VerificationReport.to_csv"),
    ("report", "VerificationReport.to_text"),
    ("wells", "t_minus_upper"),
    ("wells", "canonical_gap"),
    ("wells", "passes_up_to"),
    ("wells", "tail_sign_ok"),
    ("wells", "wells_term"),
    ("spin_sums", "spin_sum"),
    ("spin_sums", "verify_integer_theorem"),
    ("spin_sums", "verify_half_odd_theorem"),
    ("spin_sums", "PsiGrid.from_function"),
    ("majorize", "majorizes"),
    ("majorize", "karamata_verify"),
    ("majorize", "single_crossing_majorizes"),
    ("oracle", "random_probe"),
    ("oracle", "domination_check"),
    ("oracle", "gibbs_expectation"),
)
PACKAGE = "wells_majorize"
SERIALIZERS = {"report.to_json", "report.to_csv", "report.to_text"}


class Tracer:
    """Records spans and per-call counters inside `with tracer:`. Create it
    after the package is imported."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.bytes_out = 0
        self.max_bits = 0
        self.configs = 0
        self._patches = self._plan()

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            tracer.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_bytes(self, args, result) -> None:
        self.bytes_out += len(result.encode())

    def _observe_bits(self, args, result) -> None:
        self.max_bits = max(self.max_bits, result.numerator.bit_length(), result.denominator.bit_length())

    def _observe_configs(self, args, result) -> None:
        lattice, _, measure = args[:3]
        atoms = measure.atoms if hasattr(measure, "atoms") else measure
        self.configs += len(atoms) ** len(lattice.sites)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every traced callable
        in every package module holding it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        observers = {"wells.wells_term": self._observe_bits,
                     "oracle.gibbs_expectation": self._observe_configs}
        observers.update({name: self._observe_bytes for name in SERIALIZERS})
        patches = []
        for layer, path in TRACED:
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            *cls_path, attr = path.split(".")
            name = f"{layer}.{attr}"
            if cls_path:
                cls = getattr(owner, cls_path[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, observers.get(name)))
                else:
                    wrapped = self._wrap(name, raw, observers.get(name))
                patches.append((cls, attr, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, observers.get(name))
            patches += [(module, attr, original, wrapped) for module in modules
                        if getattr(module, attr, None) is original]
        return patches

    def __enter__(self) -> "Tracer":
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals per pass of the operation list: (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, name, start, end in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            child_ns[parent] += end - start
        cli_self_ns = sum(end - start - child_ns[span_id]
                          for span_id, _, name, start, end in self.spans if name == "cli.main")

        def ms(*names: str) -> float:
            return sum(total_ns[n] for n in names) / 1e6 / passes

        def count(name: str) -> float:
            return calls[name] / passes

        gibbs_ns = total_ns["oracle.gibbs_expectation"]
        return {
            "cli.self_ms": (cli_self_ns / 1e6 / passes, "ms"),
            "report.serialize_ms": (ms(*sorted(SERIALIZERS)), "ms"),
            "report.bytes_out": (self.bytes_out / passes, "bytes"),
            "wells.t_minus_upper.calls": (count("wells.t_minus_upper"), "count"),
            "wells.t_minus_upper.ms": (ms("wells.t_minus_upper"), "ms"),
            "wells.canonical_gap.ms": (ms("wells.canonical_gap"), "ms"),
            "wells.passes_up_to.calls": (count("wells.passes_up_to"), "count"),
            "wells.tail_sign_ok.calls": (count("wells.tail_sign_ok"), "count"),
            "wells.wells_term.calls": (count("wells.wells_term"), "count"),
            "wells.wells_term.ms": (ms("wells.wells_term"), "ms"),
            "wells.wells_term.max_bits": (float(self.max_bits), "bits"),
            "spin_sums.spin_sum.calls": (count("spin_sums.spin_sum"), "count"),
            "spin_sums.spin_sum.ms": (ms("spin_sums.spin_sum"), "ms"),
            "spin_sums.theorem.ms": (ms("spin_sums.verify_integer_theorem",
                                        "spin_sums.verify_half_odd_theorem"), "ms"),
            "spin_sums.psi_grid_build.ms": (ms("spin_sums.from_function"), "ms"),
            "majorize.majorizes.calls": (count("majorize.majorizes"), "count"),
            "majorize.majorizes.ms": (ms("majorize.majorizes"), "ms"),
            "majorize.karamata_verify.ms": (ms("majorize.karamata_verify"), "ms"),
            "majorize.single_crossing_majorizes.ms": (ms("majorize.single_crossing_majorizes"), "ms"),
            "oracle.random_probe.ms": (ms("oracle.random_probe"), "ms"),
            "oracle.domination_check.calls": (count("oracle.domination_check"), "count"),
            "oracle.gibbs_expectation.calls": (count("oracle.gibbs_expectation"), "count"),
            "oracle.gibbs_expectation.ms": (ms("oracle.gibbs_expectation"), "ms"),
            "oracle.configs_enumerated": (self.configs / passes, "count"),
            "oracle.us_per_config": (gibbs_ns / 1e3 / self.configs if self.configs else 0.0, "us"),
        }
