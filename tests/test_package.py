import ast
import graphlib
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import wells_majorize
from wells_majorize import majorize, rationals, spin_sums, wells
from wells_majorize.errors import InvariantError, LengthMismatchError, PreconditionError, ValidationError
from wells_majorize.majorize import NonNegVector, OddConvexFunction, single_crossing_majorizes
from wells_majorize.spin_sums import (
    HALF_ODD,
    INTEGER,
    PsiGrid,
    SpinValue,
    build_integer_triple,
    leading_block_check,
    odd_midpoint_check,
    split_domination_check,
    verify_half_odd_theorem,
    verify_integer_theorem,
)
from wells_majorize.wells import TMinusResult, sphere_canonical_check, sphere_moment

MODULES = {"__init__", "cli", "errors", "majorize", "oracle", "rationals", "report", "spin_sums", "wells"}


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(wells_majorize.__all__)) == len(wells_majorize.__all__)
    for name in wells_majorize.__all__:
        value = getattr(wells_majorize, name)
        assert not isinstance(value, types.ModuleType), name


def package_imports() -> dict[str, set[str]]:
    """Each source module of the package, by name, with the package
    modules it imports anywhere in its file."""
    graph = {}
    for path in Path(wells_majorize.__file__).parent.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and node.module is None:  # from . import a, b
                imported.update(alias.name for alias in node.names)
            elif node.level == 1:
                imported.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("wells_majorize."):
                imported.add(node.module.split(".")[1])
        graph[path.stem] = imported
    return graph


class TestModuleGraph:
    """The package's modules import each other along one order, with the
    moment kernels in `majorize` below both `wells` and `spin_sums`."""

    graph = package_imports()

    def test_every_module_is_read(self):
        assert set(self.graph) == MODULES
        assert self.graph["cli"] >= {"oracle", "wells", "majorize"}
        assert self.graph["__init__"] == MODULES - {"__init__", "cli", "errors", "rationals"}

    def test_imports_are_acyclic(self):
        list(graphlib.TopologicalSorter(self.graph).static_order())

    def test_majorize_imports_only_errors_and_rationals(self):
        assert self.graph["majorize"] == {"errors", "rationals"}

    def test_report_imports_only_majorize_and_rationals(self):
        assert self.graph["report"] == {"majorize", "rationals"}

    def test_wells_and_spin_sums_import_neither_each_other(self):
        assert "spin_sums" not in self.graph["wells"]
        assert "wells" not in self.graph["spin_sums"]

    def test_oracle_does_not_import_wells(self):
        assert "wells" not in self.graph["oracle"]

    def test_moved_names_stay_importable_from_their_old_modules(self):
        assert wells._stop_loss_dominates is majorize._stop_loss_dominates
        assert wells._odd_power_sums is spin_sums._odd_power_sums is majorize._odd_power_sums
        assert spin_sums.SpinValue is wells_majorize.SpinValue is rationals.SpinValue


HALF_ODD_GRID = PsiGrid(HALF_ODD, 2, (F(0), F(1, 4), F(1)))
INTEGER_GRID = PsiGrid(INTEGER, 2, tuple(map(F, (4, 1, 0, 1, 4))))


@pytest.mark.parametrize(
    "refused, error, message",
    [
        pytest.param(lambda: NonNegVector((1,)), ValidationError, "entry 1 is not a Fraction",
                     id="vector entry not a Fraction"),
        pytest.param(lambda: single_crossing_majorizes(NonNegVector.of(1), NonNegVector.of(1, 0)),
                     LengthMismatchError, "length mismatch: 1 vs 2", id="single crossing over unequal lengths"),
        pytest.param(lambda: split_domination_check(NonNegVector.of(1), NonNegVector.of(1, 0)),
                     PreconditionError, "length mismatch", id="split domination over unequal lengths"),
        pytest.param(lambda: SpinValue(0), ValidationError, "twice must be >= 1", id="spin 0"),
        pytest.param(lambda: PsiGrid("cubic", 1, (F(0), F(1))), ValidationError, "unknown variant 'cubic'",
                     id="grid of unknown variant"),
        pytest.param(lambda: PsiGrid(HALF_ODD, 0, (F(0),)), ValidationError, "half-odd grid needs N >= 1",
                     id="grid with N = 0"),
        pytest.param(lambda: PsiGrid(INTEGER, 1, (F(1), F(-1), F(1))), ValidationError,
                     "samples must be non-negative", id="grid with a negative sample"),
        pytest.param(lambda: build_integer_triple(PsiGrid(INTEGER, 1, (F(1), F(0), F(1)))),
                     PreconditionError, "integer construction needs N >= 2", id="integer triple at N = 1"),
        pytest.param(lambda: leading_block_check(HALF_ODD_GRID), PreconditionError, "integer grid required",
                     id="leading block on a half-odd grid"),
        pytest.param(lambda: odd_midpoint_check(HALF_ODD_GRID), PreconditionError, "integer grid required",
                     id="odd midpoint on a half-odd grid"),
        # Each theorem pipeline is refused the other variant's grid by
        # the first step that reads the variant.
        pytest.param(lambda: verify_half_odd_theorem(INTEGER_GRID, OddConvexFunction.power(1)),
                     PreconditionError, "half-odd grid required", id="half-odd theorem on an integer grid"),
        pytest.param(lambda: verify_integer_theorem(HALF_ODD_GRID, OddConvexFunction.power(1)),
                     PreconditionError, "integer grid required", id="integer theorem on a half-odd grid"),
        pytest.param(lambda: TMinusResult(lo=1, hi=0), InvariantError, "empty bracket", id="empty t-minus bracket"),
        pytest.param(lambda: sphere_moment(3, -1), PreconditionError, "k must be >= 0",
                     id="sphere moment of negative order"),
        pytest.param(lambda: sphere_canonical_check(3, 0), PreconditionError, "n_max must be >= 1",
                     id="sphere check to order 0"),
    ],
)
def test_each_refusal_names_its_error(refused, error, message):
    with pytest.raises(error) as refusal:
        refused()
    assert type(refusal.value) is error
    assert str(refusal.value) == message
