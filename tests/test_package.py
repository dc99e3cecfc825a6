import ast
import graphlib
import types
from pathlib import Path

import wells_majorize
from wells_majorize import majorize, rationals, spin_sums, wells

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

    def test_wells_and_spin_sums_import_neither_each_other(self):
        assert "spin_sums" not in self.graph["wells"]
        assert "wells" not in self.graph["spin_sums"]

    def test_oracle_does_not_import_wells(self):
        assert "wells" not in self.graph["oracle"]

    def test_moved_names_stay_importable_from_their_old_modules(self):
        assert wells._stop_loss_dominates is majorize._stop_loss_dominates
        assert wells._odd_power_sums is spin_sums._odd_power_sums is majorize._odd_power_sums
        assert spin_sums.SpinValue is wells_majorize.SpinValue is rationals.SpinValue
