"""The library holds only what the CLI and the benchmark call.

Every name the package exports, every public module-level function of its
modules and every public method and property of their classes must be read
somewhere in `src/nhspectrum` or `perfbench` outside its own definition.
A name only the tests use belongs in the tests (`tests/oracles.py` for the
oracles).  The names only `perfbench` reads are listed in `PERFBENCH_ONLY`,
so a new one, or a benchmark change that stops probing one, fails the test.
A string that spells a name does not count as a use.  Each `_`-prefixed
function and method of the modules (dunder methods aside) must likewise be
read in `src/nhspectrum` outside its own definition: a private helper that
loses its last caller goes with it.

The field's tables and their layout stay behind `FieldCtx`: no module but
`field.py` reads a `_`-prefixed attribute of a field context.
"""

import ast
from pathlib import Path

import nhspectrum

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "nhspectrum"
MODULES = ("field", "ness", "charsums", "spectrum", "solution_census", "rng", "cli")

# `FieldCtx` methods kept only for the benchmark's field probes.
PERFBENCH_ONLY = {"digit_table", "pair_add_table", "chi_vec"}


class _Uses(ast.NodeVisitor):
    """Every Name and Attribute read, except inside a def of that same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defs: list[str] = []

    def _visit_def(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def _use(self, name: str, node):
        if name not in self._defs:
            self.names.add(name)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._use(node.id, node)

    def visit_Attribute(self, node):
        self._use(node.attr, node)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(directory: Path) -> set[str]:
    uses = _Uses()
    for path in directory.glob("*.py"):
        uses.visit(_tree(path))
    return uses.names


def _defs(body, private: bool) -> set[str]:
    """The `_`-prefixed (private) or the other functions defined in body;
    dunder methods are neither."""
    return {node.name for node in body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") == private and not node.name.endswith("__")}


def _library_defs(private: bool) -> dict[str, str]:
    """`module.name` or `Class.name` to name, for the functions and methods
    of the modules that `_defs` selects."""
    checked = {}
    for module in MODULES:
        tree = _tree(LIBRARY / f"{module}.py")
        checked.update({f"{module}.{name}": name for name in _defs(tree.body, private)})
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                checked.update({f"{cls.name}.{name}": name for name in _defs(cls.body, private)})
    return checked


def test_every_public_name_has_a_caller():
    checked = {f"__all__: {name}": name for name in nhspectrum.__all__}
    checked.update(_library_defs(private=False))
    assert {"FieldCtx.add", "ScopedU.pattern", "ScopedU.product_sum", "cli.run"} <= set(checked)
    in_library, in_perfbench = _used_names(LIBRARY), _used_names(ROOT / "perfbench")
    used = in_library | in_perfbench
    assert sorted(label for label, name in checked.items() if name not in used) == []
    perfbench_only = {name for name in checked.values()
                      if name in in_perfbench and name not in in_library}
    assert perfbench_only == PERFBENCH_ONLY


def test_every_private_helper_has_a_caller():
    checked = _library_defs(private=True)
    assert {"field._neighbour", "FieldCtx._zech", "solution_census._desired_roots"} <= set(checked)
    used = _used_names(LIBRARY)
    assert sorted(label for label, name in checked.items() if name not in used) == []


CONTEXTS = ("ctx", "self.ctx", "su.ctx")


def private_context_reads(directory: Path) -> list[str]:
    """`module:line attribute` for each read of a `_`-prefixed attribute of
    `ctx`, `self.ctx` or `su.ctx` in the modules of directory but `field.py`."""
    reads = []
    for path in sorted(directory.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and ast.unparse(node.value) in CONTEXTS):
                reads.append(f"{path.stem}:{node.lineno} {node.attr}")
    return reads


def test_only_field_reads_private_context_attributes():
    assert private_context_reads(LIBRARY) == []
