"""Every exported name resolves, so `from kep import *` works after a
deletion, and is read by a demo or the README; `kep` exports the limit
route that runs, not the lattice model it replaced; no module keeps an
import it no longer uses or a private helper nothing reads, and none
imports `fractions` or `decimal` or calls `float`; the limit route reaches
none of the formula route's determinant and cokernel code, and none of the
lattice model's eventual kernels and Hermite bases; the slice algebra runs
no record check on what it derives; a vertex reads its row of A through
one checked door, and the action reads B at an edge through another."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import kep


@pytest.mark.parametrize("module", ["kep", "kep.invariants"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import():
    namespace = {}
    exec("from kep import *", namespace)
    assert "hk_check" in namespace


# The limit route that `limit_route_homology` runs, and its argument.
LIMIT_ROUTE = {"one_minus_shift", "StationaryLimit"}
# The lattice model that route replaced: no command runs it, so it stays in
# its modules, for the tests that hold the route to it.
LATTICE_MODEL_API = {"eventual_kernel", "ker_one_minus_shift", "coker_one_minus_shift", "kernel_basis"}


def test_surface_is_the_route_that_runs():
    namespace = {}
    exec("from kep import *", namespace)
    assert LIMIT_ROUTE <= set(kep.__all__) and LIMIT_ROUTE <= namespace.keys()
    assert LATTICE_MODEL_API.isdisjoint(kep.__all__)


REPO = Path(__file__).resolve().parent.parent
# Callers catch the errors, and the version is package metadata.
EXPORTED_UNREAD = {"InputValidationError", "InternalError", "__version__"}


def test_exports_are_read():
    # The public surface is what the demos and README show; a name only
    # tests read belongs in its module, not in `kep.__all__`.
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [REPO / "README.md", *sorted((REPO / "demos").glob("*.py"))]
    )
    unread = [
        name for name in kep.__all__
        if name not in EXPORTED_UNREAD and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unread == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in its `__all__`
    count as read."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_imports_detects():
    assert unused_imports("from fractions import Fraction\nimport os.path\nx = 1\n") == ["Fraction", "os"]
    assert unused_imports("from .a import f, g\n__all__ = ['g']\nf()\n") == []


def test_no_unused_imports():
    modules = sorted(Path(kep.__file__).parent.glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read below `node`, as a name or an attribute."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def orphaned_privates(sources: list[str]) -> list[str]:
    """Module-level private functions and classes of a package, given as the
    sources of its modules, that nothing reads outside their own
    definition."""
    trees = [ast.parse(source) for source in sources]
    reads = sum((_reads(tree) for tree in trees), Counter())
    return sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    )


def test_orphaned_privates_detects():
    assert orphaned_privates(["def _f(n):\n    return _f(n - 1)\n\nclass _C:\n    pass\n"]) == ["_C", "_f"]
    assert orphaned_privates(["def _f():\n    pass\n", "from .a import _f\n_f()\n"]) == []
    assert orphaned_privates(["class _C:\n    pass\n", "import a\nx = a._C\n"]) == []
    assert orphaned_privates(["def __getattr__(name):\n    pass\n\ndef f():\n    pass\n"]) == []


def test_no_orphaned_privates():
    modules = sorted(Path(kep.__file__).parent.glob("*.py"))
    assert modules
    assert orphaned_privates([path.read_text() for path in modules]) == []


FLOAT_MODULES = ("fractions", "decimal")


def float_uses(source: str) -> list[str]:
    """Imports of `fractions` or `decimal` and calls of `float`; relative
    imports (`from .errors import decimal`) name project modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(
                f"import {alias.name}" for alias in node.names if alias.name.partition(".")[0] in FLOAT_MODULES
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] in FLOAT_MODULES:
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append("float(")
    return found


def test_float_uses_detects():
    assert float_uses("from fractions import Fraction\n") == ["from fractions import"]
    assert float_uses("import decimal as d\nimport fractions\n") == ["import decimal", "import fractions"]
    assert float_uses("from decimal import Decimal\n") == ["from decimal import"]
    assert float_uses("x = float('1')\n") == ["float("]
    assert float_uses("from .errors import decimal\nx = decimal(3)\ny = 1 / 2\n") == []


def test_no_floats_in_kep():
    # North star: every answer is exact, with no floating point.
    modules = sorted(Path(kep.__file__).parent.glob("*.py"))
    assert modules
    uses = {path.name: float_uses(path.read_text()) for path in modules}
    assert {name: found for name, found in uses.items() if found} == {}


def imported_names(source: str) -> set[str]:
    """Every name a module imports, by `import` or `from ... import`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def called_names(source: str, function: str) -> set[str]:
    """Names that the module-level function `function` calls, as a name or
    an attribute."""
    (node,) = (node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == function)
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def test_route_guards_detect():
    assert imported_names("from .intmat import IntMatrix, det\nimport math\n") == {"IntMatrix", "det", "math"}
    source = "def f(m):\n    return det(m) + m.rank()\n\ndef g(m):\n    return _smith(m)\n"
    assert called_names(source, "f") == {"det", "rank"}


LIMIT_ROUTE_BARRED = {"det", "_bareiss", "smith_diagonal_mod_det"}
ADJUGATE_BARRED = {"_bareiss", "det", "rank", "_smith"}


def test_limit_route_shares_no_formula_route_code():
    # On a nonsingular T - I with a cyclic cokernel the limit route runs
    # `det_adjugate` alone, so it shares no determinant and no cokernel code
    # with the formula route's `det` and `smith_diagonal_mod_det`.
    package = Path(kep.__file__).parent
    assert imported_names((package / "dirlimit.py").read_text()) & LIMIT_ROUTE_BARRED == set()
    assert called_names((package / "intmat.py").read_text(), "det_adjugate") & ADJUGATE_BARRED == set()


LATTICE_MODEL = {"eventual_kernel", "_fixed_sublattice", "_solve_exact", "_preimage", "kernel_basis", "hnf", "snf"}


def test_limit_route_takes_no_lattice_model():
    # The fixed sublattice splits as EK ⊕ ker(T - I), so the route reads its
    # kernel off det(T - I) and one rank; the lattice model, whose Hermite
    # bases are unbounded, stays in `ker_one_minus_shift`.
    source = (Path(kep.__file__).parent / "dirlimit.py").read_text()
    assert called_names(source, "one_minus_shift") & LATTICE_MODEL == set()


@pytest.mark.parametrize("function", ["refine_slice", "compose_slices", "invert_slice"])
def test_slice_algebra_builds_plain_records(function):
    # Operands are checked where they enter; what the algebra derives from
    # them meets the range and junction rules by construction.
    source = (Path(kep.__file__).parent / "groupoid.py").read_text()
    assert called_names(source, function) & {"Slice", "_extended"} == set()


def _is_matrix(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)


def row_reads(source: str, matrix: str) -> set[str]:
    """Functions and methods, by name, that index the matrix named `matrix`
    (read as a name or an attribute, like `a` or `self.a`) or call `row` on
    it; iterating over all of its rows is not such a read."""
    return {
        func.name
        for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if (isinstance(node, ast.Subscript) and _is_matrix(node.value, matrix))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "row"
            and _is_matrix(node.func.value, matrix)
        )
    }


def test_a_row_reads_detects():
    source = (
        "def f(a, v):\n    return a[v - 1, 0]\n\n"
        "class G:\n    def g(self, v):\n        return self.a.row(v - 1)\n\n"
        "def h(a, b, v):\n    return b.row(v - 1), [sum(row) for row in a]\n\n"
        "def k(a, b, v):\n    return b[v, v], b.rows, [sum(row) for row in b]\n"
    )
    assert row_reads(source, "a") == {"f", "g"}
    assert row_reads(source, "b") == {"h", "k"}


def slice_and_action_reads(matrix: str) -> set[str]:
    package = Path(kep.__file__).parent
    return set().union(*(row_reads((package / name).read_text(), matrix) for name in ("selfsim.py", "groupoid.py")))


def test_a_vertex_reads_go_through_one_door():
    # A bare index reads vertex 0 as A's last row; `_vertex_row` checks
    # 1 <= v <= n first, and `_check_edge` checks an edge's two vertices.
    assert slice_and_action_reads("a") == {"_vertex_row", "_check_edge"}


def test_b_edge_reads_go_through_one_door():
    # `_check_edge` compares B's shape with A's before it reads B at an
    # edge; `refine_slice` reads B's row only after `_validate_pair`.
    assert slice_and_action_reads("b") == {"_check_edge", "refine_slice"}
