"""Every exported name resolves, so `from kep import *` works after a
deletion, and is read by a demo or the README; `kep` exports the limit
route that runs, not the lattice model it replaced; no module keeps an
import it no longer uses or a private helper nothing reads, and none
imports `fractions` or `decimal` or calls `float`; on the package's call
graph the limit route reaches none of the formula route's determinant, rank
and cokernel code, and the formula route not the limit route's certificate;
both build their operator with `one_minus`, and `_smith` is the one
elimination both reach; the limit route runs under the one name
`coker_one_minus_shift` and calls none of the lattice model's eventual
kernels and Hermite bases; the slice algebra runs no record check on what
it derives, and one builder makes every derived path without `Path`'s
checks; a vertex reads its row of A through one checked door, `_act` is
the one reader of the pair at an edge, and only `_act` and `refine_slice`
compute the edge step."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import kep
import kep.dirlimit


@pytest.mark.parametrize("module", ["kep", "kep.invariants"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import():
    namespace = {}
    exec("from kep import *", namespace)
    assert "hk_check" in namespace


# The limit route that `limit_route_homology` runs, and its argument.
LIMIT_ROUTE = {"coker_one_minus_shift", "StationaryLimit"}
# The lattice model that route replaced: no command runs it, so it stays in
# its modules, for the tests that hold the route to it.
LATTICE_MODEL_API = {"eventual_kernel", "ker_one_minus_shift", "kernel_basis"}


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


LIMIT_ROUTE_BARRED = {"det", "_bareiss", "det_smith_diagonal", "_hermite_mod"}
ADJUGATE_BARRED = {"_bareiss", "det", "rank", "_smith"}


def test_limit_route_shares_no_formula_route_code():
    # On a nonsingular 1 - T with a cyclic cokernel the limit route runs
    # `det_adjugate_gcd` alone, so it shares no determinant and no cokernel
    # code with the formula route's `det_smith_diagonal`, its `_hermite_mod`
    # and its `_bareiss`, nor with `det`.
    package = Path(kep.__file__).parent
    assert imported_names((package / "dirlimit.py").read_text()) & LIMIT_ROUTE_BARRED == set()
    assert called_names((package / "intmat.py").read_text(), "det_adjugate_gcd") & ADJUGATE_BARRED == set()


CONSTRUCTORS = ("__init__", "__new__", "__post_init__")


def call_closure(sources: list[str], root: str) -> set[str]:
    """Names of the functions and methods that the function or method `root`
    reaches by static calls inside a package, given as the sources of its
    modules, `root` included.  A call resolves by name: `f(...)` and
    `x.f(...)` reach every function and method named `f`, and a call of a
    class (or of `cls` inside one) reaches its `__init__`, `__new__` and
    `__post_init__`."""
    functions: dict[str, list[ast.FunctionDef]] = {}
    constructors: dict[str, list[ast.FunctionDef]] = {}
    owner: dict[ast.FunctionDef, str] = {}
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                owner.update((method, node.name) for method in methods)
                constructors.setdefault(node.name, []).extend(m for m in methods if m.name in CONSTRUCTORS)
    reached: set[ast.FunctionDef] = set()
    todo = list(functions.get(root, ()))
    while todo:
        func = todo.pop()
        if func in reached:
            continue
        reached.add(func)
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                if name == "cls" and func in owner:
                    name = owner[func]
                todo.extend(functions.get(name, ()))
                todo.extend(constructors.get(name, ()))
    return {func.name for func in reached}


def test_call_closure_detects():
    route = (
        "from .b import g\n\n"
        "def f(m):\n    return g(m) + Box(m).size()\n\n"
        "def unrelated():\n    return h()\n"
    )
    library = (
        "def g(m):\n    return m.rank()\n\n"
        "class Box:\n"
        "    def __post_init__(self):\n        check(self)\n\n"
        "    def size(self):\n        return 1\n\n"
        "    def other(self):\n        return h()\n\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n\n"
        "def rank(m):\n    return _bareiss(m)\n\n"
        "def _bareiss(m):\n    return m\n\n"
        "def check(box):\n    pass\n\n"
        "def h():\n    pass\n"
    )
    assert call_closure([route, library], "f") == {"f", "g", "rank", "_bareiss", "__post_init__", "size", "check"}
    assert call_closure([route, library], "make") == {"make", "__post_init__", "check"}
    assert call_closure([route, library], "missing") == set()


# The formula route's determinant and cokernel code, and the rank that a
# kernel rule could read: the limit route reaches `det_adjugate_gcd` and, on
# a singular or non-cyclic 1 - T, `_smith`, and nothing else that
# eliminates.
LIMIT_ROUTE_UNREACHED = {"det", "_bareiss", "rank", "kernel_group", "det_smith_diagonal", "_hermite_mod"}


def test_routes_share_no_elimination_on_the_call_graph():
    # An import list misses an elimination two calls deep, such as
    # `kernel_group`'s `rank`; the call graph does not.  The first assert
    # keeps the guard from passing on an empty closure.
    sources = [path.read_text() for path in sorted(Path(kep.__file__).parent.glob("*.py"))]
    limit_route, formula_route = call_closure(sources, "limit_route_homology"), call_closure(sources, "homology")
    assert {"det_adjugate_gcd", "_smith"} <= limit_route
    assert {"det_smith_diagonal", "_bareiss", "_hermite_mod", "_smith"} <= formula_route
    assert limit_route & LIMIT_ROUTE_UNREACHED == set()
    assert "det_adjugate_gcd" not in formula_route


# Every function of `intmat` that eliminates: its Smith, Hermite and
# fraction-free algorithms and the entries that run them.
ELIMINATIONS = {
    "_smith",
    "smith_diagonal",
    "snf",
    "det_smith_diagonal",
    "_hermite_mod",
    "_bareiss",
    "det",
    "rank",
    "det_adjugate_gcd",
    "kernel_basis",
    "hnf",
}


def test_routes_share_exactly_one_elimination():
    # Both routes build their operator I - M with `one_minus`, and the one
    # elimination both reach is `_smith`, through `smith_diagonal`, on a
    # singular or non-cyclic operator.
    sources = [path.read_text() for path in sorted(Path(kep.__file__).parent.glob("*.py"))]
    limit_route, formula_route = call_closure(sources, "limit_route_homology"), call_closure(sources, "homology")
    assert "one_minus" in limit_route and "one_minus" in formula_route
    assert limit_route & formula_route & ELIMINATIONS == {"smith_diagonal", "_smith"}


LATTICE_MODEL = {"eventual_kernel", "_fixed_sublattice", "_solve_exact", "_preimage", "kernel_basis", "hnf", "snf"}


def test_limit_route_takes_no_lattice_model():
    # The fixed sublattice splits as EK ⊕ ker(T - I), so the route reads its
    # kernel off the free rank of its own cokernel; the lattice model, whose
    # Hermite bases are unbounded, stays in `ker_one_minus_shift`.
    source = (Path(kep.__file__).parent / "dirlimit.py").read_text()
    assert called_names(source, "coker_one_minus_shift") & LATTICE_MODEL == set()


def test_limit_route_runs_under_one_name():
    # `coker_one_minus_shift` is the route itself, not a wrapper beside it,
    # so the span the benchmark's tracer keeps under that name holds the
    # route's time.
    sources = [path.read_text() for path in sorted(Path(kep.__file__).parent.glob("*.py"))]
    assert "coker_one_minus_shift" in call_closure(sources, "limit_route_homology")
    assert not hasattr(kep.dirlimit, "one_minus_shift")


@pytest.mark.parametrize("function", ["refine_slice", "compose_slices", "invert_slice"])
def test_slice_algebra_builds_plain_records(function):
    # Operands are checked where they enter; what the algebra derives from
    # them meets the range and junction rules by construction.
    source = (Path(kep.__file__).parent / "groupoid.py").read_text()
    assert called_names(source, function) & {"Slice", "Path", "_extended"} == set()


def _is_tuple_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "tuple"
    )


def _is_path(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "Path"


def unchecked_path_builders(source: str) -> list[str]:
    """Module-level names (an assignment's target, a function or a class)
    whose code builds a `Path` by `tuple.__new__`, skipping its checks:
    called as `tuple.__new__(Path, ...)` or bound as
    `partial(tuple.__new__, Path)`."""
    found = []
    for statement in ast.parse(source).body:
        for call in ast.walk(statement):
            if isinstance(call, ast.Call) and (
                (_is_tuple_new(call.func) and call.args and _is_path(call.args[0]))
                or (len(call.args) >= 2 and _is_tuple_new(call.args[0]) and _is_path(call.args[1]))
            ):
                if isinstance(statement, ast.Assign):
                    found.extend(target.id for target in statement.targets if isinstance(target, ast.Name))
                else:
                    found.append(statement.name)
    return found


def test_unchecked_path_builders_detects():
    source = (
        "build = functools.partial(tuple.__new__, Path)\n"
        "def f(edges):\n    return tuple.__new__(Path, (edges, None))\n\n"
        "class Path(tuple):\n    def __new__(cls, edges):\n        return tuple.__new__(cls, (edges, None))\n\n"
        "def g(v):\n    return tuple.__new__(Edge, (v, v, 0)), build(((), None)), Path((), v)\n"
    )
    assert unchecked_path_builders(source) == ["build", "f"]


def test_one_unchecked_path_builder():
    # `_composed_path` is the one builder that skips the junction scan of
    # `Path.__new__`; the classmethod it replaced is gone.
    package = Path(kep.__file__).parent
    assert not hasattr(kep.Path, "_composed")
    builders = {name: unchecked_path_builders((package / name).read_text()) for name in ("selfsim.py", "groupoid.py")}
    assert builders == {"selfsim.py": ["_composed_path"], "groupoid.py": []}


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
    # 1 <= v <= n first, and `_act`, the one reader of the pair at an edge,
    # checks an edge's two vertices.
    assert slice_and_action_reads("a") == {"_vertex_row", "_act"}


def test_b_edge_reads_go_through_one_door():
    # `_act`, the one reader of the pair at an edge, compares B's shape
    # with A's before it reads B at an edge; `refine_slice` reads B's row
    # only after `_validate_pair`.
    assert slice_and_action_reads("b") == {"_act", "refine_slice"}


def edge_steps(source: str) -> set[str]:
    """Functions and methods, by name, whose own code calls `divmod` or
    uses `%` or `//` (also augmented); code outside every function counts
    as "<module>"."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, (ast.Mod, ast.FloorDiv))
            ) or (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "divmod"):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_edge_steps_detects():
    source = (
        "def f(x, a):\n    return divmod(x, a)\n\n"
        "class G:\n    def g(self, x):\n        x %= 3\n        return x\n\n"
        "def h(x):\n    def inner(y):\n        return y // 2\n    return inner(x) * 2, x / 2\n\n"
        "N = 7 % 3\n"
    )
    assert edge_steps(source) == {"f", "g", "inner", "<module>"}


def test_one_edge_step():
    # The edge step m*B + t = k*A + l is computed by `_act`, the one fold
    # over edges, and inline by `refine_slice`, whose step is measured.
    package = Path(kep.__file__).parent
    assert set().union(*(edge_steps((package / name).read_text()) for name in ("selfsim.py", "groupoid.py"))) == {
        "_act",
        "refine_slice",
    }
