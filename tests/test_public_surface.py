"""The top-level namespace is exactly what the README library sketch calls."""

import ast
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import forestcut

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "k3_band_cycle",
    "all_minimal_forest_cuts",
    "find_forest_cut",
    "witness_is_valid",
    "random_stacked_triangulation",
    "face_containing_edge",
    "prop1_forest_cut",
    "reroot",
    "check_feasible",
    "build_dual",
    "certificate_dual_point",
    "solve_primal_exact",
}

# expression line of the sketch -> (value it must evaluate to, start of its comment)
SKETCH_RESULTS = {
    "fc.all_minimal_forest_cuts(g)": ([0b111], "[0b111]"),
    "fc.witness_is_valid(g, w)": (True, "revalidates"),
    "report.feasible": (True, "True"),
    "fc.solve_primal_exact(12)": (Fraction(132, 5), "Fraction(132, 5)"),
}


def library_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no Library sketch block"
    return match.group(1)


def test_readme_sketch_runs_and_names_the_namespace():
    source = library_sketch()
    tree = ast.parse(source)
    comments = {}
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        comments[code.strip()] = comment.strip()
    scope = {}
    seen = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            text = ast.get_source_segment(source, stmt)
            seen[text] = eval(compile(ast.Expression(stmt.value), "README", "eval"), scope)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert scope["fc"] is forestcut
    for text, (value, comment) in SKETCH_RESULTS.items():
        assert seen[text] == value, text
        assert comments[text].startswith(comment), text

    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "fc"
    }
    public = {
        name
        for name, value in vars(forestcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert called == PUBLIC_NAMES
    assert public == PUBLIC_NAMES
    assert forestcut.__version__


def test_import_leaves_the_process_pool_unloaded():
    probe = (
        "import sys, forestcut; "
        "print(forestcut.__file__); "
        "print(sorted({'concurrent.futures', 'forestcut.verify'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == ROOT / "src" / "forestcut"
    assert out[1] == "[]"


def test_lp_command_builds_no_graph6_pair_table():
    # parse_graph6 grows the table on demand, so a run that reads no graph6
    # builds none of it
    probe = (
        "import forestcut; from forestcut import cli, graph; "
        "code = cli.run(['lp', '--n', '64', '--solve']); "
        "print(code, graph._graph6_pairs)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[-1] == "0 ()"


# names whose use opens a path, reads stdin or reads the environment
READER_NAMES = {"open", "input", "io.open", "os.open", "sys.stdin", "sys.__stdin__"}
ENVIRONMENT_NAMES = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}


def used_names(tree: ast.AST):
    """(line, name) for each bare name, ``module.attr`` and ``from module import attr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_one_reader_and_no_environment():
    """Only graph.py opens a path or reads stdin, and no module reads the environment."""
    found = []
    for path in sorted((ROOT / "src" / "forestcut").glob("*.py")):
        banned = ENVIRONMENT_NAMES if path.name == "graph.py" else READER_NAMES | ENVIRONMENT_NAMES
        for line, name in used_names(ast.parse(path.read_text())):
            if name in banned:
                found.append(f"{path.name}:{line} {name}")
    assert found == []


# public top-level names that nothing in src/ or perfbench/ uses, each kept
# for a reason of its own
UNCALLED_PUBLIC_NAMES = {
    "stack_vertex": "the test reference for random_stacked_triangulation",
}


def test_every_public_helper_has_a_caller():
    """Each public top-level function or class of the package is used by name
    in src/ or perfbench/, apart from the listed ones; no helper lives on for
    its tests alone."""
    package = sorted((ROOT / "src" / "forestcut").glob("*.py"))
    defined = {
        node.name
        for path in package
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == set(UNCALLED_PUBLIC_NAMES)


def test_every_public_method_has_a_reader():
    """Each public method or property in the body of a public class of the
    package is read as an attribute (``x.name``) in src/ or perfbench/.  Only
    attribute reads count, so a local variable of the same name does not
    stand in for a method."""
    package = sorted((ROOT / "src" / "forestcut").glob("*.py"))
    defined = {
        (cls.name, node.name)
        for path in package
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    read = {
        node.attr
        for path in package + sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert {f"{cls}.{name}" for cls, name in defined if name not in read} == set()


def test_one_constructor_bypass():
    """``Graph._trusted`` is the one place that builds an object without its
    constructor and so without the constructor's checks."""
    found = []
    for path in sorted((ROOT / "src" / "forestcut").glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for fn in ast.walk(tree):  # outer scopes first, so the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update({id(node): fn.name for node in ast.walk(fn)})
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{scope.get(id(node), '<module>')}")
    assert found == ["graph.py:_trusted"]



def enclosing_names(tree: ast.AST) -> dict[int, str]:
    """id of each node -> the dotted name of the classes and functions around
    it, ``<module>`` at the top level."""
    names = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            names[id(child)] = name or "<module>"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
            else:
                visit(child, name)

    visit(tree, "")
    return names


def test_one_validated_graph_constructor():
    """The validating ``Graph(...)`` is called in src/ only where rows come
    from outside the package: a rotation system's, from a rotation file or a
    library caller.  Rows the package builds itself go through
    ``Graph._trusted``."""
    found = []
    for path in sorted((ROOT / "src" / "forestcut").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = enclosing_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "Graph":
                    found.append(f"{path.name}:{names[id(node)]}")
    assert found == ["planar.py:RotationSystem.__post_init__"]


def test_one_order_check():
    """``lp._MAX_N`` is read only in ``lp._check_order``, the one test of the
    order range 8.._MAX_N that every program and certificate passes on entry."""
    found = set()
    for path in sorted((ROOT / "src" / "forestcut").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = enclosing_names(tree)
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_MAX_N" and isinstance(node.ctx, ast.Load):
                found.add(f"{path.name}:{names[id(node)]}")
    assert found == {"lp.py:_check_order"}


def test_one_degree_row_family():
    """Every dual ``n_j`` row from j = 6 on, ``n_6`` included, is built by
    ``lp._dual_degree_row``: lp.py spells only ``n_4`` and ``n_5`` as literal
    row ids, and only that factory formats an ``n_{j}`` id."""
    tree = ast.parse((ROOT / "src" / "forestcut" / "lp.py").read_text())
    names = enclosing_names(tree)
    literal, formatted = set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LpRow"):
            continue
        row_id = node.args[0]
        if isinstance(row_id, ast.Constant) and re.fullmatch(r"n_\d+", row_id.value):
            literal.add(row_id.value)
        elif isinstance(row_id, ast.JoinedStr) and ast.unparse(row_id).startswith("f'n_{"):
            formatted.add(names[id(node)])
    assert literal == {"n_4", "n_5"}
    assert formatted == {"_dual_degree_row"}


def test_hand_written_equality_only_in_graph():
    """Of ``__eq__``, ``__hash__``, ``__repr__`` and ``__setattr__`` only
    ``graph.Graph``'s compact ``__repr__`` is written by hand; every class
    takes the rest from a dataclass or a NamedTuple, or does without."""
    found = set()
    for path in sorted((ROOT / "src" / "forestcut").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = enclosing_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in {"__eq__", "__hash__", "__repr__", "__setattr__"}):
                found.add(f"{path.name}:{names[id(node)]}.{node.name}")
    assert found == {"graph.py:Graph.__repr__"}
