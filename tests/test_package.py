import ast
import re
from pathlib import Path

import axonsim

SRC = Path(axonsim.__file__).parent

# The one hat-scatter kernel.
SCATTER_HOMES = {("grid.py", "hat_scatter")}

# The one elementwise finiteness scan: the fallback of the exact primitive.
FINITE_HOMES = {("grid.py", "all_finite")}

# The one tridiagonal solve and the one Riesz solve, each a LAPACK call.
SOLVE_HOMES = {"_gtsv": {("grid.py", "CrankNicolson.solve")},
               "_pbtrs": {("grid.py", "riesz_solve")}}

# The replicate unit, and the callers each of its calls may have.
CALL_HOMES = {
    "run_replicate": {("harness.py", "_run_batch"), ("cli.py", "_cmd_stoch")},
    "parallel_map": {("harness.py", "map_replicates"), ("csvtext.py", "write_snapshot_csv")},
}

# Acceptance entry points that the acceptance suite calls and no program path does.
ACCEPTANCE_ENTRY_POINTS = {"self_convergence_suite", "strip_wall_clock"}


def test_all_is_sorted_unique_and_resolves():
    names = list(axonsim.__all__)
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(axonsim, n)]
    assert missing == []



def test_no_test_only_definitions():
    """Every module-level function and class, and every method and property
    of a package class, is referenced by a package module other than
    ``__init__``, or is an allowlisted acceptance entry point; exporting a
    name in ``__all__`` does not keep it.  Dunder methods are called by
    Python itself, so they need no reference."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, defs):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                defined.update((f"{node.name}.{member.name}", path.name)
                               for member in node.body if isinstance(member, defs)
                               and not member.name.startswith("__"))
        if path.name != "__init__.py":
            referenced.update(node.id if isinstance(node, ast.Name) else node.attr
                              for node in ast.walk(tree)
                              if isinstance(node, (ast.Name, ast.Attribute)))
    kept = referenced | ACCEPTANCE_ENTRY_POINTS
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name.rsplit(".", 1)[-1] not in kept) == []


def _functions(tree):
    """(qualified name, first line, last line) of every function in a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out.append((name, child.lineno, child.end_lineno))
                walk(child, name + ".")

    walk(tree, "")
    return out


def _strays(pattern, function_homes):
    """Lines of ``src/axonsim`` matching ``pattern``, code or text, outside
    the (module, innermost function) pairs of ``function_homes``."""
    strays = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        funcs = _functions(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                homes = [name for name, lo, hi in funcs if lo <= lineno <= hi]
                if not homes or (path.name, homes[-1]) not in function_homes:
                    strays.append(f"{path.name}:{lineno}: {line.strip()}")
    return strays


def test_hat_scatter_has_one_home():
    """``np.add.at`` and ``bincount`` appear, code or text, only in the
    kernel; no module imports another's private hat or scatter helper."""
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and re.search("hat|scatter", a.name)]
    assert _strays(r"np\.add\.at|bincount", SCATTER_HOMES) == []
    assert private == []


def test_finiteness_scan_has_one_home():
    """``np.isfinite(`` appears, code or text, only in ``grid.all_finite``:
    every array check goes through the exact one-dot primitive, and scalars
    use ``math.isfinite``."""
    assert _strays(r"np\.isfinite\(", FINITE_HOMES) == []


def test_crank_nicolson_operator_has_one_home():
    """The matvec's shifted adds and the M +- tau/2 (K + A) band arithmetic
    appear, code or text, only in ``grid.py``."""
    pattern = re.compile(r"\[:-1\]\s*\+=|\[1:\]\s*\+=|[+-]\s*half\s*\*")
    strays = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "grid.py"
              for lineno, line in enumerate(path.read_text().splitlines(), 1)
              if pattern.search(line)]
    assert strays == []


def test_lapack_calls_have_one_home():
    """``get_lapack_funcs`` and the LAPACK routines it gives, ``_gtsv``,
    ``_gttrf``, ``_gttrs`` and ``_pbtrs``, appear, code or text, only in
    ``grid.py``: every tridiagonal and Riesz solve goes through its kernels."""
    pattern = re.compile(r"get_lapack_funcs|\b_(gtsv|gttrf|gttrs|pbtrs)\b")
    strays = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "grid.py"
              for lineno, line in enumerate(path.read_text().splitlines(), 1)
              if pattern.search(line)]
    assert strays == []


def test_each_lapack_routine_is_called_in_one_kernel():
    """``_gtsv(`` is called only in ``CrankNicolson.solve`` and ``_pbtrs(``
    only in ``riesz_solve``: one path for each kind of solve."""
    for routine, homes in SOLVE_HOMES.items():
        assert _strays(rf"\b{routine}\(", homes) == []


def test_processes_start_only_in_the_fanout_module():
    """``ProcessPoolExecutor``, ``multiprocessing`` and ``os.fork`` appear,
    code or text, only in the one fan-out path."""
    pattern = re.compile(r"ProcessPoolExecutor|multiprocessing|os\.fork")
    strays = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "fanout.py"
              for lineno, line in enumerate(path.read_text().splitlines(), 1)
              if pattern.search(line)]
    assert strays == []


def test_replicates_run_and_fan_out_only_in_the_unit():
    """``run_replicate(`` is called only by the replicate unit and ``axonsim
    stoch``; ``parallel_map(`` only by the unit and the export runner, the
    snapshot writer that also runs a command's whole-file writes."""
    callers = {name: set() for name in CALL_HOMES}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = _functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers:
                    homes = [f for f, lo, hi in funcs if lo <= node.lineno <= hi]
                    callers[name].add((path.name, homes[-1] if homes else "<module>"))
    assert callers == CALL_HOMES
