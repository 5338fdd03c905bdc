import ast
import re
from pathlib import Path

import axonsim

SRC = Path(axonsim.__file__).parent

# The one hat-scatter kernel.
SCATTER_HOMES = {("grid.py", "hat_scatter")}

# Acceptance entry points that the acceptance suite calls and no program path does.
ACCEPTANCE_ENTRY_POINTS = {"self_convergence_suite", "strip_wall_clock"}


def test_all_is_sorted_unique_and_resolves():
    names = list(axonsim.__all__)
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(axonsim, n)]
    assert missing == []



def test_no_test_only_definitions():
    """Every module-level function and class is exported in ``__all__`` or
    referenced by a package module other than ``__init__``."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update((node.name, path.name) for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        if path.name != "__init__.py":
            referenced.update(node.id if isinstance(node, ast.Name) else node.attr
                              for node in ast.walk(tree)
                              if isinstance(node, (ast.Name, ast.Attribute)))
    kept = set(axonsim.__all__) | referenced | ACCEPTANCE_ENTRY_POINTS
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in kept) == []


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


def test_hat_scatter_has_one_home():
    """``np.add.at`` and ``bincount`` appear, code or text, only in the
    kernel; no module imports another's private hat or scatter helper."""
    strays, private = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        funcs = _functions(tree)
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(r"np\.add\.at|bincount", line):
                homes = [name for name, lo, hi in funcs if lo <= lineno <= hi]
                if not homes or (path.name, homes[-1]) not in SCATTER_HOMES:
                    strays.append(f"{path.name}:{lineno}: {line.strip()}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and re.search("hat|scatter", a.name)]
    assert strays == []
    assert private == []


def test_crank_nicolson_operator_has_one_home():
    """The matvec's shifted adds and the M +- tau/2 (K + A) band arithmetic
    appear, code or text, only in ``grid.py``."""
    pattern = re.compile(r"\[:-1\]\s*\+=|\[1:\]\s*\+=|[+-]\s*half\s*\*")
    strays = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "grid.py"
              for lineno, line in enumerate(path.read_text().splitlines(), 1)
              if pattern.search(line)]
    assert strays == []


def test_processes_start_only_in_the_fanout_module():
    """``ProcessPoolExecutor``, ``multiprocessing`` and ``os.fork`` appear,
    code or text, only in the one fan-out path."""
    pattern = re.compile(r"ProcessPoolExecutor|multiprocessing|os\.fork")
    strays = [f"{path.name}:{lineno}: {line.strip()}"
              for path in sorted(SRC.glob("*.py")) if path.name != "fanout.py"
              for lineno, line in enumerate(path.read_text().splitlines(), 1)
              if pattern.search(line)]
    assert strays == []
