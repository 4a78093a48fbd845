"""Export lists and imports: every name a module lists in ``__all__``
exists and, outside the command line, is exported by the package root,
which loads no module until a name is asked of it; a command loads only
the modules it runs, and no code generators; and the modules import each
other without a cycle, the Weyl layer only the errors and scalars."""

import ast
import graphlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jacquet

MODULES = [f"jacquet.{m.name}" for m in pkgutil.iter_modules(jacquet.__path__)]
# The command line (``cli`` and the ``__main__`` script) stays out of the root.
ROOT_MODULES = [m for m in MODULES if m not in ("jacquet.cli", "jacquet.__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", ROOT_MODULES)
def test_all_names_exported_from_root(name):
    # A name in a module's __all__ reaches ``dir(jacquet)``, and so the
    # contract test, with no second list to edit.
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [n for n in module.__all__
               if getattr(jacquet, n, None) is not getattr(module, n)]
    assert not missing, f"{name}.__all__ names not exported by jacquet: {missing}"


def _fresh(code: str) -> list:
    """The stdout lines of ``code`` run in a fresh interpreter: pytest
    itself loads modules a command may not; -S keeps site hooks out."""
    src = str(Path(jacquet.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_cli_import_skips_dataclasses_and_inspect():
    out = _fresh("import sys, jacquet.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == ["[]"]


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["weyl", "--n", "3", "--i1", "1", "--i2", "2"], ["cli", "errors", "scalars", "weyl"]),
    (["mustar", "d(0,1@rho) |x| s"],
     ["cli", "errors", "expressions", "grothendieck", "scalars", "segments", "structure"]),
    (["mustar"], ["cli", "errors", "scalars"]),
    (["weyl", "--n", "x", "--i1", "1", "--i2", "1"], ["cli", "errors", "scalars"]),
])
def test_a_command_loads_only_its_modules(argv, loaded):
    # ``import jacquet`` loads no module; a command, its own and those
    # they import; a usage error, no engine module.
    run = "import jacquet" if argv is None else f"import jacquet.cli; jacquet.cli.main({argv!r})"
    out = _fresh(f"import sys; {run}; "
                 "print(sorted(m[8:] for m in sys.modules if m.startswith('jacquet.')))")
    assert ast.literal_eval(out[-1]) == loaded


def test_cli_imports_errors_and_scalars_alone_at_module_level():
    # Any other package module imported here would be compiled for every
    # command; a command imports the engine modules it runs itself.
    tree = ast.parse(Path(jacquet.__file__).with_name("cli.py").read_text())
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert _package_imports(top) == {"errors", "scalars"}


@pytest.mark.parametrize("names", [
    "import jacquet; names = dir(jacquet)",
    "names = {}; exec('from jacquet import *', names)",
])
def test_root_exports_every_module_name_and_nothing_else(names):
    # A fresh interpreter, where no test has loaded ``jacquet.cli``; the
    # first ``dir`` and the first star import each load the root.
    out = _fresh(f"{names}; print(sorted(n for n in names if not n.startswith('_')))")
    expected = {m[8:] for m in ROOT_MODULES}
    for name in ROOT_MODULES:
        expected.update(importlib.import_module(name).__all__)
    assert ast.literal_eval(out[-1]) == sorted(expected)


def test_root_lacks_what_no_module_exports():
    out = _fresh("import jacquet; print(hasattr(jacquet, 'no_such_name'), "
                 "hasattr(jacquet, 'no_such_name'), jacquet.mu_star is jacquet.structure.mu_star)")
    assert out == ["False False True"]


def _package_imports(nodes) -> set:
    """The package modules that the import statements among ``nodes``
    and within them name."""
    deps = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            deps.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jacquet."):
            deps.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            deps.update(a.name.split(".")[1] for a in node.names
                        if a.name.startswith("jacquet."))
    return deps


def _internal_imports() -> dict:
    """Module -> the package modules it imports, read from the source with
    ``ast``; the package root, which loads every module on first use, and
    the ``__main__`` script are left out."""
    src = Path(jacquet.__file__).resolve().parent
    return {path.stem: _package_imports([ast.parse(path.read_text(), str(path))])
            for path in sorted(src.glob("*.py")) if path.stem not in ("__init__", "__main__")}


def test_internal_imports_form_a_dag():
    # Read from the source, so that the imports a command makes inside its
    # function count too, which ``sys.modules`` shows only once it runs.
    graph = _internal_imports()
    assert set().union(*graph.values()) <= set(graph)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph)
    assert graph["weyl"] == {"errors", "scalars"}
