"""Export lists and imports: every name a module lists in ``__all__``
exists and, outside the command line, is exported by the package root;
the command-line module loads no code generators; and the modules import
each other without a cycle, the Weyl layer only the errors and scalars."""

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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize(
    "name", [m for m in MODULES if m not in ("jacquet.cli", "jacquet.__main__")]
)
def test_all_names_exported_from_root(name):
    # A name in a module's __all__ reaches ``dir(jacquet)``, and so the
    # contract test, with no second list to edit.  The command line
    # (``cli`` and the ``__main__`` script) stays out of the root.
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [n for n in module.__all__
               if getattr(jacquet, n, None) is not getattr(module, n)]
    assert not missing, f"{name}.__all__ names not exported by jacquet: {missing}"


def test_cli_import_skips_dataclasses_and_inspect():
    # pytest itself loads both modules, so only a fresh interpreter can
    # show what ``import jacquet.cli`` costs; -S keeps site hooks out.
    src = str(Path(jacquet.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, jacquet.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _internal_imports() -> dict:
    """Module -> the package modules it imports, read from the source with
    ``ast``; the package root and the ``__main__`` script are left out, as
    the root imports every module."""
    src = Path(jacquet.__file__).resolve().parent
    graph = {}
    for path in sorted(src.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jacquet."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(a.name.split(".")[1] for a in node.names
                            if a.name.startswith("jacquet."))
        graph[path.stem] = deps
    return graph


def test_internal_imports_form_a_dag():
    # ``sys.modules`` cannot show this: importing any module runs the
    # package root, which imports them all.
    graph = _internal_imports()
    assert set().union(*graph.values()) <= set(graph)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph)
    assert graph["weyl"] == {"errors", "scalars"}
