"""Export lists and import cost: every name a module lists in ``__all__``
exists and, outside the command line, is exported by the package root;
the command-line module loads no code generators."""

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
