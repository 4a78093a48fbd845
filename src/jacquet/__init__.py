"""Exact Jacquet-module calculus for even (general) unitary groups.

A symbolic calculator over formal segment classes: comultiplications,
the structure formula for parabolic induction/restriction, shape-filtered
Jacquet modules, double-coset representatives of the hyperoctahedral Weyl
group, and the enumeration and validation of strongly positive
classification data.  The package root exports every module's
``__all__``, the one place each public name is declared.

``import jacquet`` loads no module.  The root loads its modules on first
use: the first name it is asked for and lacks (``jacquet.mu_star``,
``dir(jacquet)``, ``from jacquet import *``) imports all of them and
copies in their ``__all__`` names, after which it is a plain namespace.
``import jacquet.weyl`` loads ``weyl`` and what it imports alone.
"""

__version__ = "0.1.0"

# The modules whose ``__all__`` the root exports; the command line stays out.
_MODULES = ("errors", "scalars", "segments", "grothendieck",
            "structure", "weyl", "spclassifier", "expressions")


def _load() -> dict:
    """Import the modules, copy their ``__all__`` names into the root and
    drop the two hooks below, so this runs once; returns the namespace."""
    import importlib

    namespace = globals()
    for name in _MODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        namespace.update((n, getattr(module, n)) for n in module.__all__)
    namespace.pop("__getattr__", None)    # None: another thread got here first
    namespace.pop("__dir__", None)
    return namespace


def __getattr__(name: str):
    # Also asked for ``__all__`` by ``from jacquet import *``: the load
    # fills the namespace, and the AttributeError makes the star import
    # bind its public names.
    namespace = _load()
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]


def __dir__() -> list:
    return sorted(_load())
