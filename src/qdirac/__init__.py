"""Quaternionic Dirac plane waves over a constant quaternionic potential and
the confined relativistic square well built on them.

The package is organized bottom-up: quaternion arithmetic in the symplectic
pair representation (quaternion), the Dirac matrices plus a realified
nullspace oracle for stationary solutions (dirac), closed-form step-potential
kinematics and spinors (step), the hard-wall well with its quantized spectrum
(bag), the non-relativistic limit (nonrel), and a CLI front end (cli) that
emits deterministic CSV/JSON tables plus a self-verification report.

Importing the package loads none of them. _MODULES is the one list of the
modules whose public names the package carries, and every name resolves on
first use (PEP 562): a submodule name (cli and _kernels too) imports that
module; a public name imports the first module of _MODULES whose __all__
holds it and is then kept in the package globals, so the next access is a
plain lookup; __all__ is those lists joined in order, plus __version__; any
other name raises AttributeError.
"""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

__version__ = "0.1.0"
_MODULES = ("quaternion", "dirac", "step", "bag", "nonrel", "report")


def __getattr__(name):
    """A submodule, __all__, or a public name, kept once found (PEP 562)."""
    if name.isidentifier() and _find_spec("." + name, __name__):
        return _import_module("." + name, __name__)
    modules = map(__getattr__, _MODULES)
    if name == "__all__":
        return [n for module in modules for n in module.__all__] + ["__version__"]
    for module in modules:
        if name in module.__all__:
            return globals().setdefault(name, getattr(module, name))
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    """The names bound so far and every public name."""
    return {*globals(), *__getattr__("__all__")}
