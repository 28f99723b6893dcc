"""Quaternionic Dirac plane waves over a constant quaternionic potential and
the confined relativistic square well built on them.

The package is organized bottom-up: quaternion arithmetic in the symplectic
pair representation (quaternion), the Dirac matrices plus a realified
nullspace oracle for stationary solutions (dirac), closed-form step-potential
kinematics and spinors (step), the hard-wall well with its quantized spectrum
(bag), the non-relativistic limit (nonrel), and a CLI front end (cli) that
emits deterministic CSV/JSON tables plus a self-verification report.
"""

from . import bag, dirac, nonrel, quaternion, report, step
from .quaternion import *
from .dirac import *
from .step import *
from .bag import *
from .nonrel import *
from .report import *

__version__ = "0.1.0"

__all__ = [
    *quaternion.__all__, *dirac.__all__, *step.__all__, *bag.__all__,
    *nonrel.__all__, *report.__all__, "__version__",
]
