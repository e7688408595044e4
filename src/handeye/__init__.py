"""Hand-eye calibration toolkit.

Estimates the fixed rigid transform between a robot hand and a camera
mounted on it, from either decomposed camera poses (the AX = XB route)
or raw 3x4 perspective matrices (the MY = M'YB route), with three
interchangeable solvers and a Monte-Carlo stability harness.  The
package namespace holds the names of the library quick start; everything
else lives in the submodules (``geometry``, ``solvers``, ``simulate``,
``datafiles``, ``quaternion``, ``errors``).
"""

from .datafiles import load_dataset
from .errors import CalibrationError, IllConditionedError, TooFewMotionsError
from .geometry import ConstraintSet, classical_constraints, perspective_constraints
from .solvers import Method, solve

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ConstraintSet",
    "IllConditionedError",
    "Method",
    "TooFewMotionsError",
    "classical_constraints",
    "load_dataset",
    "perspective_constraints",
    "solve",
]
