"""Numerical toolkit for frames relative to an operator K.

Computes optimal K-frame bounds, canonical and general K-duals, frame
multipliers with their K-left/K-right inverses, and certifies the defining
identities on user-supplied and built-in instances. See the ``kframe`` CLI
for the batch front door. The package exports each library module's ``__all__``.
"""

from . import duality, frames, linalg, multipliers, worked
from .duality import *
from .errors import KFrameError
from .frames import *
from .linalg import *
from .multipliers import *
from .worked import *

__version__ = "1.0.0"

__all__ = ["KFrameError", *linalg.__all__, *frames.__all__, *duality.__all__,
           *multipliers.__all__, *worked.__all__]
