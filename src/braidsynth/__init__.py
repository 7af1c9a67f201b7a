"""Encoder/decoder synthesis for Majorana fermionic stabilizer codes.

Majorana monomials are tracked as packed GF(2) bit strings with exact Z4
phases; circuits are sequences of quadratic and quartic braid gates.  The
synthesizer reduces any valid code to aligned mode pairs with +i phases,
either on two extra ancilla modes or ancilla-free where possible, and every
step can be cross-checked against an exact operator oracle that re-derives
each conjugation in the Majorana algebra.

Each module's ``__all__`` is its public API, and the package re-exports
those of ``bitlinalg``, ``majorana``, ``tableau``, ``codes`` and ``synth``,
so a public name is declared once, in the module that owns it.
"""

from . import bitlinalg, codes, majorana, synth, tableau
from .bitlinalg import *  # noqa: F403
from .codes import *  # noqa: F403
from .majorana import *  # noqa: F403
from .synth import *  # noqa: F403
from .tableau import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *bitlinalg.__all__,
    *majorana.__all__,
    *tableau.__all__,
    *codes.__all__,
    *synth.__all__,
    "__version__",
]
