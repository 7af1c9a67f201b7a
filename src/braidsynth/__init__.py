"""Encoder/decoder synthesis for Majorana fermionic stabilizer codes.

Majorana monomials are tracked as packed GF(2) bit strings with exact Z4
phases; circuits are sequences of quadratic and quartic braid gates.  The
synthesizer reduces any valid code to aligned mode pairs with +i phases,
either on two extra ancilla modes or ancilla-free where possible, and every
step can be cross-checked against an exact operator oracle that re-derives
each conjugation in the Majorana algebra.
"""

from .bitlinalg import symplectic_pairing
from .codes import (
    MAX_REGISTER_MODES,
    CircuitDocument,
    CircuitFormatError,
    CodeFormatError,
    kitaev_chain,
    parse_circuit,
    parse_code,
    random_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from .majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    conjugate_circuit,
    gate_counts,
    invert,
    multiply,
)
from .synth import (
    PhaseCorrectionError,
    SynthesisInvariantError,
    SynthesisResult,
    TotalParityObstruction,
    destabilizers,
    logical_representatives,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from .tableau import (
    CodeValidationError,
    DecodedTarget,
    StabilizerCode,
    apply_circuit,
    contains_total_parity,
    prepend_ancilla_modes,
)

__version__ = "0.1.0"

__all__ = [
    "symplectic_pairing",
    "MajoranaString",
    "BraidGate",
    "Circuit",
    "multiply",
    "conjugate_circuit",
    "invert",
    "gate_counts",
    "CodeValidationError",
    "StabilizerCode",
    "DecodedTarget",
    "apply_circuit",
    "contains_total_parity",
    "prepend_ancilla_modes",
    "MAX_REGISTER_MODES",
    "CodeFormatError",
    "kitaev_chain",
    "shortest_code",
    "random_circuit",
    "random_code",
    "parse_code",
    "serialize_code",
    "CircuitFormatError",
    "CircuitDocument",
    "parse_circuit",
    "serialize_circuit",
    "TotalParityObstruction",
    "PhaseCorrectionError",
    "SynthesisInvariantError",
    "SynthesisResult",
    "synthesize_with_ancilla",
    "synthesize_ancilla_free",
    "destabilizers",
    "logical_representatives",
    "__version__",
]
