"""Stabilizer codes over Majorana monomials, and the decoded normal form.

A code on N modes is a list of r generators that must be Hermitian, of even
weight, pairwise commuting and GF(2)-independent; nondegeneracy of the
fermionic pairing then forces r <= N/2.  Validation checks exactly those
properties, in a fixed order, and reports the first failure with the
offending generator indices so callers can surface precise diagnostics.

With W the total weight of the generators, validation costs r popcounts
for the weight and phase checks, min(W, r(r-1)/2) big-int operations for
the commutation check, and one GF(2) elimination for independence.  The
commutation check (``bitlinalg._first_odd_overlap``) forms the Gram matrix
from the mode-major columns when W < r(r-1)/2 and pairs generators one by
one otherwise; both routes report the lexicographically first
anticommuting pair.

The synthesis target is the decoded form in which generator j acts only on
the mode pair (pivot_base + 2j, pivot_base + 2j + 1) with phase +i.

``apply_circuit`` transposes the generators into the mode-major tableau of
``majorana`` and replays the circuit on all of them at once, in one
``_ModeTableau.run``, instead of one conjugation per generator: each gate
costs at most O(|support| log N) big-int operations on r-bit ints, since
each pair of its support walks the Fenwick tree only until the pair's two
paths meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitlinalg import _eliminate, _first_odd_overlap, _lowest_bit, _residue, _transpose_raw
from .majorana import Circuit, MajoranaString, _ModeTableau

__all__ = [
    "CodeValidationError",
    "StabilizerCode",
    "DecodedTarget",
    "apply_circuit",
    "contains_total_parity",
    "prepend_ancilla_modes",
]


class CodeValidationError(ValueError):
    """A generator list that is not a valid stabilizer code.

    kind is one of "odd_weight", "bad_phase", "anticommuting", "dependent";
    indices points at the generators involved.
    """

    def __init__(self, kind: str, indices: tuple[int, ...], message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.indices = indices


@dataclass(frozen=True, slots=True)
class StabilizerCode:
    """An N-mode code given by its stabilizer generators."""

    n_modes: int
    generators: tuple[MajoranaString, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError("n_modes must be even and at least 2")
        for g in self.generators:
            if g.n_modes != self.n_modes:
                raise ValueError("generator register size mismatch")

    @property
    def n_stabilizers(self) -> int:
        return len(self.generators)

    @property
    def n_logical(self) -> int:
        """Encoded fermion pairs; meaningful once validate() has passed."""
        return self.n_modes // 2 - self.n_stabilizers

    def validate(self) -> None:
        """Raise CodeValidationError at the first violated code property."""
        gens = self.generators
        for j, g in enumerate(gens):
            if g.weight % 2:
                raise CodeValidationError(
                    "odd_weight", (j,), f"generator {j} has odd weight {g.weight}"
                )
        for j, g in enumerate(gens):
            if not g.is_hermitian():
                raise CodeValidationError(
                    "bad_phase",
                    (j,),
                    f"generator {j} has phase i^{g.phase_r}, which is not Hermitian "
                    f"for weight {g.weight}",
                )
        # every weight is even from here on, so pairings are overlap parities
        pair = _first_odd_overlap([g.bits for g in gens], self.n_modes)
        if pair is not None:
            j, k = pair
            raise CodeValidationError(
                "anticommuting", (j, k), f"generators {j} and {k} anticommute"
            )
        pivots: dict[int, int] = {}
        for j, g in enumerate(gens):
            v = _residue(pivots, g.bits)
            if not v:
                raise CodeValidationError(
                    "dependent", (j,), f"generator {j} is a product of earlier generators"
                )
            pivots[_lowest_bit(v)] = v
        # r > N/2 fails above: even overlaps span a self-orthogonal code, dim <= N/2.


@dataclass(frozen=True, slots=True)
class DecodedTarget:
    """Where synthesis sends the code: pair (pivot_base+2j, pivot_base+2j+1)."""

    n_modes: int
    pivot_base: int
    r: int

    def generator(self, j: int) -> MajoranaString:
        if not 0 <= j < self.r:
            raise ValueError("generator index out of range")
        p = self.pivot_base + 2 * j
        return MajoranaString.from_modes(self.n_modes, (p, p + 1), 1)

    def generators(self) -> tuple[MajoranaString, ...]:
        return tuple(self.generator(j) for j in range(self.r))


def apply_circuit(circuit: Circuit, code: StabilizerCode) -> StabilizerCode:
    """Conjugate every generator through the circuit."""
    if circuit.n_modes != code.n_modes:
        raise ValueError("mode count mismatch")
    n, gens = code.n_modes, code.generators
    tab = _ModeTableau([g.bits for g in gens], n, [g.phase_r for g in gens])
    tab.run(circuit.gates)
    bits = _transpose_raw(tab.cols, len(gens))
    images = tuple(MajoranaString(n, b, ph) for b, ph in zip(bits, tab.phases(len(gens))))
    return StabilizerCode(n, images, code.name)


def contains_total_parity(code: StabilizerCode) -> bool:
    """True iff the all-modes product lies in the GF(2) span of the bits."""
    pivots = _eliminate(g.bits for g in code.generators)
    return _residue(pivots, (1 << code.n_modes) - 1) == 0


def prepend_ancilla_modes(code: StabilizerCode) -> StabilizerCode:
    """Shift the code up by one fresh mode pair at indices 0 and 1."""
    n = code.n_modes + 2
    gens = tuple(MajoranaString(n, g.bits << 2, g.phase_r) for g in code.generators)
    return StabilizerCode(n, gens, code.name)
