"""Stabilizer codes over Majorana monomials, and the decoded normal form.

A code on N modes is a list of r generators that must be Hermitian, of even
weight, pairwise commuting and GF(2)-independent; nondegeneracy of the
fermionic pairing then forces r <= N/2.  Validation checks exactly those
properties, in a fixed order, and reports the first failure with the
offending generator indices so callers can surface precise diagnostics.

With W the total weight of the generators, validation costs r popcounts
for the weight and phase checks, min(W, r(r-1)/2) big-int operations for
the commutation check, and one GF(2) elimination for independence
(``bitlinalg._eliminate``), which stops at the first generator whose
residue is 0.  The commutation check (``bitlinalg._first_odd_overlap``)
forms the Gram matrix from the mode-major columns when W < r(r-1)/2 and
pairs generators one by one otherwise; both routes report the
lexicographically first anticommuting pair.

The synthesis target is the decoded form in which generator j acts only on
the mode pair (pivot_base + 2j, pivot_base + 2j + 1) with phase +i.

``apply_circuit`` puts the generators in one mode-major tableau of
``majorana``, replays the circuit on all of them at once, in one
``_ModeTableau.run``, instead of one conjugation per generator, and reads
the images back with ``_ModeTableau.read``: each gate costs
O(|support| + summed pair span) big-int operations on r-bit ints, since a
pair's reorder parity is the XOR of the columns between its modes.  That
is about 7 per gate on a synthesized decoder, and about N/3 per pair on
the uniformly random gates of ``codes.random_code``'s scramble.

Synthesis and ``verify`` start from one register, which ``_working_rows``
builds: the target and the generators as packed ints, shifted up by the
pivot base, 0, or 2 with the ancilla pair, whose i c_0 c_1 is then row r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitlinalg import _eliminate, _first_odd_overlap
from .majorana import Circuit, MajoranaString, _ModeTableau

__all__ = [
    "CodeValidationError",
    "StabilizerCode",
    "DecodedTarget",
    "apply_circuit",
    "contains_total_parity",
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
    """An N-mode code given by its stabilizer generators; generators given
    as any other iterable are stored as a tuple."""

    n_modes: int
    generators: tuple[MajoranaString, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if type(self.generators) is not tuple:
            object.__setattr__(self, "generators", tuple(self.generators))
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
        for j, v in enumerate(_eliminate(g.bits for g in gens)):
            if not v:
                raise CodeValidationError(
                    "dependent", (j,), f"generator {j} is a product of earlier generators"
                )
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

    def pins(self, bits: int) -> bool:
        """True iff bits, on this target's register, hold modes 0, 1 and
        every logical mode: the shape the total parity pins the ancilla
        image to."""
        log_start = self.pivot_base + 2 * self.r
        return bits & 0b11 == 0b11 and bits >> log_start == (1 << self.n_modes - log_start) - 1


def apply_circuit(circuit: Circuit, code: StabilizerCode) -> StabilizerCode:
    """Conjugate every generator through the circuit."""
    if circuit.n_modes != code.n_modes:
        raise ValueError("mode count mismatch")
    n, gens = code.n_modes, code.generators
    tab = _ModeTableau([g.bits for g in gens], n, [g.phase_r for g in gens])
    tab.run(circuit.gates)
    images = tuple(MajoranaString(n, b, ph) for b, ph in zip(*tab.read()))
    return StabilizerCode(n, images, code.name)


def contains_total_parity(code: StabilizerCode) -> bool:
    """True iff the all-modes product lies in the GF(2) span of the bits."""
    *_, last = _eliminate([*(g.bits for g in code.generators), (1 << code.n_modes) - 1])
    return last == 0


def _working_rows(code: StabilizerCode, ancilla: bool) -> tuple[DecodedTarget, list[int], list[int]]:
    """The register synthesis and ``verify`` start from: the target, and
    the generators' bits shifted up by its pivot base with their phases,
    as fresh lists.  With the ancilla pair (modes 0 and 1, pivot base 2)
    i c_0 c_1 follows as row r."""
    base = 2 if ancilla else 0
    gens = code.generators
    bits, phases = [g.bits << base for g in gens], [g.phase_r for g in gens]
    if ancilla:
        bits.append(0b11)
        phases.append(1)
    return DecodedTarget(code.n_modes + base, base, len(gens)), bits, phases
