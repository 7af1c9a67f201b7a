"""Majorana monomials with exact Z4 phases, and braid-gate conjugation.

A monomial is ``i^r * c_{a1} c_{a2} ... c_{ak}`` with mode indices strictly
increasing; ``MajoranaString`` stores it as one flat record: the register
size, the modes packed into one int (bit m set for c_m) and the phase
exponent ``r mod 4``.  The library's gate set is generated by two families:

* quadratic braid ``exp(-pi/4 c_a c_b)`` -- generator ``i * c_a c_b``,
* quartic braid ``exp(+i pi/4 c_a c_b c_c c_d)`` -- generator ``c_a c_b c_c c_d``,

each with an inverse direction.  Conjugating a monomial by a braid either
fixes it (even pairing) or multiplies it by ``i`` times the gate generator
(odd pairing), so ``_conjugate_raw`` is either no change or one product,
``_multiply_raw``.  On the bits, a braid on support m is the transvection
``v -> v + (v.m) m``; m has even weight, so it preserves both ``u.v`` and
weight parity, hence the fermionic pairing of every two monomials.  No
braid circuit can break the pairing, so ``verify`` does not check it.

Many monomials go through a circuit at once in a mode-major tableau
(``_ModeTableau``): one int per mode holds a bit for every row that
contains the mode, and the Z4 phases are two bit planes over the rows.  A
gate on support a1 < a2 (< a3 < a4) then costs O(|support| + summed pair
span) big-int operations whatever the number of rows: the rows it changes
are the XOR of the support columns, and the reorder parity of every row is
the XOR of the columns over [a1, a2) and [a3, a4).  Synthesis places its
braids next to the active pivot, so a synthesized decoder's pairs span
about 7 modes per gate at every N measured, and each ``kitaev:N`` gate
spans 2.  A uniformly random gate spans about N/3 modes per pair, so
replaying random circuits (``codes.random_code``'s scramble, or ``verify``
of a document with long-range gates) costs more as N grows.
``_ModeTableau.run`` is the one gate loop; ``run(gates, inverse=True)``
walks the gates backwards with each generator phase flipped, which
replays the inverse circuit without building it.  The tableau is the one
gate update shared by every multi-row path: ``tableau.apply_circuit`` runs
code generators through it,
``verify`` runs a document's generators and the ancilla row through its
decoder (a parsed document holds the decoder whatever its role), the
synthesis sweep keeps its working generators in one tableau for the
whole run and passes it each column's gates in one ``run``, and
``synth.destabilizers`` and
``logical_representatives`` run the modes they report through the decoder
backwards.  The tableau keeps the rows it was built from and a mask of the
rows gates have changed since, so a row no gate has touched reads back in
O(1); a changed (dirty) row still costs an O(N) scan of the columns,
whose result is kept until a gate changes the row again.  ``read`` hands
every row back at once, in one transpose of the columns and one of the
phase planes, and
``undecoded`` compares every row with the decoded form in one pass over
them; no other module reads the tableau's columns.  That predicate is
the one decoded-form test: synthesis ends on it and ``verify`` checks it.

A change of generating set multiplies rows: row i times row j for each
recorded pair (i, j), in order.  ``_multiply_rows`` is the one kernel for
it, on row-major ints before any replay.  The synthesis
back-substitution and ``verify``'s fold of a document's substitutions
both call it, and a run of products by the
same row j shares that row's prefix parities.  Two changes are written
into a tableau after it is built, both by synthesis.  Its column start
clears whole decoded pairs (q, q+1), q even, from one row:
``toggle_pairs`` writes exactly that, two column XORs per pair.  Its
column end may reverse the gate just run: ``reverse_last`` negates the
rows that gate met oddly, one XOR of the support's columns, and changes
no bit.  Outside the tableau every
reorder parity follows one rule, ``popcount(u & _below_parity(v)) & 1``:
``_multiply_rows`` applies it, and so does ``_reorder_raw``, behind
``_multiply_raw`` and ``_conjugate_raw``.

``conjugate_circuit``, the plain one-monomial fold, has no caller in the
package; it stays public as the documented fold of a single monomial and
as the independent reference the tableau is tested against.

Every gate is built, and validated, by the ``BraidGate`` constructor: a
parsed document's, a synthesis step's and ``BraidGate.inverse``'s (and so
``invert``'s).  The constructor is written by hand, so a valid gate costs
one chained comparison and four slot writes.  The synthesis sweep hands
it modes peeled off a support mask, so a gate it emits is checked there
too.  The common paths build no inverse gate at all: ``synth`` runs
the decoder backwards through ``_ModeTableau.run(gates, inverse=True)``
for the encoder images, ``codes.parse_circuit`` builds an encoder
document's decoder in its one constructor pass, each direction negated
on the way in, and ``codes.serialize_circuit`` writes an encoder
document from the decoder's gates, each direction negated as it goes
out.  ``invert`` serves ``SynthesisResult.encoder`` and ``diagram`` of
an encoder document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from .bitlinalg import _below_parity, _bit_positions, _reorder_raw, _transpose_raw

__all__ = [
    "MajoranaString",
    "BraidGate",
    "Circuit",
    "multiply",
    "conjugate_circuit",
    "invert",
    "gate_counts",
]

_PHASE_STR = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}


class _ModeTableau:
    """Rows of monomials stored mode-major, updated one gate at a time.

    cols[m] has bit i set when row i contains mode m; the list is updated in
    place.  The rows' Z4 exponents are two bit planes (p0 the low bit, p1
    the high bit).  A gate costs O(|support| + summed pair span) big-int
    operations: the reorder parity of a pair (a1, a2), and (a3, a4), is
    the XOR of the columns between its modes.  ``run`` is the one gate
    loop and keeps the state in locals for the whole sequence.  Applying
    a gate equals folding every row through ``_conjugate_raw``.

    The tableau also keeps each row as the int it was built from, last
    written as or last scanned as (rows), and dirty, an r-bit mask of the
    rows a gate has changed since: each gate ORs in the rows it changes,
    one big-int OR.  A clean row reads back from its kept int in O(1);
    only a dirty row is scanned out of the columns.  Two writes besides
    the gates: ``toggle_pairs``, which flips whole aligned pairs of one
    row, and ``reverse_last``, which turns the last gate run into its
    reverse and changes only phases.  The tableau is the one owner of the
    mode-major layout: it builds its columns from the rows and its phase
    planes from the phases, both with ``_transpose_raw``, and ``read``
    hands both back row-major through it, so no caller transposes.
    """

    __slots__ = ("cols", "p0", "p1", "rows", "dirty")

    def __init__(self, rows: Iterable[int], n_modes: int, phases: list[int]) -> None:
        self.rows = list(rows)
        self.dirty = 0
        self.cols = _transpose_raw(self.rows, n_modes)
        self.p0, self.p1 = _transpose_raw(phases, 2)

    def run(self, gates: Sequence[BraidGate], inverse: bool = False) -> None:
        """Conjugate every row through the gates, in order; with inverse,
        through their inverses in reverse order, which is ``run`` of
        ``invert(circuit).gates`` without building a gate: an inverse gate
        has the same modes and generator phase ``generator_phase ^ 2``.

        A support splits into pairs lo < hi, one for braid2 and two for
        braid4, and a pair's reorder parity is the XOR of cols[lo:hi].  A
        gate costs O(|support| + summed pair span) big-int operations:
        about 7 on synthesized decoders, about N/3 per pair on uniformly
        random gates.  The parities are read before the gate XORs odd
        into its support columns.
        """
        cols = self.cols
        p0, p1, dirty = self.p0, self.p1, self.dirty
        flip = 2 if inverse else 0
        for gate in reversed(gates) if inverse else gates:
            modes = gate.modes
            odd = 0
            for a in modes:
                odd ^= cols[a]
            if not odd:
                continue
            dirty |= odd
            reorder = 0
            for c in cols[modes[0] : modes[1]]:
                reorder ^= c
            if len(modes) == 4:
                for c in cols[modes[2] : modes[3]]:
                    reorder ^= c
            # 2-bit add of 1 + gen_phase + 2 * reorder on the rows in odd.
            step = 1 + (gate.generator_phase ^ flip)
            add0 = odd if step & 1 else 0
            add1 = (odd if step & 2 else 0) ^ (reorder & odd)
            p1 ^= add1 ^ (p0 & add0)
            p0 ^= add0
            for a in modes:
                cols[a] ^= odd
        self.p0, self.p1, self.dirty = p0, p1, dirty

    def phase(self, i: int) -> int:
        return (self.p0 >> i & 1) | (self.p1 >> i & 1) << 1

    def read(self) -> tuple[list[int], list[int]]:
        """Every row's packed bits and phase exponent, as two fresh lists:
        one transpose of the columns and one of the phase planes, whatever
        rows are dirty."""
        n_rows = len(self.rows)
        return _transpose_raw(self.cols, n_rows), _transpose_raw((self.p0, self.p1), n_rows)

    def row(self, i: int) -> tuple[int, int]:
        """Row i's packed bits and phase exponent: O(1) while the row is
        clean, an O(N) scan of the columns once a gate has changed it.  The
        scanned bits are kept, so the row is clean until a gate changes it
        again."""
        if self.dirty >> i & 1:
            self.rows[i] = self._scan_row(i)
            self.dirty ^= 1 << i
        return self.rows[i], self.phase(i)

    def _scan_row(self, i: int) -> int:
        """Row i's packed bits read out of the columns, one test per mode."""
        bit = 1 << i
        bits = 0
        for m, c in enumerate(self.cols):
            if c & bit:
                bits |= 1 << m
        return bits

    def toggle_pairs(self, i: int, pairs: int, phase: int) -> None:
        """Flip the modes of pairs in row i and set its phase to phase; the
        row is clean afterwards.  pairs must lie on whole aligned pairs
        (q, q+1), q even, and a pair costs two column XORs."""
        cols, bit = self.cols, 1 << i
        self.rows[i] = self.row(i)[0] ^ pairs
        while pairs:
            low = pairs & -pairs
            pairs ^= low | low << 1
            q = low.bit_length() - 1
            cols[q] ^= bit
            cols[q + 1] ^= bit
        self.p0 = self.p0 & ~bit | (phase & 1) << i
        self.p1 = self.p1 & ~bit | (phase >> 1 & 1) << i

    def reverse_last(self, modes: tuple[int, ...]) -> None:
        """Turn the gate run last, on modes, into its reverse.

        The reverse has the same support and generator phase 2 more, so
        it changes the same rows to the same bits with the opposite sign:
        the rows that meet the support oddly, which a gate on it keeps
        (a transvection by an even-weight support preserves each row's
        pairing with that support).  Only their phase's high bit flips.
        """
        odd = 0
        for a in modes:
            odd ^= self.cols[a]
        self.p1 ^= odd

    def undecoded(self, pivot_base: int, n_rows: int) -> int:
        """The mask of the rows j < n_rows that are not exactly
        i c_p c_(p+1), p = pivot_base + 2j; rows from n_rows on are not
        read.  One pass over the columns, O(N) big-int operations."""
        end = pivot_base + 2 * n_rows
        mask = (1 << n_rows) - 1
        off = (self.p0 ^ mask | self.p1) & mask  # phase not 1
        for m, c in enumerate(self.cols):  # mode m belongs to row (m - pivot_base) // 2 alone
            off |= (c ^ (1 << ((m - pivot_base) >> 1)) if pivot_base <= m < end else c) & mask
        return off


def _multiply_raw(abits: int, aphase: int, bbits: int, bphase: int) -> tuple[int, int]:
    """Product kernel on packed ints; the reorder parity is
    ``_reorder_raw``'s."""
    phase = (aphase + bphase + 2 * _reorder_raw(abits, bbits)) & 3
    return abits ^ bbits, phase


def _conjugate_raw(mask: int, gen_phase: int, bits: int, phase: int) -> tuple[int, int]:
    """Conjugation kernel on packed ints; mask has even weight.  The
    monomial M = i^phase [bits] is fixed when it pairs evenly with the
    generator V = i^gen_phase [mask], and becomes the product i V M when
    it pairs oddly."""
    if (mask & bits).bit_count() & 1 == 0:
        return bits, phase
    return _multiply_raw(mask, gen_phase + 1, bits, phase)


def _multiply_rows(
    rows: list[int], phases: list[int], pairs: Iterable[tuple[int, int]], n_modes: int
) -> None:
    """For each (i, j) of pairs, in order, set row i to the product row i
    times row j, in place; no row is wider than n_modes.

    The reorder parity of a product is ``popcount(row i & below) & 1``,
    with below row j's ``_below_parity``: the one reorder rule, which
    ``_reorder_raw`` follows too.  A run of equal j shares below: it is
    built again when j changes, and row j changes only through an entry
    (j, x), whose x starts a new run.  A pair i == j squares row i and
    ends its run as well.
    """
    last = -1
    for i, j in pairs:
        if j != last:
            below = _below_parity(rows[j], n_modes)
        phases[i] = (phases[i] + phases[j] + 2 * ((rows[i] & below).bit_count() & 1)) & 3
        rows[i] ^= rows[j]
        last = j if i != j else -1


@dataclass(frozen=True, slots=True)
class MajoranaString:
    """``i^phase_r`` times an ordered product of Majorana modes on a register
    of n_modes: bit m of bits is set when the product contains c_m."""

    n_modes: int
    bits: int = 0
    phase_r: int = 0

    def __post_init__(self) -> None:
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        if self.bits < 0 or self.bits >> self.n_modes:
            raise ValueError(f"bits do not fit in {self.n_modes} modes")
        if not 0 <= self.phase_r <= 3:
            raise ValueError("phase_r must lie in 0..3")

    @classmethod
    def single_mode(cls, n_modes: int, k: int) -> MajoranaString:
        return cls.from_modes(n_modes, (k,))

    @classmethod
    def from_modes(cls, n_modes: int, modes: Iterable[int], phase_r: int = 0) -> MajoranaString:
        """``i^phase_r`` times the product of modes in ascending order.  The
        modes name a set, listed in any order, so ``(3, 1)`` gives
        ``+1 c1 c3``; a mode listed twice raises ValueError."""
        bits = count = 0
        for count, m in enumerate(modes, 1):
            if not 0 <= m < n_modes:
                raise ValueError(f"mode {m} out of range for {n_modes} modes")
            bits |= 1 << m
        if bits.bit_count() != count:
            raise ValueError("modes must be distinct")
        return cls(n_modes, bits, phase_r)

    @property
    def modes(self) -> tuple[int, ...]:
        """The modes of the product, ascending."""
        return tuple(_bit_positions(self.bits))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_hermitian(self) -> bool:
        """Hermitian iff the phase parity matches weight*(weight-1)/2."""
        w = self.weight
        return self.phase_r % 2 == (w * (w - 1) // 2) % 2

    def __str__(self) -> str:
        if self.weight == 0:
            return _PHASE_STR[self.phase_r]
        modes = " ".join(f"c{i}" for i in self.modes)
        return f"{_PHASE_STR[self.phase_r]} {modes}"


GateKind = Literal["braid2", "braid4"]
_SUPPORT_SIZE = {"braid2": 2, "braid4": 4}


@dataclass(frozen=True, slots=True, init=False)
class BraidGate:
    """A quadratic or quartic braid on a sorted tuple of distinct modes.

    The constructor is the only way to build a gate, ``inverse()``
    included, and it validates every gate, with one chained comparison when
    the gate is valid.  generator_phase is computed with the check and
    stored, since every replayed gate reads it.  support_mask, whose size
    grows with the highest mode, is computed from modes on each read and
    never stored: a gate may name a mode far outside any register until a
    range check rejects it.  Neither takes part in equality, hashing or
    repr.  The constructor is written by hand and writes the slots
    directly, which costs less than the generated frozen-dataclass one;
    keyword construction and ``dataclasses.replace`` go through it as well.
    """

    kind: GateKind
    modes: tuple[int, ...]
    direction: int = 1
    # phase exponent r' of the gate generator ``i^{r'} [support]``
    generator_phase: int = field(init=False, repr=False, compare=False)

    def __init__(self, kind: GateKind, modes: tuple[int, ...], direction: int = 1) -> None:
        """One chained comparison passes a valid gate; anything else goes
        through _check, which raises the message of the first failed check.
        Modes given as any other iterable are stored as a tuple."""
        if type(modes) is not tuple:
            modes = tuple(modes)
        _set_kind(self, kind)
        _set_modes(self, modes)
        _set_direction(self, direction)
        try:
            if kind == "braid2":
                valid = len(modes) == 2 and 0 <= modes[0] < modes[1]
            else:
                valid = (
                    kind == "braid4"
                    and len(modes) == 4
                    and 0 <= modes[0] < modes[1] < modes[2] < modes[3]
                )
        except (TypeError, ValueError):  # unorderable modes: _check decides
            valid = False
        if not (valid and (direction == 1 or direction == -1)):
            self._check()
        _set_phase(self, (kind == "braid2") + (0 if direction == 1 else 2))

    def _check(self) -> None:
        """The checks one by one, raising the first that fails."""
        if self.kind not in _SUPPORT_SIZE:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.modes) != _SUPPORT_SIZE[self.kind]:
            raise ValueError(f"{self.kind} needs {_SUPPORT_SIZE[self.kind]} modes")
        if any(m < 0 for m in self.modes):
            raise ValueError("modes must be nonnegative")
        if any(a >= b for a, b in zip(self.modes, self.modes[1:])):
            raise ValueError("modes must be strictly ascending")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")

    @property
    def support_mask(self) -> int:
        return sum(1 << m for m in self.modes)  # the modes are distinct

    def inverse(self) -> BraidGate:
        """The same support, the other direction."""
        return BraidGate(self.kind, self.modes, -self.direction)

    def __str__(self) -> str:
        tag = "B2" if self.kind == "braid2" else "B4"
        sign = "+" if self.direction == 1 else "-"
        return f"{tag} {sign}({','.join(map(str, self.modes))})"


# The frozen gate's slots, written directly by __init__, the one place a
# gate is built.
_set_kind = BraidGate.kind.__set__  # type: ignore[attr-defined]
_set_modes = BraidGate.modes.__set__  # type: ignore[attr-defined]
_set_direction = BraidGate.direction.__set__  # type: ignore[attr-defined]
_set_phase = BraidGate.generator_phase.__set__  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered braid-gate sequence on a fixed register of modes; gates
    given as any other iterable are stored as a tuple."""

    n_modes: int
    gates: tuple[BraidGate, ...] = ()

    def __post_init__(self) -> None:
        if type(self.gates) is not tuple:
            object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        for g in self.gates:
            if g.modes[-1] >= self.n_modes:
                raise ValueError(f"gate {g} exceeds register of {self.n_modes} modes")

    def __len__(self) -> int:
        return len(self.gates)


def multiply(a: MajoranaString, b: MajoranaString) -> MajoranaString:
    """Operator product a*b, with the reorder sign folded into the phase."""
    if a.n_modes != b.n_modes:
        raise ValueError("mode count mismatch")
    bits, phase = _multiply_raw(a.bits, a.phase_r, b.bits, b.phase_r)
    return MajoranaString(a.n_modes, bits, phase)


def conjugate_circuit(circuit: Circuit, m: MajoranaString) -> MajoranaString:
    """Conjugate m through every gate of the circuit, in order."""
    if circuit.n_modes != m.n_modes:
        raise ValueError("mode count mismatch")
    bits, phase = m.bits, m.phase_r
    for g in circuit.gates:
        bits, phase = _conjugate_raw(g.support_mask, g.generator_phase, bits, phase)
    return MajoranaString(m.n_modes, bits, phase)


def invert(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed gate order with each direction negated."""
    return Circuit(circuit.n_modes, tuple(g.inverse() for g in reversed(circuit.gates)))


def gate_counts(circuit: Circuit) -> dict[str, int]:
    counts = {"braid2": 0, "braid4": 0}
    for g in circuit.gates:
        counts[g.kind] += 1
    return counts

