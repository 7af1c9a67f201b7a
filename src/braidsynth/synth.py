"""Decoder synthesis: reduce a stabilizer code to aligned mode pairs.

A code is its stabilizer group, not one generating set, so the synthesis
chooses the generating set it decodes, and records each change as a
substitution (i, j): generator i multiplied on the right by the current
generator j, a product and no gate.  Two kinds are recorded, and a third
can no longer arise:

* the back-substitution, before any gate: for i from r - 1 down to 1,
  every generator k < i holding generator i's highest mode (its top) is
  multiplied by generator i, recorded as (k, i) with k < i.  Row i is
  final when its step starts, so afterwards no generator holds a later
  generator's top mode.  Rows still to come then hold fewer modes of the
  logical region, where every two modes cost the shrink step one braid4.
  The pass works on the rows as they stand, one shift-and-test per row
  below i, and the tableau is built from its result.  A code whose tops
  rise with the row index (``kitaev:N``) needs no product, which two
  C-level passes over the rows show first.
* the column start: (i, j) with j < i, described below.
* the borrow, (i, j) with j > i at an ancilla-free all-ones tail, is
  unreachable after the back-substitution, and its place is taken by a
  ``SynthesisInvariantError``.  Suppose column k's tail (its modes from
  the pivot p = 2k on) is all ones.  Generators 0..k-1 are the decoded
  pairs c_0 c_1 .. c_(p-2) c_(p-1) in the current frame, and generator
  k has cleared them, so the product of generators 0..k is the
  all-modes monomial.  Braids fix that monomial's bits and the column
  substitutions stay within generators 0..k, so the total parity lies
  in the span of the back-substituted generators 0..k.  For k < r - 1
  none of those holds top(r - 1) and the total parity does: no such
  tail.  For k = r - 1 the total parity lies in the group, so the
  obstruction check has refused the code unless r = N/2, and then the
  tail has two modes, which the shrink step never reaches.

Both variants then sweep the generators column by column.  Each column
starts by multiplying its generator by every already-decoded generator
whose pair it still holds (commutation forces whole pairs): a recorded
substitution, no gate.  Decoded generator j is exactly i^s c_q c_(q+1) at
that point, so the held pairs multiply to one monomial, and one product by
it clears their bits.  The row changes on those whole pairs alone, and
``_ModeTableau.toggle_pairs`` writes them, one column XOR per mode.
Quartic braids then shrink the column's weight from the pivot on by two
per step, parking on its lowest clear mode there, and one quadratic braid
per bit still off the pivot pair puts it there.  Every emitted gate has
even overlap with every finished pair, so decoded generators are never
disturbed -- the loop invariant that makes the sweep correct.

The working generators live in one mode-major tableau (see ``majorana``)
for the whole run, so each emitted gate costs O(|support| + summed pair
span) big-int operations however many generators there are: about 7 at
every N measured, since the sweep braids next to the active pivot.  The
tableau runs gates at two fixed points only: at the end of each column
that emitted a gate, all of that column's gates in one ``run``, before it
reads the phase the column's last gate is chosen from (below); and once
after the sweep, all the phase-correction gates together.  So a column
costs at most one ``run`` call, not one per gate, and its column-start
substitutions cost none.  The sweep names each gate by its support mask,
built from the one-bit ints (``x & -x``) its pivot logic already computes;
``emit`` takes the kind from the mask's weight (2 modes make a ``braid2``,
4 a ``braid4``, any other weight is an invariant failure) and peels the
modes off in ascending order for the ``BraidGate`` constructor, which still
validates every gate.  The active generator is also kept as one packed int,
its bits alone folded through each gate, because the pivot logic reads its
low bits; its phase is read from the tableau when needed.  It is read out
of the tableau at the start of its column and written back only by a change
of generating set.  That read is O(1) when no earlier gate has touched the
row (the tableau keeps its input rows and a mask of the rows gates have
changed), and an O(N) scan of the columns when one has; the tableau keeps
the scan, so the ``toggle_pairs`` that follows reads the row in O(1).  A
column that emits no gate reads its generator's phase from the tableau's
bit planes at its end, and the final check is ``_ModeTableau.undecoded``,
the decoded-form test ``verify`` runs too, in O(N): it requires every
generator at exactly +i.  Internal invariants raise ``SynthesisInvariantError``, so
they also hold under ``python -O``.

The ancilla variant adjoins a fresh mode pair at indices 0 and 1.  When a
tail is all ones it parks on mode 0 (a quartic braid through mode 0, then a
quadratic one back, which leaves mode 0 clear), so it never fails.  The
argument above, on the user modes 2..N+1, puts that tail in the last column
only, and only when the total parity lies in the group; so mode 0 is clear
at every column start, which the sweep checks.  A code without the total
parity has k >= 1 encoded pairs (r = N/2 would put the total parity in the
group), so its phase correction braids to the first logical mode in both
variants (below), and its whole ancilla decoder is the ancilla-free one
shifted by two modes.  The image of i c_0 c_1 is one more row of the
tableau, row r, so every gate folds it along with the generators.  Without
the total parity it ends as i c_0 c_1: no gate touches mode 0 or 1.  With
it, every braid fixes the all-modes monomial, which pins the image to the
global parity times decoded generators, an operator no pair-preserving
gate can move; that image is reported instead of hidden, and any other
raises SynthesisInvariantError.  The ancilla-free variant never meets an
all-ones tail (see the borrow above); it must reject codes whose
stabilizer group contains the total parity with r < N/2, for which no
ancilla-free decoder exists at all.

Each column that emits a gate ends its generator at +i.  A braid's
reverse direction negates its generator, so it flips the sign of every row
the braid meets oddly and leaves the others as they are.  Every sweep gate
of column i meets row i oddly (a shrink braid holds three of the row's
modes, the park's two gates three and one, a slot braid one) and every
finished pair evenly.  So the direction of the column's last gate decides
generator i's final phase, +i or -i, and disturbs no decoded generator;
the rows still to come absorb the flip, and their signs do not matter yet.
The bits, and so every later gate's support, are the same either way.  At
the column end the tableau runs the column's gates and reads row i's
phase.  If it reads -i, the last gate is reversed in the decoder, and
``_ModeTableau.reverse_last`` negates every row that gate met oddly: a
reversed gate's generator phase is 2 more, so that is the state running
the reversed gate would have left, and no gate runs twice.  ``emit`` does
no phase work per gate, and no parity test either: every gate it folds
meets the active row oddly, so it adds the gate's support to the row
outright.  A column costs one phase read and, when its last gate is
reversed, one XOR of that gate's columns.

A generator whose column emits no gate (it is on its own pair once the
column start has cleared the decoded ones) keeps the phase it has there,
+i or -i.  A doubled braid is its generator up to phase: it moves no bit
and flips the sign of exactly the rows that meet its support oddly.  Each
such generator j at -i gets one doubled braid2 on {p_j, f}, p_j its pivot
and f one free mode: the first logical mode, or mode 0 when the ancilla
variant has none (k = 0).  The support meets row j once and every other
decoded pair never, so only generator j turns to +i.  A logical f never
meets the ancilla pair.  With f = 0 the code has no encoded pair (r =
N/2), so the group holds the total parity, and the image is pinned and
reported with the sign the braids leave it.  Ancilla-free with k = 0 no
free mode exists, and the -i generators pair off in column order, f the
pivot of each pair's second, which that one braid turns to +i too; when
one is left over, ``PhaseCorrectionError`` is raised.  The -i generators
are listed at their columns' ends, since nothing later changes a finished
row's phase: later sweep gates meet every finished pair evenly, so a
reversed last gate negates none of them either, and a doubled braid2 on
{p_j, f} flips row j alone, and row k too when f = p_k.  So the correction
braids are built from that list alone and run through the tableau in one
batch, and the final decoded-form check sees every phase they set.  The
logical-pair representatives pick up the braids' signs, and
``logical_representatives`` reads them off the whole decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt

from .bitlinalg import _bit_positions, symplectic_pairing
from .majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _ModeTableau,
    _multiply_raw,
    _multiply_rows,
    invert,
)
from .tableau import DecodedTarget, StabilizerCode, _working_rows, contains_total_parity

__all__ = [
    "TotalParityObstruction",
    "PhaseCorrectionError",
    "SynthesisInvariantError",
    "SynthesisResult",
    "synthesize_with_ancilla",
    "synthesize_ancilla_free",
    "destabilizers",
    "logical_representatives",
]


class TotalParityObstruction(Exception):
    """No ancilla-free decoder exists: every braid gate fixes the all-modes
    monomial, but decoding would have to move it out of the stabilizer."""


class SynthesisInvariantError(RuntimeError):
    """An internal invariant of the synthesis algorithm failed: a bug, not
    bad input.  Raised explicitly, so the checks also run under python -O."""


class PhaseCorrectionError(Exception):
    """A -i generator whose column emitted no gate, with no free mode to
    braid to and no later -i generator to pair with: possible only
    ancilla-free with k = 0, where no free mode exists.  There the
    all-modes monomial, the product of every generator, is fixed by every
    braid gate, sign included, so the code fixes the parity of the number
    of generators at -i, and an odd one is left without a partner."""


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    """A synthesized decoder plus the bookkeeping needed to interpret it.

    decoder conjugates the (ancilla-extended, substitution-adjusted) code to
    the decoded target; encoder is its exact gate-for-gate inverse, built
    on each access and not stored.  ``braidsynth synth`` does not build it:
    a ``CircuitDocument`` holds the decoder for either role, and
    ``serialize_circuit`` writes an encoder document's gates from it.
    substitutions lists generating-set changes (i, j), in order, meaning
    generator i was multiplied on the right by the current generator j.
    The back-substitution's come first, each (k, i) with k < i, before any
    gate; then, at the start of column i, one (i, j) for each decoded
    generator j < i whose pair generator i held.  The third kind, a
    borrowed j > i at an ancilla-free all-ones tail, cannot arise (the
    proof is in the module docstring).  The decoder maps the code's
    generators with them multiplied out, in order, to the decoded form; a
    document carries them, and ``verify`` multiplies them out on the
    code's rows, with the same kernel as synthesis, before it replays the
    decoder.  correction_span is the decoder gate index range holding the
    doubled phase-correction braid2s, one pair per generator whose column
    emitted no gate and left it at -i: every other column's last gate
    takes the direction that ends its generator at +i.  The span runs to
    the end of the decoder and is empty when no such generator ends at -i.
    Those braids and the sweep's directions change the signs of the
    logical-pair representatives, which ``logical_representatives`` reads
    off the whole decoder.  For the ancilla variant, ancilla_image is the
    decoder image of i c_0 c_1, and for a code whose stabilizer group does
    not contain the total parity it is i c_0 c_1 itself, ancilla_phase_r 1.
    Otherwise the image is pinned to the all-modes monomial times decoded
    pairs.  When that product is the ancilla pair (possible only with no
    encoded pairs left over), the image is i^s c_0 c_1 with the residual
    sign s that ancilla_phase_r reads (reported, not corrected); else it
    cannot be reduced, ancilla_phase_r is None, and the full monomial is
    reported.  total_modes, ancilla_modes and ancilla_phase_r are read off
    decoder, target (its pivot base is 2 with the ancilla pair, 0 without)
    and ancilla_image, not stored, so ``dataclasses.replace`` keeps them in
    step.
    """

    decoder: Circuit
    target: DecodedTarget
    substitutions: tuple[tuple[int, int], ...]
    ancilla_image: MajoranaString | None
    correction_span: tuple[int, int]

    @property
    def total_modes(self) -> int:
        return self.decoder.n_modes

    @property
    def ancilla_modes(self) -> tuple[int, ...]:
        return (0, 1) if self.target.pivot_base else ()

    @property
    def ancilla_phase_r(self) -> int | None:
        image = self.ancilla_image
        return image.phase_r if image is not None and image.bits == 0b11 else None

    @property
    def encoder(self) -> Circuit:
        return invert(self.decoder)


def synthesize_with_ancilla(code: StabilizerCode) -> SynthesisResult:
    """Decode on N+2 modes, never failing, ancilla pair left on (0,1)."""
    return _run(code, use_ancilla=True)


def synthesize_ancilla_free(code: StabilizerCode) -> SynthesisResult:
    """Decode on the code's own N modes, or raise TotalParityObstruction."""
    return _run(code, use_ancilla=False)


def _run(code: StabilizerCode, use_ancilla: bool) -> SynthesisResult:
    code.validate()
    if not use_ancilla and code.n_stabilizers < code.n_modes // 2 and contains_total_parity(code):
        raise TotalParityObstruction(
            "total parity lies in the stabilizer group with r < N/2; use the ancilla variant"
        )
    # The working rows: the generators shifted up by the pivot base and,
    # with the ancilla pair, row r, the image of i c_0 c_1, which every gate
    # folds.  Every row lives in one mode-major tableau; the active sweep
    # row is also kept row-major, bits only, because the pivot logic reads
    # its low bits.  The tableau runs a column's gates in one pass at the
    # column's end, and the correction gates in one pass after them.
    target, rows, phases = _working_rows(code, use_ancilla)
    pivot_base, r, n_work = target.pivot_base, target.r, target.n_modes
    full = (1 << n_work) - 1
    substitutions = _back_substitute(rows, phases, r)
    tab = _ModeTableau(rows, n_work, phases)
    row = 0
    gates: list[BraidGate] = []
    minus: list[int] = []  # the generators left at -i by a column with no gate

    def emit(mask: int) -> None:
        nonlocal row
        # peel the modes off the support mask in ascending order
        weight = mask.bit_count()
        first = mask & -mask
        rest = mask ^ first
        second = rest & -rest
        if weight == 2:
            modes = (first.bit_length() - 1, second.bit_length() - 1)
            gates.append(BraidGate("braid2", modes))
        elif weight == 4:
            rest ^= second
            third = rest & -rest
            modes = (
                first.bit_length() - 1,
                second.bit_length() - 1,
                third.bit_length() - 1,
                (rest ^ third).bit_length() - 1,
            )
            gates.append(BraidGate("braid4", modes))
        else:
            raise SynthesisInvariantError(f"a gate support of {weight} modes")
        # every sweep gate meets the row oddly (module docstring), so its
        # support is added outright; the doubled correction braids cancel
        row ^= mask

    def clear_pairs(i: int, bits: int, phase: int, decoded: int) -> int:
        """Multiply generator i, at bits and phase, by every decoded
        generator whose pair it holds, record each product as a
        substitution, write the result to the tableau and return its bits.

        Decoded generator j is exactly i^s c_q c_(q+1), q = pivot_base + 2j,
        and commutation makes the row hold both modes of a pair or neither.
        The held pairs are disjoint and listed in ascending order, so their
        product is i^(sum of their s) times their modes, one monomial, and
        one ``_multiply_raw`` by it clears them all and costs no gate.  The
        change to the row is those whole pairs, which is what
        ``_ModeTableau.toggle_pairs`` writes.
        """
        held = bits & decoded
        lows = held & evens
        half = lows ^ (held >> 1 & evens)
        if half:
            q = (half & -half).bit_length() - 1
            raise SynthesisInvariantError(
                f"generator {i} meets decoded pair {q}, {q + 1} in one mode only"
            )
        s = 0
        for q in _bit_positions(lows):
            j = (q - pivot_base) >> 1
            s += tab.phase(j)
            substitutions.append((i, j))
        bits, phase = _multiply_raw(bits, phase, held, s)
        tab.toggle_pairs(i, held, phase)
        return bits

    evens = full // 3  # the even modes: the low mode of every aligned pair
    for i in range(r):
        p = pivot_base + 2 * i
        start = len(gates)
        tail = full ^ ((1 << p) - 1)
        decoded = (1 << p) - (1 << pivot_base)  # the decoded pairs' modes
        row, phase = tab.row(i)
        if row & decoded:
            row = clear_pairs(i, row, phase, decoded)

        if use_ancilla and row & 1:
            # only a park puts mode 0 in a row, and only the last column
            # parks (module docstring)
            raise SynthesisInvariantError(f"generator {i} holds mode 0 at its column start")

        # the row lies in the tail from here on: the decoded pairs are
        # cleared, mode 0 is checked, no gate holds mode 1, and a park's
        # second gate takes mode 0 back out
        while row.bit_count() > 2:
            # the row's three lowest set bits, as one-bit ints
            b1 = row & -row
            t = row ^ b1
            b2 = t & -t
            t ^= b2
            three = b1 | b2 | (t & -t)
            clear = ~row & tail
            if clear:
                emit((clear & -clear) | three)
            elif use_ancilla:
                # all-ones tail: park on mode 0, clear until this column
                emit(1 | three)
                emit(1 | b1)
            else:
                # unreachable after the back-substitution (module docstring)
                raise SynthesisInvariantError(
                    f"generator {i} has an all-ones tail of {row.bit_count()} modes"
                )

        # the row now lies on at most two tail modes; one quadratic braid
        # per bit off the slots p, p+1 puts it on a clear slot
        slots = 0b11 << p
        while row & ~slots:
            free_slot, off = ~row & slots, row & ~slots
            emit((free_slot & -free_slot) | (off & -off))

        if len(gates) > start:
            # the column's last gate takes the direction that lands the
            # generator at +i (module docstring)
            tab.run(gates[start:])
            if tab.phase(i) == 3:
                gates[-1] = gates[-1].inverse()
                tab.reverse_last(gates[-1].modes)
        elif tab.phase(i) == 3:
            minus.append(i)

    # ---- phase correction: a doubled braid2 from the pivot to one free
    # mode flips each -i generator left by a column that emitted no gate;
    # no later gate changes a finished row's phase, so minus is final ----
    correction_start = len(gates)
    log_start = pivot_base + 2 * r
    free = log_start if log_start < n_work else 0 if use_ancilla else None
    if free is not None:
        pairs = [(pivot_base + 2 * j, free) for j in minus]
    elif len(minus) % 2:
        raise PhaseCorrectionError(
            f"generator {minus[-1]} is stuck at phase -i: no free modes remain "
            "and no second flipped generator exists to pair with"
        )
    else:
        # ancilla-free with k = 0 (pivot base 0): consecutive -i
        # generators flip each other
        pairs = [(2 * j, 2 * k) for j, k in zip(minus[::2], minus[1::2])]
    for p, f in pairs:
        support = 1 << p | 1 << f
        emit(support)
        emit(support)
    if pairs:
        tab.run(gates[correction_start:])
    correction_span = (correction_start, len(gates))

    ancilla_image: MajoranaString | None = None
    if use_ancilla:
        # ---- the ancilla image, row r: i c_0 c_1 or pinned ----
        # The sweep touches mode 0 only on an all-ones tail, which needs the
        # total parity in the stabilizer group, and the correction braids
        # meet mode 0 only when it does; otherwise the image is untouched.
        # With the total parity in the group, braids fix the all-modes
        # monomial, so the image covers every free mode and no
        # pair-preserving gate can move it: it is reported as it stands.
        row, phase = tab.row(r)
        if row != 0b11 and not target.pins(row):
            raise SynthesisInvariantError(
                "the ancilla image is neither i c0 c1 nor pinned by the total parity"
            )
        ancilla_image = MajoranaString(n_work, row, phase)

    if tab.undecoded(pivot_base, r):
        raise SynthesisInvariantError("the generators did not reach the decoded form")

    return SynthesisResult(
        decoder=Circuit(n_work, tuple(gates)),
        target=target,
        substitutions=tuple(substitutions),
        ancilla_image=ancilla_image,
        correction_span=correction_span,
    )


def _back_substitute(rows: list[int], phases: list[int], r: int) -> list[tuple[int, int]]:
    """Multiply, for i from r - 1 down to 1, every row k < i holding row
    i's highest mode by row i; return the products as substitutions (k, i).

    Rows and phases are updated in place.  Row i is final when its step
    starts (only rows below it change there), and its top is read then,
    since a later row's step may have moved it; afterwards no row holds a
    later row's top mode.  The rows holding the top are found on the rows
    as they stand, one shift-and-test per row k < i, and a step's products
    go to ``_multiply_rows`` as one run by row i.  When the tops rise
    with the row index, as on ``kitaev:N``, no row holds a later row's
    top, which two C-level passes over the rows show before any per-row
    test.
    """
    tops = list(map(int.bit_length, rows[:r]))
    if all(map(lt, tops, tops[1:])):
        return []
    width = max(tops)  # a product of rows is no wider than they are
    substitutions: list[tuple[int, int]] = []
    for i in range(r - 1, 0, -1):
        top = rows[i].bit_length() - 1
        held = [(k, i) for k in range(i) if rows[k] >> top & 1]
        _multiply_rows(rows, phases, held, width)
        substitutions += held
    return substitutions


def _hermitian_product(abits: int, aphase: int, bbits: int, bphase: int) -> tuple[int, int]:
    """The product a * b, times i when the product is not Hermitian."""
    bits, phase = _multiply_raw(abits, aphase, bbits, bphase)
    if (phase ^ bits.bit_count() >> 1) & 1:
        phase += 1
    return bits, phase & 3


def _encoder_images(
    result: SynthesisResult, rows: list[int], phases: list[int]
) -> list[MajoranaString]:
    """Encoder images of decoded-frame monomials, reduced to the user register.

    Every monomial is one row of a ``_ModeTableau``, and the decoder runs
    through it backwards once: one replay for all the rows, O(|support| +
    summed pair span), about 7, big-int operations per gate on
    len(rows)-bit ints, and no encoder circuit is built.  The lists are
    consumed.

    If a row pairs oddly with the ancilla pair's decoder image (possible
    only for total-parity codes, where data-local operators of the needed
    kind must have the opposite weight parity), c_0 times it, made
    Hermitian, is taken instead; for a single mode that is i c_0 c_mode.
    Mode 0 lies on no decoded pair, so that flips nothing against them.
    The image then meets the ancilla pair in both modes or neither.  When
    both, multiply by i c_0 c_1 -- a +1 operator at the decoder's input,
    where the ancilla pair is freshly prepared -- to clear them before
    dropping the two slots.
    """
    n, shift = result.total_modes, result.target.pivot_base
    if shift:
        if result.ancilla_image is None:
            raise SynthesisInvariantError("an ancilla result carries no ancilla image")
        image = result.ancilla_image.bits
        for i, bits in enumerate(rows):
            if symplectic_pairing(bits, image):
                rows[i], phases[i] = _hermitian_product(1, 0, bits, phases[i])
    tab = _ModeTableau(rows, n, phases)
    tab.run(result.decoder.gates, inverse=True)
    images = zip(*tab.read())
    if not shift:
        return [MajoranaString(n, bits, phase) for bits, phase in images]
    out = []
    for bits, phase in images:
        if bits & 0b11:
            if bits & 0b11 != 0b11:
                raise SynthesisInvariantError("an encoder image meets the ancilla pair in one mode")
            bits, phase = _multiply_raw(bits, phase, 0b11, 1)
        out.append(MajoranaString(n - shift, bits >> shift, phase))
    return out


def destabilizers(result: SynthesisResult) -> list[MajoranaString]:
    """One Hermitian partner per generator of the code, on user modes, from
    one replay of the decoder: destabilizer j anticommutes with generator j
    and commutes with all the others.

    Single pivot modes pair that way with the decoded pairs, so their
    encoder images do with the substitution-adjusted generators, since
    conjugation preserves pairings.  Each change of generating set (i, j)
    made g_i' = g_i g_j; undoing them in reverse order, d_j <- d_j d_i
    (made Hermitian) keeps the partners dual to the generators before it.
    The walk runs on the pivot-mode rows before the replay, where they are
    sparse: conjugation is an automorphism, so that equals the walk on the
    images.
    """
    pb, r = result.target.pivot_base, result.target.r
    rows, phases = [1 << (pb + 2 * j) for j in range(r)], [0] * r
    for i, j in reversed(result.substitutions):
        rows[j], phases[j] = _hermitian_product(rows[j], phases[j], rows[i], phases[i])
    return _encoder_images(result, rows, phases)


def logical_representatives(
    result: SynthesisResult,
) -> list[tuple[MajoranaString, MajoranaString]]:
    """Encoder images of the logical-region modes, paired, on user modes,
    from one replay of the decoder.

    Each string commutes with every stabilizer generator; the two members
    of a pair anticommute with each other.
    """
    log_start = result.target.pivot_base + 2 * result.target.r
    if log_start == result.total_modes:
        raise ValueError("code has no encoded pairs")
    modes = range(log_start, result.total_modes)
    images = _encoder_images(result, [1 << m for m in modes], [0] * len(modes))
    return list(zip(images[::2], images[1::2]))
