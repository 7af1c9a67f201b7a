"""Monomial algebra and braid conjugation, including frozen worked examples.

The product reference below re-derives signs by explicit bubble sort over
generator sequences (anticommute on swap, square to one), so the packed
kernel is checked against an implementation that shares none of its code.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidsynth import majorana
from braidsynth.bitlinalg import symplectic_pairing
from braidsynth.codes import kitaev_chain, random_circuit, random_code
from braidsynth.majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _conjugate_raw,
    _ModeTableau,
    _multiply_rows,
    conjugate_circuit,
    gate_counts,
    invert,
    multiply,
)
from braidsynth.synth import synthesize_ancilla_free, synthesize_with_ancilla

N = 10
packed = st.integers(min_value=0, max_value=(1 << N) - 1)
phases = st.integers(min_value=0, max_value=3)


def slow_multiply(amodes, ar, bmodes, br):
    """Sort the concatenated generator sequence, tracking the sign."""
    seq = list(amodes) + list(bmodes)
    r = (ar + br) % 4
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            if seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                changed = True
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                r = (r + 2) % 4
                changed = True
            else:
                i += 1
    return tuple(seq), r


def mk(bits: int, r: int) -> MajoranaString:
    return MajoranaString(N, bits, r)


def conjugate(gate: BraidGate, m: MajoranaString) -> MajoranaString:
    """One gate's conjugation, straight from the kernel."""
    bits, phase = _conjugate_raw(gate.support_mask, gate.generator_phase, m.bits, m.phase_r)
    return MajoranaString(m.n_modes, bits, phase)


def random_gates(n_modes, count, seed):
    rng = random.Random(seed)
    gates = []
    for _ in range(count):
        arity = rng.choice((2, 4)) if n_modes >= 4 else 2
        modes = tuple(sorted(rng.sample(range(n_modes), arity)))
        gates.append(BraidGate("braid2" if arity == 2 else "braid4", modes, rng.choice((1, -1))))
    return gates


# ---- frozen examples ----


def test_quadratic_braid_rotates_the_pair():
    g = BraidGate("braid2", (0, 1))
    c0 = MajoranaString.single_mode(4, 0)
    c1 = MajoranaString.single_mode(4, 1)
    assert conjugate(g, c0) == MajoranaString.from_modes(4, (1,), 0)  # c0 -> c1
    assert conjugate(g, c1) == MajoranaString.from_modes(4, (0,), 2)  # c1 -> -c0
    # the rotation has order four
    m = c0
    for _ in range(4):
        m = conjugate(g, m)
    assert m == c0


def test_quadratic_braid_inverse_direction():
    g = BraidGate("braid2", (0, 1), -1)
    c0 = MajoranaString.single_mode(4, 0)
    assert conjugate(g, c0) == MajoranaString.from_modes(4, (1,), 2)  # c0 -> -c1


def test_quartic_braid_on_one_mode_of_support():
    g = BraidGate("braid4", (0, 1, 2, 3))
    c0 = MajoranaString.single_mode(6, 0)
    assert conjugate(g, c0) == MajoranaString.from_modes(6, (1, 2, 3), 3)  # -i c1c2c3


def test_even_overlap_is_fixed():
    g = BraidGate("braid4", (0, 1, 2, 3))
    m = MajoranaString.from_modes(6, (0, 1), 1)
    assert conjugate(g, m) == m


def test_product_example():
    a = MajoranaString.from_modes(4, (0, 1), 1)
    b = MajoranaString.from_modes(4, (1, 2), 1)
    assert multiply(a, b) == MajoranaString.from_modes(4, (0, 2), 2)  # -c0c2
    assert multiply(a, a) == MajoranaString(4)  # (i c0c1)^2 = +1


def test_string_rendering():
    assert str(MajoranaString.from_modes(4, (0, 2), 3)) == "-i c0 c2"
    assert str(MajoranaString(4)) == "+1"
    assert str(BraidGate("braid4", (0, 2, 3, 4))) == "B4 +(0,2,3,4)"
    assert str(BraidGate("braid2", (1, 5), -1)) == "B2 -(1,5)"


def test_majorana_string_construction():
    m = MajoranaString.from_modes(6, (0, 3, 5), 2)
    assert m == MajoranaString(6, 0b101001, 2)
    assert (m.n_modes, m.bits, m.phase_r) == (6, 0b101001, 2)
    assert m.weight == 3
    assert m.modes == (0, 3, 5)
    assert MajoranaString(4) == MajoranaString(4, 0, 0)
    assert MajoranaString(0).modes == ()


def test_majorana_string_rejects_bad_values():
    with pytest.raises(ValueError, match="do not fit in 4 modes"):
        MajoranaString(4, 16)  # bits too wide
    with pytest.raises(ValueError, match="do not fit in 4 modes"):
        MajoranaString(4, -1)  # negative bits
    with pytest.raises(ValueError, match="mode 4 out of range for 4 modes"):
        MajoranaString.from_modes(4, (4,))
    with pytest.raises(ValueError, match="mode -1 out of range"):
        MajoranaString.from_modes(4, (-1,))
    with pytest.raises(ValueError, match="n_modes must be nonnegative"):
        MajoranaString(-1)
    with pytest.raises(ValueError, match="phase_r must lie in 0..3"):
        MajoranaString(4, 0, 4)


def test_from_modes_names_a_set():
    """The modes are a set in any order, and the monomial is their product
    in ascending order; a repeated mode is refused, not cancelled."""
    assert str(MajoranaString.from_modes(4, (3, 1))) == "+1 c1 c3"
    assert MajoranaString.from_modes(4, iter([2, 0]), 1) == MajoranaString(4, 0b101, 1)
    assert MajoranaString.from_modes(4, ()) == MajoranaString(4)
    for modes in ((1, 1), (0, 2, 0), [3, 3, 3]):
        with pytest.raises(ValueError, match="modes must be distinct"):
            MajoranaString.from_modes(4, modes)


# ---- properties ----


@given(packed, phases, packed, phases)
def test_multiply_matches_bubble_sort(abits, ar, bbits, br):
    a, b = mk(abits, ar), mk(bbits, br)
    modes, r = slow_multiply(a.modes, ar, b.modes, br)
    assert multiply(a, b) == MajoranaString.from_modes(N, modes, r)


def fold_of_multiply(n, rows, phases, pairs):
    """One multiply per pair, in order: the reference for _multiply_rows."""
    strings = [MajoranaString(n, b, ph) for b, ph in zip(rows, phases)]
    for i, j in pairs:
        strings[i] = multiply(strings[i], strings[j])
    return [m.bits for m in strings], [m.phase_r for m in strings]


@pytest.mark.parametrize("n, n_rows, seed", [(10, 6, 1), (64, 12, 2), (400, 100, 3)])
def test_multiply_rows_is_the_fold_of_multiply(monkeypatch, n, n_rows, seed):
    """The row-product kernel agrees with one multiply per pair: on a run
    of equal j, which builds row j's prefix parities once; on a run broken
    by an entry (j, x), which changes row j, so the run after it builds
    them again; on a pair (i, i), which changes row i; and on random
    pairs, on dense rows of up to 400 modes."""
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(n_rows)]
    phases = [rng.randrange(4) for _ in rows]
    below = majorana._below_parity
    calls = []
    monkeypatch.setattr(majorana, "_below_parity", lambda v, w: calls.append(v) or below(v, w))
    run = [(k, 0) for k in range(1, n_rows)]
    broken = [(2, 0), (3, 0), (0, 1), (4, 0), (5, 0)]
    squared = [(3, 2), (2, 2), (4, 2)]
    scattered = [tuple(rng.sample(range(n_rows), 2)) for _ in range(5 * n_rows)]
    for pairs, builds in ((run, 1), (broken, 3), (squared, 2), (scattered, None)):
        got_rows, got_phases = list(rows), list(phases)
        calls.clear()
        _multiply_rows(got_rows, got_phases, pairs, n)
        assert (got_rows, got_phases) == fold_of_multiply(n, rows, phases, pairs)
        assert builds is None or len(calls) == builds


@given(packed, phases, packed, phases, packed, phases)
def test_multiply_associative(xb, xr, yb, yr, zb, zr):
    x, y, z = mk(xb, xr), mk(yb, yr), mk(zb, zr)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@given(packed, phases)
def test_identity_is_neutral(bits, r):
    m = mk(bits, r)
    one = MajoranaString(N)
    assert multiply(one, m) == m == multiply(m, one)


@given(packed)
def test_hermitian_strings_square_to_plus_one(bits):
    w = bits.bit_count()
    m = mk(bits, (w * (w - 1) // 2) % 4)
    assert m.is_hermitian()
    assert multiply(m, m) == MajoranaString(N)


@given(packed, phases, st.integers())
def test_conjugation_round_trips_through_the_inverse_gate(bits, r, seed):
    gate = random_gates(N, 1, seed)[0]
    m = mk(bits, r)
    assert conjugate(gate.inverse(), conjugate(gate, m)) == m


@given(packed, phases, st.integers())
def test_conjugation_preserves_hermiticity(bits, r, seed):
    gate = random_gates(N, 1, seed)[0]
    m = mk(bits, r)
    assert conjugate(gate, m).is_hermitian() == m.is_hermitian()


@given(packed, phases, st.integers())
def test_circuit_conjugation_is_the_gate_fold(bits, r, seed):
    gates = random_gates(N, 12, seed)
    m = mk(bits, r)
    expected = m
    for g in gates:
        expected = conjugate(g, expected)
    assert conjugate_circuit(Circuit(N, tuple(gates)), m) == expected


@given(packed, phases, st.integers())
def test_invert_undoes_the_circuit(bits, r, seed):
    c = Circuit(N, tuple(random_gates(N, 15, seed)))
    m = mk(bits, r)
    assert conjugate_circuit(invert(c), conjugate_circuit(c, m)) == m


def circuit_columns(c: Circuit) -> list[int]:
    """The columns of a circuit's GF(2) matrix: the bits of the unit rows
    replayed through one tableau."""
    tab = _ModeTableau([1 << j for j in range(c.n_modes)], c.n_modes, [0] * c.n_modes)
    tab.run(c.gates)
    return [tab.row(j)[0] for j in range(c.n_modes)]


def gate_columns(gate: BraidGate, n: int) -> list[int]:
    """One gate's matrix, column j the kernel's image of mode j."""
    return [_conjugate_raw(gate.support_mask, gate.generator_phase, 1 << j, 0)[0] for j in range(n)]


def naive_matmul(a: list[int], b: list[int]) -> list[int]:
    """A @ B on column-packed matrices: column j of the product is the XOR
    of the columns of A picked by column j of B."""
    out = []
    for col in b:
        acc = 0
        for i, a_col in enumerate(a):
            if col >> i & 1:
                acc ^= a_col
        out.append(acc)
    return out


@given(st.integers())
def test_gate_matrix_columns_are_single_mode_images(seed):
    gate = random_gates(N, 1, seed)[0]
    cols = circuit_columns(Circuit(N, (gate,)))
    for j in range(N):
        img = conjugate(gate, MajoranaString.single_mode(N, j))
        assert cols[j] == img.bits
    assert cols == gate_columns(gate, N)


@given(st.integers())
def test_circuit_matrix_is_the_matrix_product(seed):
    gates = random_gates(N, 8, seed)
    acc = [1 << j for j in range(N)]
    for g in gates:
        acc = naive_matmul(gate_columns(g, N), acc)
    assert circuit_columns(Circuit(N, tuple(gates))) == acc


@given(st.integers())
def test_circuit_matrix_is_symplectic(seed):
    """C^T L C == L entry by entry, L the fermionic form: distinct mode
    images anticommute and each image commutes with itself."""
    cols = circuit_columns(Circuit(N, tuple(random_gates(N, 10, seed))))
    for i in range(N):
        for j in range(N):
            u, v = cols[i], cols[j]
            pairing = (u.bit_count() * v.bit_count() + (u & v).bit_count()) & 1
            assert pairing == (i != j)


@pytest.mark.parametrize("n", [2, 4, 70])
def test_circuit_matrix_columns_are_the_mode_images(n):
    """Column j of a circuit's GF(2) matrix is the image of mode j: the unit
    rows replayed through one tableau equal each mode's fold, phases
    included.  Wide registers and supports on the first and last mode."""
    rng = random.Random(n)
    edges = [BraidGate("braid2", (0, n - 1))]
    if n >= 4:
        edges.append(BraidGate("braid4", (0, 1, n - 2, n - 1), -1))
    gates = edges + random_gates(n, 30, n) + edges
    c = Circuit(n, tuple(rng.sample(gates, len(gates))))
    tab = _ModeTableau([1 << j for j in range(n)], n, [0] * n)
    tab.run(c.gates)
    for j in range(n):
        image = conjugate_circuit(c, MajoranaString.single_mode(n, j))
        assert tab.row(j) == (image.bits, image.phase_r)


def test_every_support_shape_on_nine_modes():
    """Every braid2 and braid4 support on 9 modes, in both directions, so
    every pair span from 1 to 8 is taken: each gate through apply equals
    the row-major fold, one run
    over the whole sequence leaves the same tableau as the applies, and a
    backwards run leaves the same tableau as a run of the inverted circuit."""
    n = 9
    rng = random.Random(9)
    gates = [
        BraidGate(kind, support, direction)
        for kind, size in (("braid2", 2), ("braid4", 4))
        for support in itertools.combinations(range(n), size)
        for direction in (1, -1)
    ]
    rng.shuffle(gates)
    start = [rng.getrandbits(n) for _ in range(12)]
    start_phases = [rng.randrange(4) for _ in start]
    bits, phases = list(start), list(start_phases)
    applied = _ModeTableau(start, n, start_phases)
    for gate in gates:
        applied.run((gate,))
        for i, (b, ph) in enumerate(zip(bits, phases)):
            bits[i], phases[i] = _conjugate_raw(gate.support_mask, gate.generator_phase, b, ph)
            assert applied.row(i) == (bits[i], phases[i])
    ran = _ModeTableau(start, n, start_phases)
    ran.run(gates)
    # the reads above kept every row of applied; reading ran's rows keeps them too
    assert [ran.row(i) for i in range(len(start))] == list(zip(bits, phases))
    for name in ("cols", "p0", "p1", "rows", "dirty"):
        assert getattr(ran, name) == getattr(applied, name), name
    backwards = _ModeTableau(start, n, start_phases)
    backwards.run(gates, inverse=True)
    inverted = _ModeTableau(start, n, start_phases)
    inverted.run(invert(Circuit(n, tuple(gates))).gates)
    for name in ("cols", "p0", "p1", "dirty"):
        assert getattr(backwards, name) == getattr(inverted, name), name


def summed_pair_span(gate):
    """(a2 - a1) for a braid2, (a2 - a1) + (a4 - a3) for a braid4: the
    columns ``_ModeTableau.run`` XORs for the gate's reorder parities."""
    modes = gate.modes
    return sum(modes[1::2]) - sum(modes[::2])


@pytest.mark.parametrize("synthesize", [synthesize_with_ancilla, synthesize_ancilla_free])
def test_synthesized_decoders_braid_near_the_pivot(synthesize):
    """The tableau's per-gate cost is the summed pair span, which stays
    small because synthesis braids next to the active pivot: below 8 per
    gate on average on random codes (6.43 at n = 100, 6.97 at n = 400,
    either variant), and exactly 2 on every kitaev:1000 gate."""
    for n in (100, 400):
        gates = synthesize(random_code(n, n // 4, 1)).decoder.gates
        assert sum(map(summed_pair_span, gates)) < 8 * len(gates), n
    assert set(map(summed_pair_span, synthesize(kitaev_chain(1000)).decoder.gates)) == {2}


@pytest.mark.parametrize("n", [6, 8])
def test_braid_bit_action_preserves_the_pairing(n):
    """Every braid2 and braid4 gate on n modes maps the bits of every pair of
    monomials to a pair with the same pairing.  On the bits a braid on
    support m is the transvection v -> v + (v.m) m with |m| even, which is
    why verify needs no check of the fermionic pairing."""
    monomials = range(1 << n)
    pairing = np.array([[symplectic_pairing(u, v) for v in monomials] for u in monomials])
    gates = [
        BraidGate(kind, modes)
        for kind, arity in (("braid2", 2), ("braid4", 4))
        for modes in itertools.combinations(range(n), arity)
    ]
    for gate in gates:
        image = np.array([_conjugate_raw(gate.support_mask, 0, u, 0)[0] for u in monomials])
        assert np.array_equal(pairing[np.ix_(image, image)], pairing), gate


# ---- structure validation and text form ----


def test_braid_gate_validation():
    """Each failure has one exact message; when several apply, the first
    check in the order kind, length, sign, ascent, direction wins."""
    cases = [
        (("braid3", (0, 1)), "unknown gate kind 'braid3'"),
        (("braid2", (0, 1, 2)), "braid2 needs 2 modes"),
        (("braid4", (0, 1)), "braid4 needs 4 modes"),
        (("braid2", (-1, 0)), "modes must be nonnegative"),
        (("braid4", (0, 1, 2, -3)), "modes must be nonnegative"),
        (("braid2", (1, 0)), "modes must be strictly ascending"),
        (("braid2", (0, 0)), "modes must be strictly ascending"),
        (("braid4", (0, 2, 1, 3)), "modes must be strictly ascending"),
        (("braid2", (0, 1), 2), "direction must be +1 or -1"),
        (("braid4", (0, 1, 2, 3), 0), "direction must be +1 or -1"),
        # two failures at once: the earlier check reports
        (("braid2", (1, -1)), "modes must be nonnegative"),
        (("braid3", (0, 1, 2)), "unknown gate kind 'braid3'"),
        (("braid4", (-1, 0)), "braid4 needs 4 modes"),
        (("braid2", (1, 0), 2), "modes must be strictly ascending"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            BraidGate(*args)
        assert str(exc.value) == message, args
        with pytest.raises(ValueError) as exc:
            BraidGate(**dict(zip(("kind", "modes", "direction"), args)))
        assert str(exc.value) == message, args


def test_keyword_construction_and_replace():
    """The hand-written constructor takes the field names as keywords, and
    dataclasses.replace goes through it, so a replaced gate is checked and
    carries the generator phase of its own direction."""
    gate = BraidGate(kind="braid4", modes=(0, 2, 5, 7), direction=1)
    assert gate == BraidGate("braid4", (0, 2, 5, 7))
    assert BraidGate(modes=(1, 3), kind="braid2") == BraidGate("braid2", (1, 3), 1)
    flipped = dataclasses.replace(gate, direction=-1)
    assert flipped == gate.inverse() and hash(flipped) == hash(gate.inverse())
    assert flipped.generator_phase == gate.generator_phase ^ 2 == 2
    assert repr(flipped) == "BraidGate(kind='braid4', modes=(0, 2, 5, 7), direction=-1)"
    with pytest.raises(ValueError, match="direction must be"):
        dataclasses.replace(gate, direction=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.direction = -1


@pytest.mark.parametrize("seed", range(4))
def test_inverse_equals_the_validated_negated_gate(seed):
    """inverse() builds the gate the constructor gives for the negated
    direction, generator phase and support mask included."""
    c = random_circuit(40, 200, random.Random(seed))
    for k, g in enumerate(c.gates):
        if k % 2:
            g.support_mask  # reading the mask first must not change inverse()
        inv = g.inverse()
        fresh = BraidGate(g.kind, g.modes, -g.direction)
        assert inv == fresh and hash(inv) == hash(fresh)
        assert str(inv) == str(fresh) and repr(inv) == repr(fresh)
        assert inv.support_mask == fresh.support_mask
        assert inv.generator_phase == fresh.generator_phase
        assert inv.inverse() == g and inv.inverse().generator_phase == g.generator_phase
    assert invert(invert(c)) == c


def test_circuit_checks_gate_range():
    with pytest.raises(ValueError):
        Circuit(3, (BraidGate("braid2", (2, 3)),))
    assert len(Circuit(4, (BraidGate("braid2", (2, 3)),))) == 1


def test_gate_counts():
    c = Circuit(6, tuple(random_gates(6, 9, 3)))
    counts = gate_counts(c)
    assert counts["braid2"] + counts["braid4"] == 9

