"""Code validation, the decoded target, and group-level predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsynth.codes import kitaev_chain, random_circuit, random_code, shortest_code
from braidsynth.bitlinalg import _transpose_raw, symplectic_pairing
from braidsynth.majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _conjugate_raw,
    _ModeTableau,
    _multiply_raw,
    conjugate_circuit,
)
from braidsynth.tableau import (
    CodeValidationError,
    DecodedTarget,
    StabilizerCode,
    apply_circuit,
    _working_rows,
    contains_total_parity,
)

import random


def gen(n, modes, r):
    return MajoranaString.from_modes(n, modes, r)


def test_constructor_guards():
    with pytest.raises(ValueError):
        StabilizerCode(5, ())
    with pytest.raises(ValueError):
        StabilizerCode(0, ())
    with pytest.raises(ValueError):
        StabilizerCode(4, (gen(6, (0, 1), 1),))


def test_counts():
    code = StabilizerCode(8, (gen(8, (0, 1), 1), gen(8, (2, 3), 1)))
    assert code.n_stabilizers == 2
    assert code.n_logical == 2


def test_validate_odd_weight():
    code = StabilizerCode(4, (gen(4, (0, 1), 1), gen(4, (1, 2, 3), 1)))
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "odd_weight"
    assert exc.value.indices == (1,)


def test_validate_bad_phase():
    # weight 2 needs an odd phase exponent to be Hermitian
    code = StabilizerCode(4, (gen(4, (0, 1), 0),))
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "bad_phase"
    assert exc.value.indices == (0,)


def test_validate_anticommuting():
    code = StabilizerCode(6, (gen(6, (0, 1), 1), gen(6, (4, 5), 1), gen(6, (1, 2), 1)))
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "anticommuting"
    assert exc.value.indices == (0, 2)


def test_validate_dependent():
    code = StabilizerCode(
        6, (gen(6, (0, 1), 1), gen(6, (2, 3), 1), gen(6, (0, 1, 2, 3), 0))
    )
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "dependent"
    assert exc.value.indices == (2,)


def test_validate_checks_weights_before_phases():
    """The check order is part of the contract: earliest failing stage wins."""
    code = StabilizerCode(4, (gen(4, (0, 1), 0), gen(4, (2,), 1)))
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "odd_weight"
    assert exc.value.indices == (1,)


def test_decoded_target_generators():
    t = DecodedTarget(8, 2, 2)
    assert t.generator(0) == gen(8, (2, 3), 1)
    assert t.generator(1) == gen(8, (4, 5), 1)
    assert len(t.generators()) == 2
    with pytest.raises(ValueError):
        t.generator(2)


def test_contains_total_parity_known_cases():
    par = StabilizerCode(4, (gen(4, (0, 1, 2, 3), 0),))
    assert contains_total_parity(par)
    assert not contains_total_parity(kitaev_chain(4))
    assert not contains_total_parity(shortest_code())


@given(st.integers(min_value=0, max_value=400))
def test_full_rank_codes_always_contain_total_parity(seed):
    """r = N/2 forces the all-modes product into the span: the span is a
    maximal isotropic subspace and the all-ones vector pairs evenly with
    every even-weight vector."""
    n = random.Random(seed).choice([4, 6, 8, 10])
    code = random_code(n, n // 2, seed=seed)
    assert contains_total_parity(code)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 9999), st.data())
def test_contains_total_parity_on_dependent_generators(pairs, seed, data):
    """The residue of the appended all-ones column decides the span also
    for a generator list validate refuses as dependent: a valid code with
    the product of some of its generators (the identity when none) put in
    at a random place."""
    n = 2 * pairs
    gens = list(random_code(n, data.draw(st.integers(0, pairs)), seed).generators)
    product = 0
    for j in data.draw(st.sets(st.integers(0, len(gens) - 1)) if gens else st.just(set())):
        product ^= gens[j].bits
    gens.insert(data.draw(st.integers(0, len(gens))), hermitian(n, product))
    code = StabilizerCode(n, tuple(gens))
    with pytest.raises(CodeValidationError) as exc:
        code.validate()
    assert exc.value.kind == "dependent"
    bits = [g.bits for g in gens]
    assert contains_total_parity(code) == (rank(bits + [(1 << n) - 1]) == rank(bits))


@pytest.mark.parametrize("ancilla", [False, True])
def test_working_rows_shift_the_generators_past_the_ancilla_pair(ancilla):
    """Both variants start from these rows: the generators shifted up by
    the pivot base, and with the ancilla pair i c0 c1 as row r, in lists
    the caller may consume without touching the code."""
    code = shortest_code()
    target, bits, phases = _working_rows(code, ancilla)
    base = 2 if ancilla else 0
    assert target == DecodedTarget(12 + base, base, 5)
    gens = code.generators
    assert bits[:5] == [g.bits << base for g in gens]
    assert phases[:5] == [g.phase_r for g in gens]
    assert (bits[5:], phases[5:]) == (([0b11], [1]) if ancilla else ([], []))
    again = _working_rows(code, ancilla)
    assert again == (target, bits, phases)
    assert again[1] is not bits and again[2] is not phases
    bits[0] = phases[0] = 0
    assert code.generators == gens and _working_rows(code, ancilla) == again


@given(st.integers(min_value=0, max_value=300))
def test_apply_circuit_preserves_validity(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    code = random_code(n, rng.randint(0, n // 2), seed=seed + 13)
    moved = apply_circuit(random_circuit(n, 10, rng), code)
    moved.validate()


def test_apply_circuit_mode_mismatch():
    code = StabilizerCode(4, (gen(4, (0, 1), 1),))
    with pytest.raises(ValueError):
        apply_circuit(random_circuit(6, 3, random.Random(0)), code)


def edge_gates(n, rng):
    """Gates whose supports touch mode 0 and mode n-1, in both directions."""
    gates = [BraidGate("braid2", (0, n - 1), rng.choice((1, -1)))]
    if n >= 4:
        inner = tuple(sorted(rng.sample(range(1, n - 1), 2)))
        gates.append(BraidGate("braid4", (0, *inner, n - 1), 1))
        gates.append(BraidGate("braid4", (0, 1, n - 2, n - 1), -1))
    return gates


@pytest.mark.parametrize("n", [2, 4, 6, 10, 66, 130])
def test_apply_circuit_equals_the_per_generator_fold(n):
    """The mode-major replay gives exactly the bits and phases of folding
    each generator through conjugate_circuit on its own."""
    rng = random.Random(1000 + n)
    for trial in range(12):
        gates = random_circuit(n, rng.randint(0, 40), rng).gates
        circuit = Circuit(n, tuple(edge_gates(n, rng)) + gates + tuple(edge_gates(n, rng)))
        code = random_code(n, rng.randint(0, n // 2), seed=trial)
        # rows need not form a code: arbitrary bits and all four phases
        rows = tuple(
            MajoranaString(n, rng.getrandbits(n), rng.randrange(4))
            for _ in range(rng.randint(0, 2 * n))
        )
        for c in (code, StabilizerCode(n, rows)):
            for circ in (circuit, Circuit(n)):
                moved = apply_circuit(circ, c)
                assert moved.generators == tuple(conjugate_circuit(circ, g) for g in c.generators)
                assert moved.n_modes == n and moved.name == c.name


def test_apply_circuit_without_generators():
    empty = StabilizerCode(8, ())
    assert apply_circuit(random_circuit(8, 20, random.Random(3)), empty) == empty


def check_every_row(tab, bits, phases, seen):
    """Every row reads back as the fold, through row() and through the
    column scan, and every row outside dirty still equals its kept int; a
    read keeps what it scanned, so every row is clean after its read."""
    for i, (b, ph) in enumerate(zip(bits, phases)):
        dirty = tab.dirty >> i & 1
        seen.add(dirty)
        if not dirty:
            assert tab.rows[i] == b
        assert tab.row(i) == (b, ph)
        assert tab._scan_row(i) == b
        assert not tab.dirty >> i & 1 and tab.rows[i] == b


def sparse_rows_and_gates(n, rng):
    """A few weight-2 rows on shuffled disjoint pairs, and gates that mostly
    miss them, so some rows stay clean while others go dirty."""
    modes = rng.sample(range(n), n)
    bits = [(1 << modes[2 * i]) | (1 << modes[2 * i + 1]) for i in range(5)]
    used, free = modes[:10], modes[10:]
    gates = edge_gates(n, rng)
    for _ in range(40):
        if rng.random() < 0.15:
            support = (rng.choice(used), rng.choice(free))
        else:
            support = tuple(rng.sample(free, 2 if rng.random() < 0.5 else 4))
        kind = "braid2" if len(support) == 2 else "braid4"
        gates.append(BraidGate(kind, tuple(sorted(support)), rng.choice((1, -1))))
    return bits, gates


def run_rows_against_the_fold(n, bits, gates, rng):
    """Apply the gates, and after each a write of a few random whole
    aligned pairs to one random row, to a tableau and to a row-major list
    folded through _conjugate_raw and _multiply_raw.  Every row must agree
    after every gate and every write.  The pairs are (q, q+1), q =
    pivot_base + 2j, as at synthesis's column start, for pivot bases 0 and
    2; the write lands before the rows are read, so the written row may be
    dirty.  Returns the dirty states the reads saw."""
    seen: set[int] = set()
    for pivot_base in (0, 2):
        lows = range(pivot_base, n - 1, 2)
        rows = list(bits)
        phases = [rng.randrange(4) for _ in rows]
        tab = _ModeTableau(rows, n, list(phases))
        check_every_row(tab, rows, phases, seen)
        for gate in gates:
            tab.run((gate,))
            for i, (b, ph) in enumerate(zip(rows, phases)):
                rows[i], phases[i] = _conjugate_raw(gate.support_mask, gate.generator_phase, b, ph)
            assert tab.read() == (rows, phases)  # the rows the gate changed are dirty
            i = rng.randrange(len(rows))
            pairs = sum(3 << q for q in rng.sample(lows, min(len(lows), rng.randint(0, 3))))
            rows[i], phases[i] = _multiply_raw(rows[i], phases[i], pairs, rng.randrange(4))
            tab.toggle_pairs(i, pairs, phases[i])
            assert not tab.dirty >> i & 1 and tab.rows[i] == rows[i]
            check_every_row(tab, rows, phases, seen)
        assert tab.cols == _transpose_raw(rows, n)
        assert tab.read() == (rows, phases)  # every row is clean
    return seen


@pytest.mark.parametrize("n", [2, 6, 64, 65, 66])
def test_mode_tableau_rows_follow_the_row_major_fold(n):
    """Reading single rows, writing whole aligned pairs to them and
    updating them by gates in the mode-major tableau agrees with a
    row-major list folded through _conjugate_raw and _multiply_raw."""
    rng = random.Random(2000 + n)
    bits = [rng.getrandbits(n) for _ in range(rng.randint(1, 2 * n))]
    gates = edge_gates(n, rng) + list(random_circuit(n, 60, rng).gates)
    run_rows_against_the_fold(n, bits, gates, rng)


@pytest.mark.parametrize("n", [6, 65])
def test_reversing_the_last_gate_equals_running_its_inverse(n):
    """A gate followed by reverse_last on its modes leaves the tableau as
    running the gate's inverse does, gate after gate: the same columns,
    dirty rows and phases."""
    rng = random.Random(3000 + n)
    bits = [rng.getrandbits(n) for _ in range(2 * n)]
    phases = [rng.randrange(4) for _ in bits]
    reversed_, inverse = _ModeTableau(bits, n, list(phases)), _ModeTableau(bits, n, list(phases))
    for gate in edge_gates(n, rng) + list(random_circuit(n, 40, rng).gates):
        reversed_.run((gate,))
        reversed_.reverse_last(gate.modes)
        inverse.run((gate.inverse(),))
        for slot in ("cols", "dirty", "p0", "p1"):
            assert getattr(reversed_, slot) == getattr(inverse, slot), slot
    assert reversed_.read() == inverse.read()


@pytest.mark.parametrize("n", [64, 90])
def test_mode_tableau_sparse_rows_read_clean_and_dirty(n):
    """Sparse rows under gates that mostly miss them: reads take both the
    kept-int path (clean rows) and the column scan (dirty rows), and agree
    with the fold either way."""
    rng = random.Random(3000 + n)
    bits, gates = sparse_rows_and_gates(n, rng)
    assert run_rows_against_the_fold(n, bits, gates, rng) == {0, 1}


def test_mode_tableau_decoded_form_check():
    # the check reads only the first r rows: one extra arbitrary row (the
    # ancilla image during synthesis) changes no verdict; the mask names
    # exactly the row off its pair
    for pivot_base, n, r in ((0, 6, 3), (2, 8, 2), (0, 4, 0)):
        target = DecodedTarget(n, pivot_base, r).generators()
        rows = [g.bits for g in target]
        for tail, tail_phases in (([], []), ([(1 << n) - 1], [2]), ([0b11], [3])):
            phases = [1] * r + tail_phases
            assert _ModeTableau(rows + tail, n, phases).undecoded(pivot_base, r) == 0
            if r:
                flipped = [1] * (r - 1) + [3] + tail_phases
                off = _ModeTableau(rows + tail, n, flipped).undecoded(pivot_base, r)
                assert off == 1 << (r - 1)
                for extra in (1, 1 << (n - 1)):
                    moved = rows[:-1] + [rows[-1] ^ extra] + tail
                    assert _ModeTableau(moved, n, phases).undecoded(pivot_base, r) == 1 << (r - 1)
                every = [0] * r + tail_phases  # +1 on every row's pair
                assert _ModeTableau(rows + tail, n, every).undecoded(pivot_base, r) == (1 << r) - 1


@pytest.mark.parametrize(
    "index, modes, pair",
    [(700, (4, 1401), (1, 700)), (500, (1001, 1003), (500, 501)), (998, (1, 1998), (0, 998))],
)
def test_validate_finds_one_tampered_kitaev_1000_generator(index, modes, pair):
    """kitaev:1000 takes the Gram route; the report names the first pair."""
    code = kitaev_chain(1000)
    gens = list(code.generators)
    gens[index] = gen(code.n_modes, modes, 1)
    with pytest.raises(CodeValidationError) as exc:
        StabilizerCode(code.n_modes, tuple(gens)).validate()
    assert exc.value.kind == "anticommuting"
    assert exc.value.indices == pair
    assert str(exc.value) == f"generators {pair[0]} and {pair[1]} anticommute"


def rank(rows):
    """GF(2) rank by the highest-bit pivot rule, independent of the package."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def reference_validate(code):
    """validate's checks written out: one pairing per generator pair, and
    dependence read off the rank of each prefix."""
    gens = code.generators
    for j, g in enumerate(gens):
        if g.weight % 2:
            return "odd_weight", (j,), f"generator {j} has odd weight {g.weight}"
    for j, g in enumerate(gens):
        if not g.is_hermitian():
            return (
                "bad_phase",
                (j,),
                f"generator {j} has phase i^{g.phase_r}, which is not Hermitian "
                f"for weight {g.weight}",
            )
    for j in range(len(gens)):
        for k in range(j + 1, len(gens)):
            if symplectic_pairing(gens[j].bits, gens[k].bits):
                return "anticommuting", (j, k), f"generators {j} and {k} anticommute"
    for j in range(len(gens)):
        if rank([g.bits for g in gens[: j + 1]]) <= j:
            return "dependent", (j,), f"generator {j} is a product of earlier generators"
    return None


def hermitian(n, bits):
    w = bits.bit_count()
    return MajoranaString(n, bits, (w * (w - 1) // 2) % 2)


@st.composite
def validate_inputs(draw):
    """Sparse codes with many generators (the Gram route) and dense random
    codes (the pairwise route), then at most one change that breaks them."""
    if draw(st.booleans()):
        pairs = draw(st.integers(2, 30))
        n = 2 * pairs
        perm = draw(st.permutations(range(n)))
        rows = [(1 << perm[2 * a]) | (1 << perm[2 * a + 1]) for a in range(pairs)]
        rows = [rows[a] | (rows[a - 1] if a and draw(st.booleans()) else 0) for a in range(pairs)]
        rows = rows[: draw(st.integers(0, pairs))]
        gens = [hermitian(n, v) for v in rows]
    else:
        n = 2 * draw(st.integers(1, 16))
        gens = list(random_code(n, draw(st.integers(0, n // 2)), draw(st.integers(0, 9999))).generators)
    change = draw(st.sampled_from(("none", "even_flip", "odd_flip", "phase", "copy", "product")))
    if gens and change != "none":
        j = draw(st.integers(0, len(gens) - 1))
        i = draw(st.integers(0, len(gens) - 1))
        if change in ("even_flip", "odd_flip"):
            sizes = (2, 4) if change == "even_flip" else (1, 3)
            k = draw(st.sampled_from([k for k in sizes if k <= n]))
            bits = gens[j].bits
            for m in draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)):
                bits ^= 1 << m
            gens[j] = hermitian(n, bits)
        elif change == "phase":
            gens[j] = MajoranaString(n, gens[j].bits, (gens[j].phase_r + 1) % 4)
        elif change == "copy":
            gens.insert(j + 1, gens[i])
        else:
            gens.append(hermitian(n, gens[i].bits ^ gens[j].bits))
    return StabilizerCode(n, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(validate_inputs())
def test_validate_reports_what_the_reference_reports(code):
    try:
        code.validate()
        got = None
    except CodeValidationError as exc:
        got = exc.kind, exc.indices, str(exc)
    assert got == reference_validate(code)
