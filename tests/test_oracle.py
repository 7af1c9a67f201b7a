"""The operator oracle: its Jordan-Wigner Pauli strings, their product and
the conjugation fold that `verify --oracle` runs, checked against the
literal dense matrices of tests/dense_reference.py, the symbolic fold, and
the four-term tuple fold of tests/tuple_oracle.py, which `verify --oracle`
ran before and whose own product and collapse are checked here too.

The folds' checks raise without assert, so these tests also run under
python -O, where the pytest.raises cases still show them firing.
"""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tuple_oracle
from braidsynth import cli, majorana, oracle, synth
from braidsynth.codes import (
    CircuitDocument,
    random_circuit,
    random_code,
    serialize_circuit,
    shortest_code,
)
from braidsynth.majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _ModeTableau,
    conjugate_circuit,
    multiply,
)
from braidsynth.oracle import NonMonomialError, _generator, conjugate_rows
from braidsynth.synth import (
    TotalParityObstruction,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from braidsynth.tableau import _working_rows
from dense_reference import (
    conjugate_dense,
    dense_gate,
    dense_majorana,
    dense_monomial,
    dense_pauli,
)
from tuple_oracle import _collapse, _product

N = 6
DIM = 2 ** (N // 2)
# The dense references are checked up to 16 modes: a dense mode matrix on
# N modes has 2^N entries.
DENSE_MAX_MODES = 16


def test_mode_matrices_anticommute():
    """{c_a, c_b} = 2 delta_ab, the whole point of the construction."""
    for a in range(N):
        for b in range(N):
            ca, cb = dense_majorana(N, a), dense_majorana(N, b)
            anti = ca @ cb + cb @ ca
            want = 2 * np.eye(DIM) if a == b else np.zeros((DIM, DIM))
            assert np.array_equal(anti, want)


def test_mode_matrices_are_hermitian_involutions():
    for k in range(N):
        c = dense_majorana(N, k)
        assert np.array_equal(c, c.conj().T)
        assert np.array_equal(c @ c, np.eye(DIM))


def test_mode_matrix_cache_is_write_protected():
    with pytest.raises(ValueError):
        dense_majorana(N, 0)[0, 0] = 5


def test_the_oracle_module_holds_no_complex_matrix():
    """The oracle is integer arithmetic throughout: it imports no numpy, and
    from the package only the types, so no reorder rule, row kernel,
    ``bitlinalg`` or tableau.  The dense complex references it is tested
    against live in tests/dense_reference.py."""
    assert not any(getattr(v, "__name__", "") == "numpy" for v in vars(oracle).values())
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    imported = {
        (node.level, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == {
        (0, "__future__", "annotations"),
        (0, "typing", "Sequence"),
        (1, "majorana", "BraidGate"),
        (1, "majorana", "Circuit"),
        (1, "majorana", "MajoranaString"),
    }


@given(
    st.integers(min_value=0, max_value=(1 << N) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=(1 << N) - 1),
    st.integers(min_value=0, max_value=3),
)
def test_dense_monomial_is_a_homomorphism(abits, ar, bbits, br):
    """Products of monomial matrices equal the matrix of the packed product.

    Every entry is a Gaussian integer, so the comparison is exact.
    """
    a = MajoranaString(N, abits, ar)
    b = MajoranaString(N, bbits, br)
    assert np.array_equal(
        dense_monomial(a) @ dense_monomial(b), dense_monomial(multiply(a, b))
    )


def as_monomial(m):
    return m.modes, m.phase_r


def as_string(n, monomial):
    modes, e = monomial
    return MajoranaString.from_modes(n, modes, e)


@given(
    st.integers(min_value=0, max_value=(1 << N) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=(1 << N) - 1),
    st.integers(min_value=0, max_value=3),
)
def test_product_matches_dense_products(abits, ar, bbits, br):
    """The tuple fold's merge of two mode tuples is the matrix product, with
    either factor the shorter one."""
    a = MajoranaString(N, abits, ar)
    b = MajoranaString(N, bbits, br)
    ab = as_string(N, _product(as_monomial(a), as_monomial(b)))
    assert np.array_equal(dense_monomial(a) @ dense_monomial(b), dense_monomial(ab))


def test_gate_generator_squares_to_identity():
    for gate in (BraidGate("braid2", (1, 4)), BraidGate("braid4", (0, 2, 3, 5), -1)):
        v = dense_monomial(MajoranaString(N, *_generator(gate)))
        assert np.array_equal(v @ v, np.eye(DIM))
        assert np.array_equal(v, v.conj().T)


def test_dense_gate_is_unitary():
    g = BraidGate("braid4", (0, 1, 2, 4))
    u = dense_gate(g, N)
    assert np.allclose(u @ u.conj().T, np.eye(DIM), atol=1e-12)


def test_conjugate_dense_agrees_with_explicit_unitary():
    g = BraidGate("braid2", (2, 3), -1)
    m = dense_majorana(N, 2)
    u = dense_gate(g, N)
    assert np.allclose(conjugate_dense(g, m, N), u @ m @ u.conj().T, atol=1e-12)


def test_gate_and_inverse_cancel():
    g = BraidGate("braid4", (1, 2, 4, 5))
    m = dense_monomial(MajoranaString.from_modes(N, (0, 1, 2), 1))
    assert np.array_equal(conjugate_dense(g.inverse(), conjugate_dense(g, m, N), N), m)


def random_monomial(n, rng):
    return MajoranaString(n, rng.randrange(1 << n), rng.randrange(4))


def test_single_gate_conjugation_matches_conjugate_dense():
    """The Pauli fold agrees with the dense product for every gate
    of a six-mode register, both directions, on a stack of monomials."""
    rng = random.Random(8)
    stack = [MajoranaString.single_mode(N, k) for k in range(N)]
    stack += [MajoranaString(N, 0, r) for r in range(4)]
    stack += [random_monomial(N, rng) for _ in range(10)]
    for arity, kind in ((2, "braid2"), (4, "braid4")):
        for modes in itertools.combinations(range(N), arity):
            for direction in (1, -1):
                g = BraidGate(kind, modes, direction)
                for m, image in zip(stack, conjugate_rows(Circuit(N, (g,)), stack)):
                    assert np.array_equal(
                        dense_monomial(image), conjugate_dense(g, dense_monomial(m), N)
                    )


def test_random_gates_match_conjugate_dense_at_every_register_size():
    rng = random.Random(5)
    for n in range(2, DENSE_MAX_MODES + 1, 2):
        stack = [random_monomial(n, rng) for _ in range(4)]
        for g in random_circuit(n, 8 if n < 14 else 3, rng).gates:
            for m, image in zip(stack, conjugate_rows(Circuit(n, (g,)), stack)):
                assert np.array_equal(
                    dense_monomial(image), conjugate_dense(g, dense_monomial(m), n)
                )


def test_conjugate_modes_matches_the_symbolic_images():
    """Multi-gate folds of single modes and random monomials agree with the
    one-monomial fold of majorana, up to 60 modes."""
    rng = random.Random(3)
    for n in (2, 8, 16, 30, 44, 60):
        circuit = random_circuit(n, 3 * n, rng)
        rows = [MajoranaString.single_mode(n, k) for k in range(n)]
        rows += [random_monomial(n, rng) for _ in range(8)]
        assert conjugate_rows(circuit, rows) == [conjugate_circuit(circuit, m) for m in rows]
    modes = [MajoranaString.single_mode(N, k) for k in range(N)]
    assert conjugate_rows(Circuit(N), modes) == modes
    assert conjugate_rows(random_circuit(N, 5, rng), []) == []


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_mode_strings_are_the_dense_modes(n):
    """Each mode's Jordan-Wigner string is its dense matrix exactly, and
    every monomial's string maps back to the monomial."""
    xs = oracle._x_bits(n)
    for k in range(n):
        assert np.array_equal(dense_pauli(n, *oracle._pauli(1 << k, 0, xs)), dense_majorana(n, k))
    for bits, phase in itertools.product(range(1 << n), range(4)):
        p = oracle._pauli(bits, phase, xs)
        assert oracle._monomial(p, xs) == (bits, phase)
        if n <= N:
            assert np.array_equal(dense_pauli(n, *p), dense_monomial(MajoranaString(n, bits, phase)))


@pytest.mark.parametrize("n", [2, 4])
def test_pauli_product_and_anticommutation_match_dense_matrices(n):
    """Every pair of strings on one and two qubits, every phase: the product
    rule gives the matrix product, and the swapped-bits test says exactly
    when the two anticommute."""
    xs = oracle._x_bits(n)
    strings = list(itertools.product(range(1 << n), range(4)))
    for a, b in itertools.product(strings, repeat=2):
        da, db = dense_pauli(n, *a), dense_pauli(n, *b)
        assert np.array_equal(dense_pauli(n, *oracle._product(a, b, xs)), da @ db)
        anticommutes = (a[0] & oracle._swapped(b[0], xs)).bit_count() & 1
        assert np.array_equal(db @ da, -da @ db if anticommutes else da @ db)


def test_pauli_fold_agrees_with_the_tuple_fold_on_random_circuits():
    """Random rows, random products and random circuits on 2-16 modes."""
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(2, 17, 2)
        circuit = random_circuit(n, rng.randrange(3 * n), rng)
        rows = [random_monomial(n, rng) for _ in range(rng.randrange(6))]
        products = [
            (rng.randrange(len(rows)), rng.randrange(len(rows)))
            for _ in range(rng.randrange(4) if rows else 0)
        ]
        assert conjugate_rows(circuit, rows, products) == tuple_oracle.conjugate_rows(
            circuit, rows, products
        )


@pytest.mark.parametrize("n_modes", [4, 8, 16, 24, 32])
def test_pauli_fold_agrees_with_the_tuple_fold_on_synthesized_decoders(n_modes):
    """The decoders of random codes in both variants, with the rows and
    changes ``verify`` hands the oracle, as synthesized and with one gate's
    direction reversed, which moves the phase of every row it meets oddly."""
    rng = random.Random(n_modes)
    reversals_seen = 0
    for seed in range(4):
        code = random_code(n_modes, rng.randrange(1, n_modes // 2 + 1), seed)
        for ancilla, synthesize in ((True, synthesize_with_ancilla), (False, synthesize_ancilla_free)):
            try:
                result = synthesize(code)
            except TotalParityObstruction:
                continue
            target, bits, phases = _working_rows(code, ancilla)
            rows = [MajoranaString(target.n_modes, b, ph) for b, ph in zip(bits, phases)]
            gates = result.decoder.gates
            k = rng.randrange(len(gates))
            reversed_one = Circuit(target.n_modes, gates[:k] + (gates[k].inverse(),) + gates[k + 1 :])
            folds = [
                conjugate_rows(circuit, rows, result.substitutions)
                for circuit in (result.decoder, reversed_one)
            ]
            for circuit, fold in zip((result.decoder, reversed_one), folds):
                assert fold == tuple_oracle.conjugate_rows(circuit, rows, result.substitutions)
            assert folds[0][: target.r] == list(target.generators())
            reversals_seen += folds[0] != folds[1]
    assert reversals_seen


def wrong_by(flip, generator=_generator):
    """A stand-in for a fold's ``_generator`` that adds flip to the phase."""

    def wrong_generator(gate):
        support, e = generator(gate)
        return support, (e + flip) & 3

    return wrong_generator


@pytest.mark.parametrize("flip", [1, 3])
def test_wrong_generator_phase_is_not_a_monomial(monkeypatch, flip):
    """A generator with the wrong phase squares to -1, which makes
    (1 + iV)/sqrt(2) non-unitary: an anticommuting mode's image keeps two
    terms and a commuting one's none.  The tuple fold raises either way."""
    monkeypatch.setattr(tuple_oracle, "_generator", wrong_by(flip, tuple_oracle._generator))
    gate = BraidGate("braid4", (0, 1, 2, 4))
    circuit = Circuit(N, (BraidGate("braid2", (1, 5)), gate))
    modes = [MajoranaString.single_mode(N, k) for k in range(N)]
    with pytest.raises(
        NonMonomialError, match=r"^gate 0 \(B2 \+\(1,5\)\): image 0 is not a monomial: 0 terms left$"
    ):
        tuple_oracle.conjugate_rows(circuit, modes)
    with pytest.raises(
        NonMonomialError, match=r"^gate 0 \(B4 \+\(0,1,2,4\)\): image 0 is not a monomial: 2 terms left$"
    ):
        tuple_oracle.conjugate_rows(Circuit(N, (gate,)), modes)
    # mode 3 is outside the support and commutes with the generator
    with pytest.raises(NonMonomialError, match=r"image 0 is not a monomial: 0 terms left$"):
        tuple_oracle.conjugate_rows(Circuit(N, (gate,)), modes[3:])


@pytest.mark.parametrize("flip", [1, 3])
def test_pauli_fold_refuses_a_wrong_generator_phase(monkeypatch, flip):
    """The Pauli fold checks V V = +1 at every gate and reports a wrong
    phase as the four-term fold does: with the terms the image of row 0
    would keep.  With no rows there is no image to report."""
    monkeypatch.setattr(oracle, "_generator", wrong_by(flip))
    gate = BraidGate("braid4", (0, 1, 2, 4))
    circuit = Circuit(N, (BraidGate("braid2", (1, 5)), gate))
    modes = [MajoranaString.single_mode(N, k) for k in range(N)]
    with pytest.raises(
        NonMonomialError, match=r"^gate 0 \(B2 \+\(1,5\)\): image 0 is not a monomial: 0 terms left$"
    ):
        conjugate_rows(circuit, modes)
    with pytest.raises(
        NonMonomialError, match=r"^gate 0 \(B4 \+\(0,1,2,4\)\): image 0 is not a monomial: 2 terms left$"
    ):
        conjugate_rows(Circuit(N, (gate,)), modes)
    with pytest.raises(NonMonomialError, match=r"image 0 is not a monomial: 0 terms left$"):
        conjugate_rows(Circuit(N, (gate,)), modes[3:])
    # a wrong phase on the second gate only: the first gate runs as it should
    monkeypatch.setattr(oracle, "_generator", lambda g: wrong_by(flip)(g) if g is gate else _generator(g))
    with pytest.raises(NonMonomialError, match=r"^gate 1 \(B4 \+\(0,1,2,4\)\): image 0 is not a monomial: "):
        conjugate_rows(circuit, modes)
    assert conjugate_rows(circuit, []) == []


def test_non_unit_entry_is_reported():
    """Terms that land on one mode tuple are summed; one left with a sum
    that is not twice a unit is no monomial."""
    with pytest.raises(NonMonomialError, match=r"^the coefficient \(4\+0i\)/2 is not a unit$"):
        _collapse([((0, 1), 0)] * 4)
    with pytest.raises(NonMonomialError, match=r"^the coefficient \(1-1i\)/2 is not a unit$"):
        _collapse([((2,), 0), ((2,), 3)])
    assert _collapse([((0, 1), 1), ((3,), 0), ((0, 1), 1), ((3,), 2)]) == ((0, 1), 1)


def test_two_entries_are_rejected_even_when_they_sum_to_twice_a_unit():
    """Two monomials of coefficient 1 each sum to the valid total 2, but
    they are two terms, so only the count of terms rejects them."""
    with pytest.raises(NonMonomialError, match=r"^2 terms left$"):
        _collapse([((0,), 0), ((1,), 0), ((2,), 0), ((2,), 2)])


def shortest_decoder_document():
    code = shortest_code()
    result = synthesize_with_ancilla(code)
    doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, "decoder")
    return code, doc


def blinded_to(tamper):
    """A tableau class whose replay skips the tamper gate at the decoder's
    end: the symbolic checks then pass a tampered document, and only the
    oracle's own fold of the document's rows can see the gate.  A document
    of either role holds the decoder, so verify replays it forwards and
    the gate is the last."""

    class Blinded(_ModeTableau):
        def run(self, gates, inverse=False):
            assert not inverse
            *kept, last = gates
            assert last == tamper
            super().run(kept)

    return Blinded


def tampered_document(code, extra, role):
    """The code's ancilla decoder with one extra gate at its end (the decoder
    may hold the same gate earlier), as a document of the given role."""
    result = synthesize_with_ancilla(code)
    tampered = Circuit(result.total_modes, result.decoder.gates + (extra,))
    return CircuitDocument(tampered, result.ancilla_modes, result.substitutions, role)


@pytest.mark.parametrize("role", ["decoder", "encoder"])
@pytest.mark.parametrize(
    "code, mode",
    [(shortest_code(), 12), (random_code(10, 2, seed=3), 6), (random_code(40, 10, seed=3), 22)],
    ids=["shortest", "random-10-2-3", "random-40-10-3"],
)
def test_oracle_rejects_an_ancilla_row_the_tableau_misses(monkeypatch, code, mode, role):
    """braid2(0, mode) moves i c0 c1 onto the first logical mode.  With the
    tableau blind to it, the ancilla check accepts -i c0 c1 or the like; the
    oracle folds the row through the real decoder and disagrees, on 42
    modes as on 14."""
    extra = BraidGate("braid2", (0, mode))
    doc = tampered_document(code, extra, role)
    monkeypatch.setattr(cli, "_ModeTableau", blinded_to(extra))
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc, oracle=True))
    assert failure.value.check == "oracle"
    assert str(failure.value) == "oracle: operator conjugation of i c0 c1 disagrees"


def test_oracle_rejects_a_generator_row_the_tableau_misses(monkeypatch):
    """braid2(2, 4) moves generator 0 off its decoded pair (2, 3)."""
    code, extra = shortest_code(), BraidGate("braid2", (2, 4))
    doc = tampered_document(code, extra, "decoder")
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc))
    assert failure.value.check == "decoded-form"
    monkeypatch.setattr(cli, "_ModeTableau", blinded_to(extra))
    assert list(cli.verify_document(code, doc))[0] == "decoded-form check: ok"
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc, oracle=True))
    assert failure.value.check == "oracle"
    assert str(failure.value) == "oracle: operator conjugation of generator 0 disagrees"


def test_verify_oracle_exits_4_on_a_row_the_tableau_misses(monkeypatch, capsys, tmp_path):
    extra = BraidGate("braid2", (0, 12))
    path = tmp_path / "tampered.encoder.circuit"
    path.write_text(serialize_circuit(tampered_document(shortest_code(), extra, "encoder")))
    monkeypatch.setattr(cli, "_ModeTableau", blinded_to(extra))
    assert cli.main(["verify", "--builtin", "shortest", str(path), "--oracle"]) == 4
    captured = capsys.readouterr()
    assert captured.out == (
        "decoded-form check: ok\n"
        "ancilla check: ok (i c0 c1 -> +i c0 c1, residual phase_r 1)\n"
    )
    assert captured.err == (
        "verification failed: oracle: operator conjugation of i c0 c1 disagrees\n"
    )


def test_verify_reports_a_non_monomial_fold(monkeypatch):
    """A wrong generator inside verify_document is an oracle failure, not a pass."""
    code, doc = shortest_decoder_document()

    monkeypatch.setattr(oracle, "_generator", wrong_by(1))
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc, oracle=True))
    assert failure.value.check == "oracle"
    assert f"gate 0 ({doc.circuit.gates[0]}): image " in str(failure.value)
    assert "is not a monomial" in str(failure.value)


def test_oracle_multiplies_the_changes_out_on_its_own(monkeypatch):
    """Synthesis and the decoded-form check share one row-product kernel,
    so a fault in it agrees with itself: patched to flip the phase of the
    product (3, 4), it steers synthesis to a decoder for the wrong
    generating set, which the decoded-form check then accepts.  The oracle
    multiplies the changes out with its own product and disagrees."""
    code, real = shortest_code(), majorana._multiply_rows
    flipped = (3, 4)
    assert flipped in synthesize_with_ancilla(code).substitutions

    def faulty(rows, phases, pairs, n_modes):
        for pair in pairs:
            real(rows, phases, (pair,), n_modes)
            if pair == flipped:
                phases[pair[0]] ^= 2

    monkeypatch.setattr(synth, "_multiply_rows", faulty)
    monkeypatch.setattr(cli, "_multiply_rows", faulty)
    result = synthesize_with_ancilla(code)
    doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, "decoder")
    assert list(cli.verify_document(code, doc))[:2] == [
        "decoded-form check: ok",
        "ancilla check: ok (i c0 c1 -> +i c0 c1, residual phase_r 1)",
    ]
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc, oracle=True))
    assert failure.value.check == "oracle"
    assert str(failure.value) == "oracle: operator conjugation of generator 3 disagrees"
