"""The operator oracle: its phased-permutation arrays and the four-term
conjugation fold that `verify --oracle` runs, checked against the literal
dense matrices of tests/dense_reference.py.

The fold's checks raise without assert, so these tests also run under
python -O, where the pytest.raises cases still show them firing.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsynth import cli, oracle
from braidsynth.bitlinalg import BitVec
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
    invert,
    multiply,
)
from braidsynth.oracle import (
    MAX_MODES,
    NonMonomialError,
    _generator,
    conjugate_arrays,
    conjugate_rows,
    mode_arrays,
    monomial_arrays,
)
from braidsynth.synth import synthesize_with_ancilla
from dense_reference import conjugate_dense, dense_gate, dense_majorana, dense_monomial

N = 6
DIM = 2 ** (N // 2)
# The dense references are checked up to 16 modes: at MAX_MODES = 26 one
# cached dense mode matrix alone takes 1 GiB.
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


def test_register_guards():
    for n, message in ((5, "even number of modes"), (MAX_MODES + 2, "must lie in 2..")):
        with pytest.raises(ValueError, match=message):
            mode_arrays(n)
        with pytest.raises(ValueError, match=message):
            conjugate_rows(Circuit(n), [])


def test_the_oracle_module_holds_no_complex_matrix():
    """The oracle is integer arithmetic throughout; the dense complex
    references it is tested against live in tests/dense_reference.py."""
    complex_arrays = [
        name
        for name, value in vars(oracle).items()
        if isinstance(value, np.ndarray) and np.iscomplexobj(value)
    ]
    assert complex_arrays == []


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
    a = MajoranaString(BitVec(N, abits), ar)
    b = MajoranaString(BitVec(N, bbits), br)
    assert np.array_equal(
        dense_monomial(a) @ dense_monomial(b), dense_monomial(multiply(a, b))
    )


def test_gate_generator_squares_to_identity():
    for gate in (BraidGate("braid2", (1, 4)), BraidGate("braid4", (0, 2, 3, 5), -1)):
        v = dense_monomial(
            MajoranaString.from_modes(N, gate.modes, gate.generator_phase)
        )
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


def as_dense(col, phase):
    """The matrix whose row i holds i^phase[i] in column col[i]."""
    out = np.zeros((len(col), len(col)), dtype=np.complex128)
    out[np.arange(len(col)), col] = 1j ** phase.astype(int)
    return out


def random_monomial(n, rng):
    return MajoranaString(BitVec(n, rng.randrange(1 << n)), rng.randrange(4))


def test_mode_arrays_match_dense_matrices():
    for n in range(2, DENSE_MAX_MODES + 1, 2):
        cols, phases = mode_arrays(n)
        assert cols.shape == phases.shape == (n, 2 ** (n // 2))
        for k in range(n):
            assert np.array_equal(as_dense(cols[k], phases[k]), dense_majorana(n, k))
    with pytest.raises(ValueError):
        mode_arrays(MAX_MODES + 2)
    with pytest.raises(ValueError):
        mode_arrays(MAX_MODES)[0][0, 0] = 1


def test_monomial_arrays_match_dense_products():
    rng = random.Random(5)
    for n in range(2, DENSE_MAX_MODES + 1, 2):
        monomials = [MajoranaString(BitVec(n), r) for r in range(4)]
        monomials += [random_monomial(n, rng) for _ in range(6 if n < 14 else 2)]
        for m in monomials:
            assert np.array_equal(as_dense(*monomial_arrays(m)), dense_monomial(m))


def test_conjugate_arrays_matches_conjugate_dense():
    """The four-term expansion agrees entry by entry with the dense product,
    for every gate of a six-mode register and a stack of monomials."""
    rng = random.Random(8)
    stack = [MajoranaString.single_mode(N, k) for k in range(N)]
    stack += [random_monomial(N, rng) for _ in range(10)]
    arrays = [monomial_arrays(m) for m in stack]
    cols, phases = np.stack([c for c, _ in arrays]), np.stack([p for _, p in arrays])
    for arity, kind in ((2, "braid2"), (4, "braid4")):
        for modes in itertools.combinations(range(N), arity):
            for direction in (1, -1):
                g = BraidGate(kind, modes, direction)
                out_cols, out_phases = conjugate_arrays(cols, phases, _generator(g, N))
                for m, c, p in zip(stack, out_cols, out_phases):
                    assert np.array_equal(as_dense(c, p), conjugate_dense(g, dense_monomial(m), N))


def test_conjugate_modes_matches_the_symbolic_images():
    rng = random.Random(3)
    for n in (2, 8, DENSE_MAX_MODES):
        circuit = random_circuit(n, 3 * n, rng)
        cols, phases = conjugate_rows(circuit, [MajoranaString.single_mode(n, k) for k in range(n)])
        for k in range(n):
            image = conjugate_circuit(circuit, MajoranaString.single_mode(n, k))
            col, phase = monomial_arrays(image)
            assert np.array_equal(cols[k], col) and np.array_equal(phases[k], phase)
    modes = [MajoranaString.single_mode(N, k) for k in range(N)]
    identity = conjugate_rows(Circuit(N), modes)
    assert all(np.array_equal(a, b) for a, b in zip(identity, mode_arrays(N)))
    cols, phases = conjugate_rows(random_circuit(N, 5, rng), [])
    assert cols.shape == phases.shape == (0, DIM)


@pytest.mark.parametrize("flip", [1, 3])
def test_wrong_generator_phase_is_not_a_monomial(flip):
    """A generator with the wrong phase makes (I + iV)/sqrt(2) non-unitary:
    a commuting mode's image vanishes and an anticommuting one gets two
    entries.  The fold raises either way."""
    cols, phases = mode_arrays(N)
    vcol, vphase = _generator(BraidGate("braid4", (0, 1, 2, 4)), N)
    wrong = (vcol, (vphase + flip) & 3)
    with pytest.raises(NonMonomialError, match=r"^image 0 is not a monomial: row 0 has 2 nonzero"):
        conjugate_arrays(cols, phases, wrong)
    # mode 3 is outside the support and commutes with the generator
    with pytest.raises(NonMonomialError, match=r"^image 0 is not a monomial: row 0 has 0 nonzero"):
        conjugate_arrays(cols[3:], phases[3:], wrong)


def test_non_unit_entry_is_reported():
    """A diagonal generator lands all four terms on one column; with the
    wrong phase their sum is not twice a unit."""
    cols, phases = mode_arrays(N)
    vcol, vphase = _generator(BraidGate("braid2", (0, 1)), N)
    assert np.array_equal(vcol, np.arange(len(vcol)))
    with pytest.raises(NonMonomialError, match=r"row 0 has the entry \(4\+0i\)/2, not a unit$"):
        conjugate_arrays(cols[:1], phases[:1], (vcol, (vphase + 1) & 3))


def test_two_entries_are_rejected_even_when_they_sum_to_twice_a_unit():
    """With a V that is not an involution (a cyclic shift), i V M and -i M V
    cancel and M + V M V leaves two entries of 1 in every row: the row sum is
    2, a valid total, so only the column check rejects it."""
    d = 8
    identity = np.arange(d, dtype=np.int16)[None], np.zeros((1, d), np.int8)
    shift = (np.roll(np.arange(d, dtype=np.int16), -1), np.zeros(d, np.int8))
    with pytest.raises(NonMonomialError, match=r"^image 0 is not a monomial: row 0 has 2 nonzero"):
        conjugate_arrays(*identity, shift)


def shortest_decoder_document():
    code = shortest_code()
    result = synthesize_with_ancilla(code)
    doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, "decoder")
    return code, doc


def blinded_to(tamper):
    """A tableau class whose replay skips the tamper gate at the decoder's
    end: the symbolic checks then pass a tampered document, and only the
    oracle's own fold of the document's rows can see the gate.  An encoder
    is replayed backwards, so there the gate is the first, as its inverse."""

    class Blinded(_ModeTableau):
        def run(self, gates, inverse=False):
            if inverse:
                first, *kept = gates
                assert first == tamper.inverse()
            else:
                *kept, last = gates
                assert last == tamper
            super().run(kept, inverse)

    return Blinded


def tampered_document(code, extra, role):
    """The code's ancilla decoder with one extra gate at its end (the decoder
    may hold the same gate earlier), written as the given role."""
    result = synthesize_with_ancilla(code)
    tampered = Circuit(result.total_modes, result.decoder.gates + (extra,))
    circuit = tampered if role == "decoder" else invert(tampered)
    return CircuitDocument(circuit, result.ancilla_modes, result.substitutions, role)


@pytest.mark.parametrize("role", ["decoder", "encoder"])
@pytest.mark.parametrize(
    "code, mode",
    [(shortest_code(), 12), (random_code(10, 2, seed=3), 6)],
    ids=["shortest", "random-10-2-3"],
)
def test_oracle_rejects_an_ancilla_row_the_tableau_misses(monkeypatch, code, mode, role):
    """braid2(0, mode) moves i c0 c1 onto the first logical mode.  With the
    tableau blind to it, the ancilla check accepts -i c0 c1 or the like; the
    oracle folds the row through the real decoder and disagrees."""
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
        "verification failed (oracle): oracle: operator conjugation of i c0 c1 disagrees\n"
    )


def test_verify_reports_a_non_monomial_fold(monkeypatch):
    """A wrong generator inside verify_document is an oracle failure, not a pass."""
    code, doc = shortest_decoder_document()

    def wrong_generator(gate, n_modes):
        col, phase = _generator(gate, n_modes)
        return col, (phase + 1) & 3

    monkeypatch.setattr(oracle, "_generator", wrong_generator)
    with pytest.raises(cli.VerificationFailure) as failure:
        list(cli.verify_document(code, doc, oracle=True))
    assert failure.value.check == "oracle"
    assert f"gate 0 ({doc.circuit.gates[0]}): image " in str(failure.value)
    assert "is not a monomial" in str(failure.value)
