"""Whole-system acceptance checks.

Each test states one end-to-end guarantee of the package and checks it at
full strength: exact dense-matrix agreement for the gate algebra, structural
facts about the built-in codes, and bulk randomized verification of the
synthesizer's invariants.  Budgets are generous; they exist to catch
accidental blow-ups, not to benchmark.
"""

import itertools
import random
import time

import numpy as np
import pytest

from braidsynth.bitlinalg import BitVec, _pairing_raw, symplectic_pairing
from braidsynth.cli import verify_document
from braidsynth.codes import (
    CircuitDocument,
    kitaev_chain,
    random_circuit,
    random_code,
    shortest_code,
)
from braidsynth.majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _conjugate_raw,
    _ModeTableau,
    conjugate_circuit,
    gate_counts,
)
from braidsynth.oracle import conjugate_rows
from braidsynth.synth import (
    TotalParityObstruction,
    destabilizers,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from braidsynth.tableau import (
    DecodedTarget,
    StabilizerCode,
    apply_circuit,
    contains_total_parity,
)
from dense_reference import conjugate_dense, dense_monomial


def all_gates(n_modes):
    for kind, arity in (("braid2", 2), ("braid4", 4)):
        for modes in itertools.combinations(range(n_modes), arity):
            for direction in (1, -1):
                yield BraidGate(kind, modes, direction)


def decoder_document(result):
    return CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, "decoder")


def decoded_ok(code, result):
    """The decoder document passes `verify`; a failed check raises VerificationFailure."""
    list(verify_document(code, decoder_document(result)))
    return True


@pytest.fixture(scope="module")
def corpus():
    """100 seeded random codes up to 40 modes, synthesized with an ancilla."""
    t0 = time.perf_counter()
    rng = random.Random(417)
    out = []
    for idx in range(100):
        n = 2 * rng.randint(2, 20)
        r = rng.randint(0, n // 2)
        code = random_code(n, r, seed=10_000 + idx)
        out.append((code, synthesize_with_ancilla(code)))
    return out, time.perf_counter() - t0


def test_gate_algebra_matches_dense_oracle_exactly():
    t0 = time.perf_counter()
    checks = 0

    def agree(gate, m, n):
        nonlocal checks
        image = conjugate_circuit(Circuit(n, (gate,)), m)
        assert np.array_equal(
            conjugate_dense(gate, dense_monomial(m), n), dense_monomial(image)
        )
        checks += 1

    for n in (6, 8):
        gates = list(all_gates(n))
        low_weight = [v for v in range(1, 1 << n) if v.bit_count() <= 2]
        for gate in gates:
            for v in low_weight:
                for phase in range(4):
                    agree(gate, MajoranaString(BitVec(n, v), phase), n)
        rng = random.Random(n)
        for _ in range(5000):
            v = rng.randrange(1, 1 << n)
            while v.bit_count() < 3:
                v = rng.randrange(1, 1 << n)
            agree(rng.choice(gates), MajoranaString(BitVec(n, v), rng.randrange(4)), n)

    elapsed = time.perf_counter() - t0
    print(f"exact dense agreement on {checks} conjugations in {elapsed:.1f}s")
    assert checks >= 10_000
    assert elapsed < 60


def test_kitaev_chain_free_run_uses_quadratic_gates_only():
    t0 = time.perf_counter()
    code = kitaev_chain(4)
    result = synthesize_ancilla_free(code)
    assert gate_counts(result.decoder)["braid4"] == 0
    assert decoded_ok(code, result)
    assert time.perf_counter() - t0 < 1


def test_shortest_code_end_to_end_with_ancilla():
    t0 = time.perf_counter()
    code = shortest_code()
    result = synthesize_with_ancilla(code)
    assert result.total_modes == 14

    # decoded form (every generator at +i), ancilla pair, and the oracle's
    # algebra fold of the same rows agreeing with both
    report = list(verify_document(code, decoder_document(result), oracle=True))
    assert report[-1] == "oracle check: ok (14 modes, dimension 128)"

    # the decoder undoes the encoder: the oracle folds every mode through
    # both back to itself exactly
    both = Circuit(14, result.encoder.gates + result.decoder.gates)
    modes = [MajoranaString.single_mode(14, m) for m in range(14)]
    assert conjugate_rows(both, modes) == modes

    assert result.ancilla_image.bits.indices() == (0, 1)
    assert result.ancilla_phase_r in (1, 3)
    assert time.perf_counter() - t0 < 30


def test_circuit_matrices_preserve_the_pairing_form(corpus):
    """The encoder's mode images (the columns of its GF(2) matrix) pair with
    each other as the modes do, and replaying the unit rows through the
    encoder and then the decoder gives them back, phases included."""
    codes, build_seconds = corpus
    t0 = time.perf_counter()
    for _, result in codes:
        n = result.total_modes
        tab = _ModeTableau([1 << m for m in range(n)], n, [0] * n)
        tab.run(result.encoder.gates)
        images = [tab.row(m)[0] for m in range(n)]
        for m, k in itertools.combinations(range(n), 2):
            assert _pairing_raw(images[m], images[k]) == 1
        tab.run(result.decoder.gates)
        assert [tab.row(m) for m in range(n)] == [(1 << m, 0) for m in range(n)]
    assert build_seconds + time.perf_counter() - t0 < 60


def test_gate_count_is_linear_in_rows_times_modes(corpus):
    codes, _ = corpus
    ratios = []
    for code, result in codes:
        r = code.n_stabilizers
        if r == 0:
            assert len(result.decoder) == 0
            continue
        assert len(result.decoder) <= 3 * r * result.total_modes
        ratios.append(len(result.decoder) / (r * result.total_modes))
    print(f"max gate-count constant: {max(ratios):.3f} (bound 3)")


def pinned_parity_code(n, r, seed):
    """A code whose group contains the all-modes parity, with r < n/2."""
    rows = list(DecodedTarget(n, 0, r - 1).generators())
    tail = tuple(range(2 * (r - 1), n))
    w = len(tail)
    rows.append(MajoranaString.from_modes(n, tail, (w * (w - 1) // 2) % 2))
    base = StabilizerCode(n, tuple(rows))
    return apply_circuit(random_circuit(n, 3 * n, random.Random(seed)), base)


def test_total_parity_obstruction_dichotomy():
    t0 = time.perf_counter()
    parity4 = StabilizerCode(4, (MajoranaString.from_modes(4, (0, 1, 2, 3), 0),))
    with pytest.raises(TotalParityObstruction):
        synthesize_ancilla_free(parity4)
    assert decoded_ok(parity4, synthesize_with_ancilla(parity4))

    rng = random.Random(606)
    for trial in range(20):
        n = rng.choice((6, 8, 10, 12))
        r = rng.randint(1, n // 2 - 1)
        code = pinned_parity_code(n, r, seed=trial)
        code.validate()
        assert contains_total_parity(code)
        with pytest.raises(TotalParityObstruction):
            synthesize_ancilla_free(code)
        result = synthesize_with_ancilla(code)
        assert decoded_ok(code, result)
        # the ancilla image stays pinned to the all-modes monomial
        assert result.ancilla_phase_r is None
    assert time.perf_counter() - t0 < 10


def test_encode_then_decode_is_the_identity(corpus):
    codes, _ = corpus
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _, result in codes:
        n = result.total_modes
        ops = [
            (g.support_mask, g.generator_phase)
            for g in result.encoder.gates + result.decoder.gates
        ]
        for _ in range(100):
            bits, phase = rng.randrange(1 << n), rng.randrange(4)
            b, p = bits, phase
            for mask, gp in ops:
                b, p = _conjugate_raw(mask, gp, b, p)
            assert (b, p) == (bits, phase)
    assert time.perf_counter() - t0 < 60


def test_injected_sign_flips_are_corrected_and_reported():
    t0 = time.perf_counter()
    rng = random.Random(88)

    def correction_flips(result):
        lo, hi = result.correction_span
        log_start = result.target.pivot_base + 2 * result.target.r
        flips = []
        for m in range(log_start, result.total_modes):
            img = MajoranaString.single_mode(result.total_modes, m)
            img = conjugate_circuit(Circuit(result.total_modes, result.decoder.gates[lo:hi]), img)
            assert img.bits.value == 1 << m
            if img.phase_r == 2:
                flips.append((m - log_start) // 2)
        return tuple(flips)

    for trial in range(25):
        n = rng.choice((6, 8, 10))
        r = rng.randint(1, n // 2)
        code = random_code(n, r, seed=2_000 + trial)
        flippers = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.choice((2, 4))
            modes = tuple(sorted(rng.sample(range(n), arity)))
            gate = BraidGate(
                "braid2" if arity == 2 else "braid4", modes, rng.choice((1, -1))
            )
            flippers += [gate, gate]  # doubled: pure sign action
        flipped = apply_circuit(Circuit(n, tuple(flippers)), code)
        flipped.validate()
        assert [g.bits for g in flipped.generators] == [g.bits for g in code.generators]

        result = synthesize_with_ancilla(flipped)
        assert decoded_ok(flipped, result)
        assert correction_flips(result) == result.logical_sign_flips
    assert time.perf_counter() - t0 < 30


def test_destabilizer_and_normalizer_contracts():
    t0 = time.perf_counter()
    builtins = [kitaev_chain(s) for s in (2, 3, 4, 5)] + [shortest_code()]
    for code in builtins:
        assert not contains_total_parity(code)
        for synthesize in (synthesize_with_ancilla, synthesize_ancilla_free):
            result = synthesize(code)
            ds = destabilizers(result)
            for j, d in enumerate(ds):
                assert d.is_hermitian()
                for i, g in enumerate(code.generators):
                    assert symplectic_pairing(d.bits, g.bits) == (1 if i == j else 0)

    def in_normalizer(m):
        return not any(symplectic_pairing(m.bits, g.bits) for g in shortest_code().generators)

    assert in_normalizer(MajoranaString.from_modes(12, (0, 2, 4), 1))
    assert not in_normalizer(MajoranaString.from_modes(12, (0, 1), 1))
    assert time.perf_counter() - t0 < 5
