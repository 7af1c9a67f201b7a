"""Decoder synthesis: both variants, reporting fields, and failure modes."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsynth.bitlinalg import symplectic_pairing
from braidsynth.cli import VerificationFailure, main, verify_document
from braidsynth.codes import (
    CircuitDocument,
    CircuitFormatError,
    kitaev_chain,
    random_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from braidsynth.majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    _ModeTableau,
    conjugate_circuit,
    gate_counts,
    invert,
    multiply,
)
from braidsynth.synth import (
    PhaseCorrectionError,
    SynthesisInvariantError,
    SynthesisResult,
    TotalParityObstruction,
    destabilizers,
    logical_representatives,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from braidsynth.tableau import DecodedTarget, StabilizerCode, apply_circuit, contains_total_parity


def gens(n_modes, *rows):
    return tuple(MajoranaString.from_modes(n_modes, m, r) for m, r in rows)


PARITY4 = StabilizerCode(4, gens(4, ((0, 1, 2, 3), 0)), name="parity4")


def documents(result: SynthesisResult) -> list[CircuitDocument]:
    """The decoder and the encoder document `braidsynth synth` would write;
    both hold the decoder, and only the order of the written gates differs."""
    return [
        CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, role)
        for role in ("decoder", "encoder")
    ]


def folded_ancilla_image(result: SynthesisResult) -> MajoranaString:
    """i c_0 c_1 conjugated through the whole decoder, independently of the
    tableau row that the synthesis folds it in."""
    return conjugate_circuit(
        result.decoder, MajoranaString.from_modes(result.total_modes, (0, 1), 1)
    )


def decoded_ok(code: StabilizerCode, result: SynthesisResult) -> bool:
    """Both documents pass `verify`; a failed check raises VerificationFailure."""
    for doc in documents(result):
        list(verify_document(code, doc))
    return True


def check_phase_correction(result: SynthesisResult) -> None:
    """The correction gates are braid2s that move no bit, and the logical
    representatives, signs included, are each logical mode folded alone
    through the encoder."""
    lo, hi = result.correction_span
    n, log_start = result.total_modes, result.target.pivot_base + 2 * result.target.r
    correction = Circuit(n, result.decoder.gates[lo:hi])
    assert all(g.kind == "braid2" for g in correction.gates)
    for m in range(n):
        img = conjugate_circuit(correction, MajoranaString.single_mode(n, m))
        assert img.bits == 1 << m  # doubled braids never move bits
    if log_start < n:
        encoder = invert(result.decoder)
        logical = [per_mode_encoder_image(result, encoder, m) for m in range(log_start, n)]
        assert logical_representatives(result) == list(zip(logical[::2], logical[1::2]))


def split_substitutions(result: SynthesisResult) -> tuple[tuple, tuple]:
    """The back-substitution's leading products (k, i), k < i, and the
    column starts' (i, j), j < i, after them."""
    subs = result.substitutions
    cut = next((t for t, (a, b) in enumerate(subs) if a > b), len(subs))
    return subs[:cut], subs[cut:]


def check_reported_operators(code: StabilizerCode, result: SynthesisResult):
    ds = destabilizers(result)
    assert len(ds) == code.n_stabilizers
    for j, d in enumerate(ds):
        assert d.n_modes == code.n_modes
        assert d.is_hermitian()
        for i, g in enumerate(code.generators):
            assert symplectic_pairing(d.bits, g.bits) == (1 if i == j else 0)
    if code.n_logical == 0:
        return
    reps = logical_representatives(result)
    assert len(reps) == code.n_logical
    for x, z in reps:
        assert x.is_hermitian() and z.is_hermitian()
        assert symplectic_pairing(x.bits, z.bits) == 1
        for g in code.generators:
            assert symplectic_pairing(x.bits, g.bits) == 0
            assert symplectic_pairing(z.bits, g.bits) == 0


def test_kitaev_chain_free_run_needs_no_quartic_gates():
    code = kitaev_chain(4)
    result = synthesize_ancilla_free(code)
    assert gate_counts(result.decoder) == {"braid2": 3, "braid4": 0}
    assert result.total_modes == 8
    assert result.ancilla_modes == ()
    assert result.ancilla_image is None and result.ancilla_phase_r is None
    assert result.substitutions == ()
    assert decoded_ok(code, result)


def test_shortest_code_with_ancilla():
    code = shortest_code()
    result = synthesize_with_ancilla(code)
    assert result.total_modes == 14
    assert result.ancilla_modes == (0, 1)
    assert gate_counts(result.decoder) == {"braid2": 6, "braid4": 3}
    assert len(result.substitutions) == 4
    assert decoded_ok(code, result)
    # the ancilla pair comes back to (0, 1), up to a reported sign
    assert result.ancilla_image is not None
    assert result.ancilla_image.modes == (0, 1)
    assert result.ancilla_phase_r == 1
    assert str(result.ancilla_image) == "+i c0 c1"
    assert result.ancilla_image == folded_ancilla_image(result)
    check_reported_operators(code, result)


def test_ancilla_shrink_takes_one_gate_on_a_clear_tail_mode():
    """Each shrink step is one braid4 on the lowest clear tail mode, and a
    four-mode row that keeps a set slot lands on its pair in that braid4, so
    no column of this code needs a braid2.  Each back-substitution product
    and each decoded pair a column holds is one recorded substitution and
    no gate, which these counts pin; the ancilla pair is never touched, so
    no gate follows the phase correction."""
    code = random_code(100, 25, seed=1)
    result = synthesize_with_ancilla(code)
    assert gate_counts(result.decoder) == {"braid2": 0, "braid4": 400}
    back, column_starts = split_substitutions(result)
    assert (len(back), len(column_starts)) == (153, 143)
    assert len(result.decoder) - result.correction_span[1] == 0
    assert decoded_ok(code, result)
    assert result.ancilla_image == folded_ancilla_image(result)


def test_all_ones_tail_with_ancilla_parks_on_mode_0():
    """parity4's generator covers its whole tail (modes 2..5), so no clear
    tail mode exists and the shrink step parks on the ancilla's mode 0; its
    pinned image is checked by test_total_parity_pins_the_ancilla_image."""
    result = synthesize_with_ancilla(PARITY4)
    assert result.decoder.gates[:2] == (
        BraidGate("braid4", (0, 2, 3, 4)),
        BraidGate("braid2", (0, 2)),
    )
    assert result.substitutions == ()


def test_verify_document_is_the_cli_verifier():
    code = shortest_code()
    result = synthesize_with_ancilla(code)
    for doc in documents(result):
        assert list(verify_document(code, doc, oracle=True)) == [
            "decoded-form check: ok",
            "ancilla check: ok (i c0 c1 -> +i c0 c1, residual phase_r 1)",
            "oracle check: ok (14 modes, dimension 128)",
        ]
    decoder, encoder = documents(result)

    short = Circuit(decoder.circuit.n_modes, decoder.circuit.gates[1:])
    with pytest.raises(VerificationFailure) as failure:
        list(verify_document(code, dataclasses.replace(decoder, circuit=short)))
    assert failure.value.check == "decoded-form"

    bad_sub = dataclasses.replace(encoder, substitutions=((0, code.n_stabilizers),))
    with pytest.raises(CircuitFormatError, match="out of range"):
        list(verify_document(code, bad_sub))


def test_encoder_is_the_reversed_inverse():
    result = synthesize_with_ancilla(shortest_code())
    assert result.encoder.gates == tuple(
        g.inverse() for g in reversed(result.decoder.gates)
    )


def test_total_parity_obstructs_the_ancilla_free_variant():
    assert contains_total_parity(PARITY4)
    with pytest.raises(TotalParityObstruction):
        synthesize_ancilla_free(PARITY4)


def test_total_parity_pins_the_ancilla_image():
    result = synthesize_with_ancilla(PARITY4)
    assert decoded_ok(PARITY4, result)
    # the image cannot be brought back to the bare pair: it is stuck on the
    # all-modes monomial times the decoded generator
    assert result.ancilla_phase_r is None
    assert result.ancilla_image.modes == (0, 1, 4, 5)
    assert result.ancilla_image.phase_r == 0
    assert result.ancilla_image == folded_ancilla_image(result)
    [d] = destabilizers(result)
    assert str(d) == "+i c0 c1 c2"
    [(x, z)] = logical_representatives(result)
    assert (str(x), str(z)) == ("-i c0 c2", "-i c0 c1")
    check_reported_operators(PARITY4, result)


def test_full_stabilizer_rank_can_still_reset_cleanly():
    # k = 0 forces the total parity into the group, but when the generator
    # product IS the total parity the pinned image is the bare pair itself
    code = StabilizerCode(4, gens(4, ((0, 1), 1), ((2, 3), 1)))
    assert contains_total_parity(code)
    result = synthesize_with_ancilla(code)
    assert result.ancilla_image.modes == (0, 1)
    assert result.ancilla_phase_r == result.ancilla_image.phase_r == 1


def test_derived_fields_follow_a_replaced_result():
    """total_modes, ancilla_modes and ancilla_phase_r are read off the
    decoder, the target and the ancilla image, so ``dataclasses.replace``
    cannot leave them stale."""
    result = synthesize_with_ancilla(shortest_code())
    assert (result.total_modes, result.ancilla_phase_r) == (14, 1)
    for r in (result, synthesize_ancilla_free(shortest_code())):
        assert r.ancilla_modes == ((0, 1) if r.target.pivot_base else ())
    assert "ancilla_modes" not in {f.name for f in dataclasses.fields(result)}
    moved = dataclasses.replace(result, target=DecodedTarget(14, 0, 5))
    assert moved.ancilla_modes == ()
    assert dataclasses.replace(moved, target=result.target).ancilla_modes == (0, 1)
    assert dataclasses.replace(result, ancilla_image=None).ancilla_phase_r is None
    flipped = MajoranaString.from_modes(14, (0, 1), 3)
    assert dataclasses.replace(result, ancilla_image=flipped).ancilla_phase_r == 3
    pinned = MajoranaString.from_modes(14, (0, 1, 4, 5), 0)
    assert dataclasses.replace(result, ancilla_image=pinned).ancilla_phase_r is None
    assert dataclasses.replace(result, decoder=Circuit(16)).total_modes == 16


def test_lone_minus_i_generator_with_no_room_fails():
    code = StabilizerCode(4, gens(4, ((0, 1), 3), ((2, 3), 1)))
    with pytest.raises(PhaseCorrectionError):
        synthesize_ancilla_free(code)


def test_paired_minus_i_generators_fix_each_other():
    code = StabilizerCode(4, gens(4, ((0, 1), 3), ((2, 3), 3)))
    result = synthesize_ancilla_free(code)
    assert decoded_ok(code, result)
    lo, hi = result.correction_span
    assert hi - lo == 2  # one doubled quadratic braid handles both signs


def test_ancilla_rescues_the_lone_minus_i_generator():
    code = StabilizerCode(4, gens(4, ((0, 1), 3), ((2, 3), 1)))
    result = synthesize_with_ancilla(code)
    assert decoded_ok(code, result)


@pytest.mark.parametrize(
    "code, free_gates, ancilla_gates, reps",
    [
        (
            StabilizerCode(8, gens(8, ((0, 1), 3))),
            ["B2 +(0,2)"] * 2,
            ["B2 +(2,4)"] * 2,
            [("-1 c2", "+1 c3"), ("+1 c4", "+1 c5"), ("+1 c6", "+1 c7")],
        ),
        (
            StabilizerCode(6, gens(6, ((0, 1), 3), ((2, 3), 1))),
            ["B2 +(0,4)"] * 2,
            ["B2 +(2,6)"] * 2,
            [("-1 c4", "+1 c5")],
        ),
        (
            StabilizerCode(4, gens(4, ((0, 1), 3), ((2, 3), 3))),
            ["B2 +(0,2)"] * 2,
            ["B2 +(0,2)"] * 2 + ["B2 +(0,4)"] * 2,
            None,
        ),
    ],
    ids=["one-generator", "one-of-two", "full-rank"],
)
def test_each_correction_is_a_doubled_braid2_to_one_free_mode(
    code, free_gates, ancilla_gates, reps
):
    """A generator left at -i by a column that emitted no gate gets one
    doubled braid2 from its pivot to the first logical mode, or to mode 0
    when the ancilla variant has none; ancilla-free with none, the pivot of
    the next -i generator takes its place.  The representatives carry the
    braids' signs: the logical mode a braid holds flips, its partner in the
    pair does not."""
    for synth, want in (
        (synthesize_ancilla_free, free_gates),
        (synthesize_with_ancilla, ancilla_gates),
    ):
        result = synth(code)
        assert result.correction_span == (0, len(want))
        assert [str(g) for g in result.decoder.gates] == want
        assert str(result.ancilla_image) == ("+i c0 c1" if result.ancilla_modes else "None")
        if reps is None:
            with pytest.raises(ValueError, match="^code has no encoded pairs$"):
                logical_representatives(result)
        else:
            assert [(str(x), str(z)) for x, z in logical_representatives(result)] == reps
        assert decoded_ok(code, result)
        check_phase_correction(result)


def test_last_column_falls_back_to_a_substitution():
    code = StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2)))
    result = synthesize_ancilla_free(code)
    assert result.substitutions == ((1, 0),)
    assert len(result.decoder) == 0
    assert decoded_ok(code, result)


def test_last_column_substitutes_with_an_ancilla_too():
    """The ancilla twin of the substitution above: generator 1 holds the
    decoded pair of generator 0, which its column clears by the same
    recorded substitution, leaving it on its own slots with no gate."""
    code = StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2)))
    result = synthesize_with_ancilla(code)
    assert result.substitutions == ((1, 0),)
    assert len(result.decoder) == 0
    for doc in documents(result):
        list(verify_document(code, doc, oracle=True))


def test_all_ones_tail_borrows_another_generator(tmp_path):
    # r = N/2: generator 1's tail (modes 2..5) would be all ones, with no
    # clear mode to park on; generator 2's top mode is 3, so the
    # back-substitution multiplies generator 1 by it first, before any gate
    code = StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1)))
    result = synthesize_ancilla_free(code)
    assert result.substitutions == ((1, 2),)
    assert split_substitutions(result) == (((1, 2),), ())
    assert decoded_ok(code, result)
    code_file, circ = tmp_path / "borrow.code", tmp_path / "borrow.circuit"
    code_file.write_text(serialize_code(code))
    argv = ["synth", str(code_file), "--ancilla-free", "--decoder", "-o", str(circ)]
    assert main(argv) == 0
    assert main(["verify", str(code_file), str(circ)]) == 0

    unsigned = StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 0), ((2, 3), 1)))
    with pytest.raises(PhaseCorrectionError):
        synthesize_ancilla_free(unsigned)


def test_broken_tableau_raises_invariant_error(monkeypatch):
    # a tableau that drops its phase updates leaves -c0 c1 c2 c3 at phase -1;
    # the explicit check catches that, also under python -O
    run = _ModeTableau.run

    def run_without_phases(self, gates, inverse=False):
        p0, p1 = self.p0, self.p1
        run(self, gates, inverse)
        self.p0, self.p1 = p0, p1

    monkeypatch.setattr(_ModeTableau, "run", run_without_phases)
    code = StabilizerCode(4, gens(4, ((0, 1, 2, 3), 2)))
    with pytest.raises(SynthesisInvariantError, match="decoded form"):
        synthesize_with_ancilla(code)


def test_a_stray_ancilla_image_raises_invariant_error(monkeypatch):
    """A tableau that loses mode 1 of the i c0 c1 row leaves an image that
    is neither the bare pair nor pinned by the total parity."""
    row = _ModeTableau.row

    def without_mode_1(self, i):
        bits, phase = row(self, i)
        return bits & ~0b10, phase

    monkeypatch.setattr(_ModeTableau, "row", without_mode_1)
    with pytest.raises(SynthesisInvariantError, match="ancilla image"):
        synthesize_with_ancilla(shortest_code())


def test_a_row_on_one_mode_of_a_decoded_pair_raises_invariant_error(monkeypatch):
    """Generator 1 holds generator 0's whole pair; a tableau that loses its
    mode 1 leaves a row meeting the pair in one mode, which the column-start
    check refuses instead of substituting."""
    row = _ModeTableau.row

    def without_mode_1(self, i):
        bits, phase = row(self, i)
        return (bits & ~0b10 if i == 1 else bits), phase

    monkeypatch.setattr(_ModeTableau, "row", without_mode_1)
    code = StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2)))
    with pytest.raises(SynthesisInvariantError, match="meets decoded pair 0, 1 in one mode only"):
        synthesize_ancilla_free(code)


def synthesis_outcomes(code: StabilizerCode) -> list:
    """Both variants' results, or the refusal each raised."""
    out = []
    for synth in (synthesize_with_ancilla, synthesize_ancilla_free):
        try:
            out.append(synth(code))
        except (TotalParityObstruction, PhaseCorrectionError) as exc:
            out.append((type(exc), str(exc)))
    return out


def lightly_scrambled_code(n: int, r: int, seed: int) -> StabilizerCode:
    """r decoded pairs in shuffled order, scrambled by only n/2 random gates,
    so many rows reach their column before any gate has touched them."""
    rng = random.Random(seed)
    pairs = rng.sample(DecodedTarget(n, 0, n // 2).generators(), r)
    return apply_circuit(random_circuit(n, n // 2, rng), StabilizerCode(n, tuple(pairs)))


def counting_scans(monkeypatch) -> list[int]:
    """Record the row index of every O(N) column scan of a tableau row."""
    scans: list[int] = []
    scan = _ModeTableau._scan_row

    def counted(self, i):
        scans.append(i)
        return scan(self, i)

    monkeypatch.setattr(_ModeTableau, "_scan_row", counted)
    return scans


def test_kept_rows_change_no_synthesis(monkeypatch):
    """Synthesis with clean rows read from the tableau's kept ints equals
    synthesis with every row scanned out of the columns."""
    kitaev = kitaev_chain(40)
    shuffled = random.Random(40).sample(kitaev.generators, kitaev.n_stabilizers)
    light = [(12, 3), (16, 8), (20, 4), (30, 15), (40, 10)]
    codes = [
        shortest_code(),
        StabilizerCode(kitaev.n_modes, tuple(shuffled)),
        # the all-ones-tail code: a back-substitution product, kept before
        # the tableau is built
        StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))),
        *(lightly_scrambled_code(n, r, seed) for seed, (n, r) in enumerate(light)),
    ]
    scans = counting_scans(monkeypatch)
    kept = [synthesis_outcomes(code) for code in codes]
    kept_scans = len(scans)

    monkeypatch.setattr(_ModeTableau, "row", lambda self, i: (self._scan_row(i), self.phase(i)))
    scans.clear()
    assert [synthesis_outcomes(code) for code in codes] == kept
    assert kept_scans < len(scans)  # the kept rows served some reads
    assert any(r.substitutions for out in kept for r in out if isinstance(r, SynthesisResult))


def test_kitaev_1000_sweep_scans_no_row(monkeypatch):
    """Every kitaev-chain gate changes only the active row, so each row the
    sweep reads is still clean: no O(N) scan in either variant."""
    scans = counting_scans(monkeypatch)
    code = kitaev_chain(1000)
    synthesize_with_ancilla(code)
    synthesize_ancilla_free(code)
    assert scans == []


def test_the_sweep_runs_its_tableau_once_per_column(monkeypatch):
    """The tableau runs a column's gates in one batch at the column's end,
    where the phase its last gate's direction is chosen from is read, and
    all correction gates in one last batch, so a synthesis calls run at
    most once per column plus once, not once per gate.  random_code(400,
    100, 1) needs no correction and the aligned pairs at -i need two, in
    both variants.  No substitution runs anything: the back-substitution's
    come before any gate, and the sweep's own are column starts (i, j),
    j < i, that clear decoded pairs.  Every gate runs exactly once."""
    batches: list[int] = []
    run = _ModeTableau.run

    def counted(self, gates, inverse=False):
        batches.append(len(gates))
        run(self, gates, inverse)

    monkeypatch.setattr(_ModeTableau, "run", counted)
    two_at_minus_i = StabilizerCode(8, gens(8, ((0, 1), 3), ((2, 3), 3)))
    for code, corrections in ((random_code(400, 100, 1), 0), (two_at_minus_i, 2)):
        for synth in (synthesize_with_ancilla, synthesize_ancilla_free):
            batches.clear()
            result = synth(code)
            lo, hi = result.correction_span
            assert hi - lo == 2 * corrections
            assert len(batches) <= code.n_stabilizers + (hi > lo)
            assert all(batches) and sum(batches) == len(result.decoder)
            if hi > lo:
                assert batches[-1] == hi - lo  # all corrections in one last batch
            back, column_starts = split_substitutions(result)
            assert (back or code is two_at_minus_i) and all(j < i for i, j in column_starts)


def reference_back_substitution(code: StabilizerCode):
    """The back-substitution written from its definition, one generator and
    one mode at a time with multiply: for i from r - 1 down to 1, every
    generator k < i holding generator i's top mode times generator i."""
    rows, subs = list(code.generators), []
    for i in range(code.n_stabilizers - 1, 0, -1):
        top = rows[i].bits.bit_length() - 1
        for k in range(i):
            if rows[k].bits >> top & 1:
                rows[k] = multiply(rows[k], rows[i])
                subs.append((k, i))
    return tuple(subs), rows


def test_back_substitution_matches_its_definition():
    """The recorded substitutions start with the back-substitution's, in
    its order, each (k, i) with k < i; the column starts (i, j), j < i,
    follow.  Afterwards no generator k < i holds generator i's top mode,
    and the substitution-adjusted rows are the reference's, phases
    included.  Both variants record the same ones."""
    rng = random.Random(25)
    codes = [shortest_code(), PARITY4, mixed_total_parity_code(8, 4, 8)]
    for seed in range(150):
        n = 2 * rng.randint(2, 12)
        if seed % 3 == 0:
            codes.append(random_code(n, rng.randint(0, n // 2), seed))
        elif seed % 3 == 1:
            codes.append(scrambled_total_parity_code(n, rng.randint(1, n // 2), seed))
        else:
            codes.append(mixed_total_parity_code(n, rng.randint(2, n // 2), seed))
    products = 0
    for code in codes:
        want, rows = reference_back_substitution(code)
        for i in range(1, len(rows)):
            top = rows[i].bits.bit_length() - 1
            assert not any(rows[k].bits >> top & 1 for k in range(i))
        for result in synthesis_outcomes(code):
            if not isinstance(result, SynthesisResult):
                continue
            back, column_starts = split_substitutions(result)
            assert back == want
            assert all(k < i for k, i in back) and all(j < i for i, j in column_starts)
            folded = list(code.generators)
            for k, i in back:
                folded[k] = multiply(folded[k], folded[i])
            assert folded == rows
        products += len(want)
    assert products


@pytest.mark.parametrize("n", [4, 30, 1000])
def test_kitaev_chains_need_no_back_substitution(n):
    """Each chain generator's top mode lies on no earlier generator."""
    code = kitaev_chain(n)
    for result in (synthesize_with_ancilla(code), synthesize_ancilla_free(code)):
        assert result.substitutions == ()


def test_without_the_back_substitution_the_sweep_refuses(monkeypatch):
    """Two invariants the back-substitution keeps, shown by skipping it:
    ancilla-free, mixed_total_parity_code(8, 4, 8) reaches an all-ones
    tail before its last column, where the sweep once borrowed a later
    generator; with the ancilla, mixed_total_parity_code(16, 6, 3) parks on
    mode 0 before its last column, and the next column starts on mode 0,
    where the sweep once took a parity step."""
    monkeypatch.setattr("braidsynth.synth._back_substitute", lambda rows, phases, r: [])
    with pytest.raises(SynthesisInvariantError, match="^generator 1 has an all-ones tail of 6"):
        synthesize_ancilla_free(mixed_total_parity_code(8, 4, 8))
    with pytest.raises(SynthesisInvariantError, match="holds mode 0 at its column start"):
        synthesize_with_ancilla(mixed_total_parity_code(16, 6, 3))
    # and with it both synthesize, as pinned in PINNED_DECODERS
    monkeypatch.undo()
    synthesize_ancilla_free(mixed_total_parity_code(8, 4, 8))
    synthesize_with_ancilla(mixed_total_parity_code(16, 6, 3))


@pytest.mark.parametrize("synth", [synthesize_with_ancilla, synthesize_ancilla_free])
def test_reported_operators_pair_on_a_400_mode_code(synth):
    """destabilizers undo thousands of back-substitution products on the
    pivot modes; both reports still pair as the contract says."""
    code = random_code(400, 100, 1)
    result = synth(code)
    assert len(split_substitutions(result)[0]) > 2000
    check_reported_operators(code, result)


def test_oracle_verifies_a_back_substituted_document():
    """The operator oracle folds the code's generators with every recorded
    substitution multiplied out, back-substitution products first, on a
    24-mode ancilla document, and agrees with the bit-level checks."""
    code = random_code(22, 6, seed=3)
    result = synthesize_with_ancilla(code)
    assert result.total_modes == 24 and split_substitutions(result)[0]
    for doc in documents(result):
        lines = list(verify_document(code, doc, oracle=True))
        assert lines[-1] == "oracle check: ok (24 modes, dimension 4096)"


def test_empty_code_decodes_with_no_gates():
    code = StabilizerCode(4, ())
    for result in (synthesize_ancilla_free(code), synthesize_with_ancilla(code)):
        assert len(result.decoder) == 0
        assert decoded_ok(code, result)
        assert destabilizers(result) == []
        check_reported_operators(code, result)


def test_no_representatives_without_encoded_pairs():
    result = synthesize_with_ancilla(random_code(6, 3, seed=5))
    with pytest.raises(ValueError):
        logical_representatives(result)


def hermitian(m: MajoranaString) -> MajoranaString:
    """m, times i when m is not Hermitian."""
    return m if m.is_hermitian() else MajoranaString(m.n_modes, m.bits, (m.phase_r + 1) % 4)


def per_mode_encoder_image(result: SynthesisResult, encoder: Circuit, m: MajoranaString | int):
    """One monomial (or mode) folded alone through the encoder with
    conjugate_circuit and reduced to the user register: the reference the
    one-replay images are compared with.  A monomial pairing oddly with the
    ancilla image is taken as c0 times it, made Hermitian (i c0 c_mode for a
    mode), and an image on both ancilla modes is multiplied by i c0 c1."""
    n = result.total_modes
    if isinstance(m, int):
        m = MajoranaString.single_mode(n, m)
    if not result.ancilla_modes:
        return conjugate_circuit(encoder, m)
    if symplectic_pairing(m.bits, result.ancilla_image.bits):
        m = hermitian(multiply(MajoranaString.single_mode(n, 0), m))
    img = conjugate_circuit(encoder, m)
    if img.bits & 0b11:
        assert img.bits & 0b11 == 0b11
        img = multiply(img, MajoranaString.from_modes(n, (0, 1), 1))
    return MajoranaString(n - 2, img.bits >> 2, img.phase_r)


def scrambled_total_parity_code(n: int, r: int, seed: int) -> StabilizerCode:
    """r - 1 decoded pairs and the parity of the other modes, so the group
    contains the total parity, in shuffled order and scrambled by 4n gates."""
    rng = random.Random(seed)
    rows = list(DecodedTarget(n, 0, r - 1).generators())
    tail = tuple(range(2 * (r - 1), n))
    rows.append(MajoranaString.from_modes(n, tail, (len(tail) * (len(tail) - 1) // 2) % 2))
    rng.shuffle(rows)
    return apply_circuit(random_circuit(n, 4 * n, rng), StabilizerCode(n, tuple(rows)))


def mixed_total_parity_code(n: int, r: int, seed: int) -> StabilizerCode:
    """A scrambled total-parity code whose generators are then multiplied
    together in 2r random pairs, so the parity spreads over several rows."""
    rng = random.Random(seed)
    rows = list(scrambled_total_parity_code(n, r, seed).generators)
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        rows[i] = multiply(rows[i], rows[j])
    return StabilizerCode(n, tuple(rows))


def undone_pivot_modes(result: SynthesisResult) -> list[MajoranaString]:
    """The pivot modes with the recorded substitutions undone in reverse
    order, d_j <- d_j d_i made Hermitian, with multiply on whole monomials."""
    pb, r, n = result.target.pivot_base, result.target.r, result.total_modes
    ds = [MajoranaString.single_mode(n, pb + 2 * j) for j in range(r)]
    for i, j in reversed(result.substitutions):
        ds[j] = hermitian(multiply(ds[j], ds[i]))
    return ds


def test_reported_operators_equal_the_per_mode_fold():
    """destabilizers and logical_representatives, from one replay, equal the
    images of each input folded alone through invert(decoder), refusals
    included, for both variants: each logical mode, and each pivot mode
    after the substitutions are undone.  Each result also keeps the
    pairing contract against the code's own generators."""
    codes = [shortest_code(), kitaev_chain(4), kitaev_chain(30), PARITY4]
    codes += [  # substitutions, a parked pair step and a clean full-rank reset
        StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2))),
        StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))),
        StabilizerCode(4, gens(4, ((0, 1), 1), ((2, 3), 1))),
    ]
    rng = random.Random(18)
    for seed in range(120):
        n = 2 * rng.randint(2, 12)
        if seed % 2:
            codes.append(random_code(n, rng.randint(0, n // 2), seed))
        else:
            codes.append(scrambled_total_parity_code(n, rng.randint(1, n // 2), seed))
    swapped = substituted = 0
    for code in codes:
        for result in synthesis_outcomes(code):
            if not isinstance(result, SynthesisResult):
                continue
            encoder = invert(result.decoder)
            pb, r, n = result.target.pivot_base, result.target.r, result.total_modes
            want = [per_mode_encoder_image(result, encoder, d) for d in undone_pivot_modes(result)]
            assert destabilizers(result) == want
            logical = [per_mode_encoder_image(result, encoder, m) for m in range(pb + 2 * r, n)]
            if logical:
                assert logical_representatives(result) == list(zip(logical[::2], logical[1::2]))
            else:
                with pytest.raises(ValueError, match="^code has no encoded pairs$"):
                    logical_representatives(result)
            if result.ancilla_image is not None:
                image = result.ancilla_image.bits
                swapped += any(
                    symplectic_pairing(1 << m, image) for m in range(pb, n)
                )
            substituted += bool(result.substitutions)
            check_reported_operators(code, result)
    # both reductions of the ancilla variant, and substitutions, were reached
    assert swapped and substituted


@pytest.mark.parametrize("synth", [synthesize_with_ancilla, synthesize_ancilla_free])
@pytest.mark.parametrize(
    "code",
    [
        StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2))),
        StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))),
    ],
    ids=["pair-step-substitution", "shrink-substitution"],
)
def test_destabilizers_pair_with_the_code_generators(code, synth):
    """Destabilizer j anticommutes with the code's own generator j only, not
    with the substitution-adjusted one: the pairing matrix is the identity
    (before the substitutions were undone it was [[1, 1], [0, 1]] and
    [[1, 0, 0], [0, 1, 0], [0, 1, 1]] ancilla-free)."""
    result = synth(code)
    ds = destabilizers(result)
    assert all(d.is_hermitian() for d in ds)
    pairing = [[symplectic_pairing(d.bits, g.bits) for g in code.generators] for d in ds]
    r = code.n_stabilizers
    assert pairing == [[int(i == j) for i in range(r)] for j in range(r)]
    if synth is synthesize_ancilla_free:
        assert result.substitutions


def test_reported_operators_take_one_replay(monkeypatch):
    """Each call runs the decoder backwards through one tableau, once, and
    neither builds the encoder nor folds a mode on its own."""
    result = synthesize_with_ancilla(random_code(400, 100, 1))
    runs = []
    run = _ModeTableau.run

    def counting_run(self, gates, inverse=False):
        runs.append((len(gates), inverse))
        run(self, gates, inverse)

    def per_mode_path(*args):
        raise AssertionError("the encoder images took a per-mode path")

    monkeypatch.setattr(_ModeTableau, "run", counting_run)
    monkeypatch.setattr("braidsynth.synth.invert", per_mode_path)
    monkeypatch.setattr("braidsynth.synth.conjugate_circuit", per_mode_path, raising=False)
    monkeypatch.setattr("braidsynth.majorana.conjugate_circuit", per_mode_path)
    for report in (destabilizers, logical_representatives):
        runs.clear()
        report(result)
        assert runs == [(len(result.decoder), True)]


def test_an_image_on_both_ancilla_modes_is_cleared_by_i_c0_c1():
    """No synthesized decoder touches mode 1, so no real image meets the
    ancilla pair.  A decoder of one braid4(0, 1, 2, 3) fixes i c0 c1 and
    sends pivot mode 2 back to i c0 c1 c3; times i c0 c1, a +1 operator on
    the fresh pair, that is c3, user mode 1."""
    result = synthesize_with_ancilla(shortest_code())
    result = dataclasses.replace(
        result,
        decoder=Circuit(result.total_modes, (BraidGate("braid4", (0, 1, 2, 3)),)),
        substitutions=(),
    )
    encoder = invert(result.decoder)
    assert str(conjugate_circuit(encoder, MajoranaString.single_mode(14, 2))) == "+i c0 c1 c3"
    d = destabilizers(result)[0]
    assert str(d) == "+1 c1"
    assert d == per_mode_encoder_image(result, encoder, 2)


@pytest.mark.parametrize("report, mode", [(destabilizers, 2), (logical_representatives, 12)])
def test_encoder_image_invariants_raise(report, mode):
    """Both checks of the encoder images raise SynthesisInvariantError, not
    assert, so they also fire under python -O."""
    result = synthesize_with_ancilla(shortest_code())
    assert result.target.pivot_base + 2 * result.target.r == 12
    with pytest.raises(SynthesisInvariantError, match="carries no ancilla image"):
        report(dataclasses.replace(result, ancilla_image=None))
    # with a decoder of one braid2(1, mode), the mode's encoder image is c1
    stray = Circuit(result.total_modes, (BraidGate("braid2", (1, mode)),))
    with pytest.raises(SynthesisInvariantError, match="meets the ancilla pair in one mode"):
        report(dataclasses.replace(result, decoder=stray))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_codes_decode_in_both_variants(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8, 10, 12])
    r = rng.randint(0, n // 2)
    code = random_code(n, r, seed=seed)
    ptot = contains_total_parity(code)
    # scrambling a decoded form keeps the total parity in the group
    # exactly when every mode pair was a stabilizer to begin with
    assert ptot == (code.n_logical == 0)

    result = synthesize_with_ancilla(code)
    assert result.total_modes == n + 2
    assert decoded_ok(code, result)
    assert len(result.decoder) <= 3 * r * result.total_modes
    assert result.ancilla_image.bits & 0b11 == 0b11
    assert result.ancilla_image == folded_ancilla_image(result)
    clean = result.ancilla_image.bits == 0b11
    assert (result.ancilla_phase_r is not None) == clean
    if not ptot:
        assert clean and result.ancilla_phase_r in (1, 3)
    check_phase_correction(result)
    check_reported_operators(code, result)

    try:
        free = synthesize_ancilla_free(code)
    except TotalParityObstruction:
        assert ptot and r < n // 2
        return
    except PhaseCorrectionError:
        assert code.n_logical == 0
        return
    assert free.total_modes == n and free.ancilla_modes == ()
    assert free.ancilla_image is None and free.ancilla_phase_r is None
    assert decoded_ok(code, free)
    assert len(free.decoder) <= 3 * r * n
    check_phase_correction(free)
    check_reported_operators(code, free)


def shifted(gates, by: int) -> tuple[BraidGate, ...]:
    """The gates with every mode moved up by `by`."""
    return tuple(BraidGate(g.kind, tuple(m + by for m in g.modes), g.direction) for g in gates)


def test_without_the_total_parity_the_ancilla_sweep_is_the_free_one_shifted():
    """Only an all-ones tail sends the sweep to mode 0, and that needs the
    total parity in the group; every other code has a logical mode, which
    both variants' phase corrections braid to.  So for those codes the whole
    ancilla decoder is the ancilla-free one two modes up, with the same
    substitutions and correction span, and i c0 c1 comes back untouched."""
    rng = random.Random(16)
    codes = []
    for seed in range(1000):
        n = 2 * rng.randint(2, 12)
        r = rng.randint(0, n // 2 - 1)
        make = random_code if seed % 2 else lightly_scrambled_code
        codes.append(make(n, r, seed))
    for code in codes:
        assert not contains_total_parity(code)
        anc, free = synthesize_with_ancilla(code), synthesize_ancilla_free(code)
        assert anc.decoder.gates == shifted(free.decoder.gates, 2)
        assert anc.substitutions == free.substitutions
        assert anc.correction_span == free.correction_span
        assert anc.correction_span[1] == len(anc.decoder)
        assert str(anc.ancilla_image) == "+i c0 c1" and anc.ancilla_phase_r == 1


@pytest.mark.parametrize("n", [4, 30])
def test_kitaev_chain_takes_one_quadratic_braid_per_generator(n):
    code = kitaev_chain(n)
    for result in (synthesize_with_ancilla(code), synthesize_ancilla_free(code)):
        assert gate_counts(result.decoder) == {"braid2": n - 1, "braid4": 0}


# sha256 of serialize_circuit of each variant's decoder document (with an
# ancilla, then ancilla-free), or the name of the refusal it raised;
# recorded when the synthesis began to back-substitute the generators on
# their top modes, and re-recorded where they moved when each column's
# last braid began to take the direction that lands its generator at +i,
# and when the shrink began to keep a set slot.
# The goldens reach no mode-0 parking; these codes reach the parking step,
# the back-substitution and the column-start substitution.  Two were pinned
# for the borrow, which the back-substitution made unreachable;
# test_without_the_back_substitution_the_sweep_refuses shows them reaching
# it again.
PINNED_DECODERS = [
    pytest.param(
        lambda: random_code(40, 10, 1),
        "44d69c26c9cc73ba6b8fcf7f9b188d912a176898eefb13d9e07a8fae874035b2",
        "0911663cffc13c1385154a1e0e874915a24c940f5fb55b3ce30dcbb1b7f2d04f",
        id="random-40-10-1",
    ),
    pytest.param(
        lambda: random_code(40, 10, 2),
        "81c78f8080636849f7bcc39f5109a33769abef8b4e70af80bab4ccfc5ed3d090",
        "0c8180ec41d754f286d2bfd43d58f780ab880414f183a2ab631cc96ff0d9fa72",
        id="random-40-10-2",
    ),
    pytest.param(
        lambda: random_code(40, 10, 3),
        "3ccf811bbeaa72ec597d36cae10e79b402f468f34f0bcd29f156b843aa0ec1bf",
        "6e65c088ea047ccf9a3e193b70d23d5395c9904d8868c5c5d61dfab13437e9aa",
        id="random-40-10-3",
    ),
    pytest.param(
        lambda: random_code(40, 10, 4),
        "124250ece37cc2c4a6a9682f71ee6202fde0516ca800337dc2aafe3257217c4c",
        "8066a158df2f5c0377b02f96f62504561fcb0ab7399144c95f13b8bb090104aa",
        id="random-40-10-4",
    ),
    pytest.param(
        lambda: random_code(40, 10, 5),
        "438a426634e8521c7f0b64cac06ce4b677d9f9c7772a78806f5b539da84db9d0",
        "de2328685e2aa473bcd0ed5c97de9e1057b8f0b3a5f4c1dc5981651d2c8d23bf",
        id="random-40-10-5",
    ),
    pytest.param(  # its last column parks on mode 0; obstructed without
        lambda: scrambled_total_parity_code(20, 7, 2),
        "a3b68bebdb2e7a57ec30cf5a6d09e78307da124479bba91ca742b4b6061af136",
        "TotalParityObstruction",
        id="total-parity-20-7-2",
    ),
    pytest.param(
        lambda: scrambled_total_parity_code(16, 8, 4),
        "2135ae87e9209d33753f263e4baaac069a556b6f2cc68d574de352391fb01a7d",
        "803e53b039e89f1c8ed06c820d4637f833f5102f54d34250b3b53475e249b45d",
        id="total-parity-16-8-4",
    ),
    pytest.param(  # its last column parks on mode 0 (before the
        # back-substitution an earlier column parked, and parity steps moved
        # mode 0 off); obstructed without
        lambda: mixed_total_parity_code(16, 6, 3),
        "24c37bc47c4a773758e2b213b6307371f66f364b559aae2f1e4a603052871219",
        "TotalParityObstruction",
        id="mixed-total-parity-16-6-3",
    ),
    pytest.param(  # its shrink parks on mode 0; obstructed without
        lambda: PARITY4,
        "b19ed8387d0beaaea8324778b7bc562cea6c8a85cc36b4d55a32e21f0b3da834",
        "TotalParityObstruction",
        id="parity4",
    ),
    pytest.param(  # generator 1 holds pair 0: substituted in both, no gate
        lambda: StabilizerCode(4, gens(4, ((0, 1), 1), ((0, 1, 2, 3), 2))),
        "b6d2a97bfe99e1d2dce7cf70a649892c6bdf36714f91d55469ae425909904584",
        "a40994152af20511257734e5eaaf8b098e30d9aa62cd63bf6099b8602730c406",
        id="pair-step-substitution",
    ),
    pytest.param(  # one back-substitution product, no parking or gate on its
        # all-ones tail (before, the ancilla sweep parked and the free one
        # borrowed)
        lambda: StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))),
        "c449b04306e66486a4565f353bd38538eb1863d10ac00961df78fb74a865fa0e",
        "399549e09201fda35982133e0922eef4533705bc8ea23c8c752f4db796afc004",
        id="shrink-substitution",
    ),
    pytest.param(  # five back-substitution products and three column starts;
        # before, its free shrink borrowed the lowest of several holders
        lambda: mixed_total_parity_code(8, 4, 8),
        "0a51182bf56e8c14c0ffd247ba08a65ca0ae4864504941b7da80e1b311fcc010",
        "fe6a360cd280dedc01f7b7b1e5aa76e87c54b7201f10bd9595acab3d83581a24",
        id="mixed-total-parity-8-4-8",
    ),
]


@pytest.mark.parametrize("make, with_ancilla, ancilla_free", PINNED_DECODERS)
def test_sweep_gate_sequences_are_pinned(make, with_ancilla, ancilla_free):
    code = make()
    got = []
    for synth in (synthesize_with_ancilla, synthesize_ancilla_free):
        try:
            result = synth(code)
        except (TotalParityObstruction, PhaseCorrectionError) as exc:
            got.append(type(exc).__name__)
            continue
        doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, "decoder")
        got.append(hashlib.sha256(serialize_circuit(doc).encode()).hexdigest())
        # no borrow: after the back-substitution, only column starts
        assert all(j < i for i, j in split_substitutions(result)[1])
    assert got == [with_ancilla, ancilla_free]


def sweep_columns(code: StabilizerCode, result: SynthesisResult) -> list[tuple[int, int, int]]:
    """(row at its column start, pivot, gates the column emitted) for every
    sweep column, read off the result alone.

    The substitutions are products of generators, and a braid acts on the
    bits linearly (a row it meets oddly gains its support), so multiplying
    them all out first leaves each row as it stands once its column start
    has run.  Replaying the sweep gates in order, a column ends when its row
    reaches its pair: every gate of the column changes that row, and the
    sweep stops there."""
    pb, r = result.target.pivot_base, result.target.r
    rows = [g.bits << pb for g in code.generators]
    for i, j in result.substitutions:
        rows[i] ^= rows[j]
    sweep = iter(result.decoder.gates[: result.correction_span[0]])
    columns = []
    for i in range(r):
        p = pb + 2 * i
        start, count = rows[i], 0
        while rows[i] != 0b11 << p:
            mask = next(sweep).support_mask
            rows = [row ^ mask if (row & mask).bit_count() % 2 else row for row in rows]
            count += 1
        columns.append((start, p, count))
    assert next(sweep, None) is None
    return columns


def fewest_column_gates(row: int, p: int) -> int:
    """The fewest braids that take a row lying in the tail (modes p up) onto
    its pair p, p+1, when the tail has a clear mode.  Only a braid meeting
    the row oddly changes it: a braid2 keeps its weight w, a braid4 moves it
    by two.  With s of the row's modes on the pair, w = 2 needs 2 - s
    braid2s; w = 4 needs one braid4 when s = 1, and two gates otherwise (one
    braid4 would need both off-pair modes and no slot when s = 2, an even
    overlap, or six modes when s = 0); w >= 6 needs (w - 2) / 2 braid4s."""
    w, s = row.bit_count(), (row >> p & 0b11).bit_count()
    if w == 2:
        return 2 - s
    if w == 4:
        return 1 if s == 1 else 2
    return (w - 2) // 2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_sweep_column_emits_the_fewest_gates_its_row_needs(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8, 10, 12, 14])
    make = rng.choice([random_code, lightly_scrambled_code, mixed_total_parity_code])
    # a mixed total-parity code multiplies pairs of its generators
    code = make(n, rng.randint(1 + (make is mixed_total_parity_code), n // 2), seed)
    for result in synthesis_outcomes(code):
        if isinstance(result, tuple):  # a refusal
            continue
        full = (1 << result.total_modes) - 1
        for row, p, count in sweep_columns(code, result):
            assert row >> p << p == row  # the row lies in the tail
            if row >> p != full >> p:  # a clear tail mode
                assert count == fewest_column_gates(row, p), (bin(row), p)


@pytest.mark.parametrize(
    "n, generator, gates",
    [
        (6, ((1, 2, 3, 4), 0), [("braid4", (0, 2, 3, 4))]),
        (6, ((0, 1, 2, 3), 0), [("braid4", (1, 2, 3, 4)), ("braid2", (1, 4))]),
        (8, ((0, 1, 2, 3, 4, 5), 1), [("braid4", (1, 2, 3, 6)), ("braid4", (1, 4, 5, 6))]),
    ],
    ids=["w4-one-slot", "w4-both-slots", "w6-both-slots"],
)
def test_the_shrink_keeps_a_set_slot_where_that_saves_a_gate(n, generator, gates):
    """One Hermitian generator, ancilla-free: a four-mode row holding one
    slot lands on its pair in one braid4; one holding both slots takes a
    braid4 and a braid2; a six-mode row holding both slots takes two
    braid4s, the first of which keeps slot 0."""
    code = StabilizerCode(n, gens(n, generator))
    result = synthesize_ancilla_free(code)
    assert [(g.kind, g.modes) for g in result.decoder.gates] == gates
    assert decoded_ok(code, result)
