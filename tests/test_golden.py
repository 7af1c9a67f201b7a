"""Synthesis output for the built-ins stays byte-identical to the checked-in
documents (regenerate with scripts/synthesize_builtins.py after an
intentional algorithm change)."""

import hashlib
import random
from pathlib import Path

import pytest

from braidsynth.cli import main, render_ascii
from braidsynth.codes import (
    CircuitDocument,
    kitaev_chain,
    parse_circuit,
    random_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from braidsynth.majorana import MajoranaString
from braidsynth.synth import (
    PhaseCorrectionError,
    TotalParityObstruction,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from braidsynth.tableau import StabilizerCode, apply_circuit

GOLDEN = Path(__file__).parent / "golden"


def test_kitaev_free_decoder_document_is_stable():
    result = synthesize_ancilla_free(kitaev_chain(4))
    doc = CircuitDocument(
        result.decoder, result.ancilla_modes, result.substitutions, "decoder"
    )
    assert serialize_circuit(doc) == (GOLDEN / "kitaev4.free.decoder.circuit").read_text()
    assert render_ascii(doc.circuit, doc.ancilla_modes) == (
        GOLDEN / "kitaev4.free.decoder.txt"
    ).read_text()


def test_shortest_encoder_document_is_stable():
    result = synthesize_with_ancilla(shortest_code())
    doc = CircuitDocument(
        result.decoder, result.ancilla_modes, result.substitutions, "encoder"
    )
    assert serialize_circuit(doc) == (
        GOLDEN / "shortest.ancilla.encoder.circuit"
    ).read_text()


def test_parsed_encoder_golden_holds_the_decoder():
    """The encoder file lists the encoder's gates; parsed, it holds the
    decoder, as every document does."""
    result = synthesize_with_ancilla(shortest_code())
    doc = parse_circuit((GOLDEN / "shortest.ancilla.encoder.circuit").read_text())
    assert doc.role == "encoder"
    assert doc.circuit == result.decoder
    assert doc == CircuitDocument(
        result.decoder, result.ancilla_modes, result.substitutions, "encoder"
    )


@pytest.mark.parametrize(
    "name", ["kitaev4.free.decoder.circuit", "shortest.ancilla.encoder.circuit"]
)
def test_golden_documents_round_trip_byte_for_byte(name):
    text = (GOLDEN / name).read_text()
    assert serialize_circuit(parse_circuit(text)) == text


@pytest.mark.parametrize("name", ["kitaev4.free.decoder", "shortest.ancilla.encoder"])
def test_diagram_prints_the_golden_bytes(capsys, name):
    """`braidsynth diagram` draws a document's gates in the order its file
    lists them: an encoder's are the inverse of the decoder it holds."""
    assert main(["diagram", str(GOLDEN / f"{name}.circuit")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_golden_documents_verify_against_their_codes(capsys):
    for builtin, name in (
        ("kitaev:4", "kitaev4.free.decoder.circuit"),
        ("shortest", "shortest.ancilla.encoder.circuit"),
    ):
        rc = main(["verify", "--builtin", builtin, str(GOLDEN / name), "--oracle"])
        assert rc == 0, capsys.readouterr()
        assert "oracle check: ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--builtin", "shortest"], "shortest.ancilla.encoder.circuit"),
        (
            ["--builtin", "kitaev:4", "--ancilla-free", "--decoder"],
            "kitaev4.free.decoder.circuit",
        ),
    ],
)
def test_synth_writes_the_golden_bytes(capsys, tmp_path, argv, name):
    """The bytes `synth -o` writes, to a file and to stdout, are the golden's."""
    want = (GOLDEN / name).read_bytes()
    out = tmp_path / name
    assert main(["synth", *argv, "-o", str(out)]) == 0
    assert out.read_bytes() == want
    capsys.readouterr()
    assert main(["synth", *argv, "-o", "-"]) == 0
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "9d660c3327f4f0522e00dafaecb49c2029a98c6a7cc64d485b3a8f4b09a8447b"),
        (
            ["--ancilla-free", "--decoder"],
            "f60ed83e7d88784e25418212a7159b0dcc94a6f00fc293b416a3ab4df9a2118f",
        ),
    ],
    ids=["ancilla-encoder", "ancilla-free-decoder"],
)
def test_synth_pins_the_documents_of_a_code_with_many_products(tmp_path, argv, digest):
    """The goldens hold two small codes; this pins the exact documents of a
    dense one, random_code(64, 16, 1), whose 157 gates come with 110
    substitutions in either variant.  A change to the gate counts on
    purpose updates the digests, as it regenerates the goldens."""
    code = tmp_path / "random64.code"
    code.write_text(serialize_code(random_code(64, 16, 1)))
    out = tmp_path / "random64.circuit"
    assert main(["synth", str(code), *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "cf96da0cdae3c8bba838dcd2c80f8f1b5150584191e4294b24160d7bb0191878"),
        (
            ["--ancilla-free", "--decoder"],
            "4f2466dc0a529939915cea225b18cac2b3d49859c9b1e758bbff3d022ca046f6",
        ),
    ],
    ids=["ancilla-encoder", "ancilla-free-decoder"],
)
def test_synth_pins_the_documents_of_kitaev_1000(tmp_path, argv, digest):
    """kitaev:1000 is the benchmark's large sparse code: 999 quadratic
    braids per variant and no substitution, and every column already ends
    its generator at +i, so no braid is reversed or doubled.  Its documents
    are pinned so that a change to the sweep shows here as well as in the
    benchmark's gate count."""
    out = tmp_path / "kitaev1000.circuit"
    assert main(["synth", "--builtin", "kitaev:1000", *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def forced_sign_codes() -> list[StabilizerCode]:
    """48 aligned-pair codes at random +-i, scrambled by at most two gates,
    then 16 random codes with random generators negated."""
    rng = random.Random(31)
    codes = []
    for _ in range(48):
        n = rng.choice((4, 6, 8))
        pairs = tuple(
            MajoranaString.from_modes(n, (2 * j, 2 * j + 1), rng.choice((1, 3)))
            for j in range(rng.randint(1, n // 2))
        )
        scramble = random_circuit(n, rng.randint(0, 2), rng)
        codes.append(apply_circuit(scramble, StabilizerCode(n, pairs)))
    for seed in range(16):
        n = rng.choice((6, 8, 10))
        negated = tuple(
            MajoranaString(n, g.bits, (g.phase_r + 2 * rng.randint(0, 1)) % 4)
            for g in random_code(n, rng.randint(1, n // 2), seed).generators
        )
        codes.append(StabilizerCode(n, negated))
    return codes


def test_synth_pins_the_phase_corrections_of_forced_sign_codes():
    """The pinned documents above end with an empty correction span; this
    pins the decoder documents, or refusal messages, of both variants on
    codes with generators forced to -i.  The corpus reaches every
    correction rule: a braid to the first logical mode, to mode 0 (the
    ancilla variant with no logical mode), between two -i generators
    (ancilla-free with none), and the PhaseCorrectionError of a lone one."""
    texts, seen = [], set()
    for code in forced_sign_codes():
        for synth in (synthesize_with_ancilla, synthesize_ancilla_free):
            try:
                result = synth(code)
            except (TotalParityObstruction, PhaseCorrectionError) as exc:
                texts.append(f"{type(exc).__name__}: {exc}\n")
                seen.add(type(exc).__name__)
                continue
            doc = CircuitDocument(
                result.decoder, result.ancilla_modes, result.substitutions, "decoder"
            )
            texts.append(serialize_circuit(doc))
            lo, hi = result.correction_span
            pb, r = result.target.pivot_base, result.target.r
            for gate in result.decoder.gates[lo:hi]:
                f = gate.modes[0] if gate.modes[0] < pb else gate.modes[1]
                seen.add("logical" if f >= pb + 2 * r else "mode 0" if f == 0 else "partner")
    assert {"logical", "mode 0", "partner", "PhaseCorrectionError"} <= seen
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "bc6abde0b9f6135abeab213e915239ea5694ad2a8fb5f8dca2443c628bd64264"
