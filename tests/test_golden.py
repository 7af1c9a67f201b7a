"""Synthesis output for the built-ins stays byte-identical to the checked-in
documents (regenerate with scripts/synthesize_builtins.py after an
intentional algorithm change)."""

import hashlib
from pathlib import Path

import pytest

from braidsynth.cli import main, render_ascii
from braidsynth.codes import (
    CircuitDocument,
    kitaev_chain,
    parse_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from braidsynth.synth import synthesize_ancilla_free, synthesize_with_ancilla

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
        ([], "b548d48af7574aa74959da14451112cc103f335ded2275380faf782de2d9f366"),
        (
            ["--ancilla-free", "--decoder"],
            "e5eb3fe3318ad62c18087a594534be784c3a3bb283a953773c68408ef7247d2d",
        ),
    ],
    ids=["ancilla-encoder", "ancilla-free-decoder"],
)
def test_synth_pins_the_documents_of_a_code_with_many_products(tmp_path, argv, digest):
    """The goldens hold two small codes; this pins the exact documents of a
    dense one, random_code(64, 16, 1), whose 187 gates come with 118
    substitutions in either variant.  A change to the gate counts on
    purpose updates the digests, as it regenerates the goldens."""
    code = tmp_path / "random64.code"
    code.write_text(serialize_code(random_code(64, 16, 1)))
    out = tmp_path / "random64.circuit"
    assert main(["synth", str(code), *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
