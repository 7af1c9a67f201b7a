"""Synthesis output for the built-ins stays byte-identical to the checked-in
documents (regenerate with scripts/synthesize_builtins.py after an
intentional algorithm change)."""

from pathlib import Path

import pytest

from braidsynth.cli import main, render_ascii
from braidsynth.codes import CircuitDocument, kitaev_chain, serialize_circuit, shortest_code
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
        result.encoder, result.ancilla_modes, result.substitutions, "encoder"
    )
    assert serialize_circuit(doc) == (
        GOLDEN / "shortest.ancilla.encoder.circuit"
    ).read_text()


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
