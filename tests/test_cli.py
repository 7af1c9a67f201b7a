"""End-to-end command-line behavior, one exit code at a time."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import braidsynth
from braidsynth import oracle, synth
from braidsynth.cli import _wire_labels, build_parser, main, render_ascii
from braidsynth.codes import (
    MAX_REGISTER_MODES,
    CircuitDocument,
    CircuitFormatError,
    parse_circuit,
    random_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from braidsynth.majorana import BraidGate, Circuit, MajoranaString, conjugate_circuit, invert
from braidsynth.tableau import StabilizerCode
from test_synth import gens, scrambled_total_parity_code, synthesis_outcomes

SAMPLES = Path(__file__).resolve().parents[1] / "sample_codes"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_kitaev_free_run_report(capsys):
    rc, out, _ = run(capsys, "synth", "--builtin", "kitaev:4", "--ancilla-free")
    assert rc == 0
    assert "code: kitaev-chain-4  [n_modes=8, generators=3]" in out
    assert "variant: ancilla-free" in out
    assert "gate counts: braid2=3 braid4=0 total=3" in out
    assert "document (encoder): not written (pass -o to write)" in out


def test_synth_report_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "synth", "--builtin", "shortest")
    rc2, out2, _ = run(capsys, "synth", "--builtin", "shortest")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "total modes: 14" in out1
    assert "ancilla modes: [0, 1]" in out1
    assert "ancilla image: +i c0 c1" in out1
    assert "ancilla residual phase_r: 1" in out1


def test_synth_report_counts_the_generating_set_changes(capsys, tmp_path):
    """The report prints how many changes there are; the pairs themselves
    are in the document."""
    code_file, circ = tmp_path / "random.code", tmp_path / "random.circuit"
    code_file.write_text(serialize_code(random_code(40, 10, seed=1)))
    rc, out, _ = run(capsys, "synth", str(code_file), "--decoder", "-o", str(circ))
    assert rc == 0
    substitutions = json.loads(circ.read_text())["substitutions"]
    assert len(substitutions) > 1
    assert f"generating-set changes: {len(substitutions)}\n" in out.splitlines(keepends=True)


def test_synth_verify_round_trip(capsys, tmp_path):
    enc = tmp_path / "shortest.enc.circuit"
    rc, out, _ = run(capsys, "synth", "--builtin", "shortest", "-o", str(enc))
    assert rc == 0
    assert f"document (encoder): {enc}" in out
    doc = parse_circuit(enc.read_text())
    assert doc.role == "encoder"
    assert doc.ancilla_modes == (0, 1)

    rc, out, _ = run(capsys, "verify", "--builtin", "shortest", str(enc))
    assert rc == 0
    assert "decoded-form check: ok" in out
    assert "ancilla check: ok (i c0 c1 -> +i c0 c1, residual phase_r 1)" in out
    assert "oracle check: skipped (pass --oracle to run)" in out


def test_verify_with_oracle(capsys, tmp_path):
    dec = tmp_path / "shortest.dec.circuit"
    run(capsys, "synth", "--builtin", "shortest", "--decoder", "-o", str(dec))
    assert parse_circuit(dec.read_text()).role == "decoder"
    rc, out, _ = run(capsys, "verify", "--builtin", "shortest", str(dec), "--oracle")
    assert rc == 0
    assert "oracle check: ok (14 modes, dimension 128)" in out


def test_synth_writes_to_stdout(capsys):
    # stdout carries the document alone, so it can be piped; the report
    # goes to stderr
    rc, out, err = run(capsys, "synth", "--builtin", "kitaev:3", "-o", "-")
    assert rc == 0
    doc = parse_circuit(out)
    assert doc.circuit.n_modes == 8
    assert "document (encoder): stdout" in err


def test_synth_sample_code_file(capsys, tmp_path):
    out_file = tmp_path / "ladder.circuit"
    rc, out, _ = run(
        capsys, "synth", str(SAMPLES / "ten_mode.code"), "-o", str(out_file)
    )
    assert rc == 0
    assert "code: ten-mode-ladder  [n_modes=10, generators=4]" in out
    rc, _, _ = run(capsys, "verify", str(SAMPLES / "ten_mode.code"), str(out_file))
    assert rc == 0


def test_obstructed_code_exits_2(capsys):
    rc, _, err = run(
        capsys, "synth", str(SAMPLES / "parity4.code"), "--ancilla-free"
    )
    assert rc == 2
    assert "synthesis obstruction" in err
    # the same code goes through once an ancilla pair is allowed
    rc, out, _ = run(capsys, "synth", str(SAMPLES / "parity4.code"))
    assert rc == 0
    assert "ancilla image: +1 c0 c1 c4 c5" in out
    assert "ancilla residual phase_r: None" in out


def test_invalid_inputs_exit_1(capsys, tmp_path):
    cases = [
        ("synth", "--builtin", "nope"),
        ("synth", "--builtin", "kitaev:0"),
        ("verify", "--builtin", "kitaev:1", str(tmp_path / "absent.circuit")),
        ("synth",),  # neither a file nor --builtin
        ("synth", str(SAMPLES / "parity4.code"), "--builtin", "shortest"),
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 1, argv
        assert "invalid input" in err
    # int() would read all but the first as a number
    for selector in ("kitaev:x", "kitaev:+5", "kitaev: 5", "kitaev:1_0", "kitaev:\u0663"):
        rc, _, err = run(capsys, "synth", "--builtin", selector)
        assert rc == 1, selector
        assert "kitaev:N needs an integer" in err

    bad = tmp_path / "bad.code"
    bad.write_text("{not json")
    assert run(capsys, "synth", str(bad))[0] == 1

    odd = tmp_path / "odd.code"
    odd.write_text(
        '{"format_version": 1, "n_modes": 4, '
        '"generators": [{"modes": [0], "phase_r": 0}]}'
    )
    rc, _, err = run(capsys, "synth", str(odd))
    assert rc == 1
    assert "odd weight" in err


@pytest.mark.parametrize(
    "text, key",
    [
        (
            '{"format_version": 1, "n_modes": 4, '
            '"generators": [{"modes": [0, 1, 2, 3], "phase_r": 0}], "generators": []}',
            "generators",
        ),
        (
            '{"format_version": 1, "n_modes": 4, '
            '"generators": [{"modes": [0, 1, 2, 3], "phase_r": 0, "modes": [0, 1]}]}',
            "modes",
        ),
        (
            '{"format_version": 1, "n_modes": 4, "generators": [{"modes": [0, 1, 2, 3], '
            '"modes": [0, 1, 2, 3], "phase_r": 0, "phase_r": 0, "phase_r": 0}]}',
            "modes",
        ),
    ],
    ids=["generators", "modes", "first-repeat"],
)
@pytest.mark.parametrize("command", ["synth", "verify"])
def test_a_code_document_with_a_duplicate_key_exits_1(capsys, tmp_path, text, key, command):
    """A repeated key is refused, not settled by its last value: the
    duplicate generators list would leave a code with no generators."""
    code_file = tmp_path / "dup.code"
    code_file.write_text(text)
    circuit = tmp_path / "parity4.circuit"
    assert run(capsys, "synth", str(SAMPLES / "parity4.code"), "-o", str(circuit))[0] == 0
    argv = [command, str(code_file)] + ([str(circuit)] if command == "verify" else [])
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"invalid input: code document has duplicate key '{key}'\n"


def test_invalid_code_is_rejected_before_the_obstruction_check(capsys, tmp_path):
    # the total parity with a non-Hermitian phase: invalid (exit 1) wins over
    # the ancilla-free obstruction (exit 2)
    code_file = tmp_path / "bad_parity.code"
    code_file.write_text(
        '{"format_version": 1, "n_modes": 6, '
        '"generators": [{"modes": [0, 1, 2, 3, 4, 5], "phase_r": 0}]}'
    )
    rc, _, err = run(capsys, "synth", str(code_file), "--ancilla-free")
    assert rc == 1
    assert err.startswith("invalid input: ") and "not Hermitian" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "{bad}"),
        ("verify", "{bad}", "{circuit}"),
        ("verify", "--builtin", "shortest", "{bad}"),
        ("diagram", "{bad}"),
    ],
)
def test_non_utf8_files_exit_1(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    circuit = tmp_path / "shortest.circuit"
    run(capsys, "synth", "--builtin", "shortest", "-o", str(circuit))
    rc, _, err = run(capsys, *(a.format(bad=bad, circuit=circuit) for a in argv))
    assert rc == 1
    assert err.startswith(f"invalid input: {bad} is not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "value", ["[" * 100_000 + "]" * 100_000, "9" * 5000], ids=["deep-nesting", "5000-digits"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "{code}"),
        ("verify", "{code}", "{good}"),
        ("verify", "--builtin", "shortest", "{circuit}"),
        ("diagram", "{circuit}"),
    ],
)
def test_json_the_parser_refuses_exits_1(capsys, tmp_path, argv, value):
    # a RecursionError or an over-long integer literal inside json.loads
    # is a format error of the document being read, not a traceback
    code = tmp_path / "bad.code"
    code.write_text('{"format_version": 1, "n_modes": %s, "generators": []}' % value)
    circuit = tmp_path / "bad.circuit"
    circuit.write_text(
        '{"format_version": 1, "n_modes": %s, "ancilla_modes": [], "gates": []}' % value
    )
    good = tmp_path / "shortest.circuit"
    run(capsys, "synth", "--builtin", "shortest", "-o", str(good))
    rc, _, err = run(capsys, *(a.format(code=code, circuit=circuit, good=good) for a in argv))
    assert rc == 1
    assert err.startswith("invalid input: ")
    assert err.count("\n") == 1


def oversized_code(path):
    n = MAX_REGISTER_MODES + 2
    path.write_text(json.dumps(
        {"format_version": 1, "n_modes": n, "generators": [{"modes": [0, n - 1], "phase_r": 1}]}
    ))
    return str(path)


def oversized_circuit(path):
    doc = {"format_version": 1, "n_modes": MAX_REGISTER_MODES + 3, "ancilla_modes": [], "gates": []}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("synth", "--builtin", f"kitaev:{MAX_REGISTER_MODES // 2 + 1}"),
         f"at most {MAX_REGISTER_MODES // 2} sites"),
        (("synth", "{code}"), f"exceeds the maximum {MAX_REGISTER_MODES}"),
        (("diagram", "{circuit}"), f"exceeds the maximum {MAX_REGISTER_MODES + 2}"),
    ],
    ids=["builtin", "code-document", "circuit-document"],
)
def test_oversized_registers_exit_1_before_allocating(capsys, tmp_path, argv, reason):
    # each input is just past the cap, so the check, not memory, must stop it
    code = oversized_code(tmp_path / "big.code")
    circuit = oversized_circuit(tmp_path / "big.circuit")
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, *(a.format(code=code, circuit=circuit) for a in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert err.startswith("invalid input: ") and reason in err
    assert err.count("\n") == 1
    assert peak < 1 << 20


def gate_entries(circuit: Circuit) -> list[dict]:
    return [{"kind": g.kind, "modes": list(g.modes), "direction": g.direction} for g in circuit.gates]


def json_reference(d: CircuitDocument) -> str:
    """The document through json.dumps(indent=2), the bytes serialize_circuit
    must match.  d.circuit is the decoder; an encoder file lists its inverse."""
    out = {
        "format_version": 1,
        "role": d.role,
        "n_modes": d.circuit.n_modes,
        "ancilla_modes": list(d.ancilla_modes),
    }
    if d.substitutions:
        out["substitutions"] = [list(s) for s in d.substitutions]
    out["gates"] = gate_entries(invert(d.circuit) if d.role == "encoder" else d.circuit)
    return json.dumps(out, indent=2) + "\n"


def test_serialize_circuit_matches_json_dumps():
    gates = (
        BraidGate("braid2", (0, 1)),
        BraidGate("braid4", (0, 2, 3, 5), -1),
        BraidGate("braid2", (4, 5), -1),
        BraidGate("braid4", (1, 2, 3, 4)),
    )
    docs = [
        CircuitDocument(Circuit(4, ()), (), (), "decoder"),
        CircuitDocument(Circuit(6, gates[:1]), (), (), "encoder"),
        CircuitDocument(Circuit(6, gates), (0, 1), ((1, 0), (2, 1)), "decoder"),
        CircuitDocument(Circuit(4, ()), (), ((0, 1),), "encoder"),
        CircuitDocument(Circuit(6, gates[1:]), (), ((1, 0), (12, 3), (0, 1)), "encoder"),
    ]
    for doc in docs:
        inverted = dataclasses.replace(doc, circuit=invert(doc.circuit))
        for d in (doc, inverted):
            for role in ("decoder", "encoder"):
                same = dataclasses.replace(d, role=role)
                assert serialize_circuit(same) == json_reference(same)
                assert parse_circuit(serialize_circuit(same)) == same
        # an encoder file lists invert(doc.circuit) without building it: the
        # gates a decoder file of the inverted circuit lists
        encoder = dataclasses.replace(doc, role="encoder")
        decoder = dataclasses.replace(inverted, role="decoder")
        assert serialize_circuit(encoder) == serialize_circuit(decoder).replace(
            '"role": "decoder"', '"role": "encoder"'
        )
        assert parse_circuit(serialize_circuit(encoder)).circuit == doc.circuit

    # synthesized decoders, both variants, substitutions and mode-0 parking
    # included: both routes match json.dumps byte for byte
    codes = []
    for seed in range(20):
        n = 2 * (seed % 12 + 2)
        codes.append(random_code(n, seed % (n // 2 + 1), seed))
    codes += [
        StabilizerCode(6, gens(6, ((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))),
        scrambled_total_parity_code(20, 7, 2),
        scrambled_total_parity_code(16, 8, 4),
    ]
    substituted = 0
    for code in codes:
        for result in synthesis_outcomes(code):
            if not isinstance(result, synth.SynthesisResult):
                continue
            substituted += bool(result.substitutions)
            doc = CircuitDocument(
                result.decoder, result.ancilla_modes, result.substitutions, "encoder"
            )
            assert json.loads(serialize_circuit(doc))["gates"] == gate_entries(result.encoder)
            assert serialize_circuit(doc) == json_reference(doc)
            decoder = dataclasses.replace(doc, role="decoder")
            assert serialize_circuit(decoder) == json_reference(decoder)
    assert substituted


def test_verify_rejects_mode_count_mismatch(capsys, tmp_path):
    circ = tmp_path / "kitaev.circuit"
    run(capsys, "synth", "--builtin", "kitaev:4", "--ancilla-free", "-o", str(circ))
    rc, _, err = run(capsys, "verify", "--builtin", "shortest", str(circ))
    assert rc == 1
    assert "expected 12" in err


def test_circuit_document_rejections(tmp_path):
    good = {
        "format_version": 1,
        "n_modes": 4,
        "ancilla_modes": [],
        "gates": [{"kind": "braid2", "modes": [0, 1], "direction": 1}],
    }

    def broken(**changes):
        doc = {**good, **changes}
        with pytest.raises(CircuitFormatError):
            parse_circuit(json.dumps(doc))

    broken(extra=1)
    broken(format_version=2)
    broken(ancilla_modes=[1, 2])
    broken(role="inverse")
    broken(gates=[{"kind": "braid3", "modes": [0, 1], "direction": 1}])
    broken(gates=[{"kind": "braid2", "modes": [0, 9], "direction": 1}])
    broken(gates=[{"kind": "braid2", "modes": [1, 0], "direction": 1}])
    broken(gates=[{"kind": "braid2", "modes": [0, 1], "direction": 2}])
    broken(substitutions=[[0]])
    broken(substitutions=5)
    broken(format_version=True)
    broken(ancilla_modes=[False, True])
    broken(ancilla_modes=[0.0, 1.0])
    broken(n_modes=1, ancilla_modes=[0, 1], gates=[])
    parsed = parse_circuit(json.dumps(good))
    assert parse_circuit(serialize_circuit(parsed)) == parsed


def test_synth_decoder_only_builds_no_encoder(monkeypatch, tmp_path):
    calls = []
    invert = synth.invert

    def counted(circuit):
        calls.append(circuit)
        return invert(circuit)

    monkeypatch.setattr(synth, "invert", counted)
    out = tmp_path / "kitaev.decoder.circuit"
    argv = ["synth", "--builtin", "kitaev:4", "--ancilla-free", "--decoder", "-o", str(out)]
    assert main(argv) == 0
    assert calls == []
    assert main(["synth", "--builtin", "kitaev:4", "--ancilla-free", "-o", str(out)]) == 0
    assert calls == []  # the encoder document is written from the decoder


@pytest.mark.parametrize(
    "subs, reason",
    [
        ([[99, 0]], "out of range for 5 generators"),
        ([[-1, 0]], "negative index"),
        ([[0, 0]], "multiplies a generator by itself"),
    ],
)
def test_verify_rejects_bad_substitution_indices(capsys, tmp_path, subs, reason):
    circ = tmp_path / "shortest.circuit"
    run(capsys, "synth", "--builtin", "shortest", "--decoder", "-o", str(circ))
    doc = json.loads(circ.read_text())
    circ.write_text(json.dumps({**doc, "substitutions": subs}))
    rc, _, err = run(capsys, "verify", "--builtin", "shortest", str(circ))
    assert rc == 1
    assert err.startswith("invalid input: ") and reason in err
    assert err.count("\n") == 1


def test_missing_file_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, "synth", str(tmp_path / "absent.code"))
    assert rc == 3
    assert "i/o error" in err


def test_corrupted_circuit_fails_verification(capsys, tmp_path):
    circ = tmp_path / "shortest.circuit"
    run(capsys, "synth", "--builtin", "shortest", "--decoder", "-o", str(circ))
    doc = json.loads(circ.read_text())
    del doc["gates"][0]
    circ.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--builtin", "shortest", str(circ))
    assert rc == 4
    assert "verification failed: decoded-form: " in err


@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
@pytest.mark.parametrize("role", ["decoder", "encoder"])
@pytest.mark.parametrize(
    "code, mode",
    [(shortest_code(), 12), (random_code(10, 2, seed=3), 6)],
    ids=["shortest", "random-10-2-3"],
)
def test_ancilla_pair_that_keeps_logical_information_exits_4(
    capsys, tmp_path, code, mode, role, oracle
):
    """braid2(0, mode) after the decoder moves i c0 c1 onto the first logical
    mode; every generator still arrives, so only the ancilla check can see it.
    The expected image is the synthesizer's ancilla image folded through the
    extra gate, so the test pins the verifier, not the residual phase."""
    code_file = tmp_path / "tampered.code"
    code_file.write_text(serialize_code(code))
    result = synth.synthesize_with_ancilla(code)
    n = result.total_modes
    extra = BraidGate("braid2", (0, mode))
    image = conjugate_circuit(
        Circuit(n, (extra,)), MajoranaString.from_modes(n, (0, 1), result.ancilla_phase_r)
    )
    tampered = Circuit(n, result.decoder.gates + (extra,))
    path = tmp_path / f"tampered.{role}.circuit"
    doc = CircuitDocument(tampered, (0, 1), result.substitutions, role)
    path.write_text(serialize_circuit(doc))
    rc, out, err = run(capsys, "verify", str(code_file), str(path), *oracle)
    assert rc == 4
    assert out == "decoded-form check: ok\n"
    assert err == (
        f"verification failed: ancilla: the decoder leaves i c0 c1 at "
        f"{image}, off the ancilla pair\n"
    )


def test_total_parity_code_reports_its_pinned_ancilla_image(capsys, tmp_path):
    code = str(SAMPLES / "parity4.code")
    enc = tmp_path / "parity4.circuit"
    rc, out, _ = run(capsys, "synth", code, "-o", str(enc))
    assert rc == 0
    assert "ancilla image: +1 c0 c1 c4 c5" in out
    rc, out, _ = run(capsys, "verify", code, str(enc), "--oracle")
    assert rc == 0
    assert out.splitlines()[:2] == [
        "decoded-form check: ok",
        "ancilla check: ok (i c0 c1 -> +1 c0 c1 c4 c5, residual phase_r None: "
        "pinned by the total parity)",
    ]


def test_a_returned_ancilla_pair_skips_the_total_parity_test(monkeypatch, capsys, tmp_path):
    """verify runs one GF(2) elimination, validate's, and none for the
    ancilla check: the pinned image's shape, modes 0, 1 and every logical
    mode, decides it, both for a returned ancilla pair and for a
    total-parity code's pinned image.  Synthesis with the ancilla runs
    validate's alone; ancilla-free with r < N/2 it runs the total-parity
    test's too."""
    shortest, parity4 = tmp_path / "shortest.circuit", tmp_path / "parity4.circuit"
    code = str(SAMPLES / "parity4.code")
    assert run(capsys, "synth", "--builtin", "shortest", "-o", str(shortest))[0] == 0
    eliminations = []
    eliminate = braidsynth.tableau._eliminate

    def count(columns):
        eliminations.append(None)
        return eliminate(columns)

    monkeypatch.setattr(braidsynth.tableau, "_eliminate", count)
    assert run(capsys, "synth", code, "-o", str(parity4))[0] == 0
    assert len(eliminations) == 1
    eliminations.clear()
    rc, out, _ = run(capsys, "verify", "--builtin", "shortest", str(shortest))
    assert rc == 0
    assert "ancilla check: ok (i c0 c1 -> +i c0 c1, residual phase_r 1)" in out
    assert len(eliminations) == 1
    eliminations.clear()
    rc, out, _ = run(capsys, "verify", code, str(parity4))
    assert rc == 0
    assert (
        "ancilla check: ok (i c0 c1 -> +1 c0 c1 c4 c5, residual phase_r None: "
        "pinned by the total parity)" in out
    )
    assert len(eliminations) == 1
    eliminations.clear()
    assert run(capsys, "synth", code, "--ancilla-free")[0] == 2
    assert len(eliminations) == 2


def test_oracle_refuses_large_registers(monkeypatch, capsys, tmp_path):
    """The oracle has no mode cap: a 28-mode document verifies.  It refuses
    by work instead, rows x gates x modes above MAX_WORK, before the fold
    starts: kitaev:200's encoder folds 200 rows through 199 gates on 402
    modes."""
    code_file = tmp_path / "wide.code"
    code_file.write_text(serialize_code(random_code(28, 2, seed=1)))
    circ = tmp_path / "wide.circuit"
    rc, _, _ = run(capsys, "synth", str(code_file), "--ancilla-free", "-o", str(circ))
    assert rc == 0
    rc, out, err = run(capsys, "verify", str(code_file), str(circ), "--oracle")
    assert (rc, err) == (0, "")
    assert out == "decoded-form check: ok\noracle check: ok (28 modes, dimension 16384)\n"

    enc = tmp_path / "kitaev200.circuit"
    assert run(capsys, "synth", "--builtin", "kitaev:200", "-o", str(enc))[0] == 0
    work = 200 * 199 * 402
    assert work > oracle.MAX_WORK

    def refuse(circuit, rows):
        raise AssertionError("the oracle's fold ran")

    monkeypatch.setattr(braidsynth.cli, "conjugate_rows", refuse)
    rc, out, err = run(capsys, "verify", "--builtin", "kitaev:200", str(enc), "--oracle")
    assert rc == 4
    assert out.splitlines()[-1].startswith("ancilla check: ok")
    assert err == (
        f"verification failed: oracle: needs at most {oracle.MAX_WORK} "
        f"rows x gates x modes, got {work} (200 x 199 x 402)\n"
    )


def test_oracle_verifies_a_26_mode_register(capsys, tmp_path):
    """24 code modes and the ancilla pair, folded as 7 rows."""
    code_file = tmp_path / "wide.code"
    code_file.write_text(serialize_code(random_code(24, 6, seed=1)))
    circ = tmp_path / "wide.circuit"
    assert run(capsys, "synth", str(code_file), "-o", str(circ))[0] == 0
    rc, out, err = run(capsys, "verify", str(code_file), str(circ), "--oracle")
    assert (rc, err) == (0, "")
    assert out.endswith("oracle check: ok (26 modes, dimension 8192)\n")


def test_oracle_takes_a_code_with_no_rows(capsys, tmp_path):
    """An ancilla-free document of an r = 0 code gives the oracle no row to fold."""
    code_file = tmp_path / "empty.code"
    code_file.write_text(serialize_code(random_code(6, 0, seed=1)))
    circ = tmp_path / "empty.circuit"
    rc, _, _ = run(capsys, "synth", str(code_file), "--ancilla-free", "--decoder", "-o", str(circ))
    assert rc == 0
    rc, out, err = run(capsys, "verify", str(code_file), str(circ), "--oracle")
    assert (rc, err) == (0, "")
    assert out == "decoded-form check: ok\noracle check: ok (6 modes, dimension 8)\n"


@pytest.mark.parametrize(
    "n_modes, dimension", [(64, "4294967296"), (66, "2^33"), (30_000, "2^15000")]
)
def test_oracle_writes_a_large_dimension_as_a_power(capsys, tmp_path, n_modes, dimension):
    """With no mode cap, an r = 0 code of any size passes the oracle: the
    ancilla row folds through no gate.  Above 64 modes, ancilla pair
    included, the report writes the dimension as a power: 2^15000 has more
    decimal digits than the interpreter converts to a string."""
    code_file = tmp_path / "empty.code"
    code_file.write_text(serialize_code(random_code(n_modes - 2, 0, seed=1)))
    circ = tmp_path / "empty.circuit"
    assert run(capsys, "synth", str(code_file), "-o", str(circ))[0] == 0
    rc, out, err = run(capsys, "verify", str(code_file), str(circ), "--oracle")
    assert (rc, err) == (0, "")
    assert out.endswith(f"oracle check: ok ({n_modes} modes, dimension {dimension})\n")


def test_usage_errors_exit_64(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "synth", "--builtin", "shortest", "--frobnicate")[0] == 64
    assert run(capsys, "verify", "--builtin", "shortest")[0] == 64  # circuit missing
    assert run(capsys, "--help")[0] == 0


def test_the_cli_runs_with_numpy_blocked(tmp_path):
    """numpy is no runtime dependency: a fresh interpreter in which importing
    numpy fails synthesizes, verifies and runs the oracle."""
    doc = tmp_path / "kitaev.circuit"
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import braidsynth.cli as cli\n"
        f"rcs = [cli.main(['synth', '--builtin', 'kitaev:4', '-o', {str(doc)!r}])]\n"
        f"rcs.append(cli.main(['verify', '--builtin', 'kitaev:4', {str(doc)!r}]))\n"
        f"rcs.append(cli.main(['verify', '--builtin', 'kitaev:4', {str(doc)!r}, '--oracle']))\n"
        "print(rcs, file=sys.stderr)\n"
    )
    src = str(Path(braidsynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[0, 0, 0]"


def test_one_parser_serves_every_call(capsys, tmp_path):
    """main builds its parser once; no option of one call leaks into the next."""
    assert build_parser() is build_parser()
    enc, dec = tmp_path / "k.enc.circuit", tmp_path / "k.dec.circuit"
    assert run(capsys, "synth", "--builtin", "kitaev:4", "-o", str(enc))[0] == 0

    rc, out, err = run(capsys, "verify", "--builtin", "kitaev:4", str(enc), "--oracle")
    assert (rc, err) == (0, "")
    assert out.endswith("oracle check: ok (10 modes, dimension 32)\n")

    rc, out, err = run(capsys, "verify", "--builtin", "kitaev:4", str(enc))
    assert (rc, err) == (0, "")
    assert out.endswith("oracle check: skipped (pass --oracle to run)\n")

    rc, out, _ = run(capsys, "synth", "--builtin", "kitaev:4", "--ancilla-free", "--decoder", "-o", str(dec))
    assert rc == 0
    assert "variant: ancilla-free" in out
    assert f"document (decoder): {dec}" in out
    assert parse_circuit(dec.read_text()).role == "decoder"

    rc, out, _ = run(capsys, "synth", "--builtin", "shortest")
    assert rc == 0
    assert "code: shortest" in out
    assert "variant: with-ancilla" in out
    assert "document (encoder): not written (pass -o to write)" in out

    rc, out, err = run(capsys, "verify", "--builtin", "kitaev:4")
    assert (rc, out) == (64, "")
    assert "the following arguments are required: circuit" in err

    rc, out, err = run(capsys, "diagram", str(dec))
    assert (rc, err) == (0, "")
    assert out.startswith("c0 ")


def test_diagram_ascii_golden(capsys, tmp_path):
    circ = tmp_path / "two.circuit"
    circ.write_text(
        json.dumps(
            {
                "format_version": 1,
                "n_modes": 4,
                "ancilla_modes": [],
                "gates": [
                    {"kind": "braid2", "modes": [0, 1], "direction": 1},
                    {"kind": "braid4", "modes": [0, 1, 2, 3], "direction": -1},
                ],
            }
        )
    )
    rc, out, _ = run(capsys, "diagram", str(circ))
    assert rc == 0
    assert out == (
        "c0 -X--O-\n"
        "c1 -X--O-\n"
        "c2 ----O-\n"
        "c3 ----O-\n"
        "    +  -\n"
    )
    rc, out, _ = run(capsys, "diagram", str(circ), "--latex")
    assert rc == 0
    assert out.startswith("\\begin{quantikz}\n")
    assert out.rstrip().endswith("\\end{quantikz}")
    assert "\\gate[wires=4]{B_4^{-}(0,1,2,3)}" in out
    assert "\\gate[wires=2]{B_2^{+}(0,1)}" in out


def test_diagram_labels_ancillas(capsys, tmp_path):
    circ = tmp_path / "empty.circuit"
    circ.write_text(
        json.dumps(
            {"format_version": 1, "n_modes": 4, "ancilla_modes": [0, 1], "gates": []}
        )
    )
    rc, out, _ = run(capsys, "diagram", str(circ))
    assert rc == 0
    assert out == "a0\na1\nc0\nc1\n"


def test_diagram_matches_library_renderer(capsys, tmp_path):
    circ = tmp_path / "kitaev.circuit"
    run(capsys, "synth", "--builtin", "kitaev:4", "--ancilla-free", "--decoder",
        "-o", str(circ))
    doc = parse_circuit(circ.read_text())
    rc, out, _ = run(capsys, "diagram", str(circ))
    assert rc == 0
    assert out == render_ascii(doc.circuit, doc.ancilla_modes)


def render_ascii_per_cell(circuit, ancilla_modes=()):
    """The earlier renderer, which built a new 3-char string per wire per gate."""
    labels = _wire_labels(circuit.n_modes, ancilla_modes)
    if not circuit.gates:
        return "\n".join(labels) + "\n"
    width = max(len(s) for s in labels)
    rows = [[f"{lab:<{width}} "] for lab in labels]
    footer = [" " * (width + 1)]
    for g in circuit.gates:
        lo, hi = g.modes[0], g.modes[-1]
        sym = "O" if g.kind == "braid4" else "X"
        for m in range(circuit.n_modes):
            c = sym if m in g.modes else "|" if lo < m < hi else "-"
            rows[m].append(f"-{c}-")
        footer.append(" + " if g.direction == 1 else " - ")
    lines = ["".join(row) for row in rows]
    lines.append("".join(footer).rstrip())
    return "\n".join(lines) + "\n"


def test_diagram_of_a_random_circuit_is_unchanged():
    circuit = random_circuit(14, 80, random.Random(7))
    assert {g.kind for g in circuit.gates} == {"braid2", "braid4"}
    for ancilla in ((), (0, 1)):
        assert render_ascii(circuit, ancilla) == render_ascii_per_cell(circuit, ancilla)
