"""Built-in codes, random code generation, and the code document format."""

import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidsynth.cli import main
from braidsynth.codes import (
    CircuitDocument,
    CircuitFormatError,
    CodeFormatError,
    kitaev_chain,
    parse_circuit,
    parse_code,
    random_circuit,
    random_code,
    serialize_circuit,
    serialize_code,
    shortest_code,
)
from braidsynth.majorana import MajoranaString


def test_kitaev_chain_structure():
    code = kitaev_chain(4)
    assert code.n_modes == 8
    assert code.name == "kitaev-chain-4"
    assert [g.bits.indices() for g in code.generators] == [(1, 2), (3, 4), (5, 6)]
    assert all(g.phase_r == 1 for g in code.generators)
    code.validate()
    assert code.n_logical == 1


def test_kitaev_chain_needs_two_sites():
    with pytest.raises(ValueError):
        kitaev_chain(1)
    kitaev_chain(2).validate()


def test_shortest_code_rows():
    code = shortest_code()
    assert code.n_modes == 12 and code.name == "shortest"
    assert [g.bits.indices() for g in code.generators] == [
        (0, 1, 2, 3),
        (2, 3, 4, 5),
        (6, 7, 8, 9),
        (8, 9, 10, 11),
        (1, 3, 5, 7, 9, 11),
    ]
    assert [g.phase_r for g in code.generators] == [0, 0, 0, 0, 1]
    code.validate()
    assert code.n_logical == 1


def test_random_circuit_shapes():
    c = random_circuit(6, 20, random.Random(1))
    assert len(c) == 20
    assert all(g.kind in ("braid2", "braid4") for g in c.gates)
    # a two-mode register cannot host quartic gates
    c2 = random_circuit(2, 10, random.Random(1))
    assert all(g.kind == "braid2" for g in c2.gates)
    with pytest.raises(ValueError):
        random_circuit(1, 5, random.Random(0))


@given(st.integers(min_value=0, max_value=500))
def test_random_code_is_always_valid(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 4, 6, 8, 10, 12])
    r = rng.randint(0, n // 2)
    code = random_code(n, r, seed=seed)
    code.validate()
    assert code.n_stabilizers == r
    assert code.name == f"random-{n}-{r}-{seed}"


def test_random_code_is_deterministic():
    a = random_code(8, 3, seed=42)
    b = random_code(8, 3, seed=42)
    assert a.generators == b.generators
    c = random_code(8, 3, seed=43)
    assert a.generators != c.generators


def test_random_code_rejects_bad_shapes():
    with pytest.raises(ValueError):
        random_code(7, 2, seed=0)
    with pytest.raises(ValueError):
        random_code(8, 5, seed=0)


@given(st.integers(min_value=0, max_value=200))
def test_document_round_trip(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    code = random_code(n, rng.randint(0, n // 2), seed=seed)
    assert parse_code(serialize_code(code)) == code


def test_serialize_omits_missing_name():
    code = random_code(4, 1, seed=0)
    doc = json.loads(serialize_code(code))
    assert doc["name"] == code.name
    unnamed = parse_code(
        '{"format_version": 1, "n_modes": 4, "generators": []}'
    )
    assert "name" not in json.loads(serialize_code(unnamed))


def reject(text, fragment):
    with pytest.raises(CodeFormatError, match=fragment):
        parse_code(text)


def test_parse_rejects_malformed_documents():
    reject("not json", "not valid JSON")
    reject("[1, 2]", "top level")
    reject('{"format_version": 1, "n_modes": 4}', "missing")
    reject(
        '{"format_version": 1, "n_modes": 4, "generators": [], "extra": 0}',
        "unknown keys",
    )
    reject('{"format_version": 2, "n_modes": 4, "generators": []}', "format_version")
    reject('{"format_version": true, "n_modes": 4, "generators": []}', "format_version")
    reject('{"format_version": 1, "n_modes": "4", "generators": []}', "integer")
    reject('{"format_version": 1, "n_modes": true, "generators": []}', "integer")
    reject('{"format_version": 1, "n_modes": 5, "generators": []}', "even")
    reject('{"format_version": 1, "n_modes": 4, "generators": {}}', "list")
    reject(
        '{"format_version": 1, "n_modes": 4, "generators": [], "name": 7}', "string"
    )


def test_parse_rejects_malformed_generators():
    head = '{"format_version": 1, "n_modes": 4, "generators": ['
    reject(head + "[0, 1]]}", "must be an object")
    reject(head + '{"modes": [0, 1]}]}', "missing")
    reject(head + '{"modes": [0, 1], "phase_r": 1, "x": 0}]}', "unknown keys")
    reject(head + '{"modes": [0, "1"], "phase_r": 1}]}', "integers")
    reject(head + '{"modes": [0, true], "phase_r": 1}]}', "integers")
    reject(head + '{"modes": [0, 4], "phase_r": 1}]}', "range")
    reject(head + '{"modes": [1, 0], "phase_r": 1}]}', "ascending")
    reject(head + '{"modes": [0, 0], "phase_r": 1}]}', "ascending")
    reject(head + '{"modes": [0, 1], "phase_r": 4}]}', "0..3")
    reject(head + '{"modes": [0, 1], "phase_r": true}]}', "0..3")


def test_parse_accepts_a_plain_document():
    code = parse_code(
        json.dumps(
            {
                "format_version": 1,
                "name": "pair",
                "n_modes": 4,
                "generators": [{"modes": [0, 1], "phase_r": 1}],
            }
        )
    )
    assert code.name == "pair"
    assert code.generators == (MajoranaString.from_modes(4, (0, 1), 1),)


def circuit_text(*gates, n_modes=4):
    return json.dumps(
        {"format_version": 1, "n_modes": n_modes, "ancilla_modes": [], "gates": list(gates)}
    )


def gate(kind="braid2", modes=(0, 1), direction=1):
    return {"kind": kind, "modes": list(modes), "direction": direction}


def test_parse_circuit_gate_messages():
    """Every per-gate message, word for word, and which check reports when
    a gate breaks several."""
    cases = [
        ([gate(), [0, 1]], "gate 1 must be an object"),
        ([{"kind": "braid2", "modes": [0, 1]}], "gate 0 is missing ['direction']"),
        ([{**gate(), "x": 0}], "gate 0 has unknown keys ['x']"),
        ([gate(kind="braid3")], "gate 0: kind must be 'braid2' or 'braid4'"),
        ([gate(kind=["braid2"])], "gate 0: kind must be 'braid2' or 'braid4'"),
        ([{**gate(), "modes": "01"}], "gate 0: modes must be a list"),
        ([gate(modes=(0, True))], "gate 0 mode must be an integer"),
        ([gate(modes=(0, 1.0))], "gate 0 mode must be an integer"),
        ([gate(direction=True)], "gate 0 direction must be an integer"),
        ([gate(direction="1")], "gate 0 direction must be an integer"),
        ([gate(modes=(0, 1, 2))], "gate 0: braid2 needs 2 modes"),
        ([gate(kind="braid4")], "gate 0: braid4 needs 4 modes"),
        ([gate(modes=(-1, 0))], "gate 0: modes must be nonnegative"),
        ([gate(modes=(1, 1))], "gate 0: modes must be strictly ascending"),
        ([gate(direction=0)], "gate 0: direction must be +1 or -1"),
        ([gate(modes=(0, 4))], "gate 0: mode out of range 0..3"),
        # several failures in one gate: the earlier check reports
        ([{"kind": "braid3", "modes": 5}], "gate 0 is missing ['direction']"),
        ([{**gate(kind="braid3"), "modes": 5}], "gate 0: kind must be 'braid2' or 'braid4'"),
        ([gate(modes=(0, "1"), direction="x")], "gate 0 mode must be an integer"),
        ([gate(modes=(1, 0), direction=2)], "gate 0: modes must be strictly ascending"),
        ([gate(modes=(0, 9), direction=2)], "gate 0: direction must be +1 or -1"),
        ([gate(modes=(1, -1))], "gate 0: modes must be nonnegative"),
        ([gate(modes=(0, 9)), gate(kind="braid3")], "gate 0: mode out of range 0..3"),
    ]
    for gates, message in cases:
        with pytest.raises(CircuitFormatError) as exc:
            parse_circuit(circuit_text(*gates))
        assert str(exc.value) == message, gates


@pytest.mark.parametrize("k", [1, 4])
def test_parse_circuit_gate_messages_after_valid_gates(monkeypatch, k):
    """Every case of test_parse_circuit_gate_messages behind k valid gates.
    The whole-list pass fails on each such list, so the per-gate loop must
    find the fault and name gate index + k in the same message; the index
    is shifted back here so that the case's own assert compares the rest."""
    valid = [gate(modes=(1, 3)), gate(kind="braid4", modes=(0, 1, 2, 3), direction=-1)]
    parse = parse_circuit

    def parse_behind_valid_gates(text):
        doc = json.loads(text)
        doc["gates"][:0] = (valid * k)[:k]
        try:
            return parse(json.dumps(doc))
        except CircuitFormatError as exc:
            index, rest = re.fullmatch(r"gate (\d+)(.*)", str(exc)).groups()
            assert int(index) >= k, str(exc)
            raise CircuitFormatError(f"gate {int(index) - k}{rest}") from None

    monkeypatch.setitem(globals(), "parse_circuit", parse_behind_valid_gates)
    test_parse_circuit_gate_messages()


@pytest.mark.parametrize("seed", range(8))
def test_circuit_document_round_trip(seed):
    """Seeded random documents, the empty gate list included, come back from
    serialize_circuit and parse_circuit equal, gate by gate."""
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 9, 40])
    circuit = random_circuit(n, [0, 1, 5, 300][seed % 4], rng)
    ancilla = (0, 1) if rng.random() < 0.5 else ()
    subs = tuple((i, i + 1) for i in range(rng.randrange(3)))
    doc = CircuitDocument(circuit, ancilla, subs, rng.choice(["encoder", "decoder"]))
    parsed = parse_circuit(serialize_circuit(doc))
    assert parsed == doc
    assert [g.generator_phase for g in parsed.circuit.gates] == [
        g.generator_phase for g in circuit.gates
    ]


@pytest.mark.parametrize("mode", [10**12, 172_685_231_650])
def test_far_out_of_range_mode_is_rejected_by_range(mode, tmp_path, capsys):
    """A mode far outside the register is a range error, reported before
    anything sized by the mode (such as its support mask) is built."""
    text = circuit_text(gate(modes=(0, mode)), gate(kind="braid4", modes=(1, 2, 3, mode)))
    with pytest.raises(CircuitFormatError) as exc:
        parse_circuit(text)
    assert str(exc.value) == "gate 0: mode out of range 0..3"
    circuit = tmp_path / "far.circuit"
    circuit.write_text(text)
    assert main(["verify", "--builtin", "kitaev:2", str(circuit)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ") and "mode out of range" in captured.err
    assert captured.err.count("\n") == 1
