"""Built-in codes, random code generation, and the code document format."""

import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidsynth import codes
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
from braidsynth.majorana import BraidGate, Circuit, MajoranaString, invert
from braidsynth.synth import synthesize_with_ancilla
from braidsynth.tableau import StabilizerCode


def test_kitaev_chain_structure():
    code = kitaev_chain(4)
    assert code.n_modes == 8
    assert code.name == "kitaev-chain-4"
    assert [g.modes for g in code.generators] == [(1, 2), (3, 4), (5, 6)]
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
    assert [g.modes for g in code.generators] == [
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
    # the checks run in message order, type then range then ascending, so
    # the first a list fails reports whatever else it fails
    for modes in ("3", "null", "[[0], 1]", "[0, 1.0]", '[0, "x", 9]'):
        reject(head + '{"modes": %s, "phase_r": 1}]}' % modes, "integers")
    for modes in ("[9, 0]", "[-1, 0]", "[0, 0, 9]"):
        reject(head + '{"modes": %s, "phase_r": 1}]}' % modes, "range")
    empty = parse_code(head + '{"modes": [], "phase_r": 0}]}')
    assert empty.generators == (MajoranaString.from_modes(4, (), 0),)


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
        ([{"kind": "braid2", "modes": [0, 1], "x": 1}], "gate 0 is missing ['direction']"),
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


@pytest.mark.parametrize("k", [0, 1, 4])
def test_parse_circuit_gate_messages_in_an_encoder_document(monkeypatch, k):
    """Every case of test_parse_circuit_gate_messages in an encoder document,
    behind k valid gates and ahead of two more.  The whole-list pass takes
    an encoder's entries in reverse, but each message must still name the
    gate by its position in the file, not in the decoder: the index is
    shifted back by k here, and the trailing gates would move it in the
    decoder's order."""
    valid = [gate(modes=(1, 3)), gate(kind="braid4", modes=(0, 1, 2, 3), direction=-1)]
    parse = parse_circuit

    def parse_as_encoder(text):
        doc = json.loads(text)
        doc["role"] = "encoder"
        doc["gates"][:0] = (valid * k)[:k]
        doc["gates"] += valid
        try:
            return parse(json.dumps(doc))
        except CircuitFormatError as exc:
            index, rest = re.fullmatch(r"gate (\d+)(.*)", str(exc)).groups()
            assert int(index) >= k, str(exc)
            raise CircuitFormatError(f"gate {int(index) - k}{rest}") from None

    monkeypatch.setitem(globals(), "parse_circuit", parse_as_encoder)
    test_parse_circuit_gate_messages()


def substitutions_text(subs):
    return json.dumps({**json.loads(circuit_text(gate())), "substitutions": subs})


# (substitutions list, message) for every per-entry fault, and which check
# reports when an entry, or the list, breaks several
SUBSTITUTION_CASES = [
    ([[0]], "substitutions entries must be [i, j] pairs"),
    ([[0, 1, 2]], "substitutions entries must be [i, j] pairs"),
    (["01"], "substitutions entries must be [i, j] pairs"),
    ([(0, 1), 5], "substitutions entries must be [i, j] pairs"),
    ([[True, 0]], "substitution index must be an integer"),
    ([[0, 1.0]], "substitution index must be an integer"),
    ([[-1, "x"]], "substitution index must be an integer"),
    ([[0, -1]], "substitution [0, -1] has a negative index"),
    ([[2, 2]], "substitution [2, 2] multiplies a generator by itself"),
    ([[1, 0], [-1, -1], [0]], "substitution [-1, -1] has a negative index"),
    ([[3, 3], [0, -1]], "substitution [3, 3] multiplies a generator by itself"),
    ([[0, -1], [1]], "substitution [0, -1] has a negative index"),
]


@pytest.mark.parametrize("k", [0, 1, 4])
def test_parse_circuit_substitution_messages(k):
    """Every per-entry message, word for word, behind k valid entries: the
    whole-list passes refuse each list, and the per-entry loop reports the
    first fault in file order."""
    valid = [[1, 0], [0, 3], [2, 1], [3, 2]][:k]
    for subs, message in SUBSTITUTION_CASES:
        with pytest.raises(CircuitFormatError) as exc:
            parse_circuit(substitutions_text(valid + subs))
        assert str(exc.value) == message, subs
    with pytest.raises(CircuitFormatError, match="^substitutions must be a list$"):
        parse_circuit(substitutions_text({"0": 1}))


def test_valid_substitutions_skip_the_per_entry_loop(monkeypatch):
    """A valid list, empty or not, passes the whole-list checks alone: the
    per-entry loop, the one caller of _int with the index message, never
    runs, and the pairs come back in file order."""
    index_checks = []
    check = codes._int

    def counted(value, message, error):
        if message.startswith("substitution"):
            index_checks.append(value)
        return check(value, message, error)

    monkeypatch.setattr(codes, "_int", counted)
    subs = [[5, 0], [0, 5], [1, 2], [7, 3]] * 50
    assert parse_circuit(substitutions_text(subs)).substitutions == tuple(map(tuple, subs))
    assert parse_circuit(substitutions_text([])).substitutions == ()
    assert parse_circuit(circuit_text(gate())).substitutions == ()
    assert index_checks == []
    with pytest.raises(CircuitFormatError):
        parse_circuit(substitutions_text([[0, 1], [1, True]]))
    assert index_checks == [0, 1, 1, True]


def test_parsed_encoder_document_holds_the_decoder(monkeypatch):
    """An encoder file lists the decoder's gates reversed, each direction
    negated; parsing gives the decoder back, with one gate construction
    per listed gate and none to invert them afterwards."""
    decoder = Circuit(6, (
        BraidGate("braid2", (0, 1)),
        BraidGate("braid4", (0, 2, 3, 5), -1),
        BraidGate("braid2", (4, 5), -1),
    ))
    listed = [
        {"kind": g.kind, "modes": list(g.modes), "direction": g.direction}
        for g in invert(decoder).gates
    ]
    text = json.dumps(
        {"format_version": 1, "role": "encoder", "n_modes": 6, "ancilla_modes": [], "gates": listed}
    )
    built = []

    def counted(*args):
        built.append(args)
        return BraidGate(*args)

    monkeypatch.setattr(codes, "BraidGate", counted)
    doc = parse_circuit(text)
    assert doc.role == "encoder" and doc.circuit == decoder
    assert len(built) == len(listed)
    monkeypatch.undo()
    assert serialize_circuit(doc) == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "role, ancilla",
    [("Encoder", ()), ("inverse", ()), ("", ()), (None, ()),
     ("decoder", (0,)), ("encoder", (1, 0)), ("decoder", (0, 1, 2)), ("decoder", [0, 1]),
     ("decoder", (False, True)), ("encoder", (0, True))],
)
def test_circuit_document_refuses_what_parse_circuit_refuses(role, ancilla):
    """A role or ancilla_modes that no circuit file may hold is refused when
    the document is built, so serialize_circuit never writes a file that
    parse_circuit refuses, or a mistyped role in the decoder's order."""
    with pytest.raises(ValueError) as exc:
        CircuitDocument(Circuit(2, ()), ancilla, (), role)
    assert str(exc.value) == (
        "role must be 'encoder' or 'decoder', and ancilla_modes () or (0, 1)"
    )


def test_circuit_document_accepts_both_roles_and_ancilla_layouts():
    for role in ("encoder", "decoder"):
        for ancilla in ((), (0, 1)):
            doc = CircuitDocument(Circuit(2, ()), ancilla, (), role)
            assert parse_circuit(serialize_circuit(doc)) == doc


@pytest.mark.parametrize(
    "subs, message",
    [
        (((0, 0),), "multiplies a generator by itself"),
        (((-1, 2),), "has a negative index"),
        (((True, 1),), "substitution index must be an integer"),
    ],
    ids=["self", "negative", "bool"],
)
def test_circuit_document_refuses_substitutions_no_file_may_hold(subs, message):
    """Each of these once serialized to a file that parse_circuit refuses;
    the document now refuses it when it is built, and the file, written by
    hand, still fails to parse with its own message."""
    with pytest.raises(ValueError) as exc:
        CircuitDocument(Circuit(4, ()), (), subs, "decoder")
    assert str(exc.value) == "substitutions must be pairs (i, j) of distinct nonnegative ints"
    header = {"format_version": 1, "n_modes": 4, "ancilla_modes": [], "gates": []}
    text = json.dumps({**header, "substitutions": [list(s) for s in subs]})
    with pytest.raises(CircuitFormatError, match=message):
        parse_circuit(text)


def test_records_built_from_lists_store_tuples():
    """A frozen record given a list stores a tuple, so it equals and hashes
    like the record built from tuples, and what it hands on is a tuple."""
    gate = BraidGate("braid2", [0, 1])
    m = MajoranaString(4, 0b11, 1)
    pairs = [
        (gate, BraidGate("braid2", (0, 1))),
        (gate.inverse(), BraidGate("braid2", (0, 1), -1)),
        (Circuit(4, [gate]), Circuit(4, (gate,))),
        (StabilizerCode(4, [m]), StabilizerCode(4, (m,))),
        (
            CircuitDocument(Circuit(4, ()), (), [(0, 1)], "decoder"),
            CircuitDocument(Circuit(4, ()), (), ((0, 1),), "decoder"),
        ),
    ]
    for built, want in pairs:
        assert built == want and hash(built) == hash(want), want
    assert type(gate.inverse().modes) is tuple
    assert type(invert(Circuit(4, [gate])).gates) is tuple
    with pytest.raises(ValueError, match="distinct nonnegative ints"):
        CircuitDocument(Circuit(4, ()), (), [[0, 1]], "decoder")


def test_a_negative_substitution_index_never_reaches_verify():
    """(0, -1) on the shortest ancilla document would name the ancilla row
    through Python's negative index; the document refuses it instead."""
    result = synthesize_with_ancilla(shortest_code())
    with pytest.raises(ValueError, match="distinct nonnegative ints"):
        CircuitDocument(result.decoder, (0, 1), result.substitutions + ((0, -1),), "decoder")


def test_parse_circuit_checks_a_substitutions_list_once(monkeypatch):
    """The whole-list check of the substitutions is the document's own, and
    a parsed document runs it once."""
    result = synthesize_with_ancilla(shortest_code())
    doc = CircuitDocument(result.decoder, (0, 1), result.substitutions, "decoder")
    text = serialize_circuit(doc)
    check = codes._valid_substitutions
    calls = []
    counted = lambda pairs: calls.append(pairs) or check(pairs)  # noqa: E731
    monkeypatch.setattr(codes, "_valid_substitutions", counted)
    assert parse_circuit(text) == doc
    assert calls == [doc.substitutions]


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
