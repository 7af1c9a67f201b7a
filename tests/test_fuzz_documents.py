"""Near-valid code and circuit documents: parsing raises only the format
error of the document, and ``verify`` ends in a documented exit code with
at most one diagnostic line, never in a traceback."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidsynth.cli import main
from braidsynth.codes import (
    CircuitDocument,
    CircuitFormatError,
    CodeFormatError,
    kitaev_chain,
    parse_circuit,
    parse_code,
    serialize_circuit,
    serialize_code,
)
from braidsynth.majorana import MajoranaString
from braidsynth.synth import synthesize_ancilla_free, synthesize_with_ancilla
from braidsynth.tableau import StabilizerCode


def _pair(code, result, role):
    doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, role)
    return json.loads(serialize_code(code)), json.loads(serialize_circuit(doc))


def _bases():
    """(code, circuit) documents that verify: an ancilla-free decoder that
    records a substitution, and an ancilla encoder of a chain."""
    modes = (((0, 1), 1), ((2, 3, 4, 5), 2), ((2, 3), 1))
    substituted = StabilizerCode(6, tuple(MajoranaString.from_modes(6, m, r) for m, r in modes))
    chain = kitaev_chain(3)
    return [
        _pair(substituted, synthesize_ancilla_free(substituted), "decoder"),
        _pair(chain, synthesize_with_ancilla(chain), "encoder"),
    ]


BASES = _bases()
# Text spliced in after encoding, where json.dumps cannot produce it.
RAW = [
    "[" * 50 + "]" * 50,
    "[" * 990 + "]" * 990,
    "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 5000 + "0" + "}" * 5000,
    "9" * 4300,
    "9" * 5000,
    "-" + "9" * 5000,
    "1e400",
    "NaN",
]
DUPLICATE = "@duplicate@"
VALUES = st.one_of(
    st.sampled_from([f"@raw{i}@" for i in range(len(RAW))]),
    st.sampled_from([True, False, None, "x", "", 1.5, [], {}, [0, 1], [[0, 1]], {"modes": [0]}]),
    st.integers(-3, 20),
    st.integers(-(10**30), 10**30),
)


def paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from paths(value, prefix + (i,))


def mutate(obj, path, op, value):
    """The document with one key dropped, duplicated or replaced, as text."""
    if not path:
        doc = value
    else:
        doc = copy.deepcopy(obj)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if op == "drop":
            del parent[last]
        elif op == "duplicate" and isinstance(last, str):
            parent[DUPLICATE] = value  # encoded after the original, so it wins
        else:
            parent[last] = value
    text = json.dumps(doc)
    if op == "duplicate" and path and isinstance(path[-1], str):
        text = text.replace(json.dumps(DUPLICATE), json.dumps(path[-1]))
    for i, raw in enumerate(RAW):
        text = text.replace(json.dumps(f"@raw{i}@"), raw)
    return text


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_near_valid_documents_fail_only_as_documented(tmp_path, data):
    code_doc, circuit_doc = data.draw(st.sampled_from(BASES))
    which = data.draw(st.sampled_from(["code", "circuit"]))
    target = code_doc if which == "code" else circuit_doc
    # top-level fields are drawn as often as all the nested ones together
    every = list(paths(target))
    path = data.draw(st.sampled_from([p for p in every if len(p) == 1]) | st.sampled_from(every))
    op = data.draw(st.sampled_from(["drop", "duplicate", "replace"]))
    text = mutate(target, path, op, data.draw(VALUES))

    parse, error = (parse_code, CodeFormatError) if which == "code" else (
        parse_circuit, CircuitFormatError
    )
    try:
        parse(text)
    except error:
        pass

    code_file, circuit_file = tmp_path / "fuzz.code", tmp_path / "fuzz.circuit"
    code_file.write_text(text if which == "code" else json.dumps(code_doc))
    circuit_file.write_text(text if which == "circuit" else json.dumps(circuit_doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["verify", str(code_file), str(circuit_file)])
    assert rc in (0, 1, 4)
    if rc == 1:
        assert err.getvalue().startswith("invalid input: ")
    if rc:
        assert err.getvalue().count("\n") == 1
