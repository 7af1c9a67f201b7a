"""Command-line front end: synthesize, verify, and draw braid circuits.

Circuit documents are strict JSON in the same dialect as code documents:
format_version, n_modes, ancilla_modes, a gates list, plus two optional
fields -- role ("encoder" or "decoder", default decoder) so verify knows
which way to run the circuit, and substitutions recording generating-set
changes made during synthesis.  Unknown keys are rejected.  A substitution
[i, j] (generator i <- generator i * generator j) needs 0 <= i, j < r and
i != j; verify checks the range against the code's r before replaying.
n_modes may exceed ``codes.MAX_REGISTER_MODES`` by at most the ancilla
pair; larger documents are refused before any gate is read.

Exit codes: 0 ok, 1 invalid input (code or circuit document), 2 synthesis
obstruction, 3 I/O error, 4 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .bitlinalg import check_symplectic
from .codes import (
    MAX_REGISTER_MODES,
    CodeFormatError,
    kitaev_chain,
    parse_code,
    shortest_code,
)
from .majorana import (
    BraidGate,
    Circuit,
    MajoranaString,
    circuit_matrix,
    conjugate_circuit,
    invert,
)
from .oracle import MAX_MODES, circuit_unitary, dense_majorana, dense_monomial
from .synth import (
    PhaseCorrectionError,
    SynthesisResult,
    TotalParityObstruction,
    apply_substitutions,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from .tableau import (
    CodeValidationError,
    DecodedTarget,
    StabilizerCode,
    apply_circuit,
    prepend_ancilla_modes,
)

__all__ = [
    "CircuitFormatError",
    "VerificationFailure",
    "CircuitDocument",
    "parse_circuit",
    "serialize_circuit",
    "render_ascii",
    "render_latex",
    "main",
]


class CircuitFormatError(ValueError):
    """A circuit document that does not follow the JSON schema."""


class VerificationFailure(Exception):
    """A verify check that did not pass; .check names the first failure."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass(frozen=True, slots=True)
class CircuitDocument:
    circuit: Circuit
    ancilla_modes: tuple[int, ...]
    substitutions: tuple[tuple[int, int], ...]
    role: str


def _require_keys(obj: dict[str, Any], required: set[str], optional: set[str], where: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise CircuitFormatError(f"{where} is missing {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise CircuitFormatError(f"{where} has unknown keys {sorted(unknown)}")


def _int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CircuitFormatError(f"{where} must be an integer")
    return value


def parse_circuit(text: str) -> CircuitDocument:
    """Parse a strict JSON circuit document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top level must be an object")
    _require_keys(
        doc,
        {"format_version", "n_modes", "ancilla_modes", "gates"},
        {"role", "substitutions"},
        "circuit document",
    )
    if doc["format_version"] != 1:
        raise CircuitFormatError(f"unsupported format_version {doc['format_version']!r}")
    n_modes = _int(doc["n_modes"], "n_modes")
    if n_modes < 1:
        raise CircuitFormatError("n_modes must be positive")
    if n_modes > MAX_REGISTER_MODES + 2:
        raise CircuitFormatError(
            f"n_modes {n_modes} exceeds the maximum {MAX_REGISTER_MODES + 2} "
            "(a code register plus the ancilla pair)"
        )
    ancilla = doc["ancilla_modes"]
    if ancilla not in ([], [0, 1]):
        raise CircuitFormatError("ancilla_modes must be [] or [0, 1]")
    role = doc.get("role", "decoder")
    if role not in ("encoder", "decoder"):
        raise CircuitFormatError("role must be 'encoder' or 'decoder'")
    subs = []
    for entry in doc.get("substitutions", []):
        if not isinstance(entry, list) or len(entry) != 2:
            raise CircuitFormatError("substitutions entries must be [i, j] pairs")
        i, j = (_int(k, "substitution index") for k in entry)
        if i < 0 or j < 0:
            raise CircuitFormatError(f"substitution {entry} has a negative index")
        if i == j:
            raise CircuitFormatError(f"substitution {entry} multiplies a generator by itself")
        subs.append((i, j))
    if not isinstance(doc["gates"], list):
        raise CircuitFormatError("gates must be a list")
    gates = []
    for g, entry in enumerate(doc["gates"]):
        where = f"gate {g}"
        if not isinstance(entry, dict):
            raise CircuitFormatError(f"{where} must be an object")
        _require_keys(entry, {"kind", "modes", "direction"}, set(), where)
        kind = entry["kind"]
        if kind not in ("braid2", "braid4"):
            raise CircuitFormatError(f"{where}: kind must be 'braid2' or 'braid4'")
        modes = entry["modes"]
        if not isinstance(modes, list):
            raise CircuitFormatError(f"{where}: modes must be a list")
        modes = tuple(_int(m, f"{where} mode") for m in modes)
        direction = _int(entry["direction"], f"{where} direction")
        try:
            gate = BraidGate(kind, modes, direction)
        except ValueError as exc:
            raise CircuitFormatError(f"{where}: {exc}") from exc
        if gate.modes[-1] >= n_modes:
            raise CircuitFormatError(f"{where}: mode out of range 0..{n_modes - 1}")
        gates.append(gate)
    return CircuitDocument(Circuit(n_modes, tuple(gates)), tuple(ancilla), tuple(subs), role)


# One gate object exactly as json.dumps(indent=2) lays it out in the gates list.
_GATE_JSON = (
    '    {\n      "kind": "%s",\n      "modes": [\n        %s\n      ],\n'
    '      "direction": %d\n    }'
)


def serialize_circuit(doc: CircuitDocument) -> str:
    """Render a circuit document as JSON (inverse of parse_circuit).

    The output is byte-identical to ``json.dumps(..., indent=2)`` of the
    whole document; the header goes through json, and the gates, whose
    fields are fixed, through one template, which is several times faster.
    """
    out: dict[str, Any] = {
        "format_version": 1,
        "role": doc.role,
        "n_modes": doc.circuit.n_modes,
        "ancilla_modes": list(doc.ancilla_modes),
    }
    if doc.substitutions:
        out["substitutions"] = [list(s) for s in doc.substitutions]
    out["gates"] = []
    text = json.dumps(out, indent=2)
    if not doc.circuit.gates:
        return text + "\n"
    gates = ",\n".join(
        _GATE_JSON % (g.kind, ",\n        ".join(map(str, g.modes)), g.direction)
        for g in doc.circuit.gates
    )
    return text[: -len("[]\n}")] + "[\n" + gates + "\n  ]\n}\n"


def _wire_labels(n_modes: int, ancilla_modes: tuple[int, ...]) -> list[str]:
    offset = len(ancilla_modes)
    return [f"a{m}" if m in ancilla_modes else f"c{m - offset}" for m in range(n_modes)]


def render_ascii(circuit: Circuit, ancilla_modes: tuple[int, ...] = ()) -> str:
    """One wire per mode; braid4 supports drawn O, braid2 supports X."""
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
            if m in g.modes:
                c = sym
            elif lo < m < hi:
                c = "|"
            else:
                c = "-"
            rows[m].append(f"-{c}-")
        footer.append(" + " if g.direction == 1 else " - ")
    lines = ["".join(row) for row in rows]
    lines.append("".join(footer).rstrip())
    return "\n".join(lines) + "\n"


def render_latex(circuit: Circuit, ancilla_modes: tuple[int, ...] = ()) -> str:
    """quantikz-style listing; each gate is one column's multiwire box."""
    labels = _wire_labels(circuit.n_modes, ancilla_modes)
    cells = [[rf"\lstick{{${lab[0]}_{{{lab[1:]}}}$}}"] for lab in labels]
    for g in circuit.gates:
        lo, hi = g.modes[0], g.modes[-1]
        tag = "B_2" if g.kind == "braid2" else "B_4"
        sign = "+" if g.direction == 1 else "-"
        body = rf"\gate[wires={hi - lo + 1}]{{{tag}^{{{sign}}}({','.join(map(str, g.modes))})}}"
        for m in range(circuit.n_modes):
            if m == lo:
                cells[m].append(body)
            elif lo < m <= hi:
                cells[m].append("")
            else:
                cells[m].append(r"\qw")
    lines = [r"\begin{quantikz}"]
    for m, row in enumerate(cells):
        tail = r" \\" if m < circuit.n_modes - 1 else ""
        lines.append(" & ".join(row) + tail)
    lines.append(r"\end{quantikz}")
    return "\n".join(lines) + "\n"


def _builtin_code(selector: str) -> StabilizerCode:
    if selector == "shortest":
        return shortest_code()
    if selector.startswith("kitaev:"):
        try:
            n = int(selector.split(":", 1)[1])
        except ValueError as exc:
            raise CodeFormatError(f"bad builtin {selector!r}: kitaev:N needs an integer") from exc
        try:
            return kitaev_chain(n)
        except ValueError as exc:
            raise CodeFormatError(f"bad builtin {selector!r}: {exc}") from exc
    raise CodeFormatError(f"unknown builtin {selector!r} (available: shortest, kitaev:N)")


def _read_text(path: str, error: type[ValueError]) -> str:
    """A file's text, with undecodable bytes reported as invalid input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _load_code(args: argparse.Namespace) -> StabilizerCode:
    """The code named on the command line, not yet validated."""
    if (args.code is None) == (args.builtin is None):
        raise CodeFormatError("provide exactly one of CODEFILE or --builtin")
    if args.builtin is not None:
        return _builtin_code(args.builtin)
    return parse_code(_read_text(args.code, CodeFormatError))


def _report_synth(code: StabilizerCode, result: SynthesisResult, role: str, dest: str) -> None:
    counts = result.gate_counts
    print(f"code: {code.name or '(unnamed)'}  [n_modes={code.n_modes}, generators={code.n_stabilizers}]")
    print(f"variant: {'with-ancilla' if result.ancilla_modes else 'ancilla-free'}")
    print(f"total modes: {result.total_modes}")
    print(f"ancilla modes: {list(result.ancilla_modes)}")
    total = counts["braid2"] + counts["braid4"]
    print(f"gate counts: braid2={counts['braid2']} braid4={counts['braid4']} total={total}")
    print(f"logical sign flips: {list(result.logical_sign_flips)}")
    print(f"generating-set changes: {[list(s) for s in result.substitutions]}")
    if result.ancilla_modes:
        print(f"ancilla image after reset: {result.ancilla_image}")
        print(f"ancilla residual phase_r: {result.ancilla_phase_r}")
    print(f"document ({role}): {dest}")


def cmd_synth(args: argparse.Namespace) -> int:
    code = _load_code(args)  # synthesis validates it
    if args.ancilla_free:
        result = synthesize_ancilla_free(code)
    else:
        result = synthesize_with_ancilla(code)
    role = "decoder" if args.decoder else "encoder"
    circuit = result.decoder if args.decoder else result.encoder
    doc = CircuitDocument(circuit, result.ancilla_modes, result.substitutions, role)
    if args.output is None:
        dest = "not written (pass -o to write)"
    elif args.output == "-":
        sys.stdout.write(serialize_circuit(doc))
        dest = "stdout"
    else:
        Path(args.output).write_text(serialize_circuit(doc))
        dest = args.output
    _report_synth(code, result, role, dest)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args)
    code.validate()
    doc = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    if doc.ancilla_modes:
        expected = code.n_modes + 2
        working = prepend_ancilla_modes(code)
        pivot_base = 2
    else:
        expected = code.n_modes
        working = code
        pivot_base = 0
    if doc.circuit.n_modes != expected:
        raise CircuitFormatError(
            f"circuit acts on {doc.circuit.n_modes} modes, expected {expected} for this code"
        )
    for i, j in doc.substitutions:
        if max(i, j) >= code.n_stabilizers:
            raise CircuitFormatError(
                f"substitution [{i}, {j}] is out of range for {code.n_stabilizers} generators"
            )
    decoder = doc.circuit if doc.role == "decoder" else invert(doc.circuit)
    target = DecodedTarget(expected, pivot_base, code.n_stabilizers)

    arrived = apply_circuit(decoder, apply_substitutions(working, doc.substitutions))
    if not target.matches(arrived):
        bad = next(
            j for j, g in enumerate(arrived.generators) if g != target.generator(j)
        )
        raise VerificationFailure(
            "decoded-form", f"generator {bad} arrives at {arrived.generators[bad]}"
        )
    print("decoded-form check: ok")

    if not check_symplectic(circuit_matrix(doc.circuit)):
        raise VerificationFailure("symplectic", "circuit_matrix breaks the fermionic pairing")
    print("symplectic check: ok")

    if not args.oracle:
        print("oracle check: skipped (pass --oracle to run)")
        return 0
    n = doc.circuit.n_modes
    if n > MAX_MODES:
        raise VerificationFailure("oracle", f"needs at most {MAX_MODES} total modes, got {n}")
    unitary = circuit_unitary(doc.circuit)
    for m in range(n):
        lhs = unitary @ dense_majorana(n, m) @ unitary.conj().T
        image = conjugate_circuit(doc.circuit, MajoranaString.single_mode(n, m))
        if not np.allclose(lhs, dense_monomial(image), atol=1e-9):
            raise VerificationFailure("oracle", f"dense conjugation of mode {m} disagrees")
    print(f"oracle check: ok ({n} modes, dimension {2 ** (n // 2)})")
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    doc = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    render = render_latex if args.latex else render_ascii
    sys.stdout.write(render(doc.circuit, doc.ancilla_modes))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidsynth",
        description="Synthesize and check braid encoder/decoder circuits "
        "for Majorana stabilizer codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize an encoder/decoder for a code")
    p_synth.add_argument("code", nargs="?", help="code document (JSON)")
    p_synth.add_argument("--builtin", help="built-in code: shortest or kitaev:N")
    p_synth.add_argument(
        "--ancilla-free", action="store_true", help="refuse ancillas (may be obstructed)"
    )
    p_synth.add_argument(
        "--decoder", action="store_true", help="write the decoder instead of the encoder"
    )
    p_synth.add_argument("-o", "--output", help="circuit document destination ('-' for stdout)")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="check a circuit document against a code")
    p_verify.add_argument("code", nargs="?", help="code document (JSON)")
    p_verify.add_argument("circuit", help="circuit document (JSON)")
    p_verify.add_argument("--builtin", help="built-in code: shortest or kitaev:N")
    p_verify.add_argument(
        "--oracle", action="store_true", help="also check against the dense matrix oracle"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diagram", help="render a circuit document as text")
    p_diag.add_argument("circuit", help="circuit document (JSON)")
    p_diag.add_argument("--latex", action="store_true", help="emit a quantikz-style listing")
    p_diag.set_defaults(func=cmd_diagram)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        return args.func(args)
    except (CodeFormatError, CodeValidationError, CircuitFormatError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (TotalParityObstruction, PhaseCorrectionError) as exc:
        print(f"synthesis obstruction: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failed ({exc.check}): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
