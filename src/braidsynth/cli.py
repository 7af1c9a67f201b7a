"""Command-line front end: synthesize, verify, and draw braid circuits.

``verify_document`` is the one circuit verifier: ``verify`` prints the lines
it yields, and the tests and the stress script call it directly.

Exit codes: 0 ok, 1 invalid input (code or circuit document), 2 synthesis
obstruction, 3 I/O error, 4 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Iterator, TextIO

from .codes import (
    CircuitDocument,
    CircuitFormatError,
    CodeFormatError,
    kitaev_chain,
    parse_circuit,
    parse_code,
    serialize_circuit,
    shortest_code,
)
from .majorana import (
    Circuit,
    MajoranaString,
    _ModeTableau,
    _multiply_rows,
    gate_counts,
    invert,
)
from .oracle import NonMonomialError, conjugate_rows, fold_refusal
from .synth import (
    PhaseCorrectionError,
    SynthesisResult,
    TotalParityObstruction,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from .tableau import CodeValidationError, StabilizerCode, _working_rows

__all__ = [
    "VerificationFailure",
    "verify_document",
    "render_ascii",
    "render_latex",
    "main",
]


class VerificationFailure(Exception):
    """A verify check that did not pass; .check names the first failure."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


def verify_document(
    code: StabilizerCode, doc: CircuitDocument, oracle: bool = False
) -> Iterator[str]:
    """Check a circuit document against a validated code, yielding each report
    line as its check passes: the decoded form, where the decoder leaves
    i c_0 c_1 when the document has an ancilla pair, then the operator
    oracle if asked.  Raises CircuitFormatError when the document does not
    fit the code and VerificationFailure at the first failed check.  The
    document's circuit is the decoder whatever its role (``codes`` reads
    the order a file lists the gates in), so it always runs forward.

    The rows are packed ints, the register synthesis starts from
    (``tableau._working_rows``): the code's generators, shifted past the
    ancilla pair when the document has one, and then i c_0 c_1.  The
    recorded changes of generating set (i, j) are multiplied out first,
    in order, on those rows, by the kernel synthesis uses
    (``majorana._multiply_rows``).  Conjugation is an algebra
    automorphism, so replaying these rows equals folding the changes on
    the replayed images.  One replay then serves the first two checks:
    the adjusted generators, and with an ancilla pair the row i c_0 c_1
    after them, go through the decoder in one mode-major tableau, and
    ``_ModeTableau.undecoded``, the test synthesis ends on, names the
    first generator off its pair.  The row i c_0 c_1 must come back as
    +-i c_0 c_1, or the ancilla pair would keep logical information,
    unless the code contains the total parity: braids fix the all-modes
    monomial, so the decoded generators already pin the row's image, and
    it is reported as it stands.  ``DecodedTarget.pins`` tells the two
    apart with no GF(2) elimination: the image commutes with every
    decoded pair, so it holds each pair whole or not at all, and it holds
    modes 0, 1 and every logical mode exactly when the code holds the
    total parity.  No check of the fermionic pairing runs: every braid's
    bit action preserves it (see ``majorana``).

    The oracle takes the code's generators, i c_0 c_1 and the recorded
    changes; its ``MajoranaString`` rows are built only when it runs,
    from copies of the ints taken before the changes.  It maps the rows to
    Jordan-Wigner Pauli strings, multiplies the changes out with its own
    product and folds the strings through the decoder, each gate sending
    the rows that anticommute with its generator V to i V times the row
    (``oracle.conjugate_rows``).  It
    compares each row with what the checks above accepted: generator j
    with its decoded pair, i c_0 c_1 with the reported image.  It uses
    neither the tableau, the row-product kernel nor the bit rule of
    ``majorana``, so it re-derives both checks.  A fold of more than
    ``oracle.MAX_WORK`` units of ``oracle.fold_work`` is refused before
    it starts, with ``oracle.fold_refusal``'s message.
    """
    target, bits, phases = _working_rows(code, bool(doc.ancilla_modes))
    n, r = target.n_modes, target.r
    if doc.circuit.n_modes != n:
        raise CircuitFormatError(
            f"circuit acts on {doc.circuit.n_modes} modes, expected {n} for this code"
        )
    if max(map(max, doc.substitutions), default=-1) >= r:
        i, j = next(s for s in doc.substitutions if max(s) >= r)
        raise CircuitFormatError(f"substitution [{i}, {j}] is out of range for {r} generators")

    unfolded = bits[:], phases[:]  # the oracle's rows, before the changes
    _multiply_rows(bits, phases, doc.substitutions, n)
    tab = _ModeTableau(bits, n, phases)
    tab.run(doc.circuit.gates)
    off = tab.undecoded(target.pivot_base, r)
    if off:
        j = (off & -off).bit_length() - 1
        arrived = MajoranaString(n, *tab.row(j))
        raise VerificationFailure("decoded-form", f"generator {j} arrives at {arrived}")
    yield "decoded-form check: ok"

    if doc.ancilla_modes:
        bits, phase = tab.row(r)
        image = MajoranaString(n, bits, phase)
        if bits == 0b11:
            yield f"ancilla check: ok (i c0 c1 -> {image}, residual phase_r {phase})"
        elif target.pins(bits):
            yield (
                f"ancilla check: ok (i c0 c1 -> {image}, residual phase_r None: "
                "pinned by the total parity)"
            )
        else:
            raise VerificationFailure(
                "ancilla", f"the decoder leaves i c0 c1 at {image}, off the ancilla pair"
            )

    if not oracle:
        yield "oracle check: skipped (pass --oracle to run)"
        return
    rows = [MajoranaString(n, b, ph) for b, ph in zip(*unfolded)]
    refusal = fold_refusal(len(rows), len(doc.circuit), n)
    if refusal:
        raise VerificationFailure("oracle", refusal)
    try:
        folded = conjugate_rows(doc.circuit, rows, doc.substitutions)
    except NonMonomialError as exc:
        raise VerificationFailure("oracle", str(exc)) from None
    wanted = [*target.generators(), image] if doc.ancilla_modes else target.generators()
    for j, (got, want) in enumerate(zip(folded, wanted)):
        if got != want:
            row = f"generator {j}" if j < r else "i c0 c1"
            raise VerificationFailure("oracle", f"operator conjugation of {row} disagrees")
    # the dimension in decimal up to 64 modes; beyond, as a power, since the
    # decimal grows without bound and past the interpreter's int-to-str limit
    dimension = 2 ** (n // 2) if n <= 64 else f"2^{n // 2}"
    yield f"oracle check: ok ({n} modes, dimension {dimension})"


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
    # cells are four shared string constants: a large diagram then holds one
    # pointer per cell, not one new string
    for g in circuit.gates:
        lo, hi = g.modes[0], g.modes[-1]
        mark = "-O-" if g.kind == "braid4" else "-X-"
        for m in range(circuit.n_modes):
            if m in g.modes:
                rows[m].append(mark)
            elif lo < m < hi:
                rows[m].append("-|-")
            else:
                rows[m].append("---")
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
        digits = selector.split(":", 1)[1]
        try:
            # int() alone also takes a sign, spaces, underscores and non-ASCII digits
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(digits)
            n = int(digits)  # ValueError past the interpreter's digit limit
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


def _report_synth(
    code: StabilizerCode, result: SynthesisResult, role: str, dest: str, out: TextIO
) -> None:
    counts = gate_counts(result.decoder)
    print(f"code: {code.name or '(unnamed)'}  [n_modes={code.n_modes}, generators={code.n_stabilizers}]", file=out)
    print(f"variant: {'with-ancilla' if result.ancilla_modes else 'ancilla-free'}", file=out)
    print(f"total modes: {result.total_modes}", file=out)
    print(f"ancilla modes: {list(result.ancilla_modes)}", file=out)
    total = counts["braid2"] + counts["braid4"]
    print(f"gate counts: braid2={counts['braid2']} braid4={counts['braid4']} total={total}", file=out)
    print(f"generating-set changes: {len(result.substitutions)}", file=out)
    if result.ancilla_modes:
        print(f"ancilla image: {result.ancilla_image}", file=out)
        print(f"ancilla residual phase_r: {result.ancilla_phase_r}", file=out)
    print(f"document ({role}): {dest}", file=out)


def cmd_synth(args: argparse.Namespace) -> int:
    """Synthesize a decoder, write the requested document and report.

    Both roles hold ``result.decoder``; ``serialize_circuit`` writes an
    encoder document's gates in reverse order with each direction negated,
    so no encoder circuit is built.  The document is built and serialized
    only when ``-o`` asks for it to be written.
    """
    code = _load_code(args)  # synthesis validates it
    result = (synthesize_ancilla_free if args.ancilla_free else synthesize_with_ancilla)(code)
    role = "decoder" if args.decoder else "encoder"
    out, dest = sys.stdout, args.output
    if dest is None:
        dest = "not written (pass -o to write)"
    else:
        doc = CircuitDocument(result.decoder, result.ancilla_modes, result.substitutions, role)
        text = serialize_circuit(doc)
        if dest == "-":
            sys.stdout.write(text)
            dest, out = "stdout", sys.stderr  # keep stdout one JSON document
        else:
            Path(dest).write_text(text)
    _report_synth(code, result, role, dest, out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args)
    code.validate()
    doc = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    for line in verify_document(code, doc, args.oracle):
        print(line)
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    """Draw the gates in the order the file lists them: an encoder's are
    the inverse of the document's circuit, the decoder."""
    doc = parse_circuit(_read_text(args.circuit, CircuitFormatError))
    render = render_latex if args.latex else render_ascii
    circuit = invert(doc.circuit) if doc.role == "encoder" else doc.circuit
    sys.stdout.write(render(circuit, doc.ancilla_modes))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
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
        "--oracle", action="store_true", help="also check against the operator oracle"
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
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
