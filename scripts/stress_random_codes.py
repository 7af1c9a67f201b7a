#!/usr/bin/env python3
"""Randomized stress run for the synthesizer.

Generates seeded random codes, synthesizes both variants, and checks the
full contract on each: the decoder and the encoder document come back
equal from ``serialize_circuit`` and ``parse_circuit``, and pass
``verify_document`` (the verifier behind ``braidsynth verify``), which folds
the ancilla pair's image from the document itself, and that image and its
residual phase are the ones the synthesizer reports, and the operator
oracle re-derives both checks (it refuses a fold of more than
``oracle.MAX_WORK`` rows x gates x modes, which a full-rank random code
reaches at about 130 modes, so keep --max-modes below that); gate count
within the linear bound, reported operators pair correctly, and the ancilla-free
obstruction raised exactly when it must be.  For a code without the total
parity the ancilla image must be i c0 c1 itself (residual phase_r 1) and
the ancilla sweep the ancilla-free one shifted by two modes.  Every other
code contains the total parity (scrambling decoded pairs reaches it only
at r = N/2), so the pinned-image and obstruction branches are exercised
too.  Half of the codes are scrambled by 4N random gates,
so their rows look generic; the other half are sparse, the rows in
shuffled order and scrambled by only N/2 gates, so many rows reach their
sweep column untouched and the tableau reads them from its kept rows.
Prints one summary line, with the number of ancilla sweep gates that
touch mode 0 (only codes with the total parity reach one); any violation
trips an assert or raises ``VerificationFailure``, and a run of at least
50 codes that sees no pinned image or no obstruction exits non-zero.
"""

import argparse
import random
import sys

from braidsynth.bitlinalg import symplectic_pairing
from braidsynth.cli import verify_document
from braidsynth.codes import (
    CircuitDocument,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from braidsynth.majorana import MajoranaString
from braidsynth.synth import (
    PhaseCorrectionError,
    TotalParityObstruction,
    destabilizers,
    logical_representatives,
    synthesize_ancilla_free,
    synthesize_with_ancilla,
)
from braidsynth.tableau import (
    DecodedTarget,
    StabilizerCode,
    apply_circuit,
    contains_total_parity,
)


def total_parity_rows(n, r):
    """r >= 1 rows whose group contains the all-modes parity: r - 1 decoded
    pairs and the parity of the other modes."""
    rows = list(DecodedTarget(n, 0, r - 1).generators())
    tail = tuple(range(2 * (r - 1), n))
    w = len(tail)
    rows.append(MajoranaString.from_modes(n, tail, (w * (w - 1) // 2) % 2))
    return rows


def scrambled(n, rows, n_gates, rng):
    """The rows in shuffled order, conjugated through n_gates random gates."""
    rows = list(rows)
    rng.shuffle(rows)
    return apply_circuit(random_circuit(n, n_gates, rng), StabilizerCode(n, tuple(rows)))


def sweep(result, shift=0):
    """The sweep's gates, before the phase correction, modes shifted up."""
    return [
        (g.kind, tuple(m + shift for m in g.modes), g.direction)
        for g in result.decoder.gates[: result.correction_span[0]]
    ]


def check(code, result):
    for role, circuit in (("decoder", result.decoder), ("encoder", result.encoder)):
        doc = CircuitDocument(circuit, result.ancilla_modes, result.substitutions, role)
        assert parse_circuit(serialize_circuit(doc)) == doc
        lines = list(verify_document(code, doc, oracle=True))
        if result.ancilla_modes:
            folded = lines[1]
            claimed = (
                f"ancilla check: ok (i c0 c1 -> {result.ancilla_image}, "
                f"residual phase_r {result.ancilla_phase_r}"
            )
            assert folded.startswith(claimed), (folded, claimed)
    r = code.n_stabilizers
    assert len(result.decoder) <= 3 * r * result.total_modes
    for j, d in enumerate(destabilizers(result)):
        assert d.is_hermitian()
        for i, g in enumerate(code.generators):
            assert symplectic_pairing(d.bits, g.bits) == (1 if i == j else 0)
    if code.n_logical:
        for x, z in logical_representatives(result):
            assert x.is_hermitian() and z.is_hermitian()
            assert symplectic_pairing(x.bits, z.bits) == 1
            for g in code.generators:
                assert symplectic_pairing(x.bits, g.bits) == 0
                assert symplectic_pairing(z.bits, g.bits) == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--codes", type=int, default=200)
    parser.add_argument("--max-modes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    pinned = clean_full_rank = obstructed = mode0_gates = 0
    for idx in range(args.codes):
        n = 2 * rng.randint(2, args.max_modes // 2)
        seed = args.seed * 100_000 + idx
        if idx % 2:
            r = rng.randint(1, n // 2)
            rows = total_parity_rows(n, r)
        else:
            r = rng.randint(0, n // 2)
            rows = rng.sample(DecodedTarget(n, 0, n // 2).generators(), r)
        n_gates = n // 2 if idx % 4 >= 2 else 4 * n
        code = scrambled(n, rows, n_gates, random.Random(seed))
        ptot = contains_total_parity(code)
        assert ptot or not idx % 2

        result = synthesize_with_ancilla(code)
        check(code, result)
        mode0_gates += sum(g[1][0] == 0 for g in sweep(result))
        clean = result.ancilla_image.bits.value == 0b11
        assert (result.ancilla_phase_r is not None) == clean
        if not ptot:
            assert clean and result.ancilla_phase_r == 1
        elif clean:
            clean_full_rank += 1
        else:
            pinned += 1

        try:
            free = synthesize_ancilla_free(code)
        except TotalParityObstruction:
            assert ptot and r < n // 2
            obstructed += 1
        except PhaseCorrectionError:
            assert code.n_logical == 0
        else:
            check(code, free)
            assert ptot or sweep(result) == sweep(free, 2)

    summary = (
        f"{args.codes} codes | pinned ancilla images: {pinned} | "
        f"clean full-rank images: {clean_full_rank} | obstructions: {obstructed} | "
        f"sweep gates on mode 0: {mode0_gates}"
    )
    if args.codes >= 50 and not (pinned and obstructed):
        sys.exit(f"stress run missed the pinned-image or obstruction branch: {summary}")
    print(f"stress ok: {summary}")


if __name__ == "__main__":
    main()
