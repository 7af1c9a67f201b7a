#!/usr/bin/env python3
"""Regenerate the golden circuit documents for the built-in codes.

Synthesis is deterministic, so these files only change when the algorithm
does; the golden tests compare byte-for-byte against them.
"""

import argparse
from pathlib import Path

from braidsynth.cli import render_ascii
from braidsynth.codes import CircuitDocument, kitaev_chain, serialize_circuit, shortest_code
from braidsynth.synth import synthesize_ancilla_free, synthesize_with_ancilla


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "tests" / "golden",
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    result = synthesize_ancilla_free(kitaev_chain(4))
    doc = CircuitDocument(
        result.decoder, result.ancilla_modes, result.substitutions, "decoder"
    )
    (args.out_dir / "kitaev4.free.decoder.circuit").write_text(serialize_circuit(doc))
    (args.out_dir / "kitaev4.free.decoder.txt").write_text(
        render_ascii(doc.circuit, doc.ancilla_modes)
    )

    # a document holds the decoder for either role; an encoder file lists
    # the encoder's gates, and its diagram draws them in that order
    result = synthesize_with_ancilla(shortest_code())
    doc = CircuitDocument(
        result.decoder, result.ancilla_modes, result.substitutions, "encoder"
    )
    (args.out_dir / "shortest.ancilla.encoder.circuit").write_text(
        serialize_circuit(doc)
    )
    (args.out_dir / "shortest.ancilla.encoder.txt").write_text(
        render_ascii(result.encoder, doc.ancilla_modes)
    )
    for name in sorted(p.name for p in args.out_dir.iterdir()):
        print(f"wrote {args.out_dir / name}")


if __name__ == "__main__":
    main()
