"""Code constructors and the on-disk code document format.

Code documents are strict JSON: a single object with format_version 1,
n_modes, a generators list of {"modes": [...], "phase_r": r} entries, and an
optional name.  Unknown keys are rejected so typos fail loudly instead of
silently synthesizing the wrong circuit.  Parsing checks only document
structure; algebraic admissibility stays with StabilizerCode.validate().

A code register holds at most MAX_REGISTER_MODES modes, and a circuit
document at most two more (the ancilla pair).  kitaev_chain, parse_code
and ``cli.parse_circuit`` check the cap before they build anything, so an
oversized request fails at once with a one-line error instead of running
out of memory.
"""

from __future__ import annotations

import json
import random
from typing import Any

from .majorana import BraidGate, Circuit, MajoranaString
from .tableau import DecodedTarget, StabilizerCode, apply_circuit

__all__ = [
    "MAX_REGISTER_MODES",
    "CodeFormatError",
    "kitaev_chain",
    "shortest_code",
    "random_circuit",
    "random_code",
    "parse_code",
    "serialize_code",
]


MAX_REGISTER_MODES = 65_536


class CodeFormatError(ValueError):
    """A code document that does not follow the JSON schema."""


def kitaev_chain(n_sites: int) -> StabilizerCode:
    """Pairing chain on n_sites fermions: stabilizers i c_{2j-1} c_{2j}.

    One generator per interior link, so r = n_sites - 1 and one encoded
    fermion pair.  Every generator has weight two, which makes the chain the
    canonical quadratic-only synthesis example.
    """
    if n_sites < 2:
        raise ValueError("chain needs at least 2 sites")
    if 2 * n_sites > MAX_REGISTER_MODES:
        raise ValueError(f"chain needs at most {MAX_REGISTER_MODES // 2} sites")
    n_modes = 2 * n_sites
    gens = tuple(
        MajoranaString.from_modes(n_modes, (2 * j - 1, 2 * j), 1) for j in range(1, n_sites)
    )
    return StabilizerCode(n_modes, gens, name=f"kitaev-chain-{n_sites}")


def shortest_code() -> StabilizerCode:
    """Twelve-mode, five-generator code storing one fermion pair.

    Four weight-4 plaquettes plus one weight-6 generator; the weight-4
    generators cannot be shrunk by quadratic braids alone, so this is the
    smallest built-in that exercises the quartic synthesis path.
    """
    rows: tuple[tuple[tuple[int, ...], int], ...] = (
        ((0, 1, 2, 3), 0),
        ((2, 3, 4, 5), 0),
        ((6, 7, 8, 9), 0),
        ((8, 9, 10, 11), 0),
        ((1, 3, 5, 7, 9, 11), 1),
    )
    gens = tuple(MajoranaString.from_modes(12, modes, r) for modes, r in rows)
    return StabilizerCode(12, gens, name="shortest")


def random_circuit(n_modes: int, n_gates: int, rng: random.Random) -> Circuit:
    """Uniformly random braid gates; quartic only when the register allows."""
    if n_modes < 2:
        raise ValueError("need at least 2 modes")
    gates = []
    for _ in range(n_gates):
        arity = 4 if n_modes >= 4 and rng.random() < 0.5 else 2
        modes = tuple(sorted(rng.sample(range(n_modes), arity)))
        direction = rng.choice((1, -1))
        gates.append(BraidGate("braid2" if arity == 2 else "braid4", modes, direction))
    return Circuit(n_modes, tuple(gates))


def random_code(n_modes: int, r: int, seed: int) -> StabilizerCode:
    """A valid random code: the decoded form scrambled by a seeded circuit.

    Starting from generators i c_{2j} c_{2j+1} and conjugating through a
    random circuit preserves every admissibility property, so the result
    always validates, while the generator supports and phases look generic.
    """
    if n_modes < 2 or n_modes % 2:
        raise ValueError("n_modes must be even and at least 2")
    if not 0 <= r <= n_modes // 2:
        raise ValueError("r must lie in 0..n_modes/2")
    rng = random.Random(seed)
    decoded = StabilizerCode(n_modes, DecodedTarget(n_modes, 0, r).generators())
    scramble = random_circuit(n_modes, 4 * n_modes, rng)
    code = apply_circuit(scramble, decoded)
    return StabilizerCode(code.n_modes, code.generators, name=f"random-{n_modes}-{r}-{seed}")


def _require_keys(obj: dict[str, Any], required: set[str], optional: set[str], where: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise CodeFormatError(f"{where} is missing {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise CodeFormatError(f"{where} has unknown keys {sorted(unknown)}")


def parse_code(text: str) -> StabilizerCode:
    """Parse a strict JSON code document into a StabilizerCode."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodeFormatError("top level must be an object")
    _require_keys(doc, {"format_version", "n_modes", "generators"}, {"name"}, "code document")
    if doc["format_version"] != 1:
        raise CodeFormatError(f"unsupported format_version {doc['format_version']!r}")
    n_modes = doc["n_modes"]
    if not isinstance(n_modes, int) or isinstance(n_modes, bool):
        raise CodeFormatError("n_modes must be an integer")
    if n_modes < 2 or n_modes % 2:
        raise CodeFormatError("n_modes must be even and at least 2")
    if n_modes > MAX_REGISTER_MODES:
        raise CodeFormatError(f"n_modes {n_modes} exceeds the maximum {MAX_REGISTER_MODES}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CodeFormatError("name must be a string")
    if not isinstance(doc["generators"], list):
        raise CodeFormatError("generators must be a list")
    gens = []
    for j, entry in enumerate(doc["generators"]):
        where = f"generator {j}"
        if not isinstance(entry, dict):
            raise CodeFormatError(f"{where} must be an object")
        _require_keys(entry, {"modes", "phase_r"}, set(), where)
        modes = entry["modes"]
        if not isinstance(modes, list) or not all(
            isinstance(m, int) and not isinstance(m, bool) for m in modes
        ):
            raise CodeFormatError(f"{where}: modes must be a list of integers")
        if any(m < 0 or m >= n_modes for m in modes):
            raise CodeFormatError(f"{where}: mode out of range 0..{n_modes - 1}")
        if any(a >= b for a, b in zip(modes, modes[1:])):
            raise CodeFormatError(f"{where}: modes must be strictly ascending")
        phase_r = entry["phase_r"]
        if not isinstance(phase_r, int) or isinstance(phase_r, bool) or not 0 <= phase_r <= 3:
            raise CodeFormatError(f"{where}: phase_r must be an integer in 0..3")
        gens.append(MajoranaString.from_modes(n_modes, modes, phase_r))
    return StabilizerCode(n_modes, tuple(gens), name=name)


def serialize_code(code: StabilizerCode) -> str:
    """Render a code as a JSON document (inverse of parse_code)."""
    doc: dict[str, Any] = {"format_version": 1}
    if code.name is not None:
        doc["name"] = code.name
    doc["n_modes"] = code.n_modes
    doc["generators"] = [
        {"modes": list(g.bits.indices()), "phase_r": g.phase_r} for g in code.generators
    ]
    return json.dumps(doc, indent=2) + "\n"
