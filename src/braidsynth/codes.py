"""Code constructors and the two on-disk document formats.

Both formats are strict JSON: a single top-level object with
format_version 1, where unknown keys are rejected so typos fail loudly
instead of silently synthesizing the wrong circuit, and a bool is never
accepted as an integer.  One loader reads both, so text that is not JSON,
nested too deeply for the parser, or holding an integer literal too long to
convert fails as a format error of the document being read.

Code documents hold n_modes, a generators list of {"modes": [...],
"phase_r": r} entries, and an optional name.  A key that repeats in any of
their objects is refused, since the JSON parser would keep its last value
without a word.  Parsing checks only document structure; algebraic
admissibility stays with StabilizerCode.validate().  Circuit documents
are not yet checked for repeated keys (see ``_load_document``).

Circuit documents hold n_modes, ancilla_modes, a gates list, plus two
optional fields -- role ("encoder" or "decoder", default decoder), and
substitutions recording generating-set changes made during synthesis.  The
encoder is the exact inverse of the decoder, so an encoder document lists
the decoder's gates in reverse order, each in the other direction.  In
memory a ``CircuitDocument`` always holds the decoder, whatever its role:
role only names the order in which the file lists the gates, and this
module, which parses and writes that order, is the one that reads it.  A
substitution [i, j] (generator i <- generator i * generator j) needs
0 <= i, j < r and i != j; ``CircuitDocument`` refuses any other pair
than one of distinct nonnegative ints, and verify checks the range
against the code's r before folding.

A code register holds at most MAX_REGISTER_MODES modes, and a circuit
document at most two more (the ancilla pair).  kitaev_chain, parse_code
and parse_circuit check the cap before they build anything, so an
oversized request fails at once with a one-line error instead of running
out of memory.

A generator's modes are checked by whole-list passes of built-ins
(type, min, max) alone, one pass per message and in message order:
integers, then range, then strictly ascending, so the first that fails
reports.  A gates list or a substitutions list is accepted by a few
whole-list passes too (itemgetter, type), with no Python code per item;
a substitutions list's passes are ``CircuitDocument``'s own check, so
they run once per document.  Those two keep a per-item pass, run only
on a list that fails the whole-list ones, because their messages name a
gate's position or the entry at fault; it is the only code that builds
such a message, so every message, and which check reports when several
fail, is the same whichever path a document takes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain, islice
from operator import eq, itemgetter, lt, neg
from typing import Any

from .majorana import BraidGate, Circuit, MajoranaString
from .tableau import DecodedTarget, StabilizerCode, apply_circuit

__all__ = [
    "MAX_REGISTER_MODES",
    "CodeFormatError",
    "CircuitFormatError",
    "CircuitDocument",
    "kitaev_chain",
    "shortest_code",
    "random_circuit",
    "random_code",
    "parse_code",
    "serialize_code",
    "parse_circuit",
    "serialize_circuit",
]


MAX_REGISTER_MODES = 65_536


class CodeFormatError(ValueError):
    """A code document that does not follow the JSON schema."""


class CircuitFormatError(ValueError):
    """A circuit document that does not follow the JSON schema."""


@dataclass(frozen=True, slots=True)
class CircuitDocument:
    """A circuit document in memory: circuit is the decoder for both roles,
    and role names the order its file lists the gates in (an encoder file
    lists the decoder's gates reversed, each direction negated).  A role
    ancilla_modes or substitutions that no file may hold raises
    ValueError, so serialize_circuit never writes a document that
    parse_circuit refuses: each substitution is a pair (i, j) of distinct
    nonnegative ints, and a bool is not an int.  That check is the one
    whole-list check of a substitutions list, parsed or built in memory.
    Substitutions given as any other iterable are stored as a tuple first.
    """

    circuit: Circuit
    ancilla_modes: tuple[int, ...]
    substitutions: tuple[tuple[int, int], ...]
    role: str

    def __post_init__(self) -> None:
        if type(self.substitutions) is not tuple:
            object.__setattr__(self, "substitutions", tuple(self.substitutions))
        if self.role not in ("encoder", "decoder") or self.ancilla_modes not in ((), (0, 1)):
            raise ValueError("role must be 'encoder' or 'decoder', and ancilla_modes () or (0, 1)")
        if not _valid_substitutions(self.substitutions):
            raise ValueError("substitutions must be pairs (i, j) of distinct nonnegative ints")


def _valid_substitutions(pairs: tuple[tuple[int, int], ...]) -> bool:
    """True iff every entry is a tuple (i, j) of two distinct nonnegative
    ints, checked in whole-list passes with no Python code per entry.
    type() is exact, so a bool is not an int here either."""
    if not (set(map(type, pairs)) <= {tuple} and set(map(len, pairs)) <= {2}):
        return False
    flat = list(chain.from_iterable(pairs))
    distinct = not any(map(eq, flat[::2], flat[1::2]))
    return set(map(type, flat)) <= {int} and min(flat, default=0) >= 0 and distinct


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
    name = f"random-{n_modes}-{r}-{seed}"
    decoded = StabilizerCode(n_modes, DecodedTarget(n_modes, 0, r).generators(), name=name)
    return apply_circuit(random_circuit(n_modes, 4 * n_modes, rng), decoded)


def _load_document(
    text: str, required: set[str], optional: set[str], where: str, error: type[ValueError]
) -> dict[str, Any]:
    """The top-level object of a format_version 1 document, keys checked.
    A code document's objects are built by ``_unique_keys``; a circuit
    document's are not, since a hook on every gate object slows a large
    parse (ROADMAP item 24 keeps that open)."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys if error is CodeFormatError else None)
    except RecursionError as exc:
        raise error("not valid JSON: nested too deeply") from exc
    except error:
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    _require_keys(doc, required | {"format_version"}, optional, where, error)
    version = doc["format_version"]
    unsupported = f"unsupported format_version {version!r}"
    if _int(version, unsupported, error) != 1:
        raise error(unsupported)
    return doc


def _require_keys(
    obj: dict[str, Any], required: set[str], optional: set[str], where: str, error: type[ValueError]
) -> None:
    missing = required - obj.keys()
    if missing:
        raise error(f"{where} is missing {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise error(f"{where} has unknown keys {sorted(unknown)}")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A code document's object, refused when a key repeats, naming the
    key whose repeat comes first: json keeps a repeated key's last value,
    which would silently win."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise CodeFormatError(f"code document has duplicate key {key!r}")
    return obj


def _int(value: Any, message: str, error: type[ValueError]) -> int:
    """value if it is a JSON integer (a bool is not), else error(message)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(message)
    return value


def _check_cap(n_modes: int, cap: int, error: type[ValueError], note: str = "") -> None:
    if n_modes > cap:
        raise error(f"n_modes {n_modes} exceeds the maximum {cap}{note}")


def parse_code(text: str) -> StabilizerCode:
    """Parse a strict JSON code document into a StabilizerCode."""
    err = CodeFormatError
    doc = _load_document(text, {"n_modes", "generators"}, {"name"}, "code document", err)
    n_modes = _int(doc["n_modes"], "n_modes must be an integer", err)
    if n_modes < 2 or n_modes % 2:
        raise err("n_modes must be even and at least 2")
    _check_cap(n_modes, MAX_REGISTER_MODES, err)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise err("name must be a string")
    if not isinstance(doc["generators"], list):
        raise err("generators must be a list")
    gens = []
    for j, entry in enumerate(doc["generators"]):
        where = f"generator {j}"
        if not isinstance(entry, dict):
            raise err(f"{where} must be an object")
        _require_keys(entry, {"modes", "phase_r"}, set(), where, err)
        modes = entry["modes"]
        # Three whole-list passes in message order: type, range, ascending.
        if not isinstance(modes, list) or not set(map(type, modes)) <= {int}:
            raise err(f"{where}: modes must be a list of integers")
        if modes and (min(modes) < 0 or max(modes) >= n_modes):
            raise err(f"{where}: mode out of range 0..{n_modes - 1}")
        if not all(map(lt, modes, islice(modes, 1, None))):
            raise err(f"{where}: modes must be strictly ascending")
        bad_phase = f"{where}: phase_r must be an integer in 0..3"
        phase_r = _int(entry["phase_r"], bad_phase, err)
        if not 0 <= phase_r <= 3:
            raise err(bad_phase)
        # the modes are checked and distinct, so one built-in pass sums
        # their bits; MajoranaString still checks that the row fits
        bits = sum(map((1).__lshift__, modes))
        gens.append(MajoranaString(n_modes, bits, phase_r))
    return StabilizerCode(n_modes, tuple(gens), name=name)


def serialize_code(code: StabilizerCode) -> str:
    """Render a code as a JSON document (inverse of parse_code)."""
    doc: dict[str, Any] = {"format_version": 1}
    if code.name is not None:
        doc["name"] = code.name
    doc["n_modes"] = code.n_modes
    doc["generators"] = [
        {"modes": list(g.modes), "phase_r": g.phase_r} for g in code.generators
    ]
    return json.dumps(doc, indent=2) + "\n"


def _gates_at_once(entries: list[Any], encoder: bool) -> tuple[BraidGate, ...] | None:
    """The decoder gates of a valid gates list, empty or not, checked in
    whole-list passes with no Python code per gate; None if any check
    fails, and then the per-gate loop of parse_circuit finds the first
    fault and its message.  An encoder's entries are taken in reverse
    order, and their directions negated on the way into the one
    constructor pass.

    itemgetter fails (TypeError, KeyError) on an entry that is not an
    object or lacks a key, and a length of 3 leaves no other key.  Each
    field gets its own pass: one itemgetter of all three would keep a
    3-tuple per gate alive, and those extra container objects set off
    enough garbage-collector passes to cost more than the gates' own
    checks.  type() is exact, so a bool is not an int here either.  The
    register range is not checked here: ``Circuit`` refuses a gate past
    it, and no gate builds anything sized by its modes before that.
    """
    if encoder:
        entries = entries[::-1]
    try:
        kinds = list(map(itemgetter("kind"), entries))
        mode_lists = list(map(itemgetter("modes"), entries))
        directions = list(map(itemgetter("direction"), entries))
    except (TypeError, KeyError):
        return None
    if not (
        set(map(len, entries)) <= {3}
        and set(map(type, kinds)) <= {str}
        and set(map(type, mode_lists)) <= {list}
        and set(map(type, chain.from_iterable(mode_lists))) <= {int}
        and set(map(type, directions)) <= {int}
    ):
        return None
    supports = tuple(map(tuple, mode_lists))
    signs = map(neg, directions) if encoder else directions
    try:
        gates = tuple(map(BraidGate, kinds, supports, signs))
    except ValueError:
        return None
    return gates


def parse_circuit(text: str) -> CircuitDocument:
    """Parse a strict JSON circuit document; its circuit is the decoder,
    so an encoder's gates come back reversed, each direction negated.
    Every message names a gate by its position in the file."""
    err = CircuitFormatError
    doc = _load_document(
        text,
        {"n_modes", "ancilla_modes", "gates"},
        {"role", "substitutions"},
        "circuit document",
        err,
    )
    n_modes = _int(doc["n_modes"], "n_modes must be an integer", err)
    if n_modes < 1:
        raise err("n_modes must be positive")
    _check_cap(n_modes, MAX_REGISTER_MODES + 2, err, " (a code register plus the ancilla pair)")
    bad_ancilla = "ancilla_modes must be [] or [0, 1]"
    if doc["ancilla_modes"] not in ([], [0, 1]):
        raise err(bad_ancilla)
    ancilla = tuple(_int(m, bad_ancilla, err) for m in doc["ancilla_modes"])
    if ancilla and n_modes < 2:
        raise err(f"ancilla_modes [0, 1] need at least 2 modes, got n_modes {n_modes}")
    role = doc.get("role", "decoder")
    if role not in ("encoder", "decoder"):
        raise err("role must be 'encoder' or 'decoder'")
    entries = doc.get("substitutions", [])
    if not isinstance(entries, list):
        raise err("substitutions must be a list")
    gates = doc["gates"]
    valid = _gates_at_once(gates, role == "encoder") if isinstance(gates, list) else None
    if valid is not None:
        try:
            return CircuitDocument(Circuit(n_modes, valid), ancilla, tuple(map(tuple, entries)), role)
        except (TypeError, ValueError):
            # Circuit refused a gate past the register, or CircuitDocument a
            # substitution: the loop below names the first fault
            pass
    # Only a document with a fault gets here: the checks run one item at a
    # time, substitutions and then gates, each in file order, to raise the
    # first.
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise err("substitutions entries must be [i, j] pairs")
        i, j = (_int(k, "substitution index must be an integer", err) for k in entry)
        if i < 0 or j < 0:
            raise err(f"substitution {entry} has a negative index")
        if i == j:
            raise err(f"substitution {entry} multiplies a generator by itself")
    if not isinstance(gates, list):
        raise err("gates must be a list")
    for g, entry in enumerate(gates):
        if not isinstance(entry, dict):
            raise err(f"gate {g} must be an object")
        _require_keys(entry, {"kind", "modes", "direction"}, set(), f"gate {g}", err)
        kind = entry["kind"]
        if kind not in ("braid2", "braid4"):
            raise err(f"gate {g}: kind must be 'braid2' or 'braid4'")
        modes = entry["modes"]
        if not isinstance(modes, list):
            raise err(f"gate {g}: modes must be a list")
        for m in modes:
            _int(m, f"gate {g} mode must be an integer", err)
        direction = _int(entry["direction"], f"gate {g} direction must be an integer", err)
        try:
            BraidGate(kind, modes, direction)
        except ValueError as exc:
            raise err(f"gate {g}: {exc}") from exc
        # Only after this check is anything sized by the modes built.
        if modes[-1] >= n_modes:
            raise err(f"gate {g}: mode out of range 0..{n_modes - 1}")
    raise AssertionError("the fast path refused a document with no fault")


# One gate object of each kind exactly as json.dumps(indent=2) lays it out
# in the gates list, with the modes and then the direction as %d.
_GATE_JSON = {
    "braid2": (
        '    {\n      "kind": "braid2",\n      "modes": [\n        %d,\n        %d\n'
        '      ],\n      "direction": %d\n    }'
    ),
    "braid4": (
        '    {\n      "kind": "braid4",\n      "modes": [\n        %d,\n        %d,\n'
        '        %d,\n        %d\n      ],\n      "direction": %d\n    }'
    ),
}


# One [i, j] substitution entry as json.dumps(indent=2) lays it out.
_SUBSTITUTION_JSON = "    [\n      %d,\n      %d\n    ]"


def serialize_circuit(doc: CircuitDocument) -> str:
    """Render a circuit document as JSON (inverse of parse_circuit).

    The output is byte-identical to ``json.dumps(..., indent=2)`` of the
    whole document; the header goes through json, and each substitution
    and each gate through one ``%`` on its template, which is several
    times faster.

    An encoder document lists the decoder's gates in reverse order, each
    direction negated as it goes out, so no encoder circuit is built.
    Both roles share one format expression.
    """
    out: dict[str, Any] = {
        "format_version": 1,
        "role": doc.role,
        "n_modes": doc.circuit.n_modes,
        "ancilla_modes": list(doc.ancilla_modes),
    }
    parts = [json.dumps(out, indent=2)[: -len("\n}")]]
    if doc.substitutions:
        subs = ",\n".join(_SUBSTITUTION_JSON % s for s in doc.substitutions)
        parts.append(',\n  "substitutions": [\n' + subs + "\n  ]")
    if not doc.circuit.gates:
        return "".join(parts) + ',\n  "gates": []\n}\n'
    sign = -1 if doc.role == "encoder" else 1
    gates = doc.circuit.gates[::sign]  # an encoder's backwards
    body = ",\n".join(_GATE_JSON[g.kind] % (*g.modes, sign * g.direction) for g in gates)
    return "".join(parts) + ',\n  "gates": [\n' + body + "\n  ]\n}\n"
