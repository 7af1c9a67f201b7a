"""The benchmark's workloads: seeded inputs, expected verdicts, and an
independent bit-level check of every emitted circuit document.

braidsynth generates the inputs (``random_code`` and friends), as a user
would; the verdicts and the document check below never call it.  They work
on the JSON documents with plain integers, so a bug in the program cannot
hide itself by also breaking the check.  README.md says why each workload
was chosen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from braidsynth.codes import random_circuit, random_code, serialize_code
from braidsynth.majorana import MajoranaString
from braidsynth.tableau import StabilizerCode, apply_circuit


@dataclass(frozen=True)
class Code:
    """One input code: how the CLI names it, and its generator bit rows."""

    label: str
    args: tuple[str, ...]  # (path,) or ("--builtin", selector)
    n_modes: int
    rows: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.rows)

    def expected_free_synth(self) -> frozenset[int]:
        """Exit codes allowed for `synth --ancilla-free`.

        Refused (2) exactly when the all-ones vector lies in the generators'
        span with r < N/2; with no encoded pairs (r = N/2) a lone -i
        generator can make the phase correction refuse too, so 0 or 2.
        """
        if 2 * self.r == self.n_modes:
            return frozenset({0, 2})
        return frozenset({2}) if total_parity_in_span(self.rows, self.n_modes) else frozenset({0})


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: bool  # run every verify with --oracle
    cold_pairs: int  # fresh-process synth + verify pairs after the loop
    make: Callable[[int, Path, bool], list[Code]]  # (seed, directory, smoke)


def total_parity_in_span(rows: tuple[int, ...], n_modes: int) -> bool:
    """GF(2) span test: is the all-ones vector a sum of some rows?"""
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            low = (v & -v).bit_length() - 1
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
    v = (1 << n_modes) - 1
    while v:
        low = (v & -v).bit_length() - 1
        if low not in pivots:
            return False
        v ^= pivots[low]
    return True


def replay(rows: list[int], n_modes: int, masks: list[int]) -> tuple[list[int], int]:
    """Bit action of a gate sequence on rows, stored mode-major.

    cols[m] holds one bit per row, set when the row contains mode m.  A gate
    changes exactly the rows with odd overlap on its support, ``odd``, and
    flips the support bits of those rows.  Returns the final columns and the
    number of (row, gate) pairs the gates changed.
    """
    cols = [0] * n_modes
    for i, v in enumerate(rows):
        while v:
            low = v & -v
            cols[low.bit_length() - 1] |= 1 << i
            v ^= low
    changed = 0
    for mask in masks:
        support = []
        odd = 0
        while mask:
            low = mask & -mask
            m = low.bit_length() - 1
            support.append(m)
            odd ^= cols[m]
            mask ^= low
        if odd:
            changed += odd.bit_count()
            for m in support:
                cols[m] ^= odd
    return cols, changed


@dataclass(frozen=True)
class DocFacts:
    """What the benchmark learns from one emitted circuit document."""

    size: int  # bytes
    n_modes: int  # total modes, ancilla included
    gates: int
    support_total: int  # sum of gate support sizes
    changed_row_gates: int  # (row, gate) pairs the decoder replay changes
    image_weights: tuple[int, ...]  # weight of each single-mode image (oracle only)


def check_document(text: str, code: Code, ancilla: bool, role: str, oracle: bool) -> DocFacts:
    """Check an emitted document at the bit level; raise ValueError if wrong.

    The decoder (the document, or its reverse for an encoder; gate bit action
    ignores direction) must take the code rows, after the recorded
    generating-set changes, to the aligned pairs of the decoded form.
    """
    doc = json.loads(text)
    pivot_base = 2 if ancilla else 0
    n = code.n_modes + pivot_base
    if doc["n_modes"] != n or doc["role"] != role:
        raise ValueError(f"{code.label}: header n_modes={doc['n_modes']} role={doc['role']}")
    if doc["ancilla_modes"] != ([0, 1] if ancilla else []):
        raise ValueError(f"{code.label}: ancilla_modes {doc['ancilla_modes']}")
    masks = [sum(1 << m for m in g["modes"]) for g in doc["gates"]]
    rows = [v << pivot_base for v in code.rows]
    for i, j in doc.get("substitutions", []):
        rows[i] ^= rows[j]
    cols, changed = replay(rows, n, masks if role == "decoder" else masks[::-1])
    for m, col in enumerate(cols):
        pair = (m - pivot_base) // 2
        want = 1 << pair if m >= pivot_base and pair < code.r else 0
        if col != want:
            raise ValueError(f"{code.label}: mode {m} does not reach the decoded form")
    weights: tuple[int, ...] = ()
    if oracle:
        images, _ = replay([1 << m for m in range(n)], n, masks)
        weights = tuple(sum((c >> i) & 1 for c in images) for i in range(n))
    return DocFacts(len(text.encode()), n, len(masks), sum(m.bit_count() for m in masks),
                    changed, weights)


def _rows_of(text: str) -> tuple[int, ...]:
    return tuple(sum(1 << m for m in g["modes"]) for g in json.loads(text)["generators"])


def _write_code(directory: Path, label: str, code: StabilizerCode) -> Code:
    path = directory / f"{label}.code"
    text = serialize_code(code)
    path.write_text(text)
    return Code(label, (str(path),), code.n_modes, _rows_of(text))


def _parity_code(n_modes: int, r: int, rng: random.Random) -> StabilizerCode:
    """A scrambled code whose stabilizer group holds the total parity, r < N/2.

    r - 1 aligned pairs plus one Hermitian monomial on every remaining mode
    (weight at least 4); a random braid circuit then hides the structure.
    """
    gens = [MajoranaString.from_modes(n_modes, (2 * j, 2 * j + 1), 1) for j in range(r - 1)]
    rest = tuple(range(2 * (r - 1), n_modes))
    w = len(rest)
    hermitian_phase = (w * (w - 1) // 2) % 2 + 2 * rng.randrange(2)
    gens.append(MajoranaString.from_modes(n_modes, rest, hermitian_phase))
    code = StabilizerCode(n_modes, tuple(gens))
    scrambled = apply_circuit(random_circuit(n_modes, 4 * n_modes, rng), code)
    return StabilizerCode(n_modes, scrambled.generators, name=f"parity-{n_modes}-{r}")


def make_random_n400(seed: int, directory: Path, smoke: bool) -> list[Code]:
    # one code, repeated: gate counts vary by well under 1% between seeds
    n, r = (40, 10) if smoke else (400, 100)
    return [_write_code(directory, "random", random_code(n, r, seed))]


def make_kitaev_1000(seed: int, directory: Path, smoke: bool) -> list[Code]:
    # a built-in: the seed has nothing to vary, and nothing is written
    sites = 40 if smoke else 1000
    rows = tuple(0b11 << (2 * j - 1) for j in range(1, sites))
    return [Code(f"kitaev{sites}", ("--builtin", f"kitaev:{sites}"), 2 * sites, rows)]


# codes per (N, r) cell: many cheap registers, few 16-mode oracles, so a
# pass is short enough to repeat every code a few times in one run
_ORACLE_COPIES = {4: 4, 6: 4, 8: 6, 10: 2, 12: 1, 14: 1}


def make_oracle_small(seed: int, directory: Path, smoke: bool) -> list[Code]:
    """Every N in 4..14 (at most 16 modes with the ancilla) and r in 0..N/2.

    The seed picks the codes, never the mix: the dense oracle's cost grows
    fourfold per mode pair, so a mix that varied with the seed would move
    the per-job median.  Where 1 <= r < N/2, about half of the codes hold
    the total parity, and the ancilla-free variant is expected to refuse
    them with exit code 2.
    """
    rng = random.Random(seed)
    codes = []
    for n, copies in _ORACLE_COPIES.items():
        if smoke and n > 6:
            break
        for r in range(n // 2 + 1):
            for i in range(copies):
                if 1 <= r < n // 2 and (i + r) % 2:
                    code = _parity_code(n, r, rng)
                else:
                    code = random_code(n, r, rng.randrange(1 << 30))
                codes.append(_write_code(directory, f"small{len(codes)}", code))
    return codes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-n400", oracle=False, cold_pairs=0, make=make_random_n400),
        Workload("kitaev-1000", oracle=False, cold_pairs=0, make=make_kitaev_1000),
        Workload("oracle-small", oracle=True, cold_pairs=5, make=make_oracle_small),
    )
}
