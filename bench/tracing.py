"""Spans around the calls into each braidsynth layer, for the traced run.

Tracing lives in the benchmark, not in the program: for the traced run the
functions in PATCHES are swapped, where their callers look them up, for
wrappers that record a span (name, start, end, parent, job) in memory.  The
CLI then runs exactly the steps a user's call runs.  A span's self time is
its duration minus its children's; the self time of the ``cli.main`` span
around each CLI call is ``cli.other_s``, the time no layer span covers
(argument parsing, file I/O, report printing, and the per-mode matrix
products that ``cmd_verify`` computes inline).
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (span name, module whose attribute is replaced, attribute path).  Only the
# callers listed are traced: tableau.apply_circuit's own conjugate_circuit
# calls stay inside its span, while the oracle's calls from the CLI get one.
PATCHES = (
    ("codes.parse_code", "braidsynth.cli", "parse_code"),
    ("codes.kitaev_chain", "braidsynth.cli", "kitaev_chain"),
    ("tableau.validate", "braidsynth.tableau", "StabilizerCode.validate"),
    ("tableau.contains_total_parity", "braidsynth.synth", "contains_total_parity"),
    ("tableau.apply_circuit", "braidsynth.cli", "apply_circuit"),
    ("synth.with_ancilla", "braidsynth.cli", "synthesize_with_ancilla"),
    ("synth.ancilla_free", "braidsynth.cli", "synthesize_ancilla_free"),
    ("majorana.invert", "braidsynth.synth", "invert"),
    ("majorana.invert", "braidsynth.cli", "invert"),
    ("majorana.circuit_matrix", "braidsynth.cli", "circuit_matrix"),
    ("majorana.conjugate_circuit", "braidsynth.cli", "conjugate_circuit"),
    ("bitlinalg.check_symplectic", "braidsynth.cli", "check_symplectic"),
    ("cli.parse_circuit", "braidsynth.cli", "parse_circuit"),
    ("cli.serialize_circuit", "braidsynth.cli", "serialize_circuit"),
    ("oracle.circuit_unitary", "braidsynth.cli", "circuit_unitary"),
    ("oracle.mode_compare", "braidsynth.cli", "dense_majorana"),
    ("oracle.mode_compare", "braidsynth.cli", "dense_monomial"),
    ("oracle.mode_compare", "numpy", "allclose"),
)
ROOT = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in PATCHES))


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job].

    The wrappers are built once; ``call`` installs them for one CLI call
    only, so untraced calls in the same process run the original code.
    ``after`` maps a span name to a hook that sees the wrapped call's result.
    """

    def __init__(self, after: dict[str, Callable[[Any], None]]) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []  # PATCHES targets not found
        self._patches: list[tuple[Any, str, Any, Callable]] = []
        for name, module, path in PATCHES:
            owner: Any = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
            else:
                self._patches.append((owner, attr, original, self._wrap(name, original, after.get(name))))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, after: Callable[[Any], None] | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def call(self, job: int, fn: Callable[[], Any]) -> Any:
        """Run fn inside a ROOT span of the job, with every wrapper installed."""
        self.job = job
        try:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            with self.span(ROOT):
                return fn()
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
