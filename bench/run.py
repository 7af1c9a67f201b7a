#!/usr/bin/env python3
"""braidsynth benchmark: `synth` then `verify`, end to end and per layer.

    python3 bench/run.py --workload random-n400 --seed 1 --seconds 35 --trace 0

One client in this process calls ``braidsynth.cli.main`` one call at a time
(a closed loop).  A job takes one input code through ``synth`` with an
ancilla plus ``verify``, then ``synth --ancilla-free --decoder`` plus
``verify``.  Jobs run in whole passes over the seeded inputs until the next
pass would end after ``--seconds``; there is always at least one pass.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs every job twice, untraced and then traced (see
tracing.py), and reports per-layer self times, counts and the tracing
overhead.  The last line of stdout is one JSON object; the full record,
with provenance, goes to bench/out/.  README.md documents the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
TAIL_MIN_JOBS = 100  # a tail is reported only at the 90th percentile or above


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def call_main(argv: list[str]) -> int | str:
    """One in-process CLI call with its output discarded.

    An exception escaping main is a failure of the program; it is returned
    as text so the loop keeps running and reports it.
    """
    from braidsynth.cli import main

    sink = _Discard()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return main(argv)
    except Exception:
        return traceback.format_exc(limit=3)


class Reference:
    """Host speed, sampled after every call with a fixed pure-Python kernel.

    On a shared host one core's speed can drift by 2x within minutes, and a
    call's seconds drift with it.  The call's time in units of the kernel's
    time around it drifts far less (README.md, "Reference units").
    """

    MIN_BLOCK_S = 0.001  # shortest sample
    SHARE = 0.02  # a sample lasts this share of the call before it

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = self.sample(0.0)

    @staticmethod
    def _kernel() -> int:
        x, acc = 0x9E3779B97F4A7C15, 0
        for i in range(1000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            acc ^= (x >> (i & 31)).bit_count()
        return acc

    def sample(self, call_seconds: float) -> float:
        """Mean kernel time over a block of max(MIN_BLOCK_S, SHARE * call_seconds)."""
        budget = max(self.MIN_BLOCK_S, self.SHARE * call_seconds)
        runs, start = 0, time.perf_counter()
        while True:
            self._kernel()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                self.samples.append(elapsed / runs)
                return elapsed / runs

    def units(self, call_seconds: float) -> float:
        """The call's time in kernel runs, against the samples on both sides."""
        after = self.sample(call_seconds)
        units = call_seconds / ((self.last + after) / 2)
        self.last = after
        return units


@dataclass
class Call:
    step: str  # "synth" or "verify"
    variant: str  # "ancilla" or "free"
    rc: int | str
    ok: bool
    seconds: float
    ref: float  # seconds in reference units; 0 where no reference was kept


def run_job(code: Any, work: Path, oracle: bool, call: Callable[[list[str]], int | str],
            ref: Reference) -> list[Call]:
    enc, dec = work / f"{code.label}.enc.circuit", work / f"{code.label}.dec.circuit"
    extra = ["--oracle"] if oracle else []
    calls: list[Call] = []

    def step(kind: str, variant: str, argv: list[str], allowed: frozenset[int]) -> int | str:
        start = time.perf_counter()
        rc = call(argv)
        seconds = time.perf_counter() - start
        calls.append(Call(kind, variant, rc, rc in allowed, seconds, ref.units(seconds)))
        return rc

    ok = frozenset({0})
    step("synth", "ancilla", ["synth", *code.args, "-o", str(enc)], ok)
    step("verify", "ancilla", ["verify", *code.args, str(enc), *extra], ok)
    free = ["synth", *code.args, "--ancilla-free", "--decoder", "-o", str(dec)]
    if step("synth", "free", free, code.expected_free_synth()) == 0:
        step("verify", "free", ["verify", *code.args, str(dec), *extra], ok)
    return calls


@dataclass
class Docs:
    """First-pass facts about every emitted document, in corpus order."""

    digests: list[str] = field(default_factory=list)
    gates_total: int = 0
    facts: dict[tuple[int, str], Any] = field(default_factory=dict)

    def record(self, idx: int, code: Any, work: Path, calls: list[Call], oracle: bool) -> list[str]:
        """Digest and check the documents of one job; returns problems found."""
        from workloads import check_document

        problems = []
        for c in calls:
            if c.step != "synth" or c.rc != 0:
                continue
            ancilla = c.variant == "ancilla"
            path = work / f"{code.label}.{'enc' if ancilla else 'dec'}.circuit"
            data = path.read_bytes()
            self.digests.append(hashlib.sha256(data).hexdigest())
            try:
                facts = check_document(data.decode(), code, ancilla,
                                       "encoder" if ancilla else "decoder", oracle)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{c.variant} document: {exc}")
                continue
            self.facts[idx, c.variant] = facts
            self.gates_total += facts.gates
        return problems

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


@dataclass
class Loop:
    jobs: list[list[Call]] = field(default_factory=list)
    traced_jobs: list[list[Call]] = field(default_factory=list)
    job_seconds: list[float] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)
    job_codes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    passes: int = 0


def measure(codes: list, work: Path, oracle: bool, seconds: float, docs: Docs,
            traced_call: Callable[[int], Callable[[list[str]], int | str]] | None) -> Loop:
    """Whole passes over the codes until the next pass would overrun."""
    loop = Loop()
    ref = Reference()
    start = time.perf_counter()
    last_pass = 0.0
    while loop.passes == 0 or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for idx, code in enumerate(codes):
            t = time.perf_counter()
            calls = run_job(code, work, oracle, call_main, ref)
            loop.job_seconds.append(time.perf_counter() - t)
            loop.jobs.append(calls)
            loop.job_codes.append(idx)
            if loop.passes == 0:
                loop.problems += [f"{code.label}: {p}" for p in
                                  docs.record(idx, code, work, calls, oracle)]
            if traced_call is not None:
                t = time.perf_counter()
                loop.traced_jobs.append(run_job(code, work, oracle, traced_call(len(loop.jobs) - 1), ref))
                loop.traced_seconds.append(time.perf_counter() - t)
        loop.passes += 1
        last_pass = time.perf_counter() - pass_start
    loop.reference_s = ref.samples
    return loop


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _timed_process(argv: list[str], cwd: Path) -> tuple[float, int]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start, proc.returncode


def fresh_import_seconds(module: str | None) -> float:
    """Wall time of a fresh interpreter that imports module (or nothing)."""
    seconds, rc = _timed_process([sys.executable, "-c", f"import {module}" if module else "pass"], ROOT)
    if rc != 0:
        raise SystemExit(f"fresh interpreter could not import {module}")
    return seconds


def cold_pairs(codes: list, work: Path, count: int) -> tuple[list[float], list[Call]]:
    """Fresh `python -m braidsynth` synth + verify --oracle pairs."""
    times, calls = [], []
    for code in codes[:count]:
        doc = work / "cold.enc.circuit"
        pair = 0.0
        for step, argv in (("synth", ["synth", *code.args, "-o", str(doc)]),
                           ("verify", ["verify", *code.args, str(doc), "--oracle"])):
            seconds, rc = _timed_process([sys.executable, "-m", "braidsynth", *argv], work)
            calls.append(Call(step, "cold", rc, rc == 0, seconds, 0.0))
            pair += seconds
        times.append(pair)
    return times, calls


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < TAIL_MIN_JOBS:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, loop: Loop) -> dict[str, Any]:
    import numpy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "size": "smoke" if args.smoke else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": loop.passes,
        "jobs": len(loop.jobs),
        "traced_jobs": len(loop.traced_jobs),
    }


def _sum_step(calls: list[Call], step: str) -> float:
    return sum(c.seconds for c in calls if c.step == step)


def _sum_ref(calls: list[Call], step: str) -> float:
    return sum(c.ref for c in calls if c.step == step)


def end_to_end(loop: Loop, docs: Docs, setup: list[float], cold: list[float]) -> tuple[dict, dict]:
    """Gated metrics for the result line, and the table with every metric."""
    jobs = len(loop.jobs)
    gated = {
        "synth_ref": (statistics.median(_sum_ref(j, "synth") for j in loop.jobs), "ref"),
        "verify_ref": (statistics.median(_sum_ref(j, "verify") for j in loop.jobs), "ref"),
        "gates_total": (docs.gates_total, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    table = {k: (v, u, "") for k, (v, u) in gated.items()}
    table["synth_ref"] = (*gated["synth_ref"], f"median of {jobs} jobs")
    table["verify_ref"] = (*gated["verify_ref"], f"median of {jobs} jobs")
    table["setup_s"] = (*gated["setup_s"], f"median of {len(setup)} set-ups")
    for step in ("synth", "verify"):
        sample = [_sum_step(j, step) for j in loop.jobs]
        table[f"{step}_s"] = (statistics.median(sample), "s", f"median of {jobs} jobs")
        t = tail(sample)
        table[f"{step}_tail_s"] = (t[1], "s", f"p{t[0]} of {jobs} jobs") if t else \
            (None, "s", f"not reported: {jobs} jobs, needs {TAIL_MIN_JOBS}")
    table["codes_per_s"] = (jobs / sum(loop.job_seconds), "1/s", "jobs per second of job time")
    table["reference_s"] = (statistics.median(loop.reference_s), "s",
                            f"median of {len(loop.reference_s)} reference samples")
    if cold:
        table["cold_call_s"] = (statistics.median(cold), "s", f"median of {len(cold)} pairs")
    return gated, table


def per_layer(loop: Loop, tracer: Any, docs: Docs, synth_counts: dict[str, int],
              codes: list, import_s: float) -> dict:
    from tracing import ROOT as ROOT_SPAN, SPAN_NAMES

    jobs = len(loop.traced_jobs)
    self_s = tracer.self_times()
    out: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (self_s.get(name, 0.0) / jobs, "s")
    out["cli.other_s"] = (self_s.get(ROOT_SPAN, 0.0) / jobs, "s")

    doc_bytes = row_gates = changed = col_gates = matmuls = 0
    for idx, calls in zip(loop.job_codes, loop.traced_jobs):
        for c in calls:
            facts = docs.facts.get((idx, c.variant))
            if facts is None:
                continue
            if c.step == "synth":
                doc_bytes += facts.size
                continue
            row_gates += codes[idx].r * facts.gates
            changed += facts.changed_row_gates
            col_gates += facts.n_modes * facts.gates
            if facts.image_weights:
                # circuit_unitary: |support| products per gate generator plus
                # one per gate; per mode: U M U^dagger and the image monomial
                matmuls += facts.support_total + facts.gates
                matmuls += sum(2 + w for w in facts.image_weights)
    out["cli.doc_bytes"] = (doc_bytes / jobs, "count")
    out["tableau.replay_row_gates"] = (row_gates / jobs, "count")
    out["tableau.odd_overlap_frac"] = (changed / row_gates if row_gates else 0.0, "ratio")
    for key in ("sweep_gates", "correction_gates", "reset_gates", "substitutions"):
        out[f"synth.{key}"] = (synth_counts[key] / jobs, "count")
    r_modes = synth_counts["r_total_modes"]
    out["synth.gate_ratio"] = (synth_counts["gates"] / r_modes if r_modes else 0.0, "ratio")
    out["majorana.matrix_col_gates"] = (col_gates / jobs, "count")
    out["oracle.matmuls"] = (matmuls / jobs, "count")
    synth = sum(_sum_step(j, "synth") for j in loop.jobs)
    out["verify_to_synth"] = (sum(_sum_step(j, "verify") for j in loop.jobs) / synth, "ratio")
    out["trace.overhead_frac"] = (sum(loop.traced_seconds) / sum(loop.job_seconds) - 1, "ratio")
    return out


def _digest_check(key: str, digest: str, gates_total: int, record: bool) -> str:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = {"digest": digest, "gates_total": gates_total}
    if record:
        recorded[key] = entry
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return "recorded"
    if key not in recorded:
        return "no recorded digest"
    return "matches the record" if recorded[key] == entry else \
        f"DIFFERS from the record {recorded[key]}"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness's own tests")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's document digest in bench/digests.json")
    return parser.parse_args(argv)


def set_up(wl: Any, args: argparse.Namespace, work: Path) -> tuple[list, list[float]]:
    """Fresh-interpreter import plus writing the inputs, timed per repetition."""
    setup: list[float] = []
    for rep in range(1 if args.smoke or args.trace else 5):
        imported = fresh_import_seconds("braidsynth.cli")
        inputs = work / f"inputs{rep}"
        inputs.mkdir()
        start = time.perf_counter()
        codes = wl.make(args.seed, inputs, args.smoke)
        setup.append(imported + time.perf_counter() - start)
    return codes, setup


def traced_run(codes: list, work: Path, wl: Any, args: argparse.Namespace, docs: Docs) -> tuple[Loop, dict]:
    """Each job untraced, then traced; returns the per-layer metrics."""
    from tracing import Tracer

    counts = dict.fromkeys(("sweep_gates", "correction_gates", "reset_gates", "substitutions",
                            "gates", "r_total_modes"), 0)

    def on_synth(result: Any) -> None:
        lo, hi = result.correction_span
        counts["sweep_gates"] += lo
        counts["correction_gates"] += hi - lo
        counts["reset_gates"] += len(result.decoder) - hi
        counts["substitutions"] += len(result.substitutions)
        counts["gates"] += len(result.decoder)
        counts["r_total_modes"] += result.target.r * result.total_modes

    tracer = Tracer({"synth.with_ancilla": on_synth, "synth.ancilla_free": on_synth})

    def traced_call(job: int) -> Callable[[list[str]], int | str]:
        return lambda argv: tracer.call(job, lambda: call_main(argv))

    for target in tracer.missing:
        print(f"note: {target} not found; its span is not recorded", file=sys.stderr)
    loop = measure(codes, work, wl.oracle, args.seconds, docs, traced_call)
    reps = 1 if args.smoke else 5
    bare = statistics.median(fresh_import_seconds(None) for _ in range(reps))
    imported = statistics.median(fresh_import_seconds("braidsynth.cli") for _ in range(reps))
    tracer.write(OUT / f"spans-{_stem(args)}.jsonl")
    return loop, per_layer(loop, tracer, docs, counts, codes, imported - bare)


def _stem(args: argparse.Namespace) -> str:
    return f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # one client and no threads: numpy's BLAS pool would otherwise compete
    # with the client for the same cores (set before numpy is imported)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "braidsynth" / "__init__.py").is_file():
        print(f"braidsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidsynth
    from workloads import WORKLOADS

    if Path(braidsynth.__file__).resolve().parent != SRC / "braidsynth":
        print(f"imported braidsynth from {braidsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}: {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        codes, setup = set_up(wl, args, work)
        # let numpy and the CLI finish their lazy set-up before timing
        warm = work / "warm.circuit"
        call_main(["synth", "--builtin", "kitaev:4", "-o", str(warm)])
        call_main(["verify", "--builtin", "kitaev:4", str(warm), "--oracle"])

        docs = Docs()
        cold_calls: list[Call] = []
        if args.trace:
            loop, metrics = traced_run(codes, work, wl, args, docs)
            table = {k: (v, u, "") for k, (v, u) in metrics.items()}
        else:
            loop = measure(codes, work, wl.oracle, args.seconds, docs, None)
            cold: list[float] = []
            if wl.cold_pairs:
                cold, cold_calls = cold_pairs(codes, work, 1 if args.smoke else wl.cold_pairs)
            metrics, table = end_to_end(loop, docs, setup, cold)

    calls = [c for job in loop.jobs + loop.traced_jobs for c in job] + cold_calls
    failed = [c for c in calls if not c.ok]
    if not args.trace:
        table["fail_frac"] = (len(failed) / len(calls), "ratio", f"{len(failed)} of {len(calls)} calls")
    digest = docs.digest()
    record = {
        "provenance": provenance(args, loop),
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in table.items()},
        "digest": digest,
        "document_digests": docs.digests,
        "gates_total": docs.gates_total,
        "calls": len(calls),
        "failed_calls": [f"{c.step}/{c.variant}: {c.rc}" for c in failed[:20]],
        "document_problems": loop.problems,
    }
    digest_state = _digest_check(_stem(args), digest, docs.gates_total, args.record_digest)
    (OUT / f"result-{_stem(args)}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {loop.passes}  jobs {len(loop.jobs)}")
    print("provenance " + json.dumps(record["provenance"]))
    for name, (value, unit, note) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit:6s} {note}")
    print(f"documents: gates_total {docs.gates_total}, digest {digest[:16]} ({digest_state})")
    for line in record["failed_calls"] + loop.problems:
        print(f"FAILED {line.strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not loop.problems,
        "attempted": len(calls),
        "failed": len(failed) + len(loop.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
