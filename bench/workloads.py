"""Measurement loops: closed loop, one client, one operation at a time.

Each loop warms up on inputs from a separate stream of the seed, then runs
a number of operations fixed by the workload and the measuring window, and
returns one :class:`Sample` per operation. The count is the window times a
nominal rate measured on a 2-vCPU machine, so a run lasts about the window
there; it does not depend on how long the operations take, so every run of
one seed attempts, and fails, the same operations. With a tracer, library
operations come in pairs drawn from the same stratum, one traced and one
not, and CLI passes alternate untraced and traced, so the untraced half of
a traced run measures the tracing overhead on the same mix of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from typing import NamedTuple

import agency.cli
from agency.typedist import ironed

import corpus
import gen
import ops

LIBRARY = {"theorem_battery": ("regular", ops.theorem_battery_op),
           "nonregular_ironing": ("nonregular", ops.nonregular_op)}

#: Fewest operations a library run measures, whatever its window: the
#: 75th percentile then has at least ten operations beyond it.
MIN_OPS = 40

#: Nominal operations per second of each library workload (2-vCPU machine,
#: Python 3.11, numpy 2.4, scipy 1.17), which turns a window into a count.
NOMINAL_OPS_PER_S = {"theorem_battery": 1.8, "nonregular_ironing": 1.2}

#: Nominal seconds of one ``cli_reports`` corpus pass on the same machine.
NOMINAL_PASS_S = 10.0

#: Warm-up operations per library workload: one per leading family.
WARMUP = {"regular": 3, "nonregular": 2}

#: Warm-up calls of the CLI workload: every subcommand, on the warm-up
#: corpus, with one cheap example standing in for ``reproduce``.
CLI_WARMUP = ("analyze", "sweep-alpha", "verify", "check-ic")


class Sample(NamedTuple):
    label: str  # distribution family or CLI subcommand
    seconds: float  # math.inf when the operation raised
    failed: tuple[str, ...]  # names of the checks it failed
    traced: bool
    group: int  # stratum pair (library) or corpus pass (CLI)


def _run_op(op, pair) -> tuple[float, tuple[str, ...]]:
    t0 = time.perf_counter()
    try:
        failed = op(pair)
    except Exception as exc:  # a raised operation is a failed one; keep measuring
        return math.inf, (f"raised.{type(exc).__name__}",)
    return time.perf_counter() - t0, tuple(failed)


def library_ops(workload: str, seconds: float) -> int:
    """Operations a library run measures: ``seconds`` at the nominal rate,
    at least ``MIN_OPS``, and even, so a traced run has as many traced
    operations as untraced ones."""
    count = max(MIN_OPS, math.ceil(seconds * NOMINAL_OPS_PER_S[workload]))
    return count + count % 2


def cli_passes(seconds: float) -> int:
    """Corpus passes a ``cli_reports`` run measures: ``seconds`` at the
    nominal pass time, at least two."""
    return max(2, round(seconds / NOMINAL_PASS_S))


def run_library(workload: str, seed: int, seconds: float, tracer=None) -> tuple[list[Sample], float]:
    """``library_ops(workload, seconds)`` operations on fresh generated pairs.

    Returns the samples and the wall time they took.
    """
    kind, op = LIBRARY[workload]
    warm = gen.pairs(seed, kind, stream=1)
    for _ in range(WARMUP[kind]):
        _run_op(op, next(warm))
    per_stratum = 2 if tracer is not None else 1
    stream = gen.pairs(seed, kind, stream=0, repeat=per_stratum)
    samples: list[Sample] = []
    start = time.perf_counter()
    for k in range(library_ops(workload, seconds)):
        pair = next(stream)
        traced = tracer is not None and k % 2 == 0
        with tracer.installed(k) if traced else contextlib.nullcontext():
            secs, failed = _run_op(op, pair)
        samples.append(Sample(pair.family, secs, failed, traced, k // per_stratum))
    return samples, time.perf_counter() - start


def _cli_call(call: corpus.Call) -> tuple[float, int | None, bytes]:
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = agency.cli.main(call.argv)
    except Exception:  # counted as a raised call below
        return math.inf, None, b""
    return time.perf_counter() - t0, code, out.getvalue().encode()


def _cli_failures(call: corpus.Call, code: int | None, report: bytes, reference: bytes | None):
    if code is None:
        return ("raised",)
    failed = []
    if code != 0:
        failed.append("cli_exit")
    if reference is not None and report != reference:
        failed.append("cli_bytes")
    if call.subcommand == "reproduce":
        rep = json.loads(report) if report else {}
        if not (rep.get("passed") and all(c["passed"] for c in rep.get("checks", ()))):
            failed.append("reproduce_checks")
    return tuple(failed)


def run_cli(seed: int, seconds: float, directory: str, tracer=None) -> tuple[list[Sample], float]:
    """``cli_passes(seconds)`` corpus passes.

    Every pass after the first must reproduce the first pass's report bytes
    exactly.
    """
    warm_dir = f"{directory}/warm"
    main_dir = f"{directory}/main"
    for d in (warm_dir, main_dir):
        os.makedirs(d)
    warm = corpus.build(seed, 1, warm_dir)
    for sub in CLI_WARMUP:
        _cli_call(next(c for c in warm if c.subcommand == sub))
    _cli_call(corpus.Call("reproduce", ["reproduce", "menu"]))

    calls = corpus.build(seed, 0, main_dir)
    reference: list[bytes] = []
    samples: list[Sample] = []
    start = time.perf_counter()
    for pass_no in range(cli_passes(seconds)):
        traced = tracer is not None and pass_no % 2 == 1
        for i, call in enumerate(calls):
            ironed.cache_clear()  # start cold, as a fresh ``agency`` process does
            with tracer.installed(len(samples)) if traced else contextlib.nullcontext():
                secs, code, report = _cli_call(call)
            if traced:
                tracer.counts["cli.report_bytes"] += len(report)
            failed = _cli_failures(call, code, report, reference[i] if pass_no else None)
            if not pass_no:
                reference.append(report)
            samples.append(Sample(call.subcommand, secs, failed, traced, pass_no))
    return samples, time.perf_counter() - start
