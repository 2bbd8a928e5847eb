"""The traced run: direct calls into each module's public functions, one span each.

Each probe case calls one public function on inputs drawn like those of the
workload it belongs to, inside a span (name, start, end, workload, op id).
The spans stay in memory, are written to perfbench/out/ when the run ends,
and are summarised into the per-layer metrics: medians of per-call time, or
of throughput where the call covers a range. The `forms` functions take
well under a microsecond, below what one clock read resolves, so their span
covers a batch of calls and the metric is the time per call.

After the probe, each operation of the workload's own rounds runs twice on
the same inputs, once untraced and once with a span; the difference is
trace.overhead_pct.
"""

import contextlib
import io
import json
import subprocess
import time
from random import Random
from statistics import median

import loeschian as L
from loeschian import cli

from interp import PYTHON
from numtheory import U64_MAX, random_prime
from workloads import (
    CLI_ENV,
    EMIT_LIMITS,
    FACTOR_PAIR_BOUND,
    FACTOR_SAMPLES,
    GUARD,
    GUARD_WIDTH,
    LOW_WIDTH,
    PRIME_LIMITS,
    RESIDUE_LIMITS,
    ROOT,
    WORKERS,
    WORKLOADS,
    Tally,
    cli_cases,
    guard_window,
    large_for_scan,
    lift_point,
    low_window,
    mixed,
    one_mod_six_prime,
    pair,
    prime_square,
    round_rng,
    semiprime,
    smooth,
)

BATCH = 200
PROBE_SHARE = 0.6


def _one(fn, *args):
    return (lambda: fn(*args)), 1


def _batch(fn, args_list):
    def call():
        for args in args_list:
            fn(*args)
    return call, len(args_list)


def _near_guard(rng) -> int:
    return rng.randint(GUARD - 10**6, GUARD)


def _conjecture(lo, width, workers):
    sweep = L.SweepRange(lo, lo + width - 1, workers)
    return (lambda: L.verify_conjecture(sweep)), width


def _limit_sweep(fn, limits, work):
    def make(rng):
        m = rng.randint(*limits)
        return (lambda: fn(m)), work(m)
    return make


def _factor_theorem(seed: int):
    return (lambda: L.verify_factor_theorem(FACTOR_PAIR_BOUND, FACTOR_SAMPLES, seed)), FACTOR_SAMPLES


def _run_in_process(argvs):
    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                cli.run(argv)
    return call, len(argvs)


def _python(code: str):
    def call():
        subprocess.run(PYTHON + ["-c", code], env=CLI_ENV, cwd=ROOT, check=True)
    return call, 1


def _cli_argvs(rng):
    return [c.argv + flag for c in cli_cases(rng) for flag in ([], ["--json"])]


def _canonical_pair(rng):
    return L.Representation(*pair(rng, 15))


# name -> (unit, workload, make(rng) -> (call, work)). A unit ending in "/s"
# is throughput: work per second of span; any other is time per unit of work.
CASES = {
    "factorize.factor.smooth_us": ("us", "queries", lambda r: _one(L.factor, smooth(r)[0])),
    "factorize.factor.semiprime_ms": ("ms", "queries", lambda r: _one(L.factor, semiprime(r)[0])),
    "factorize.factor.prime_square_ms": ("ms", "queries",
                                         lambda r: _one(L.factor, prime_square(r)[0])),
    "factorize.is_prime.u64_us": ("us", "queries",
                                  lambda r: _one(L.is_prime, random_prime(r, 2**63, U64_MAX))),
    "factorize.factor.sweep_us": ("us", "sweeps", lambda r: _one(L.factor, _near_guard(r))),
    "represent.is_loeschian.us": ("us", "queries",
                                  lambda r: _one(L.is_loeschian, mixed(r, True)[0])),
    "represent.represent_fast.us": ("us", "queries",
                                    lambda r: _one(L.represent_fast, mixed(r, True)[0])),
    "represent.represent_prime.us": ("us", "queries",
                                     lambda r: _one(L.represent_prime, one_mod_six_prime(r))),
    "represent.cube_root_unity.us": ("us", "queries",
                                     lambda r: _one(L.cube_root_unity, one_mod_six_prime(r))),
    "represent.rational_lift.us": ("us", "queries",
                                   lambda r: _one(L.rational_lift, *lift_point(r, 1000, 200))),
    "represent.count_formula.guard_us": ("us", "sweeps",
                                         lambda r: _one(L.count_formula, _near_guard(r))),
    "represent.enumerate_reps.guard_us": ("us", "sweeps",
                                          lambda r: _one(L.enumerate_reps, _near_guard(r))),
    "represent.enumerate_reps.large_ms": ("ms", "queries",
                                          lambda r: _one(L.enumerate_reps, large_for_scan(r)[0])),
    "forms.compose.ns": ("ns", "queries", lambda r: _batch(L.compose, [
        (_canonical_pair(r), _canonical_pair(r), 1 + i % 2) for i in range(BATCH)])),
    "forms.compose_minus.ns": ("ns", "queries", lambda r: _batch(L.compose_minus, [
        (_canonical_pair(r), _canonical_pair(r), 3 + i % 4) for i in range(BATCH)])),
    "forms.canonicalize.ns": ("ns", "queries", lambda r: _batch(L.canonicalize, [
        (r.randint(-2**31, 2**31), r.randint(-2**31, 2**31)) for _ in range(BATCH)])),
    "forms.evaluate.ns": ("ns", "queries", lambda r: _batch(L.evaluate, [
        pair(r, 31) for _ in range(BATCH)])),
    "verify.conjecture.guard_n_per_s": ("n/s", "sweeps", lambda r: _conjecture(
        guard_window(r, GUARD_WIDTH), GUARD_WIDTH, 1)),
    "verify.conjecture.guard_pool_n_per_s": ("n/s", "sweeps", lambda r: _conjecture(
        guard_window(r, GUARD_WIDTH), GUARD_WIDTH, WORKERS)),
    "verify.conjecture.low_n_per_s": ("n/s", "sweeps", lambda r: _conjecture(
        low_window(r), LOW_WIDTH, WORKERS)),
    "verify.emit_sequence.n_per_s": ("n/s", "sweeps", _limit_sweep(
        L.emit_sequence, EMIT_LIMITS, lambda m: m + 1)),
    "verify.prime_theorems.n_per_s": ("n/s", "sweeps", _limit_sweep(
        L.verify_prime_theorems, PRIME_LIMITS, lambda m: m)),
    "verify.factor_theorem.samples_per_s": ("samples/s", "sweeps",
                                            lambda r: _factor_theorem(r.randrange(2**32))),
    "verify.residues.pairs_per_s": ("pairs/s", "sweeps", _limit_sweep(
        L.verify_residues, RESIDUE_LIMITS, lambda m: (m + 1) * (m + 2) // 2)),
    "cli.run.us": ("us", "cli", lambda r: _run_in_process(_cli_argvs(r))),
    # Summarised into cli.import_ms: this median minus that of cli.interpreter_ms.
    "cli.import": ("ms", "cli", lambda r: _python("import loeschian.cli")),
    "cli.interpreter_ms": ("ms", "cli", lambda r: _python("pass")),
}

SCALE = {"ns": 1, "us": 1e3, "ms": 1e6}


def probe(seed: int, seconds: float, spans: list) -> None:
    """Call every case once per round until the time is up."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        rng = Random(seed * 1_000_003 + 500_000 + index)
        for name, (unit, workload, make) in CASES.items():
            call, work = make(rng)
            t0 = time.perf_counter_ns()
            call()
            t1 = time.perf_counter_ns()
            spans.append({"name": name, "start": t0, "end": t1, "workload": workload,
                          "op_id": f"probe.{index}", "work": work})
        index += 1


def summarise(spans: list) -> dict:
    values: dict[str, list[float]] = {name: [] for name in CASES}
    for s in spans:
        if s["name"] not in CASES:
            continue
        unit = CASES[s["name"]][0]
        ns = s["end"] - s["start"]
        if unit.endswith("/s"):
            values[s["name"]].append(s["work"] / (ns / 1e9))
        else:
            values[s["name"]].append(ns / SCALE[unit] / s["work"])
    metrics = {}
    for name, vals in values.items():
        metrics[name] = {"value": median(vals), "unit": CASES[name][0]}
    imported = metrics.pop("cli.import")["value"]
    metrics["cli.import_ms"] = {
        "value": imported - metrics["cli.interpreter_ms"]["value"], "unit": "ms"}
    return metrics


def overhead(workload: str, seed: int, seconds: float, spans: list) -> tuple[float, Tally]:
    """Percent extra time of traced over untraced calls of the same operations.

    Each operation runs twice back to back, alternating which pass goes
    first, so a drift in machine speed falls on both passes alike.
    """
    round_fn, _ = WORKLOADS[workload]
    tally = Tally()
    wall = {True: 0, False: 0}
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        for i, op in enumerate(round_fn(round_rng(seed, index), index)):
            for traced in ((False, True) if (index + i) % 2 == 0 else (True, False)):
                t0 = time.perf_counter_ns()
                tally.call(op, spans if traced else None, workload=workload, op_id=f"{index}.{i}")
                wall[traced] += time.perf_counter_ns() - t0
        index += 1
    return 100.0 * (wall[True] - wall[False]) / wall[False], tally


def trace_run(workload: str, seed: int, seconds: float) -> dict:
    spans: list[dict] = []
    probe(seed, seconds * PROBE_SHARE, spans)
    metrics = summarise(spans)
    pct, tally = overhead(workload, seed, seconds * (1 - PROBE_SHARE), spans)
    metrics["trace.overhead_pct"] = {"value": pct, "unit": "%"}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload}-{seed}.jsonl", "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    return {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "problems": tally.problems[:20], "metrics": metrics}
