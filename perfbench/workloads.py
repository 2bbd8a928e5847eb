"""The three workloads: seeded rounds of operations, each with its own answer check.

A round is a fixed list of operation kinds; only the inputs change with the
seed and the round number, so every run attempts whole rounds of the same
operations and the share of known failures is the same in every run.
"""

import json
import os
import re
import subprocess
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable, NamedTuple

import loeschian as L

import checks
from checks import WrongAnswer
from interp import PYTHON, child_env
from numtheory import (
    SMALL_PRIMES,
    U64_MAX,
    brute_reps,
    is_residual,
    loeschian_flags,
    multiply,
    obstruction,
    primes_upto,
    random_prime,
    trial_factor,
)

WORKERS = min(2, os.cpu_count() or 1)


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    # Exception type of a known library fault: raising it counts the operation
    # as failed. Any other exception counts as a wrong answer.
    known_fault: type | None = None


# ---------------------------------------------------------------- inputs


def smooth(rng) -> tuple[int, dict[int, int]]:
    """Product of primes below 1000, of 20 to 64 bits."""
    bound = 2 ** rng.randint(20, 64)
    n, f = 1, {}
    while True:
        p = rng.choice(SMALL_PRIMES)
        if n * p >= bound:
            return n, f
        n *= p
        f[p] = f.get(p, 0) + 1


def semiprime(rng) -> tuple[int, dict[int, int]]:
    """Two 32-bit primes: a balanced product in [2^62, 2^64)."""
    p = random_prime(rng, 2**31, 2**32 - 1)
    q = random_prime(rng, 2**31, 2**32 - 1)
    return p * q, ({p: 2} if p == q else {p: 1, q: 1})


def prime_square(rng) -> tuple[int, dict[int, int]]:
    p = random_prime(rng, 2**31, 2**32 - 1)
    return p * p, {p: 2}


def mixed(rng, representable: bool) -> tuple[int, dict[int, int]]:
    """Product of 10- to 24-bit primes of every residue class, plus 2 and 3.

    When not representable, the first residual prime has exponent 1.
    """
    parts = []
    if not representable:
        parts.append((random_prime(rng, 2**9, 2**rng.randint(10, 24), residue=5), 1))
    parts.append((3, rng.randint(0, 3)))
    parts.append((2, 2 * rng.randint(0, 2)))
    for residue in (1, 5, 1):
        p = random_prime(rng, 2**9, 2**rng.randint(10, 24), residue=residue)
        parts.append((p, rng.randint(1, 2) if residue == 1 else 2))
    n, f = 1, {}
    for p, e in parts:
        if e and n * p**e <= U64_MAX and p not in f:
            n *= p**e
            f[p] = e
    return n, f


def large_for_scan(rng) -> tuple[int, dict[int, int]]:
    """A value of the form in [10^10, 10^12], built from primes 3, 1 (mod 6) and squares."""
    while True:
        n, f = 1, {}
        while n < 10**10:
            pick = rng.random()
            if pick < 0.15:
                p, e = 3, 1
            elif pick < 0.3:
                p, e = random_prime(rng, 2, 1000, residue=5), 2
            else:
                p, e = random_prime(rng, 7, 10**4, residue=1), 1
            n *= p**e
            f[p] = f.get(p, 0) + e
        if n <= 10**12:
            return n, f


def pair(rng, bits: int) -> tuple[int, int]:
    a, b = rng.getrandbits(bits), rng.getrandbits(bits)
    return (a, b) if a >= b else (b, a)


def one_mod_six_prime(rng) -> int:
    bits = rng.randint(4, 64)
    return random_prime(rng, 2 ** (bits - 1), 2**bits - 1, residue=1)


def lift_point(rng, max_entry: int, max_k: int) -> tuple[Fraction, Fraction]:
    """A rational point of integer value with denominator k, a prime 1 (mod 6).

    The pair (a, b) times a representation of k^2 carries n k^2; dividing
    both entries by k gives a point of value n whose entries need not be integers.
    """
    a = rng.randint(1, max_entry)
    b = rng.randint(0, a)
    k = random_prime(rng, 7, max_k, residue=1)
    c, d = brute_reps(k)[0]
    x, y = multiply(multiply((a, b), (c, d)), (c, d))
    return Fraction(x, k), Fraction(y, k)


def _hard_lift(u: int, v: int) -> tuple[Fraction, Fraction]:
    # Chord through (-1, 0) with slope u/v on x^2 + xy + y^2 = 1; the two
    # denominators are u^2 + uv + v^2, so their product passes 2^64.
    d = u * u + u * v + v * v
    return Fraction(v * v - u * u, d), Fraction(u * (2 * v + u), d)


# Valid points of value 1 whose denominator product passes 2^64. rational_lift
# raises ValueError on them because the cross products go through the 64-bit
# guard of evaluate. Fixed, not seeded: they fail on every run.
HARD_LIFTS = [
    _hard_lift(2**20 + 1, 2**20 + 7),  # 4194320/1099520016403, 1099517919237/1099520016403
    _hard_lift(999983, 1000003),
    _hard_lift(1234567, 1234571),
]


# ---------------------------------------------------------------- queries


def _factor_op(n, known=None):
    return Op("factor", lambda: L.factor(n), lambda r: checks.factorization(n, r, known))


def _verdict_op(n, known=None):
    return Op("is_loeschian", lambda: L.is_loeschian(n), lambda r: checks.verdict(n, r, known))


def _count_op(n, known):
    return Op("count_formula", lambda: L.count_formula(n), lambda r: checks.count(n, r, known))


def _fast_op(n, known):
    return Op("represent_fast", lambda: L.represent_fast(n),
              lambda r: checks.optional_rep(n, r, known))


def _prime_op(n):
    return Op("is_prime", lambda: L.is_prime(n), lambda r: checks.primality(n, r))


def _lift_op(alpha, beta, known_fault=None):
    return Op("rational_lift", lambda: L.rational_lift(alpha, beta),
              lambda r: checks.lift(alpha, beta, r), known_fault)


def _mixed_rep(rng):
    return mixed(rng, True)


def _mixed_non(rng):
    return mixed(rng, False)


def queries_round(rng, index: int) -> list[Op]:
    """64 single-input library calls.

    13 of them are hard: Brent rho on a balanced 64-bit semiprime or prime
    square, or the O(sqrt n) scan of an n up to 10^12. That is a fifth of the
    round, so op_p90_ms falls inside their latencies, near their median, and
    moves with rho and the scan. One call is a large-denominator lift.
    """
    families = {
        _factor_op: (smooth, smooth, semiprime, semiprime, prime_square, prime_square,
                     _mixed_rep, _mixed_non),
        _verdict_op: (smooth, semiprime, prime_square, _mixed_rep, _mixed_non),
        _count_op: (smooth, semiprime, prime_square, _mixed_rep, _mixed_non),
        _fast_op: (semiprime, prime_square, _mixed_rep, _mixed_non, _mixed_rep),
    }
    ops = []
    for make_op, makers in families.items():
        for make in makers:
            ops.append(make_op(*make(rng)))
    for _ in range(2):
        ops.append(_factor_op(rng.randrange(1, U64_MAX + 1)))
        ops.append(_verdict_op(rng.randrange(0, U64_MAX + 1)))

    for _ in range(3):
        ops.append(_prime_op(rng.randrange(0, U64_MAX + 1)))
    for _ in range(2):
        ops.append(_prime_op(random_prime(rng, 2**63, U64_MAX)))
    ops.append(_prime_op(semiprime(rng)[0]))

    for _ in range(3):
        p = one_mod_six_prime(rng)
        ops.append(Op("represent_prime", lambda p=p: L.represent_prime(p),
                      lambda r, p=p: checks.rep_of(p, r)))
        q = one_mod_six_prime(rng)
        ops.append(Op("cube_root_unity", lambda q=q: L.cube_root_unity(q),
                      lambda z, q=q: checks.cube_root(q, z)))

    for variant in (1, 2, 1, 2, 1):
        r1, r2 = L.Representation(*pair(rng, 15)), L.Representation(*pair(rng, 15))
        ops.append(Op("compose", lambda r1=r1, r2=r2, v=variant: L.compose(r1, r2, v),
                      lambda r, r1=r1, r2=r2: checks.composed(r1, r2, r)))
    for variant in (3, 4, 5, 6, 3):
        r1, r2 = L.Representation(*pair(rng, 15)), L.Representation(*pair(rng, 15))
        ops.append(Op("compose_minus", lambda r1=r1, r2=r2, v=variant: L.compose_minus(r1, r2, v),
                      lambda r, r1=r1, r2=r2: checks.composed(r1, r2, r, minus=True)))
    for _ in range(3):
        r = L.Representation(*pair(rng, 31))
        ops.append(Op("convert_plus_to_minus", lambda r=r: L.convert_plus_to_minus(r),
                      lambda out, r=r: checks.plus_to_minus(r, out)))
        y, x = pair(rng, 31)
        ops.append(Op("convert_minus_to_plus", lambda x=x, y=y: L.convert_minus_to_plus(x, y),
                      lambda out, x=x, y=y: checks.minus_to_plus(x, y, out)))

    for _ in range(5):
        ops.append(_lift_op(*lift_point(rng, 1000, 200)))
    ops.append(_lift_op(*HARD_LIFTS[index % len(HARD_LIFTS)], known_fault=ValueError))

    for _ in range(3):
        n, f = large_for_scan(rng)
        ops.append(Op("enumerate_reps", lambda n=n: L.enumerate_reps(n),
                      lambda r, n=n, f=f: checks.enumeration(n, r, f)))
    return ops


def queries_warmup() -> None:
    r = L.Representation(2, 1)
    L.factor(91), L.is_loeschian(91), L.count_formula(91), L.represent_fast(91)
    L.is_prime(97), L.represent_prime(13), L.cube_root_unity(13), L.enumerate_reps(91)
    L.compose(r, r, 1), L.compose_minus(r, r, 5)
    L.convert_plus_to_minus(r), L.convert_minus_to_plus(2, 3)
    L.rational_lift(Fraction(5, 7), Fraction(3, 7))


# ---------------------------------------------------------------- sweeps

GUARD = 10**8
GUARD_WIDTH = 200
LOW = 10**5
LOW_WIDTH = 2000
FACTOR_PAIR_BOUND = 1000
FACTOR_SAMPLES = 40
# Inclusive ranges of the seeded limits.
RESIDUE_LIMITS = (400, 500)
PRIME_LIMITS = (4000, 6000)
EMIT_LIMITS = (4000, 5000)


def _conjecture_op(kind, lo, width, workers):
    hi = lo + width - 1
    return Op(kind, lambda: L.verify_conjecture(L.SweepRange(lo, hi, workers)),
              lambda r: checks.report(r, lo, hi, width))


def guard_window(rng, width: int) -> int:
    """Low end of a window that ends at most 10^6 below the 10^8 guard."""
    return rng.randint(GUARD - 10**6, GUARD - width + 1)


def low_window(rng) -> int:
    return rng.randint(LOW, LOW + 10**4)


def sweeps_round(rng, index: int) -> list[Op]:
    ops = []
    for _ in range(2):
        seed = rng.randrange(2**32)
        ops.append(Op("verify_factor_theorem",
                      lambda s=seed: L.verify_factor_theorem(FACTOR_PAIR_BOUND, FACTOR_SAMPLES, s),
                      lambda r: checks.report(r, 1, FACTOR_PAIR_BOUND, FACTOR_SAMPLES)))
    for _ in range(2):
        limit = rng.randint(*RESIDUE_LIMITS)
        ops.append(Op("verify_residues", lambda m=limit: L.verify_residues(m),
                      lambda r, m=limit: checks.report(r, 1, m, (m + 1) * (m + 2) // 2)))
    for _ in range(2):
        limit = rng.randint(*PRIME_LIMITS)
        ops.append(Op("verify_prime_theorems", lambda m=limit: L.verify_prime_theorems(m),
                      lambda r, m=limit: checks.report(r, 1, m, len(primes_upto(m)))))
    for _ in range(2):
        ops.append(_conjecture_op("verify_conjecture.low", low_window(rng),
                                  LOW_WIDTH, WORKERS))
    limit = rng.randint(*EMIT_LIMITS)
    ops.append(Op("emit_sequence", lambda: L.emit_sequence(limit),
                  lambda r: checks.sequence(limit, r, loeschian_flags(limit))))
    for _ in range(2):
        ops.append(_conjecture_op("verify_conjecture.guard", guard_window(rng, GUARD_WIDTH),
                                  GUARD_WIDTH, WORKERS))
    return ops


def sweeps_warmup() -> None:
    L.verify_factor_theorem(10, 2, 0), L.verify_residues(5), L.verify_prime_theorems(20)
    L.verify_conjecture(L.SweepRange(1, 20, WORKERS)), L.emit_sequence(20)


# ---------------------------------------------------------------- cli

ROOT = Path(__file__).resolve().parent.parent
CLI = PYTHON + ["-c", "from loeschian.cli import main; main()"]
CLI_ENV = child_env(PYTHONPATH=str(ROOT / "src"))


def ints(text) -> list[int]:
    """Every decimal integer in a text line or a JSON value, in order."""
    if not isinstance(text, str):
        text = json.dumps(text)
    return [int(t) for t in re.findall(r"\d+", text)]


class CliCase(NamedTuple):
    argv: list[str]
    code: int
    # check(doc_or_lines, as_json) for a successful or negative answer; None
    # when the documented outcome is an error message on stderr only.
    check: Callable[[Any, bool], None] | None


def _pair_of(answer, as_json, key):
    return tuple(ints(answer[key] if as_json else answer[0]))


def _classify(n):
    obs = obstruction(trial_factor(n))

    def check(ans, as_json):
        if obs is None:
            checks.rep_of(n, _pair_of(ans, as_json, "witness"))
        else:
            got = ints(ans["obstruction"] if as_json else ans[0])
            checks.need(tuple(got) == obs, f"obstruction of {n}: {got}")
    return CliCase(["classify", str(n)], 0 if obs is None else 1, check)


def _represent(n, flag):
    reps = brute_reps(n)

    def check(ans, as_json):
        if flag == "--all":
            pairs = ans["representations"] if as_json else [t for t in ans if t.startswith("[")]
            got = [tuple(ints(p)) for p in pairs]
            checks.need(got == reps, f"representations of {n}: {got}")
        elif reps:
            rep = _pair_of(ans, as_json, "representation")
            checks.rep_of(n, rep)
            checks.need(flag or rep == reps[0], f"scan of {n} did not return {reps[0]}")
        else:
            checks.need(ans["representation"] is None if as_json else "not" in ans[0],
                        f"{n} reported representable")
    return CliCase(["represent", str(n)] + ([flag] if flag else []), 0 if reps else 1, check)


def _count(n):
    c = len(brute_reps(n))

    def check(ans, as_json):
        checks.need(ints(ans["count"] if as_json else ans[0]) == [c], f"count of {n}")
    return CliCase(["count", str(n)], 0 if c else 1, check)


def _prime_rep(p):
    if is_residual(p):
        def refused(ans, as_json):
            checks.need(ans["representable"] is False if as_json else "no representation" in ans[0],
                        f"prime {p} was not refused")
        return CliCase(["prime-rep", str(p)], 1, refused)
    return CliCase(["prime-rep", str(p)], 0,
                   lambda ans, as_json: checks.rep_of(p, _pair_of(ans, as_json, "representation")))


def _root(p):
    if is_residual(p):
        return CliCase(["root", str(p)], 2, None)
    return CliCase(["root", str(p)], 0,
                   lambda ans, as_json: checks.cube_root(p, ints(ans["root"] if as_json else ans[0])[0]))


def _compose(rng):
    variant = rng.randint(1, 6)
    a, b, c, d = (rng.randrange(1000) for _ in range(4))

    def check(ans, as_json):
        result = _pair_of(ans, as_json, "result")
        checks.composed((a, b), (c, d), result, minus=variant > 2)
    return CliCase(["compose", *map(str, (a, b, c, d)), "--variant", str(variant)], 0, check)


def _compose_overflow(rng):
    a = rng.randrange(2**32, 2**33)
    return CliCase(["compose", str(a), "0", "1", "0", "--variant", str(rng.randint(1, 6))], 3, None)


def _convert(rng):
    x, y = sorted(rng.randrange(10**6) for _ in range(2))
    if rng.random() < 0.5:
        def check(ans, as_json):
            got = [tuple(ints(p)) for p in (ans["pairs"] if as_json else ans)]
            checks.plus_to_minus((y, x), got)
        return CliCase(["convert", str(y), str(x)], 0, check)
    return CliCase(["convert", str(x), str(y), "--direction", "minus-to-plus"], 0,
                   lambda ans, as_json: checks.minus_to_plus(
                       x, y, _pair_of(ans, as_json, "representation")))


def _lift(rng):
    alpha, beta = lift_point(rng, 100, 50)

    def check(ans, as_json):
        got = ints([ans["value"], ans["representation"]] if as_json else ans[0])
        checks.lift(alpha, beta, (got[0], tuple(got[1:])))
    return CliCase(["lift", str(alpha), str(beta)], 0, check)


def _sequence(limit):
    flags = loeschian_flags(limit)

    def check(ans, as_json):
        checks.sequence(limit, [int(t) for t in (ans["terms"] if as_json else ans)], flags)
    return CliCase(["sequence", "--limit", str(limit)], 0, check)


def _factor(n):
    known = trial_factor(n)

    def check(ans, as_json):
        if as_json:
            got = [tuple(map(int, f)) for f in ans["factors"]]
        else:
            got = [tuple(map(int, t.split("^"))) if "^" in t else (int(t), 1)
                   for t in ans[0].split(" * ")]
        checks.factorization(n, got, known)
    return CliCase(["factor", str(n)], 0, check)


def _verify(rng):
    kind = rng.choice(("conjecture", "residues", "primes", "factors"))
    bound = {"conjecture": rng.randint(50, 200), "residues": rng.randint(5, 30),
             "primes": rng.randint(50, 500), "factors": rng.randint(5, 50)}[kind]
    checked = {"conjecture": bound, "residues": (bound + 1) * (bound + 2) // 2,
               "primes": len(primes_upto(bound)), "factors": 10}[kind]
    argv = ["verify", kind, "--max", str(bound), "--workers", "1"]
    if kind == "factors":
        argv += ["--samples", "10", "--seed", str(rng.randrange(2**16))]

    def check(ans, as_json):
        got = [int(ans["checked"]), len(ans["mismatches"])] if as_json else ints(ans[0])[3:5]
        checks.need(got == [checked, 0], f"verify {kind} to {bound}: {got}")
    return CliCase(argv, 0, check)


def cli_cases(rng) -> list[CliCase]:
    """One case per subcommand and documented outcome: 16 in all, exit codes 0 to 3."""
    def prime(residue):
        return random_prime(rng, 5, 10**6, residue=residue)
    return [
        _classify(rng.randint(1, 10**6)),
        _represent(rng.randint(1, 10**5), None),
        _represent(rng.randint(1, 10**5), "--all"),
        _represent(rng.randint(1, 10**5), "--fast"),
        _count(rng.randint(1, 10**5)),
        _prime_rep(prime(1)),
        _prime_rep(prime(5)),
        _root(prime(1)),
        _root(prime(5)),
        _compose(rng),
        _compose_overflow(rng),
        _convert(rng),
        _lift(rng),
        _sequence(rng.randint(50, 300)),
        _factor(rng.randint(2, 10**7)),
        _verify(rng),
    ]


def check_cli(case: CliCase, as_json: bool, result) -> None:
    code, out, err = result
    checks.need(code == case.code, f"{case.argv}: exit {code}, expected {case.code}")
    if case.check is None:
        checks.need(out == "" and err.startswith(("error:", "overflow:")),
                    f"{case.argv}: error outcome printed {out!r} {err!r}")
        return
    answer = json.loads(out) if as_json else out.splitlines()
    case.check(answer, as_json)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(CLI + argv, capture_output=True, text=True, env=CLI_ENV, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def cli_round(rng, index: int) -> list[Op]:
    ops = []
    for case in cli_cases(rng):
        for as_json in (False, True):
            argv = case.argv + ["--json"] if as_json else case.argv
            ops.append(Op(f"cli.{case.argv[0]}", lambda a=argv: run_cli(a),
                          lambda r, c=case, j=as_json: check_cli(c, j, r)))
    return ops


def cli_self_check() -> list[str]:
    """argv of CLI cases whose check accepted a deliberately wrong outcome."""
    wrong = [
        (_classify(91), False, (0, "representable; witness [9, 2]\n", "")),
        (_classify(10), True, (0, '{"n":"10","representable":false,'
                                  '"obstruction":{"prime":"2","exponent":"1"}}', "")),
        (_represent(91, "--all"), False, (0, "[9, 1]\n", "")),
        (_root(5), False, (0, "2\n", "")),
        (_factor(12), False, (0, "2^2 * 5\n", "")),
    ]
    accepted = []
    for case, as_json, result in wrong:
        try:
            check_cli(case, as_json, result)
        except WrongAnswer:
            continue
        accepted.append(" ".join(case.argv))
    return accepted


def cli_warmup() -> None:
    run_cli(["classify", "91", "--json"])


WORKLOADS = {
    "queries": (queries_round, queries_warmup),
    "sweeps": (sweeps_round, sweeps_warmup),
    "cli": (cli_round, cli_warmup),
}


# ---------------------------------------------------------------- running


def round_rng(seed: int, index: int) -> Random:
    return Random(seed * 1_000_003 + index)


class Tally:
    """Outcome counts and completed-operation latencies over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ns: list[int] = []
        self.busy_ns = 0
        self.problems: list[str] = []
        self.wrong = 0

    def run(self, ops) -> None:
        for op in ops:
            self.call(op)

    def call(self, op: Op, spans: list | None = None, **span_fields) -> None:
        """Call one operation under its own timer, then check its answer.

        With spans, also append a span {name, start, end, **span_fields};
        that bookkeeping is the only difference between a traced and an
        untraced call.
        """
        self.attempted += 1
        failure = None
        start = time.perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failure = exc
        end = time.perf_counter_ns()
        self.busy_ns += end - start
        if spans is not None:
            spans.append({"name": op.kind, "start": start, "end": end, **span_fields})
        if failure is not None and op.known_fault and isinstance(failure, op.known_fault):
            self.failed += 1
            return
        self.latencies_ns.append(end - start)
        if failure is not None:  # any other exception is a wrong answer
            self.wrong += 1
            self.problems.append(f"{op.kind} raised {failure!r}")
            return
        try:
            op.check(result)
        except WrongAnswer as exc:
            self.wrong += 1
            self.problems.append(f"{op.kind}: {exc}")
