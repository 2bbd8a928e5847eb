"""Range sweeps that cross-check the library against itself and report mismatches.

Each sweep returns a VerificationReport whose mathematical content is
deterministic: mismatches come out in ascending order of n no matter how
many workers ran, and only elapsed_ms varies between runs.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd, isqrt
from random import Random
from time import perf_counter

from .factorize import PrimeClass, _sieve, classify_prime, factor
from .forms import Representation, U64_MAX, evaluate
from .represent import (
    NotRepresentableError,
    count_formula,
    cube_root_unity,
    enumerate_reps,
    is_loeschian,
    represent_prime,
)

MAX_MISMATCHES = 1000
CONJECTURE_LIMIT = 10**8

_GOOD_RESIDUES = frozenset({0, 1, 3, 4})

# Largest entry whose form value still fits in 64 bits.
_ENTRY_LIMIT = isqrt(U64_MAX // 3)


@dataclass(frozen=True)
class SweepRange:
    """Inclusive range [lo, hi] plus the worker count for chunked sweeps."""

    lo: int
    hi: int
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi <= U64_MAX:
            raise ValueError(f"need 1 <= lo <= hi within 64 bits, got [{self.lo}, {self.hi}]")
        if self.workers < 1:
            raise ValueError(f"workers={self.workers} must be at least 1")


@dataclass(frozen=True)
class Mismatch:
    """One failed check: the n it happened at, what was expected, what showed up."""

    n: int
    expected: str
    actual: str


@dataclass
class VerificationReport:
    sweep: SweepRange
    checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _chunks(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    total = hi - lo + 1
    size = -(-total // workers)
    out = []
    start = lo
    while start <= hi:
        end = min(start + size - 1, hi)
        out.append((start, end))
        start = end + 1
    return out


def _conjecture_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int]]:
    lo, hi = bounds
    bad = []
    for n in range(lo, hi + 1):
        expected = count_formula(n)
        actual = len(enumerate_reps(n))
        if expected != actual:
            bad.append((n, expected, actual))
    return bad


def verify_conjecture(sweep: SweepRange) -> VerificationReport:
    """Compare the counting formula with exhaustive enumeration over [lo, hi].

    Work is split into contiguous chunks, one per worker; reports merge in
    ascending order, so output is identical for any worker count.
    """
    if sweep.hi > CONJECTURE_LIMIT:
        raise ValueError(f"hi={sweep.hi} exceeds the sweep guard {CONJECTURE_LIMIT}")
    start = perf_counter()
    chunks = _chunks(sweep.lo, sweep.hi, sweep.workers)
    if len(chunks) == 1:
        parts = [_conjecture_chunk(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_conjecture_chunk, chunks))
    mismatches = []
    for part in parts:
        for n, expected, actual in part:
            if len(mismatches) >= MAX_MISMATCHES:
                break
            mismatches.append(Mismatch(n, str(expected), str(actual)))
    elapsed = (perf_counter() - start) * 1000.0
    return VerificationReport(sweep, sweep.hi - sweep.lo + 1, mismatches, elapsed)


def verify_residues(limit: int) -> VerificationReport:
    """Every value over 0 <= b <= a <= limit must be 0, 1, 3, or 4 (mod 6)."""
    if not 1 <= limit <= _ENTRY_LIMIT:
        raise ValueError(f"limit={limit} must be positive and keep values within 64 bits")
    start = perf_counter()
    mismatches = []
    checked = 0
    for a in range(limit + 1):
        aa = a * a
        for b in range(a + 1):
            value = aa + a * b + b * b
            checked += 1
            if value % 6 not in _GOOD_RESIDUES:
                if len(mismatches) < MAX_MISMATCHES:
                    mismatches.append(
                        Mismatch(value, "residue 0, 1, 3, or 4 (mod 6)",
                                 f"residue {value % 6} at pair ({a}, {b})")
                    )
    elapsed = (perf_counter() - start) * 1000.0
    return VerificationReport(SweepRange(1, limit, 1), checked, mismatches, elapsed)


def verify_prime_theorems(limit: int) -> VerificationReport:
    """Check classification, counting, construction, and enumeration on every prime <= limit.

    Primes that are 3 or 1 (mod 6) must have exactly one representation and
    represent_prime must find it; residual primes must have none and
    represent_prime must refuse.
    """
    if not 2 <= limit <= U64_MAX:
        raise ValueError(f"limit={limit} must be at least 2")
    start = perf_counter()
    mismatches = []

    def note(n: int, expected: str, actual: str) -> None:
        if len(mismatches) < MAX_MISMATCHES:
            mismatches.append(Mismatch(n, expected, actual))

    checked = 0
    for p in _sieve(limit):
        checked += 1
        cls = classify_prime(p)
        reps = enumerate_reps(p)
        predicted = count_formula(p)
        if len(reps) != predicted:
            note(p, f"count formula {predicted}", f"{len(reps)} enumerated")
        if cls is PrimeClass.RESIDUAL:
            if reps:
                note(p, "no representations for a residual prime", f"{reps}")
            try:
                rep = represent_prime(p)
                note(p, "refusal for a residual prime", f"returned {rep}")
            except NotRepresentableError:
                pass
        else:
            if len(reps) != 1:
                note(p, "exactly one representation", f"{len(reps)} enumerated")
            try:
                rep = represent_prime(p)
                if not reps or rep != reps[0]:
                    note(p, f"construction matching {reps}", f"constructed {rep}")
            except NotRepresentableError:
                note(p, "a constructed representation", "refusal")
    elapsed = (perf_counter() - start) * 1000.0
    return VerificationReport(SweepRange(1, limit, 1), checked, mismatches, elapsed)


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    out = [1]
    for p, e in factors:
        powers = [p**k for k in range(1, e + 1)]
        out += [d * q for d in out for q in powers]
    return sorted(out)


def verify_factor_theorem(pair_bound: int, samples: int, seed: int) -> VerificationReport:
    """Sampled check that every divisor of a coprime pair's value is representable.

    Draws coprime pairs (a, b) with entries in [1, pair_bound] from a seeded
    generator, and also checks the flip side: a divisor whose cofactor uses
    only primes 3 and 1 (mod 6) must itself be representable.
    """
    if not 1 <= pair_bound <= _ENTRY_LIMIT:
        raise ValueError(f"pair_bound={pair_bound} must be positive and keep values within 64 bits")
    if samples < 1:
        raise ValueError(f"samples={samples} must be at least 1")
    start = perf_counter()
    rng = Random(seed)
    mismatches = []

    def note(n: int, expected: str, actual: str) -> None:
        if len(mismatches) < MAX_MISMATCHES:
            mismatches.append(Mismatch(n, expected, actual))

    for _ in range(samples):
        while True:
            x = rng.randrange(1, pair_bound + 1)
            y = rng.randrange(1, pair_bound + 1)
            if gcd(x, y) == 1:
                break
        a, b = (x, y) if x >= y else (y, x)
        value = evaluate(a, b)
        for d in _divisors(factor(value)):
            verdict = is_loeschian(d)
            if verdict.representable:
                continue
            p, e = verdict.obstruction
            note(d, f"divisor of ({a}, {b}) value {value} representable",
                 f"prime {p} has odd exponent {e}")
            cofactor_clean = all(q == 3 or q % 6 == 1 for q, _ in factor(value // d))
            if cofactor_clean:
                note(d, f"representability forced by the clean cofactor {value // d}",
                     f"prime {p} has odd exponent {e}")
    elapsed = (perf_counter() - start) * 1000.0
    return VerificationReport(SweepRange(1, pair_bound, 1), samples, mismatches, elapsed)


def emit_sequence(limit: int) -> list[int]:
    """Ascending list of every representable value up to limit, starting at 0."""
    if not 0 <= limit <= U64_MAX:
        raise ValueError(f"limit={limit} is outside the supported unsigned 64-bit range")
    return [n for n in range(limit + 1) if is_loeschian(n).representable]
