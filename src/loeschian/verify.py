"""Range sweeps that cross-check the library against itself and report mismatches.

Each sweep returns a VerificationReport whose mathematical content is
deterministic: mismatches come out in ascending order of n no matter how
many workers ran, and only elapsed_ms varies between runs.
"""

import os
import sys
from array import array
from collections import deque
from collections.abc import Iterator
from itertools import chain, compress, islice
from math import gcd, isqrt
from random import Random
from time import perf_counter
from typing import NamedTuple

from .factorize import GeneralForm, _general_form_from, _sieve, _window_factors, factor
from .forms import U64_MAX, _require_u64, evaluate
from .represent import NotRepresentableError, _count, represent_prime

MAX_MISMATCHES = 1000
CONJECTURE_LIMIT = 10**8

# Width of one windowed count: 2^16 two-byte counts, 128 KiB per window.
_SEGMENT = 1 << 16

_GOOD_RESIDUES = frozenset({0, 1, 3, 4})

# ceil(2^35 / 6): for v < 2^33, (v * _SIXTH) >> 35 is v // 6 and v * _SIXTH < 2^63.
_SIXTH = -(-(1 << 35) // 6)

# Largest entry whose form value still fits in 64 bits.
_ENTRY_LIMIT = isqrt(U64_MAX // 3)


class SweepRange(NamedTuple("SweepRange", [("lo", int), ("hi", int), ("workers", int)])):
    """Inclusive range [lo, hi] plus the worker count for parallel sweeps."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, workers: int = 1):
        if not 1 <= lo <= hi <= U64_MAX:
            raise ValueError(f"need 1 <= lo <= hi within 64 bits, got [{lo}, {hi}]")
        if workers < 1:
            raise ValueError(f"workers={workers} must be at least 1")
        return super().__new__(cls, lo, hi, workers)


class Mismatch(NamedTuple):
    """One failed check: the n it happened at, what was expected, what showed up."""

    n: int
    expected: str
    actual: str


class VerificationReport(NamedTuple("VerificationReport", [
        ("sweep", SweepRange), ("checked", int), ("mismatches", list[Mismatch]),
        ("elapsed_ms", float)])):
    __slots__ = ()

    def __new__(cls, sweep: SweepRange, checked: int, mismatches: list[Mismatch] | None = None,
                elapsed_ms: float = 0.0):
        # A fresh list per report, never one default shared between them.
        return super().__new__(cls, sweep, checked, [] if mismatches is None else mismatches,
                               elapsed_ms)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _first(found: Iterator) -> list:
    """The first MAX_MISMATCHES items of found; the rest is drained, so every input is checked."""
    first = list(islice(found, MAX_MISMATCHES))
    deque(found, maxlen=0)
    return first


def _report(sweep: SweepRange, checked: int, found: Iterator[tuple[int, object, object]],
            start: float) -> VerificationReport:
    """Report the (n, expected, actual) tuples that _first keeps of found, timed from start."""
    mismatches = [Mismatch(n, str(expected), str(actual)) for n, expected, actual in _first(found)]
    return VerificationReport(sweep, checked, mismatches, (perf_counter() - start) * 1000.0)


def _window_counts(lo: int, hi: int) -> array:
    """Number of canonical pairs 0 <= b <= a with a^2 + ab + b^2 = n, for each n in [lo, hi].

    One exhaustive lattice pass that never looks at a factorization, so it
    stays independent of count_formula. For each a in
    [ceil(sqrt(lo/3)), floor(sqrt(hi))] an exact isqrt bound gives the first b
    whose value reaches lo; the value then steps by a + 2b + 1 until it passes
    hi or b passes a. The cost is O(hi - lo + sqrt(hi)), not O(sqrt n) per n.
    """
    counts = array("H", [0]) * (hi - lo + 1)
    third = -(-lo // 3)  # the first a has a^2 >= ceil(lo / 3)
    for a in range(isqrt(third - 1) + 1 if third else 0, isqrt(hi) + 1):
        aa = a * a
        # Smallest b with (2b + a)^2 >= 4 lo - 3a^2, that is a^2 + ab + b^2 >= lo.
        disc = 4 * lo - 3 * aa
        b = 0 if disc <= aa else (isqrt(disc - 1) + 2 - a) >> 1
        value = aa + a * b + b * b
        while value <= hi and b <= a:
            counts[value - lo] += 1
            value += a + 2 * b + 1
            b += 1
    return counts


def _parts(part, lo: int, hi: int, workers: int = 1) -> Iterator:
    """part(segment) for each segment of at most _SEGMENT values of [lo, hi], in ascending order.

    In-process when there is one segment or one worker; otherwise a pool of at
    most min(workers, segments, CPUs) processes computes the parts, and each is
    yielded as it comes back, in order, while the pool is still open.
    """
    starts = range(lo, hi + 1, _SEGMENT)
    segments = (range(start, min(start + _SEGMENT, hi + 1)) for start in starts)
    if (k := min(workers, len(starts), os.cpu_count() or 1)) == 1:
        yield from map(part, segments)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=k) as pool:
        yield from pool.map(part, segments)


def _conjecture_part(segment: range) -> list[tuple[int, int, int]]:
    lo, hi = segment[0], segment[-1]
    return _first((n, expected, actual) for n, factors, actual in
                  zip(segment, _window_factors(lo, hi), _window_counts(lo, hi))
                  if (expected := _count(_general_form_from(factors))) != actual)


def verify_conjecture(sweep: SweepRange) -> VerificationReport:
    """Compare the counting formula with exhaustive enumeration over [lo, hi].

    Each segment of _parts is counted by one lattice pass. The formula side of
    a segment comes from a block-wise segmented sieve, whose factor lists go
    through the library's own _general_form_from and counting rule, so no n
    pays for a factor call. A segment compares every n but keeps only its first
    mismatches. The report echoes sweep.workers.
    """
    if sweep.hi > CONJECTURE_LIMIT:
        raise ValueError(f"hi={sweep.hi} exceeds the sweep guard {CONJECTURE_LIMIT}")
    parts = _parts(_conjecture_part, sweep.lo, sweep.hi, sweep.workers)
    return _report(sweep, sweep.hi - sweep.lo + 1, chain.from_iterable(parts), perf_counter())


def _digits(values) -> int:
    """The integer whose 64-bit digits, least significant first, are values."""
    words = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _residue_table(limit: int) -> tuple[int, int, int, int]:
    """Digit columns for rows of up to limit + 1 digits: 1, b, b^2 and 2^29 - 1."""
    n = limit + 1
    ones = _digits([1] * n)
    return ones, _digits(range(n)), _digits([b * b for b in range(n)]), ones * ((1 << 29) - 1)


def _row_residues(a: int, table: tuple[int, int, int, int]) -> bytes:
    """(a^2 + ab + b^2) % 6 for b = 0..a, one byte each, from a table sized past a.

    Row a is a^2 * ones + a * bs + squares cut to a + 1 digits. Every value is
    below 2^30 within the pair guard, so no digit carries into the next: times
    _SIXTH each digit stays below 2^63, the shift by 35 leaves its quotient by 6
    (below 2^28) in its low 29 bits under the spill of the digit above, and the
    mask clears that spill.
    """
    ones, bs, squares, low29 = table
    cut = (1 << 64 * (a + 1)) - 1
    row = a * (a * (ones & cut) + (bs & cut)) + (squares & cut)
    residues = row - 6 * ((row * _SIXTH >> 35) & low29)
    return residues.to_bytes(8 * (a + 1), "little")[::8]


def verify_residues(limit: int) -> VerificationReport:
    """Every value over 0 <= b <= a <= limit must be 0, 1, 3, or 4 (mod 6).

    Row a of values is one integer whose 64-bit digits are the exact values
    a^2 + ab + b^2 for b = 0..a, and every residue of the row comes from one
    multiplication by ceil(2^35 / 6), a shift and a mask; only a row with a bad
    residue is walked pair by pair, which words its mismatches in pair order.
    The pairs to check number (limit + 1)(limit + 2)/2, which may not pass
    CONJECTURE_LIMIT: limit 14140 is the largest accepted.
    """
    if not 1 <= limit <= _ENTRY_LIMIT:
        raise ValueError(f"limit={limit} must be positive and keep values within 64 bits")
    checked = (limit + 1) * (limit + 2) // 2
    if checked > CONJECTURE_LIMIT:
        raise ValueError(f"limit={limit} gives {checked} pairs, past the sweep guard "
                         f"{CONJECTURE_LIMIT}")

    def mismatches():
        good = bytes(_GOOD_RESIDUES)
        table = _residue_table(limit)
        missed = 0  # only the first MAX_MISMATCHES misses are put in words
        for a in range(limit + 1):
            if not _row_residues(a, table).translate(None, good):
                continue
            aa = a * a
            for b in range(a + 1):
                value = aa + a * b + b * b
                if value % 6 not in _GOOD_RESIDUES:
                    if (missed := missed + 1) <= MAX_MISMATCHES:
                        yield (value, "residue 0, 1, 3, or 4 (mod 6)",
                               f"residue {value % 6} at pair ({a}, {b})")

    return _report(SweepRange(1, limit, 1), checked, mismatches(), perf_counter())


def verify_prime_theorems(limit: int) -> VerificationReport:
    """Check classification, counting, and construction on every prime <= limit.

    Segment by segment of _parts over [0, limit], the primes come from a
    segmented sieve, the counts from one lattice window, the predictions from
    the shape rule on p^1. A prime predicted 0 is residual: it must have no
    representation and represent_prime must refuse. Any other prime must have
    exactly one, a canonical pair of value p that represent_prime returns.
    """
    if limit < 2:
        raise ValueError(f"limit={limit} must be at least 2")
    if limit > CONJECTURE_LIMIT:
        raise ValueError(f"limit={limit} exceeds the sweep guard {CONJECTURE_LIMIT}")
    checked = 0

    def mismatches(segment):
        nonlocal checked
        lo, hi = segment[0], segment[-1]
        primes = _sieve(lo, hi)
        counts = _window_counts(lo, hi)
        checked += len(primes)
        for p in primes:
            count = counts[p - lo]
            predicted = _count(_general_form_from([(p, 1)]))
            if count != predicted:
                yield p, f"count formula {predicted}", f"{count} enumerated"
            try:
                rep = represent_prime(p)
            except NotRepresentableError:
                rep = None
            if not predicted:
                if count:
                    yield p, "no representations for a residual prime", f"{count} enumerated"
                if rep is not None:
                    yield p, "refusal for a residual prime", f"returned {rep}"
            else:
                if count != 1:
                    yield p, "exactly one representation", f"{count} enumerated"
                if rep is None:
                    yield p, "a constructed representation", "refusal"
                elif not (0 <= rep.b <= rep.a and evaluate(*rep) == p):
                    yield p, f"a canonical pair of value {p}", f"constructed {rep}"

    parts = _parts(mismatches, 0, limit)  # counts the primes into checked as _report drains it
    report = _report(SweepRange(1, limit, 1), 0, chain.from_iterable(parts), perf_counter())
    return report._replace(checked=checked)


def _divisors(factors: list[tuple[int, int]]) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every divisor d of the factored number, ascending, each with its own factor list."""
    out = [(1, [])]
    for p, e in factors:
        out += [(d * p**k, own + [(p, k)]) for d, own in out for k in range(1, e + 1)]
    return sorted(out)  # the d are distinct, so no two lists are compared


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

    def mismatches():
        rng = Random(seed)
        for _ in range(samples):
            while True:
                x = rng.randrange(1, pair_bound + 1)
                y = rng.randrange(1, pair_bound + 1)
                if gcd(x, y) == 1:
                    break
            a, b = (x, y) if x >= y else (y, x)
            value = evaluate(a, b)
            factors = factor(value)
            for d, own in _divisors(factors):
                if isinstance(shape := _general_form_from(own), GeneralForm):
                    continue
                p, e = shape
                yield (d, f"divisor of ({a}, {b}) value {value} representable",
                       f"prime {p} has odd exponent {e}")
                # The cofactor takes every prime whose whole power is not in d.
                if all(q == 3 or q % 6 == 1 for q, k in factors if (q, k) not in own):
                    yield (d, f"representability forced by the clean cofactor {value // d}",
                           f"prime {p} has odd exponent {e}")

    return _report(SweepRange(1, pair_bound, 1), samples, mismatches(), perf_counter())


def _sequence(limit: int) -> Iterator[int]:
    """The values with a nonzero lattice count, segment by segment of _parts over [0, limit]."""
    return chain.from_iterable(_parts(
        lambda segment: compress(segment, _window_counts(segment[0], segment[-1])), 0, limit))


def emit_sequence(limit: int) -> list[int]:
    """Ascending list of every representable value up to limit, starting at 0."""
    _require_u64("limit", limit)
    return list(_sequence(limit))
