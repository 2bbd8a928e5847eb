"""Deterministic primality, factorization, and prime classification for 64-bit inputs."""

from bisect import bisect
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple

from .forms import _require_positive_u64, _require_u64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17)

# psi_k of OEIS A014233, k = 1..7: the smallest strong pseudoprime to the
# first k bases (Jaeschke, Math. Comp. 61, 1993), so below psi_k the first k
# bases decide. From psi_7 up, seven bases found by J. Sinclair (2011) decide
# every n below 2^64, as checked against the Feitsma-Galway list of base-2
# strong pseudoprimes; a base sharing a factor with n fails, as it should.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321)
_MR_WIDE = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Default seed for the rho stage; factor() accepts an override.
RHO_SEED = 0x10E5C41A

# Fewest values factored together by _window_factors; the block grows to a
# quarter of the square root of hi. The factor lists cost about 300 B per n, so
# the peak stays flat in the width of the window: about 0.75 MB at hi = 10^8.
_BLOCK = 256

# Every prime up to the limit, grown on demand and shared by the whole process.
# The pair is replaced whole, so a thread racing another still reads a matching one.
_prime_cache: tuple[int, tuple[int, ...]] = (0, ())


def _sieve(lo: int, hi: int) -> tuple[int, ...]:
    """The primes in [lo, hi], ascending: each prime up to isqrt(hi) crosses off its multiples."""
    lo = max(lo, 2)
    flags = bytearray([1]) * (hi + 1 - lo)
    for p in _primes_upto(isqrt(hi)):
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo :: p] = bytes(len(range(first, hi + 1, p)))
    return tuple(compress(range(lo, hi + 1), flags))


def _primes_upto(limit: int) -> tuple[int, ...]:
    """_sieve(0, limit) from the process-wide cache, which at least doubles when it grows."""
    global _prime_cache
    cached, primes = _prime_cache
    if limit > max(cached, 1):  # no prime is below 2, and _sieve(0, 1) asks for the primes to 1
        cached = max(limit, 2 * cached)
        primes = _sieve(0, cached)
        _prime_cache = cached, primes
    return primes[:bisect(primes, limit)]


def _window_factors(lo: int, hi: int) -> Iterator[list[tuple[int, int]]]:
    """factor(n) for each n in [lo, hi] in turn, from a segmented sieve; needs lo >= 1.

    Block by block of max(_BLOCK, isqrt(hi) // 4) values, each prime p up to
    the square root of hi that has a multiple in the block visits its multiples
    there and divides out its exponent, in ascending p. What is left above 1
    then has no prime factor up to that root, so it is one more prime, larger
    than every one before it. The block grows with the root so that the walk
    over the primes is paid for by at least four values per prime; at
    hi = 10^8 that is 2500 values, about 0.75 MB of factor lists.
    """
    root = isqrt(hi)
    primes = _primes_upto(root)
    block = max(_BLOCK, root // 4)
    for start in range(lo, hi + 1, block):
        width = min(block, hi + 1 - start)
        rest = list(range(start, start + width))
        factors: list[list[tuple[int, int]]] = [[] for _ in rest]
        for p in primes:
            first = -start % p
            if first >= width:
                continue
            once = (p, 1)  # one tuple for every n that p divides exactly once
            for i in range(first, width, p):
                m = rest[i] // p
                if m % p:
                    factors[i].append(once)
                else:
                    e = 1
                    while not m % p:
                        m //= p
                        e += 1
                    factors[i].append((p, e))
                rest[i] = m
        for m, f in zip(rest, factors):
            if m > 1:
                f.append((m, 1))
        yield from factors


_TRIAL_PRIMES = _sieve(0, 1000)
_TRIAL_COVERED = 1009 * 1009  # anything below this is fully split by trial division

# The trial primes in runs of 32, each with the product of its run: one gcd
# with that product names every prime of the run that divides n. One product
# of all 168 primes would cost more on smooth n, where the big gcd buys nothing.
_TRIAL_BLOCKS = tuple((run, prod(run)) for run in
                      (_TRIAL_PRIMES[i:i + 32] for i in range(0, len(_TRIAL_PRIMES), 32)))


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact over the whole 64-bit range.

    The first trial run's gcd screens every n; below 1009^2 the later runs decide, and from
    there up Miller-Rabin does.
    """
    _require_u64("n", n)
    for run, product in _TRIAL_BLOCKS:
        if run[0] * run[0] > n:
            return n > 1
        if gcd(n, product) != 1:
            return n in run
        if n >= _TRIAL_COVERED:
            break
    else:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    k = bisect(_MR_PSI, n)
    for a in _MR_BASES[:k + 1] if k < len(_MR_PSI) else _MR_WIDE:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int, seed: int) -> int:
    """One nontrivial factor of a composite n with no small prime factor.

    Brent's cycle-finding variant of the rho method on y -> y^2 + c. Attempt
    i starts at y = 2 with c = 1 + (seed + i) mod (n - 3), so a fixed seed
    makes the whole factorization reproducible.
    """
    while True:
        y = 2
        c = 1 + seed % (n - 3)
        seed += 1
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                # Four differences per reduction: q mod n, and so the gcd, is
                # the same as with one reduction per step.
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * ((x - y1) * (x - y2)) * ((x - y3) * (x - y)) % n
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factor_hard(n: int, counts: dict[int, int], seed: int, times: int = 1) -> None:
    """Add times x each exponent of n to counts, for n a _trial_part cofactor or a factor of one.

    A square's root is factored once, with multiplicity 2 * times. A rho
    divisor d is factored once, with multiplicity e * times for the largest
    power d^e that divides n.
    """
    r = isqrt(n)
    if r * r == n:  # one isqrt, before any Miller-Rabin, where rho would need ~n^(1/4) steps
        _factor_hard(r, counts, seed, 2 * times)
    elif n < _TRIAL_COVERED or is_prime(n):
        counts[n] = counts.get(n, 0) + times
    else:
        d = _rho_split(n, seed)
        e = 0
        while not n % d:
            n //= d
            e += times
        _factor_hard(d, counts, seed, e)
        if n > 1:
            _factor_hard(n, counts, seed, times)


def _trial_part(n: int) -> tuple[list[tuple[int, int]], int]:
    """The prime powers of n below 1000, ascending, and the cofactor m they leave.

    Every prime factor of m is larger than each prime listed, so the list
    followed by _cofactor_factors(m) is factor(n). Run by run of
    _TRIAL_BLOCKS, g = gcd(n, product of the run) is the product of the run's
    primes that divide n: a run with g = 1 is skipped unread, and a run is
    scanned only until its g is used up. Once the first prime of a run
    squared passes n, what is left is 1 or a prime.
    """
    _require_positive_u64("n", n)
    small: list[tuple[int, int]] = []
    for run, product in _TRIAL_BLOCKS:
        if run[0] * run[0] > n:
            break
        g = gcd(n, product)
        if g == 1:
            continue
        for p in run:
            if g % p:
                continue
            n //= p
            e = 1
            while not n % p:
                n //= p
                e += 1
            small.append((p, e))
            g //= p
            if g == 1:
                break
    return small, n


def _cofactor_factors(m: int, seed: int) -> Iterator[tuple[int, int]]:
    """factor of a _trial_part cofactor by _factor_hard; no work until its first item is read."""
    if m > 1:
        counts: dict[int, int] = {}
        _factor_hard(m, counts, seed)
        yield from sorted(counts.items())


def factor(n: int, seed: int = RHO_SEED) -> list[tuple[int, int]]:
    """Prime factorization as an ascending list of (prime, exponent) pairs.

    factor(1) is the empty list. Output is deterministic for a fixed seed.
    """
    small, m = _trial_part(n)
    return [*small, *_cofactor_factors(m, seed)]


class PrimeClass(Enum):
    """The three residue classes that govern representability of a prime."""

    THREE = "three"
    ONE_MOD_6 = "one_mod_6"
    RESIDUAL = "residual"


def classify_prime(p: int) -> PrimeClass:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return PrimeClass.THREE
    if p % 6 == 1:
        return PrimeClass.ONE_MOD_6
    return PrimeClass.RESIDUAL


class GeneralForm(NamedTuple):
    """Shape n = scale^2 * 3^power_of_three * product of (1 mod 6) prime powers.

    Every representable n splits this way; primes contains the (1 mod 6)
    part in ascending order, and scale collects half of each even residual
    exponent together with nothing else.
    """

    scale: int
    power_of_three: int
    primes: list[tuple[int, int]]


def _general_form_from(factors: Iterable[tuple[int, int]]) -> GeneralForm | tuple[int, int]:
    """The shape of a factorization, or its first residual prime with odd exponent as (p, e)."""
    scale = 1
    power_of_three = 0
    primes: list[tuple[int, int]] = []
    for p, e in factors:
        if p == 3:
            power_of_three = e
        elif p % 6 == 1:
            primes.append((p, e))
        elif e & 1:
            return p, e
        else:
            scale *= p ** (e >> 1)
    return GeneralForm(scale, power_of_three, primes)
