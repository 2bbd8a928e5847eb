"""Brute-force oracles, deliberately independent of the library under test.

Everything here recomputes answers the slow, obvious way so the tests can
freeze expected values without trusting the code they check.
"""

from math import isqrt


def brute_reps(n):
    """All pairs a >= b >= 0 with a^2 + ab + b^2 = n, by blind double loop."""
    found = []
    a = 0
    while a * a <= n:
        for b in range(a + 1):
            if a * a + a * b + b * b == n:
                found.append((a, b))
        a += 1
    if not found and n == 0:
        found.append((0, 0))
    return sorted(found, key=lambda pair: pair[1])


def scan_reps(n):
    """All pairs a >= b >= 0 with a^2 + ab + b^2 = n, ordered by ascending b.

    Scans the window sqrt(n/3) <= a <= sqrt(n); each a admits at most one b.
    """
    if n == 0:
        return [(0, 0)]
    reps = []
    n4 = 4 * n
    lo = isqrt(n // 3)
    while 3 * lo * lo < n:
        lo += 1
    for a in range(isqrt(n), lo - 1, -1):
        disc = n4 - 3 * a * a
        s = isqrt(disc)
        if s * s == disc:
            t = s - a
            if t >= 0 and not t & 1 and t >> 1 <= a:
                reps.append((a, t >> 1))
    return reps


def brute_sequence(limit):
    """Every value the form attains up to limit, by marking a double loop."""
    hit = bytearray(limit + 1)
    a = 0
    while a * a <= limit:
        for b in range(a + 1):
            value = a * a + a * b + b * b
            if value > limit:
                break
            hit[value] = 1
        a += 1
    return [n for n in range(limit + 1) if hit[n]]


def sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [n for n in range(limit + 1) if flags[n]]


def smallest_factor_table(limit):
    """spf[n] is the smallest prime factor of n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factor_with_table(n, spf):
    out = []
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def trial_divide(n, primes):
    """The prime powers (p, e) of n over primes, one division loop per prime, and the rest."""
    powers = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            powers.append((p, e))
    return powers, n
