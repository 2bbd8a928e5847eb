"""The benchmark's own arithmetic, written apart from the library it checks.

Nothing here imports `loeschian`: inputs are generated and answers are
checked with this code, so a fault in the library cannot hide itself by
also being in the checker.
"""

from math import isqrt

U64_MAX = 2**64 - 1

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 2^64."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = primes_upto(1000)


def random_prime(rng, lo: int, hi: int, residue: int | None = None) -> int:
    """Uniform-ish prime in [lo, hi]; with residue, one congruent to it mod 6."""
    while True:
        p = rng.randrange(lo, hi + 1)
        if (residue is None or p % 6 == residue) and is_prime(p):
            return p


def q_plus(a: int, b: int) -> int:
    return a * a + a * b + b * b


def q_minus(a: int, b: int) -> int:
    return a * a - a * b + b * b


def trial_factor(n: int) -> dict[int, int]:
    """Factorization by trial division; only for the small inputs of the CLI workload."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_residual(p: int) -> bool:
    """A prime that is 2 or 5 (mod 6): it must occur to an even power in a value of the form."""
    return p != 3 and p % 6 != 1


def obstruction(factors: dict[int, int]) -> tuple[int, int] | None:
    """Smallest residual prime with an odd exponent, or None when n is a value of the form."""
    odd = [(p, e) for p, e in sorted(factors.items()) if is_residual(p) and e & 1]
    return odd[0] if odd else None


def rep_count(factors: dict[int, int]) -> int:
    """Canonical representation count from a factorization, by the counting theorem."""
    if obstruction(factors) is not None:
        return 0
    product = 1
    for p, e in factors.items():
        if p % 6 == 1:
            product *= e + 1
    return (product + 1) // 2


def brute_reps(n: int) -> list[tuple[int, int]]:
    """Every pair a >= b >= 0 with a^2 + ab + b^2 = n, by direct search over b."""
    out = []
    b = 0
    while 3 * b * b <= n:
        disc = 4 * n - 3 * b * b
        s = isqrt(disc)
        if s * s == disc and (s - b) % 2 == 0:
            a = (s - b) // 2
            if a >= b:
                out.append((a, b))
        b += 1
    return out


def loeschian_flags(limit: int) -> bytearray:
    """Marking sieve: flags[v] is 1 exactly when v <= limit is a value of the form."""
    flags = bytearray(limit + 1)
    a = 0
    while a * a <= limit:
        b = 0
        while b <= a:
            v = q_plus(a, b)
            if v > limit:
                break
            flags[v] = 1
            b += 1
        a += 1
    return flags


def multiply(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """A pair whose value is the product of the two values, by the Eisenstein product rule.

    (a^2+ab+b^2)(c^2+cd+d^2) = X^2 + XY + Y^2 with X = ac - bd, Y = ad + bc + bd,
    then folded to nonnegative entries without changing the value.
    """
    a, b = x
    c, d = y
    X, Y = a * c - b * d, a * d + b * c + b * d
    if X >= 0:
        return X, Y
    if X + Y >= 0:
        return X + Y, -X
    return -(X + Y), Y
