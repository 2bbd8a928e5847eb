"""Deciding which integers the form a^2 + ab + b^2 attains, and finding witnesses."""

from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .factorize import GeneralForm, factor, general_form, is_prime, _general_form_from
from .forms import Representation, U64_MAX, canonicalize, compose, evaluate


class NotRepresentableError(ArithmeticError):
    """Raised when a value provably has no representation."""


_REP_ONE = Representation(1, 0)
_REP_THREE = Representation(1, 1)


def cube_root_unity(p: int) -> int:
    """The root of z^2 + z + 1 = 0 (mod p) lying in (0, p/2), for prime p = 1 (mod 6).

    Powers x = 2, 3, 4, ... to the exponent (p-1)/3: the first w != 1, at the
    least cubic non-residue, is a primitive cube root of unity. That x is below
    p, and prime (the residues are a subgroup), so trying composites too changes
    no result. Of the roots w and p-1-w one lies below p/2.
    """
    if not is_prime(p) or p % 6 != 1:
        raise ValueError(f"p={p} must be a prime congruent to 1 (mod 6)")
    e = (p - 1) // 3
    x = 2
    while (w := pow(x, e, p)) == 1:
        x += 1
    z = min(w, p - 1 - w)
    if (z * z + z + 1) % p != 0:
        raise RuntimeError(f"cube root search for p={p} produced a non-root {z}")
    return z


def represent_prime(p: int) -> Representation:
    """Constructive canonical representation of a prime.

    Exists exactly for p = 3 and p = 1 (mod 6). For the latter, a square
    root r of -3 (mod p) comes from the cube root of unity, and a Euclidean
    remainder descent on (2p, r) stops at the first remainder u with
    u^2 < 4p, which satisfies u^2 + 3v^2 = 4p; the pair ((u-v)/2, v) then
    carries the value p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return _REP_THREE
    if p % 6 != 1:
        raise NotRepresentableError(f"prime {p} is {p % 6} (mod 6) and has no representation")
    z = cube_root_unity(p)
    r = 2 * z + 1  # r^2 = -3 (mod p)
    target = 4 * p
    a, b = 2 * p, r
    while b * b > target:
        a, b = b, a % b
    u = b
    v2, residue = divmod(target - u * u, 3)
    if residue:
        raise RuntimeError(f"descent for p={p} left 4p - u^2 not divisible by 3")
    v = isqrt(v2)
    if v * v != v2:
        raise RuntimeError(f"descent for p={p} left (4p - u^2)/3 a non-square")
    rep = canonicalize((u - v) >> 1, v)
    if evaluate(rep.a, rep.b) != p:
        raise RuntimeError(f"construction for p={p} failed verification")
    return rep


def enumerate_reps(n: int) -> list[Representation]:
    """Every canonical representation of n, ordered by ascending second entry.

    Built from the factorization, since Z[w] has unique factorization: each
    representation is a product over the (1 mod 6) primes p^e of pi^k times
    conj(pi)^(e-k), k = 0..e, where pi and conj(pi) are the Eisenstein primes
    over p; times the power of 1 - w and the scale. This costs one factor call
    plus a few compositions per representation, not an O(sqrt n) scan.
    """
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"n={n} is outside the supported unsigned 64-bit range")
    if n == 0:
        return [Representation(0, 0)]
    shape = general_form(n)
    if shape is None:
        return []
    return sorted(_construct(shape, n, (1, 2)), key=itemgetter(1))


class Verdict(NamedTuple):
    """Outcome of the representability test, with evidence either way.

    Exactly one of witness (a representation) and obstruction (a residual
    prime with its odd exponent) is set.
    """

    representable: bool
    witness: Representation | None = None
    obstruction: tuple[int, int] | None = None


def is_loeschian(n: int) -> Verdict:
    """Decide from the factorization whether n is a value of the form.

    n is representable exactly when every prime factor that is 2 or
    5 (mod 6) occurs to an even power.
    """
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"n={n} is outside the supported unsigned 64-bit range")
    if n == 0:
        return Verdict(True, witness=Representation(0, 0))
    shape = _general_form_from(factor(n))
    if not isinstance(shape, GeneralForm):
        return Verdict(False, obstruction=shape)
    return Verdict(True, witness=_construct(shape, n)[0])


def _construct(shape: GeneralForm, n: int,
               variants: tuple[int, ...] = (2,)) -> list[Representation]:
    """Representations of n built from its shape, each verified by evaluate.

    Every pair found so far is composed with each split prime's pair once per
    exponent, in each of the variants: variant 2 alone builds one witness,
    variants 1 and 2 build every representation. The fold in compose removes
    the 12 symmetries (6 units times conjugation), so the set holds no
    duplicates.
    """
    reps = {_REP_ONE}
    for p, e in shape.primes:
        prime_rep = represent_prime(p)
        for _ in range(e):
            reps = {compose(r, prime_rep, v) for r in reps for v in variants}
    for _ in range(shape.power_of_three):
        reps = {compose(r, _REP_THREE, 1) for r in reps}
    s = shape.scale
    built = [Representation(a * s, b * s) for a, b in reps]
    for a, b in built:
        if evaluate(a, b) != n:
            raise RuntimeError(f"constructed representation for {n} failed verification")
    return built


def represent_fast(n: int) -> Representation | None:
    """One canonical representation of n without exhaustive search, or None.

    The witness of is_loeschian, composed from the prime representations.
    """
    if not 1 <= n <= U64_MAX:
        raise ValueError(f"n={n} must be a positive 64-bit integer")
    return is_loeschian(n).witness


def count_formula(n: int) -> int:
    """Number of canonical representations of n, straight from the factorization.

    With the (1 mod 6) exponents e_i: half of (1 + prod(e_i + 1)) when all
    e_i are even, half of prod(e_i + 1) otherwise; 0 when n is not
    representable at all.
    """
    if not 1 <= n <= U64_MAX:
        raise ValueError(f"n={n} must be a positive 64-bit integer")
    shape = general_form(n)
    if shape is None:
        return 0
    product = 1
    all_even = True
    for _, e in shape.primes:
        product *= e + 1
        if e & 1:
            all_even = False
    return (1 + product) >> 1 if all_even else product >> 1


def divide_by_square(n: int, k: int) -> Representation:
    """Representation of n / k^2, given representable n with k^2 dividing n."""
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"n={n} is outside the supported unsigned 64-bit range")
    if not 1 <= k <= U64_MAX:
        raise ValueError(f"k={k} must be a positive 64-bit integer")
    quotient, rest = divmod(n, k * k)
    if rest:
        raise ValueError(f"{k}^2 does not divide {n}")
    if quotient == 0:
        return Representation(0, 0)
    rep = represent_fast(quotient)
    if rep is None:
        raise RuntimeError(
            f"quotient {quotient} = {n}/{k}^2 is not representable; {n} cannot have been"
        )
    return rep


def rational_lift(alpha: Fraction, beta: Fraction) -> tuple[int, Representation]:
    """Integer value and witness for a rational point of the form.

    For nonnegative rationals with a^2 + ab + b^2 an integer n, n is a value
    of the form over the rationals and hence over the integers; the witness
    is the one represent_fast builds for n.
    """
    if alpha < 0 or beta < 0:
        raise ValueError(f"rational pair ({alpha}, {beta}) must be nonnegative")
    for name, part in (("alpha", alpha), ("beta", beta)):
        if part.numerator > U64_MAX or part.denominator > U64_MAX:
            raise ValueError(f"{name}={part} is outside the supported range")
    value = alpha * alpha + alpha * beta + beta * beta
    if value.denominator != 1:
        raise ValueError(f"form value {value} is not an integer")
    n = value.numerator
    if n > U64_MAX:
        raise OverflowError(f"form value {n} exceeds the 64-bit range")
    if n == 0:
        return n, Representation(0, 0)
    rep = represent_fast(n)
    if rep is None:
        raise RuntimeError(f"form value {n} of a rational point is not representable")
    return n, rep
