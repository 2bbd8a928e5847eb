"""Deciding which integers the form a^2 + ab + b^2 attains, and finding witnesses."""

from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .factorize import (RHO_SEED, GeneralForm, _cofactor_factors, _general_form_from,
                        _trial_part, is_prime)
from .forms import (Representation, U64_MAX, _require_positive_u64, _require_u64,
                    canonicalize, compose, evaluate)


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
    return _cube_root(p)


def _cube_root(p: int) -> int:
    """cube_root_unity for a p already known to be a prime 1 (mod 6)."""
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
    return _prime_rep(p)


def _prime_rep(p: int) -> Representation:
    """represent_prime for a p already known to be a prime 1 (mod 6)."""
    r = 2 * _cube_root(p) + 1  # r^2 = -3 (mod p)
    target = 4 * p
    a, u = 2 * p, r
    while u * u > target:
        a, u = u, a % u
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


def _shape(n: int, seed: int = RHO_SEED,
           obstruction: bool = False) -> GeneralForm | tuple[int, int] | None:
    """_general_form_from(factor(n, seed)), factoring only as far as the answer needs.

    A residual prime with odd exponent among the prime powers below 1000 is
    the first obstruction, since every prime of the cofactor m they leave is
    larger, so m is not factored. Otherwise, unless the obstruction is asked
    for, the result is None when m = 2 (mod 3): m holds no 3, so m mod 3 is
    (-1) to the total exponent of its primes 2 (mod 3), and one of them has
    an odd exponent. Only an m that neither rule decides goes to rho.
    """
    small, m = _trial_part(n)
    shape = _general_form_from(small)
    if m == 1 or not isinstance(shape, GeneralForm):
        return shape
    if m % 3 == 2 and not obstruction:
        return None
    return _general_form_from(small + _cofactor_factors(m, seed))


def general_form(n: int, seed: int = RHO_SEED) -> GeneralForm | None:
    """Split n into the representable shape, or None when a residual prime has odd exponent."""
    shape = _shape(n, seed)
    return shape if isinstance(shape, GeneralForm) else None


def enumerate_reps(n: int) -> list[Representation]:
    """Every canonical representation of n, ordered by ascending second entry.

    Built from the factorization, since Z[w] has unique factorization: each
    representation is a product over the (1 mod 6) primes p^e of pi^k times
    conj(pi)^(e-k), k = 0..e, where pi and conj(pi) are the Eisenstein primes
    over p; times the power of 1 - w and the scale. This costs one factor call
    plus a few compositions per representation, not an O(sqrt n) scan.
    """
    _require_u64("n", n)
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
    5 (mod 6) occurs to an even power. The obstruction is the smallest such
    prime with an odd power; one below 1000 is found without rho.
    """
    _require_u64("n", n)
    if n == 0:
        return Verdict(True, witness=Representation(0, 0))
    shape = _shape(n, obstruction=True)
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
        prime_rep = _prime_rep(p)
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

    The witness of is_loeschian, composed from the prime representations;
    like general_form, it stops at the first sign that n is not a value.
    """
    shape = general_form(n)
    return None if shape is None else _construct(shape, n)[0]


def count_formula(n: int) -> int:
    """Number of canonical representations of n, straight from the factorization.

    With the (1 mod 6) exponents e_i: half of (1 + prod(e_i + 1)) when all
    e_i are even, half of prod(e_i + 1) otherwise; 0 when n is not
    representable at all, which is often known before n is fully factored.
    """
    return _count(_shape(n))


def _count(shape: GeneralForm | tuple[int, int] | None) -> int:
    """The count_formula rule on a _general_form_from or _shape result; any other counts 0."""
    if not isinstance(shape, GeneralForm):
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
    _require_u64("n", n)
    _require_positive_u64("k", k)
    quotient, rest = divmod(n, k * k)
    if rest:
        raise ValueError(f"{k}^2 does not divide {n}")
    rep = is_loeschian(quotient).witness
    if rep is None:
        raise RuntimeError(
            f"quotient {quotient} = {n}/{k}^2 is not representable; {n} cannot have been"
        )
    return rep


def rational_lift(alpha: Fraction, beta: Fraction) -> tuple[int, Representation]:
    """Integer value and witness for a rational point of the form.

    For nonnegative rationals with a^2 + ab + b^2 an integer n, n is a value
    of the form over the rationals and hence over the integers; the witness
    is the one is_loeschian builds for n.
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
    rep = is_loeschian(n).witness
    if rep is None:
        raise RuntimeError(f"form value {n} of a rational point is not representable")
    return n, rep
