"""Deciding which integers the form a^2 + ab + b^2 attains, and finding witnesses."""

from fractions import Fraction
from itertools import chain
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .factorize import (RHO_SEED, _TRIAL_COVERED, GeneralForm, _cofactor_factors,
                        _general_form_from, _trial_part, is_prime)
from .forms import (Representation, U64_MAX, _new_pair, _require_positive_u64, _require_u64,
                    _times)


class NotRepresentableError(ArithmeticError):
    """Raised when a value provably has no representation."""


_ZERO_SHAPE = GeneralForm(0, 0, [])  # 0 = 0^2 times the empty product, built as (0, 0)


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

    Exists exactly for p = 3 and p = 1 (mod 6). For the latter, r = 2z + 1 from
    the cube root of unity z has r^2 = -3 (mod 4p), and a Euclidean descent on
    (2p, r) (modified Cornacchia; H. Cohen, Alg. 1.5.3) stops at the first
    remainder u <= 2sqrt(p). Its remainders x = 2ps + ry give points (x, y), each
    two in a row a basis of the lattice L = {x = ry (mod 2p)}, with yy' <= 0. So
    the last, w = (u, y), after w' = (u', y') with u' > 2sqrt(p), has |y| <= 2p/u'
    < sqrt(p), and u^2 + 3y^2, a multiple of 4p on L, is 4p: v = |y|. In the plane
    (x, sqrt(3)y), the 60 degree turn t(x, y) = ((x - 3y)/2, (x + y)/2) maps L to
    itself, and w, t(w) span area 2sqrt(3)p, all of L: so w' = jw +- t(w). Were w
    at f in (30, 90] degrees above the x-axis (below is the mirror image), each
    jw +- t(w) with x > 2sqrt(p) (j >= 1 for +, j >= 2 for -) would lie above the
    axis too, as sin f > 1/2 > sin(f + 60) - sin f; but y' is not above. So f < 30
    (f = 30 means p = 3v^2): u > 3v, and ((u - v)/2, v) is canonical as it stands.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return Representation(1, 1)
    if p % 6 != 1:
        raise NotRepresentableError(f"prime {p} is {p % 6} (mod 6) and has no representation")
    return _prime_rep(p)


def _prime_rep(p: int) -> Representation:
    """represent_prime for a p already known to be a prime 1 (mod 6); one check, no fold."""
    r = 2 * _cube_root(p) + 1  # r^2 = -3 (mod p)
    target = 4 * p
    a, u = 2 * p, r
    while u * u > target:
        a, u = u, a % u
    v = isqrt((target - u * u) // 3)
    a, b = (u - v) >> 1, v
    if a < b or a * a + a * b + b * b != p:
        raise RuntimeError(f"construction for p={p} failed verification")
    return _new_pair(Representation, (a, b))


def _shape(n: int, seed: int = RHO_SEED,
           obstruction: bool = False) -> GeneralForm | tuple[int, int]:
    """_general_form_from(factor(n, seed)), factoring only as far as the answer needs.

    A residual prime with odd exponent among the prime powers below 1000 is
    the first obstruction, as every prime of the cofactor m they leave is
    larger. Trial division leaves m no prime p with p^2 <= m, and a composite m
    below 1009^2 would have one (p <= 997), so such an m is 1 or a prime and
    goes in as (m, 1). Unless the obstruction is asked for, so does a larger
    m = 2 (mod 3): m holds no 3, so m mod 3 is (-1) to the total exponent of its
    primes 2 (mod 3), and one has an odd exponent; as that m need not be prime,
    only callers that test for a GeneralForm take it. Other m go to rho.
    """
    small, m = _trial_part(n)
    cheap = m < _TRIAL_COVERED or m % 3 == 2 and not obstruction
    rest = ((m, 1),) if cheap else _cofactor_factors(m, seed)
    return _general_form_from(chain(small, rest) if m > 1 else small)


def general_form(n: int, seed: int = RHO_SEED) -> GeneralForm | None:
    """Split n into the representable shape, or None in place of _shape's obstruction."""
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
    shape = general_form(n) if n else _ZERO_SHAPE
    if shape is None:
        return []
    return sorted(_reps(shape, n), key=itemgetter(1))


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
    shape = _shape(n, obstruction=True) if n else _ZERO_SHAPE
    if not isinstance(shape, GeneralForm):
        return Verdict(False, obstruction=shape)
    return Verdict(True, witness=_witness(shape, n))


def _witness(shape: GeneralForm, n: int) -> Representation:
    """The witness is_loeschian gives for n: one walk of _times steps in Z[w], checked.

    From the scale, one step per exponent of each split prime, by its swapped pair
    as compose variant 2 takes it; (1, 1), of value 3, taken twice is (3, 0), so 3^2
    joins the scale. Each step commutes with scaling, so the walk may start there.
    """
    a, b = shape.scale * 3 ** (shape.power_of_three >> 1), 0
    for p, e in shape.primes:
        d, c = _prime_rep(p)  # swapped: the conjugate up to a unit
        for _ in range(e):
            a, b = _times(a, b, c, d)
    if shape.power_of_three & 1:
        a, b = _times(a, b, 1, 1)
    if a * a + a * b + b * b != n:
        raise RuntimeError(f"constructed representation for {n} failed verification")
    return _new_pair(Representation, (a, b))


def _reps(shape: GeneralForm, n: int) -> list[Representation]:
    """Every representation of n: sets of _times steps by each prime pair and its swap.

    The walks start from the scale, as _witness does. The fold in _times removes the
    12 symmetries (6 units times conjugation), so no set holds duplicates.
    """
    reps = {(shape.scale, 0)}
    for p, e in shape.primes:
        c, d = _prime_rep(p)
        for _ in range(e):
            reps = {_times(a, b, *pair) for a, b in reps for pair in ((c, d), (d, c))}
    for _ in range(shape.power_of_three):
        reps = {_times(a, b, 1, 1) for a, b in reps}
    if any(a * a + a * b + b * b != n for a, b in reps):
        raise RuntimeError(f"constructed representation for {n} failed verification")
    return [_new_pair(Representation, pair) for pair in reps]


def represent_fast(n: int) -> Representation | None:
    """One canonical representation of n without exhaustive search, or None.

    The witness of is_loeschian, composed from the prime representations;
    like general_form, it stops at the first sign that n is not a value.
    """
    shape = general_form(n)
    return None if shape is None else _witness(shape, n)


def count_formula(n: int) -> int:
    """Number of canonical representations of n, straight from the factorization.

    With the (1 mod 6) exponents e_i: half of (1 + prod(e_i + 1)) when all
    e_i are even, half of prod(e_i + 1) otherwise; 0 when n is not
    representable at all, which is often known before n is fully factored.
    """
    return _count(_shape(n))


def _count(shape: GeneralForm | tuple[int, int]) -> int:
    """The count_formula rule on a _general_form_from or _shape result; an obstruction counts 0."""
    if not isinstance(shape, GeneralForm):
        return 0
    product = 1
    for _, e in shape.primes:
        product *= e + 1
    return (product + 1) >> 1  # the product is odd exactly when every e is even


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
    is the one is_loeschian builds for n. With alpha = x/u and beta = y/v, every
    check and the value (x^2 v^2 + xu yv + y^2 u^2) / (uv)^2 are taken in integers.
    """
    x, u, y, v = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    if x < 0 or y < 0:
        raise ValueError(f"rational pair ({alpha}, {beta}) must be nonnegative")
    if x > U64_MAX or u > U64_MAX:
        raise ValueError(f"alpha={alpha} is outside the supported range")
    if y > U64_MAX or v > U64_MAX:
        raise ValueError(f"beta={beta} is outside the supported range")
    xv, yu, uv = x * v, y * u, u * v
    top, bottom = xv * xv + xv * yu + yu * yu, uv * uv
    n, rest = divmod(top, bottom)
    if rest:
        raise ValueError(f"form value {Fraction(top, bottom)} is not an integer")
    if n > U64_MAX:
        raise OverflowError(f"form value {n} exceeds the 64-bit range")
    shape = general_form(n) if n else _ZERO_SHAPE
    if shape is None:
        raise RuntimeError(f"form value {n} of a rational point is not representable")
    return n, _witness(shape, n)
