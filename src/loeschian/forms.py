"""Exact arithmetic for the hexagonal norm form a^2 + ab + b^2.

The companion form a^2 - ab + b^2 ("minus form") represents exactly the
same values; conversions between the two live here as well.
"""

from math import isqrt
from typing import NamedTuple

U64_MAX = 2**64 - 1


class Representation(NamedTuple):
    """Canonical pair (a, b) with a >= b >= 0.

    Everything in this library that hands out a Representation guarantees
    canonical order, so structural equality is value equality.
    """

    a: int
    b: int

    @property
    def value(self) -> int:
        return evaluate(self.a, self.b)


# Builds a Representation without the Python-level NamedTuple __new__, for
# the per-call cost of compose; only for pairs already known to be canonical.
_new_pair = tuple.__new__


def _require_u64(name: str, value: int) -> None:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"{name}={value} is outside the supported unsigned 64-bit range")


def evaluate(a: int, b: int) -> int:
    """Value of a^2 + ab + b^2 at a nonnegative pair."""
    _require_u64("a", a)
    _require_u64("b", b)
    q = a * a + a * b + b * b
    if q > U64_MAX:
        raise OverflowError(f"a^2 + ab + b^2 at ({a}, {b}) exceeds the 64-bit range")
    return q


def evaluate_minus(a: int, b: int) -> int:
    """Value of the companion form a^2 - ab + b^2."""
    _require_u64("a", a)
    _require_u64("b", b)
    q = a * a - a * b + b * b
    if q > U64_MAX:
        raise OverflowError(f"a^2 - ab + b^2 at ({a}, {b}) exceeds the 64-bit range")
    return q


def canonicalize(a: int, b: int) -> Representation:
    """Fold a signed pair onto the wedge a >= b >= 0 without changing its value.

    Turns by (c, d) -> (c + d, -c), the 60 degree unit rotation compose folds
    with, into the 60 degree cone c, d >= 0 (five turns at most); then orders it.
    """
    if not -U64_MAX <= a <= U64_MAX:
        raise ValueError(f"a={a} is outside the supported range")
    if not -U64_MAX <= b <= U64_MAX:
        raise ValueError(f"b={b} is outside the supported range")
    q = a * a + a * b + b * b
    if q > U64_MAX:
        raise OverflowError(f"form value at ({a}, {b}) exceeds the 64-bit range")
    c, d = a, b
    while c < 0 or d < 0:
        c, d = c + d, -c
    if c < d:
        c, d = d, c
    if c * c + c * d + d * d != q:
        raise RuntimeError(f"canonicalization of ({a}, {b}) changed the form value")
    return Representation(c, d)


def solve_b(n: int, a: int) -> int | None:
    """The unique b <= a completing a^2 + ab + b^2 = n, or None.

    Solves the quadratic in b; a solution needs 4n - 3a^2 to be a perfect
    square and the root -a + sqrt(4n - 3a^2) to be even and nonnegative.
    """
    if not 1 <= n <= U64_MAX:
        raise ValueError(f"n={n} must be a positive 64-bit integer")
    _require_u64("a", a)
    disc = 4 * n - 3 * a * a
    if disc < 0:
        return None
    s = isqrt(disc)
    if s * s != disc:
        return None
    t = s - a
    if t < 0 or t & 1:
        return None
    b = t >> 1
    if b > a:
        return None
    return b


def check_identities(a: int, b: int, c: int, d: int) -> bool:
    """True when the four cross-multiplication identities hold at (a, b, c, d).

    Each identity equates a difference of scaled form values with a product
    of two linear combinations, e.g.
    c^2 (a^2+ab+b^2) - a^2 (c^2+cd+d^2) = (bc+ad+ac)(bc-ad).
    They hold for all integers; this evaluates both sides exactly.
    """
    # One chained test on the valid path; _require_u64 names the bad entry.
    if not (0 <= a <= U64_MAX and 0 <= b <= U64_MAX and 0 <= c <= U64_MAX and 0 <= d <= U64_MAX):
        for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
            _require_u64(name, value)
    qab = a * a + a * b + b * b
    qcd = c * c + c * d + d * d
    ad = a * d
    bc = b * c
    ac = a * c
    bd = b * d
    cq, dq = c * c * qab, d * d * qab
    aq, bq = a * a * qcd, b * b * qcd
    return (
        cq - aq == (bc + ad + ac) * (bc - ad)
        and cq - bq == (ac + bd + bc) * (ac - bd)
        and dq - aq == (bd + ac + ad) * (bd - ac)
        and dq - bq == (ad + bc + bd) * (ad - bc)
    )


def compose(r1: Representation, r2: Representation, variant: int = 1) -> Representation:
    """Canonical representation of the product of two represented values.

    Both rules multiply in the Eisenstein integers, where a^2 + ab + b^2 is
    the norm: variant 1 takes the product itself, variant 2 the product
    with the conjugate of r2. Each yields a pair whose form value is exactly
    evaluate(r1) * evaluate(r2), but generally a different pair.
    """
    a, b = r1
    c, d = r2
    if not (a >= b >= 0 and c >= d >= 0):
        raise ValueError("compose needs canonical pairs with a >= b >= 0")
    if variant != 1:
        if variant != 2:
            raise ValueError(f"variant must be 1 or 2, got {variant!r}")
        c, d = d, c  # the conjugate of (c, d), up to a unit the fold removes
    bd = b * d
    x = a * c - bd
    y = a * d + b * c + bd
    if x < 0:
        x, y = x + y, -x
    if x < y:
        x, y = y, x
    # x >= y >= 0, so the value is at most 3x^2 and only x >= 2^31 can overflow.
    if x >> 31 and x * x + x * y + y * y > U64_MAX:
        raise OverflowError("product of the two form values exceeds the 64-bit range")
    return _new_pair(Representation, (x, y))


def compose_minus(r1: Representation, r2: Representation, variant: int) -> tuple[int, int]:
    """Pair (x, y) with x^2 - xy + y^2 equal to the product of two form values.

    The same Eisenstein product as compose (with the conjugate of r2 in
    variants 4 and 6), folded onto a nonnegative minus-form pair: variants
    3 and 4 fold by the sign of the product, variants 5 and 6 need no case
    split at all.
    """
    a, b = r1
    c, d = r2
    if not (a >= b >= 0 and c >= d >= 0):
        raise ValueError("compose_minus needs canonical pairs with a >= b >= 0")
    if variant == 4 or variant == 6:
        c, d = d, c
    elif variant != 3 and variant != 5:
        raise ValueError(f"variant must be 3, 4, 5, or 6, got {variant!r}")
    bd = b * d
    x = a * c - bd
    y = a * d + b * c + bd
    if variant > 4:
        x, y = y, x + y
    elif x >= 0:
        x, y = x + y, x
    else:
        x, y = y, -x
    # x, y >= 0, so the value is at most max(x, y)^2 and only 2^32 or more can overflow.
    if (x | y) >> 32 and x * x - x * y + y * y > U64_MAX:
        raise OverflowError("product of the two form values exceeds the 64-bit range")
    return x, y


def convert_plus_to_minus(r: Representation) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two minus-form pairs carrying the same value as a plus-form pair.

    (a, b) maps to (a, a+b) and (b, a+b); both satisfy x^2 - xy + y^2 =
    a^2 + ab + b^2.
    """
    a, b = r
    if not a >= b >= 0:
        raise ValueError("convert_plus_to_minus needs a canonical pair with a >= b >= 0")
    _require_u64("a", a)
    s = a + b
    if s > U64_MAX:
        raise OverflowError(f"a + b at ({a}, {b}) exceeds the 64-bit range")
    return (a, s), (b, s)


def convert_minus_to_plus(x: int, y: int) -> Representation:
    """Canonical plus-form representation of the minus-form value x^2 - xy + y^2.

    Requires y >= x >= 0; the pair (y - x, x) already carries the value, and
    canonicalization orders it.
    """
    _require_u64("x", x)
    _require_u64("y", y)
    if y < x:
        raise ValueError(f"convert_minus_to_plus needs x <= y, got ({x}, {y})")
    return canonicalize(y - x, x)
