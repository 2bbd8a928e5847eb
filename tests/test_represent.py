from fractions import Fraction
from itertools import product
from math import isqrt, prod
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import loeschian.factorize as factorize_mod
import loeschian.represent as represent_mod
from loeschian import (
    GeneralForm,
    NotRepresentableError,
    Representation,
    U64_MAX,
    compose,
    count_formula,
    cube_root_unity,
    divide_by_square,
    enumerate_reps,
    evaluate,
    factor,
    general_form,
    is_loeschian,
    is_prime,
    rational_lift,
    represent_fast,
    represent_prime,
)
from loeschian.factorize import _general_form_from
from oracles import brute_reps, scan_reps, sieve_primes


def test_cube_root_unity_known_values():
    assert cube_root_unity(7) == 2
    assert cube_root_unity(13) == 3
    assert cube_root_unity(31) == 5


def test_cube_root_unity_rejects_bad_primes():
    with pytest.raises(ValueError):
        cube_root_unity(5)
    with pytest.raises(ValueError):
        cube_root_unity(3)
    with pytest.raises(ValueError):
        cube_root_unity(91)


def test_cube_root_unity_satisfies_congruence():
    for p in sieve_primes(10**4):
        if p % 6 != 1:
            continue
        z = cube_root_unity(p)
        assert 0 < z < p / 2
        assert (z * z + z + 1) % p == 0


def test_represent_prime_known_values():
    assert represent_prime(7) == (2, 1)
    assert represent_prime(13) == (3, 1)
    assert represent_prime(3) == (1, 1)


def test_represent_prime_descent_needs_the_wide_start():
    # 19 is the smallest prime where a descent started at (p, r) would
    # stop on a remainder that solves nothing; (2p, r) gets it right.
    assert represent_prime(19) == (3, 2)
    assert represent_prime(37) == (4, 3)


def test_represent_prime_refuses_residual_primes():
    with pytest.raises(NotRepresentableError):
        represent_prime(2)
    with pytest.raises(NotRepresentableError):
        represent_prime(5)
    with pytest.raises(ValueError):
        represent_prime(6)


def test_represent_prime_matches_enumeration():
    for p in sieve_primes(5000):
        if p == 3 or p % 6 == 1:
            assert [represent_prime(p)] == enumerate_reps(p)
        else:
            assert enumerate_reps(p) == []


def test_enumerate_known_values():
    assert enumerate_reps(49) == [(7, 0), (5, 3)]
    assert enumerate_reps(3) == [(1, 1)]
    assert enumerate_reps(10) == []
    assert enumerate_reps(0) == [(0, 0)]
    assert enumerate_reps(91) == [(9, 1), (6, 5)]


def test_enumerate_matches_brute_force():
    for n in range(1501):
        assert [tuple(r) for r in enumerate_reps(n)] == brute_reps(n), n


def test_enumerate_matches_the_scan_to_ten_to_the_fifth():
    # enumerate_reps builds from the factorization; the scan searches.
    for n in range(10**5 + 1):
        assert enumerate_reps(n) == scan_reps(n), n


_SPLIT_PRIMES = [p for p in sieve_primes(2000) if p % 6 == 1]
_RESIDUAL_PRIMES = [p for p in sieve_primes(2000) if p % 6 == 5 or p == 2]


@st.composite
def built_values(draw):
    """A value up to 2 * 10^12 with a known shape: split primes, 3, residual squares.

    Now and then one residual prime has an odd exponent, so n is no value of the form.
    """
    limit = 2 * 10**12
    n = 3 ** draw(st.integers(0, 4))
    for p in draw(st.lists(st.sampled_from(_SPLIT_PRIMES), max_size=7)):
        if n * p <= limit:
            n *= p
    for p in draw(st.lists(st.sampled_from(_RESIDUAL_PRIMES), max_size=3)):
        if n * p * p <= limit:
            n *= p * p
    if draw(st.integers(0, 5)) == 0:
        p = draw(st.sampled_from(_RESIDUAL_PRIMES))
        if n * p <= limit:
            n *= p
    return n


@settings(max_examples=40, deadline=None)
@given(built_values())
@example(7**2 * 13 * 19 * 31 * 37 * 43 * 3**3 * 2**2 * 5**2)
@example(7**2 * 13**2 * 19**2 * 31**2)
def test_enumerate_matches_the_scan_on_built_values(n):
    reps = enumerate_reps(n)
    assert reps == scan_reps(n)
    assert len(reps) == count_formula(n)


@given(st.integers(min_value=0, max_value=10**6))
@example(0)
@example(1)
def test_enumerate_entries_are_canonical_and_ordered(n):
    reps = enumerate_reps(n)
    for rep in reps:
        assert rep.a >= rep.b >= 0
        assert rep.value == n
    assert [r.b for r in reps] == sorted(r.b for r in reps)
    assert len(set(reps)) == len(reps)


def test_count_formula_known_values():
    assert count_formula(49) == 2
    assert count_formula(91) == 2
    assert count_formula(1) == 1
    assert count_formula(10) == 0


def test_count_formula_rejects_zero():
    with pytest.raises(ValueError):
        count_formula(0)


def test_count_formula_matches_enumeration_on_a_prefix():
    for n in range(1, 3001):
        assert count_formula(n) == len(enumerate_reps(n)), n


def test_count_is_the_theta_series_on_a_grid_of_shapes():
    # The sum of chi_-3(d) over the divisors d of n is multiplicative: e + 1
    # for a prime 1 (mod 6), 1 for 3, and 1 or 0 by the parity of e for a
    # prime 2 (mod 3). Halving it after adding 1 at n = m^2 or 3m^2 gives the
    # canonical count (OEIS A002324), so the paper's counting formula holds on
    # every shape here as a consequence of the classical theorem.
    primes = (2, 3, 5, 7, 13, 2**61 - 1)
    for exponents in product(range(4), repeat=len(primes)):
        factors = [(p, e) for p, e in zip(primes, exponents) if e]
        n = prod(p**e for p, e in factors)
        theta = prod(e + 1 if p % 6 == 1 else 1 if p == 3 else 1 - (e & 1)
                     for p, e in factors)
        square = isqrt(n) ** 2 == n or (n % 3 == 0 and isqrt(n // 3) ** 2 == n // 3)
        assert (theta + square) % 2 == 0, factors
        assert represent_mod._count(_general_form_from(factors)) == (theta + square) // 2, factors


def test_represent_fast_known_values():
    assert represent_fast(12) == (2, 2)
    assert represent_fast(7) == (2, 1)
    assert represent_fast(10) is None
    assert represent_fast(91) == (9, 1)


def test_represent_fast_lands_in_enumeration():
    for n in range(1, 10**4 + 1):
        rep = represent_fast(n)
        reps = enumerate_reps(n)
        if rep is None:
            assert reps == []
        else:
            assert rep in reps


def test_witness_construction_trusts_the_factorization(monkeypatch):
    # factor has just proved each split prime prime, so building the
    # representations runs no further Miller-Rabin test on it.
    calls = []
    is_prime = represent_mod.is_prime
    monkeypatch.setattr(represent_mod, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p, q = 2147483659, 2147483713
    n = p * q
    verdict = is_loeschian(n)
    reps = enumerate_reps(n)
    assert calls == []
    assert verdict.witness in reps and len(reps) == 2
    assert all(rep.value == n for rep in reps)
    assert represent_prime(p).value == p and calls == [p]


def _prime_near(rng, lo, hi, residue):
    """A seeded prime in [lo, hi] congruent to residue (mod 6)."""
    while True:
        p = sympy.nextprime(rng.randrange(lo, hi))
        if p <= hi and p % 6 == residue:
            return p


def _drawn_values(rng):
    """Seeded n of each kind the benchmark queries, by family."""
    small = sieve_primes(1000)
    # Factors that keep a product a value: 3, the split primes, squares of the rest.
    kept = [p if p % 3 != 2 else p * p for p in small]
    smooth = []
    for i in range(30):  # products of primes below 1000, of 20 to 64 bits
        n, bound, pool = 1, 2 ** rng.randint(20, 64), kept if i % 2 else small
        while n * (p := rng.choice(pool)) < bound:
            n *= p
        smooth.append(n)
    mixed = []
    for i in range(30):  # 2, 3 and 10- to 24-bit primes of both classes; every third not a value
        parts = [(_prime_near(rng, 2**9, 2**16, 5), 1)] if i % 3 == 0 else []
        parts += [(3, rng.randint(0, 3)), (2, 2 * rng.randint(0, 2))]
        for residue, e in ((1, rng.randint(1, 2)), (5, 2), (1, rng.randint(1, 2))):
            parts.append((_prime_near(rng, 2**9, 2 ** rng.randint(10, 24), residue), e))
        n = 1
        for p, e in parts:
            if n * p**e <= U64_MAX:
                n *= p**e
        mixed.append(n)
    powers_of_three = []
    for _ in range(20):  # 3^k times a smooth or mixed value, or times any m that fits
        k, m = rng.randint(1, 30), rng.choice(smooth + mixed)
        if 3**k * m > U64_MAX:
            m = rng.randrange(1, U64_MAX // 3**k + 1)
        powers_of_three.append(3**k * m)
    squares = []
    for i in range(20):  # k^2 times a value of the form, or times any m that fits
        k = rng.randrange(2, 2**16)
        a = rng.randrange(1, isqrt(U64_MAX // (3 * k * k)))
        m = evaluate(a, rng.randrange(a + 1)) if i % 2 else rng.randrange(1, U64_MAX // (k * k))
        squares.append(k * k * m)
    near_top = [U64_MAX - rng.randrange(2**32) for _ in range(10)]
    for _ in range(10):  # values of the form just below 2^64
        b = rng.randrange(1, 2**31)
        a = (isqrt(4 * U64_MAX - 3 * b * b) - b) // 2 - rng.randrange(1000)
        near_top.append(evaluate(a, b))
    return {"smooth": smooth, "mixed": mixed, "3^k m": powers_of_three, "k^2 m": squares,
            "near 2^64": near_top}


def _oracle_reps(n, variants):
    """Pairs of n composed from the public represent_prime and compose, sorted by b.

    With sympy's factorization: each split prime's pair once per exponent, in
    each of the variants, from (1, 0) over the split primes in ascending
    order; then (1, 1) once per power of 3; then the scale. None when a prime
    2 (mod 3) has an odd exponent.
    """
    reps, scale, three = {Representation(1, 0)}, 1, 0
    for p, e in sorted(sympy.factorint(n).items()):
        if p == 3:
            three = e
        elif p % 6 == 1:
            pair = represent_prime(p)
            for _ in range(e):
                reps = {compose(r, pair, v) for r in reps for v in variants}
        elif e % 2:
            return None
        else:
            scale *= p ** (e // 2)
    for _ in range(three):
        reps = {compose(r, Representation(1, 1), 1) for r in reps}
    return sorted((Representation(a * scale, b * scale) for a, b in reps), key=lambda r: r.b)


def test_witnesses_are_the_variant_two_chain_over_the_split_primes():
    # The CLI prints these witnesses, so which pair each call returns is part
    # of the contract, not only that it carries the value.
    seven = represent_prime(7)
    families = _drawn_values(Random(18))
    # Edges of the walk: no prime at all, only 3s, one prime to a high power,
    # only a scale, a prime cofactor below 1009^2, a cofactor of exactly 1009^2,
    # and two 32-bit split primes.
    families["edges"] = [1, 3, 3**40, 7**22, 3**20 * 7**9, 3 * 2**62, 4 * 1000003,
                         13**4 * 31**3 * 3**5 * 5**2, 2147483659 * 2147483713,
                         1009**2, 7 * 1009**2, 12 * 1009**2]
    for family, values in families.items():
        found = 0
        for n in values:
            chain = _oracle_reps(n, (2,))
            if chain is None:
                assert not is_loeschian(n).representable and represent_fast(n) is None, n
                assert enumerate_reps(n) == [], n
                continue
            [witness] = chain
            found += 1
            assert is_loeschian(n).witness == witness, (family, n)
            assert represent_fast(n) == witness, (family, n)
            assert rational_lift(witness.b, Fraction(witness.a)) == (n, witness), (family, n)
            if 49 * n <= U64_MAX:  # the same value at a point with denominator 7
                x, y = compose(compose(witness, seven, 1), seven, 2)
                assert rational_lift(Fraction(x, 7), Fraction(y, 7)) == (n, witness), (family, n)
            assert enumerate_reps(n) == _oracle_reps(n, (1, 2)), (family, n)
        assert found >= 5, family


def test_witnesses_compose_nothing_and_small_cofactors_skip_rho(monkeypatch):
    # A cofactor below 1009^2 is 1 or a prime and goes into the shape as it is.
    # That no witness calls compose is checked in test_imports: represent.py
    # names no compose at all.
    calls = {"_cofactor_factors": 0}

    def counting(*args, original=represent_mod._cofactor_factors):
        calls["_cofactor_factors"] += 1
        return original(*args)
    monkeypatch.setattr(represent_mod, "_cofactor_factors", counting)
    points = _constructed_points()
    values = [n for family in _drawn_values(Random(18)).values() for n in family]
    values += [m for m, _ in points] + [4 * 1000003]
    calls.update(_cofactor_factors=0)
    for m, point in points:
        assert rational_lift(*point) == (m, is_loeschian(m).witness), point
    assert calls == {"_cofactor_factors": 0}
    rho = 0
    for n in values:
        calls.update(_cofactor_factors=0)
        witness = is_loeschian(n).witness
        assert represent_fast(n) == witness, n
        if witness is not None:
            assert rational_lift(witness.b, Fraction(witness.a)) == (n, witness), n
            assert divide_by_square(n, 1) == witness, n
        if factorize_mod._trial_part(n)[1] < factorize_mod._TRIAL_COVERED:
            assert calls["_cofactor_factors"] == 0, n
        rho += calls["_cofactor_factors"]
        assert enumerate_reps(n) == (_oracle_reps(n, (1, 2)) or []), n
    assert rho > 0  # the counting wrapper is the function called


@pytest.fixture
def shape_builds(monkeypatch):
    """Record the factor lists that represent.py turns into a shape."""
    calls = []
    build = represent_mod._general_form_from

    def counting(factors):
        calls.append(factors)
        return build(factors)

    monkeypatch.setattr(represent_mod, "_general_form_from", counting)
    return calls


def test_each_answer_builds_the_shape_once(shape_builds, monkeypatch):
    # The prime powers from trial division and the cofactor's, read lazily,
    # make one factor stream: one shape per answer, also where rho splits m.
    rho_splits = []
    rho_split = factorize_mod._rho_split
    monkeypatch.setattr(factorize_mod, "_rho_split",
                        lambda n, seed: rho_splits.append(n) or rho_split(n, seed))
    rng = Random(32)
    p, q = (_prime_near(rng, 2**31, 2**32, 1) for _ in range(2))  # a 64-bit value for rho
    s, t = (_prime_near(rng, 2**25, 2**26, 1) for _ in range(2))  # room for a small part
    r = _prime_near(rng, 2**25, 2**26, 5)
    values = [p * q, 49 * s * t, 12 * s * t, 5 * s * t, 4 * r * r, 7 * s * r, 1009 * 1013,
              2**2 * 3 * 7**3, 2**61 - 1, U64_MAX]
    for n in values:
        for answer in (count_formula, general_form, represent_fast, is_loeschian):
            shape_builds.clear()
            answer(n)
            assert len(shape_builds) == 1, (answer.__name__, n)
        if (witness := is_loeschian(n).witness) is not None:
            shape_builds.clear()
            assert rational_lift(witness.a, witness.b) == (n, witness)
            assert len(shape_builds) == 1, ("rational_lift", n)
    assert {p * q, s * t, 1009 * 1013} <= set(rho_splits)


def test_general_form_is_the_shape_of_the_whole_factorization():
    # _shape reads only as much of the factorization as the answer needs, and
    # stands (m, 1) in for a cofactor m = 2 (mod 3); the answers must still be
    # those of the whole factorization, and the (m, 1) never leaves represent.py.
    rng = Random(19)
    values = _drawn_values(rng)
    stand_ins = []
    for i in range(30):  # a value, times a cofactor m = 2 (mod 3) of one or two primes
        m = _prime_near(rng, 2**10, 2 ** rng.randint(11, 30), 5)
        if i % 2:
            m *= _prime_near(rng, 2**10, 2 ** rng.randint(11, 30), 1)
        stand_ins.append(3 ** rng.randint(0, 3) * 4 ** rng.randint(0, 2) * 7 ** rng.randint(0, 2) * m)
    values["m = 2 (mod 3)"] = stand_ins
    values["u64"] = [rng.randrange(1, U64_MAX + 1) for _ in range(40)]
    for family, ns in values.items():
        for n in ns:
            whole = _general_form_from(factor(n))
            representable = isinstance(whole, GeneralForm)
            assert general_form(n) == (whole if representable else None), (family, n)
            assert count_formula(n) == represent_mod._count(whole), (family, n)
            verdict = is_loeschian(n)
            assert verdict.representable == representable, (family, n)
            if not representable:
                assert verdict.obstruction == whole and is_prime(whole[0]), (family, n)


def test_is_loeschian_known_values():
    verdict = is_loeschian(91)
    assert verdict.representable and verdict.witness == (9, 1)
    verdict = is_loeschian(10)
    assert not verdict.representable and verdict.obstruction == (2, 1)
    verdict = is_loeschian(0)
    assert verdict.representable and verdict.witness == (0, 0)
    verdict = is_loeschian(1)
    assert verdict.representable and verdict.witness == (1, 0)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**9))
def test_is_loeschian_evidence_is_sound(n):
    verdict = is_loeschian(n)
    if verdict.representable:
        assert verdict.obstruction is None
        assert verdict.witness.value == n
    else:
        assert verdict.witness is None
        p, e = verdict.obstruction
        assert p != 3 and p % 6 != 1
        assert e % 2 == 1
        assert (p, e) in factor(n)


def test_quotient_by_loeschian_prime_stays_loeschian():
    for n in range(1, 10**4 + 1):
        if not is_loeschian(n).representable:
            continue
        for p, _ in factor(n):
            if p % 6 == 1:
                assert is_loeschian(n // p).representable, (n, p)


def test_divide_by_square_known_values():
    assert divide_by_square(28, 2) == (2, 1)
    assert divide_by_square(12, 2) == (1, 1)
    assert divide_by_square(49, 1) in {(7, 0), (5, 3)}


def test_divide_by_square_errors():
    with pytest.raises(ValueError):
        divide_by_square(10, 2)
    with pytest.raises(ValueError):
        divide_by_square(28, 0)
    # 50/25 = 2 is not representable, so the input broke the precondition
    with pytest.raises(RuntimeError):
        divide_by_square(50, 5)


def test_divide_by_square_zero_quotient():
    assert divide_by_square(0, 4) == (0, 0)


def test_rational_lift_known_values():
    assert rational_lift(Fraction(5, 7), Fraction(3, 7)) == (1, (1, 0))
    assert rational_lift(Fraction(2), Fraction(1)) == (7, (2, 1))
    # Plain ints are rationals too.
    assert rational_lift(2, 1) == (7, (2, 1))
    assert rational_lift(0, 0) == (0, (0, 0))
    assert rational_lift(Fraction(3), 5) == (49, (7, 0))
    assert rational_lift(2**32 - 1, 0) == ((2**32 - 1) ** 2, (2**32 - 1, 0))
    assert rational_lift(1, 1) == (3, (1, 1))
    assert rational_lift(0, 7) == (49, (7, 0))
    assert rational_lift(Fraction(0), 0) == (0, (0, 0))
    assert rational_lift(0, Fraction(0, 5)) == (0, (0, 0))
    assert rational_lift(Fraction(-0, 3), Fraction(0)) == (0, (0, 0))
    # Value-1 points whose denominator product passes 2^64.
    for u, v in ((2**20 + 1, 2**20 + 7), (999983, 1000003), (1234567, 1234571)):
        d = u * u + u * v + v * v
        point = Fraction(v * v - u * u, d), Fraction(u * (2 * v + u), d)
        assert rational_lift(*point) == (1, (1, 0))


def _raises(exc, text, *point):
    with pytest.raises(exc) as caught:
        rational_lift(*point)
    assert type(caught.value) is exc
    assert str(caught.value) == text


def test_rational_lift_errors():
    # Exact class and text of each error, in the order the checks run.
    big = 2**64
    _raises(ValueError, "rational pair (-1/7, 3/7) must be nonnegative", Fraction(-1, 7), Fraction(3, 7))
    _raises(ValueError, "rational pair (1, -3) must be nonnegative", 1, -3)
    # The sign is checked before the range.
    _raises(ValueError, f"rational pair (-{big}, 1) must be nonnegative", Fraction(-big), 1)
    # A negative part whose denominator is out of range too breaks the sign rule first.
    _raises(ValueError, f"rational pair (-1/{big}, 1) must be nonnegative", Fraction(-1, big), 1)
    _raises(ValueError, f"rational pair (1/{big}, -3/{big}) must be nonnegative",
            Fraction(1, big), Fraction(-3, big))
    _raises(ValueError, f"alpha={big}/3 is outside the supported range", Fraction(big, 3), Fraction(1))
    _raises(ValueError, f"alpha=1/{big} is outside the supported range", Fraction(1, big), Fraction(1))
    _raises(ValueError, f"beta={big}/3 is outside the supported range", Fraction(1), Fraction(big, 3))
    _raises(ValueError, f"beta=1/{big} is outside the supported range", Fraction(1), Fraction(1, big))
    _raises(ValueError, f"alpha={big} is outside the supported range", big, 0)
    _raises(ValueError, "form value 31/4 is not an integer", Fraction(1, 2), Fraction(5, 2))
    _raises(ValueError, "form value 3/4 is not an integer", Fraction(1, 2), Fraction(1, 2))
    top = big - 1
    # A denominator of exactly 2^64 - 1 is in range; 5 divides it, so no such value is an integer.
    inexact = f"form value {Fraction(1, top) ** 2 + Fraction(1, top) + 1} is not an integer"
    _raises(ValueError, inexact, Fraction(1, top), Fraction(1))
    _raises(ValueError, inexact, Fraction(1), Fraction(1, top))
    _raises(OverflowError, f"form value {3 * top * top} exceeds the 64-bit range", top, top)
    _raises(OverflowError, f"form value {big} exceeds the 64-bit range", Fraction(2**32), Fraction(0))


def _chord_point(rng, bits):
    """A point of value 1 on the chord through (-1, 0) with slope u/v; denominators pass 2^(2 bits)."""
    u, v = rng.randrange(1, 2**bits), rng.randrange(1, 2**bits)
    u, v = min(u, v), max(u, v)
    d = u * u + u * v + v * v
    return Fraction(v * v - u * u, d), Fraction(u * (2 * v + u), d)


def test_rational_lift_matches_fraction_arithmetic():
    rng = Random(67)
    points = []
    for _ in range(400):
        points.append(_chord_point(rng, rng.choice((8, 17, 24, 31))))
        k = rng.randrange(1, 2**16)
        x, y = _chord_point(rng, 17)
        points.append((k * x, k * y))  # value k^2
        points.append((Fraction(rng.randrange(0, 2**20), rng.randrange(1, 2**20)),
                       Fraction(rng.randrange(0, 2**20), rng.randrange(1, 2**20))))
        points.append((Fraction(rng.randrange(0, 2**40), rng.choice((1, 2, 3, 7))),
                       Fraction(rng.randrange(0, 2**40), rng.choice((1, 2, 3, 7)))))
    large_denominators = lifted = 0
    for alpha, beta in points:
        value = alpha * alpha + alpha * beta + beta * beta
        large_denominators += alpha.denominator * beta.denominator > 2**64
        if value.denominator != 1:
            _raises(ValueError, f"form value {value} is not an integer", alpha, beta)
        elif value > U64_MAX:
            _raises(OverflowError, f"form value {value} exceeds the 64-bit range", alpha, beta)
        else:
            n, rep = rational_lift(alpha, beta)
            assert n == value and type(n) is int
            assert rep == is_loeschian(n).witness and evaluate(*rep) == n
            lifted += 1
    assert large_denominators > 100 and lifted >= 800


def _constructed_points():
    """Seeded values m below 400 with a point (x/k, y/k) of value m, from a pair of m k^2."""
    rng = Random(11)
    loeschian_values = [n for n in range(1, 400) if is_loeschian(n).representable]
    points = []
    for _ in range(60):
        m = rng.choice(loeschian_values)
        k = rng.choice([1, 2, 3, 5, 7, 13])
        x, y = rng.choice(enumerate_reps(m * k * k))
        points.append((m, (Fraction(x, k), Fraction(y, k))))
    return points


def test_rational_lift_on_constructed_points():
    for m, point in _constructed_points():
        value, rep = rational_lift(*point)
        assert value == m
        assert rep.value == m
