from fractions import Fraction
from itertools import product
from math import isqrt, prod
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import loeschian.represent as represent_mod
from loeschian import (
    NotRepresentableError,
    Representation,
    count_formula,
    cube_root_unity,
    divide_by_square,
    enumerate_reps,
    evaluate,
    factor,
    is_loeschian,
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
    # Value-1 points whose denominator product passes 2^64.
    for u, v in ((2**20 + 1, 2**20 + 7), (999983, 1000003), (1234567, 1234571)):
        d = u * u + u * v + v * v
        point = Fraction(v * v - u * u, d), Fraction(u * (2 * v + u), d)
        assert rational_lift(*point) == (1, (1, 0))


def test_rational_lift_errors():
    with pytest.raises(ValueError):
        rational_lift(Fraction(1, 2), Fraction(5, 2))
    with pytest.raises(ValueError):
        rational_lift(Fraction(-1, 7), Fraction(3, 7))


def test_rational_lift_on_constructed_points():
    rng = Random(11)
    loeschian_values = [n for n in range(1, 400) if is_loeschian(n).representable]
    for _ in range(60):
        m = rng.choice(loeschian_values)
        k = rng.choice([1, 2, 3, 5, 7, 13])
        reps = enumerate_reps(m * k * k)
        x, y = rng.choice(reps)
        value, rep = rational_lift(Fraction(x, k), Fraction(y, k))
        assert value == m
        assert rep.value == m
