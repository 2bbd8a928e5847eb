from math import gcd, isqrt
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import loeschian.factorize as factorize_mod
from loeschian import (
    GeneralForm,
    PrimeClass,
    RHO_SEED,
    U64_MAX,
    Verdict,
    classify_prime,
    count_formula,
    enumerate_reps,
    evaluate,
    factor,
    general_form,
    is_loeschian,
    is_prime,
    represent_fast,
)
from loeschian.factorize import _BLOCK, _primes_upto, _rho_split, _sieve, _window_factors
from loeschian.verify import CONJECTURE_LIMIT, _SEGMENT
from oracles import factor_with_table, sieve_primes, smallest_factor_table

# The distinct psi_k of OEIS A014233 below 2^64: psi_k is the smallest strong
# pseudoprime to each of the first k prime bases (psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11 appear once; psi_12 is past 2^64).
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051)


def test_is_prime_known_values():
    assert not is_prime(1)
    assert is_prime(7)
    # strong pseudoprime to several small bases
    assert not is_prime(3215031751)


def test_is_prime_edges():
    assert not is_prime(0)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    with pytest.raises(ValueError):
        is_prime(-7)
    with pytest.raises(ValueError):
        is_prime(U64_MAX + 1)


def test_is_prime_around_the_base_gcd():
    # One gcd with the product of the twelve bases stands in for twelve
    # divisibility tests: a shared factor means prime exactly at a base.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    product = 7420738134810
    assert [is_prime(n) for n in (0, 1, 41, 1681, 41 * 43, product)] == [
        False, False, True, False, False, False]
    assert all(is_prime(p) for p in bases)
    assert not any(is_prime(p * q) for p in bases for q in bases)
    assert is_prime(2**64 - 59)


def test_is_prime_matches_sieve_to_one_million():
    limit = 10**6
    flagged = set(sieve_primes(limit))
    for n in range(limit + 1):
        assert is_prime(n) == (n in flagged)


def test_is_prime_matches_sympy_on_large_values():
    rng = Random(20240817)
    probes = [rng.randrange(2**62, 2**64) for _ in range(300)]
    probes += [U64_MAX, U64_MAX - 1, 2**63 - 25, 2**61 - 1, 3825123056546413051]
    for n in probes:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_at_the_base_tier_edges():
    # is_prime runs fewer bases below each psi_k, and psi_k itself is the first
    # composite that the tier below it would pass.
    for psi in PSI:
        assert not is_prime(psi), psi
        assert is_prime(sympy.nextprime(psi)), psi


def test_is_prime_matches_sympy_in_each_base_tier():
    rng = Random(1993)
    edges = (2,) + PSI + (2**64,)
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(50):
            n = rng.randrange(lo, hi)
            assert is_prime(n) == sympy.isprime(n), n


def _factor_lists(lo, hi):
    return [factor(n) for n in range(lo, hi + 1)]


def test_window_factors_match_factor():
    # One-wide windows at 1 and at prime squares; windows across a block and a
    # sweep segment boundary; seeded 200-wide windows up to the sweep guard.
    rng = Random(29)
    windows = [(1, 3000)]
    windows += [(n, n) for n in (1, 4, 9, 25, 49, 1009**2, 9973**2)]
    windows += [(_BLOCK - 2, _BLOCK + 2), (5 * _BLOCK - 40, 7 * _BLOCK + 40),
                (_SEGMENT - 300, _SEGMENT + 300), (CONJECTURE_LIMIT - 199, CONJECTURE_LIMIT)]
    for _ in range(4):
        hi = CONJECTURE_LIMIT - rng.randrange(10**6)
        windows.append((hi - 199, hi))
    for lo, hi in windows:
        assert list(_window_factors(lo, hi)) == _factor_lists(lo, hi), (lo, hi)


def test_window_factors_across_grown_blocks(monkeypatch):
    # At 10^8 a block holds isqrt(hi) // 4 = 2500 values, so this window
    # crosses two block boundaries. The small windows around it make the
    # emptied prime cache grow during the test, then serve a shorter root.
    monkeypatch.setattr(factorize_mod, "_prime_cache", (0, ()))
    top = CONJECTURE_LIMIT
    for lo, hi in [(900, 1000), (top - 6000, top), (900, 1000)]:
        assert list(_window_factors(lo, hi)) == _factor_lists(lo, hi), (lo, hi)
    assert factorize_mod._prime_cache[0] >= isqrt(CONJECTURE_LIMIT)


def test_cached_primes_match_a_fresh_sieve(monkeypatch):
    monkeypatch.setattr(factorize_mod, "_prime_cache", (0, ()))
    roots = sorted({r for k in range(15) for r in (2**k - 1, 2**k, 2**k + 1)})
    for root in roots + roots[::-1]:
        assert _primes_upto(root) == _sieve(root), root


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=CONJECTURE_LIMIT - 2 * _BLOCK),
       st.integers(min_value=0, max_value=2 * _BLOCK))
def test_window_factors_match_factor_on_drawn_windows(lo, width):
    assert list(_window_factors(lo, lo + width)) == _factor_lists(lo, lo + width)


def test_factor_known_values():
    assert factor(1) == []
    assert factor(91) == [(7, 1), (13, 1)]
    assert factor(147) == [(3, 1), (7, 2)]


def test_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(U64_MAX + 1)


def test_factor_recomposes_to_one_million():
    limit = 10**6
    spf = smallest_factor_table(limit)
    for n in range(1, limit + 1):
        got = factor(n)
        assert got == factor_with_table(n, spf), n


def test_factor_matches_sympy_on_hard_composites():
    rng = Random(97)
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(2**29, 2**31))
        q = sympy.nextprime(rng.randrange(2**29, 2**31))
        n = p * q
        expected = sorted(sympy.factorint(n).items())
        assert factor(n) == expected
    # a few squares and prime powers of the same size
    for _ in range(5):
        p = sympy.nextprime(rng.randrange(2**29, 2**31))
        assert factor(p * p) == [(p, 2)]


def test_factor_is_deterministic_and_seed_independent_in_value():
    n = 16141829676117908357  # 7 * 1073754191 * 2147582461
    first = factor(n)
    assert factor(n) == first
    assert factor(n, seed=12345) == first
    assert first == sorted(sympy.factorint(n).items())


def test_factor_seeds_a_generator_only_for_rho(monkeypatch):
    built = []

    class CountingRandom(Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(factorize_mod, "Random", CountingRandom)
    for n in (999983, 997 * 1009, 2 * (2**61 - 1), U64_MAX - 58):
        factor(n)
    assert built == []
    factor(16141829676117908357)
    assert built and set(built) == {RHO_SEED}


@pytest.fixture
def rho_calls(monkeypatch):
    """Count the calls of the rho stage, which still does its work."""
    calls = []
    rho_split = factorize_mod._rho_split

    def counting(n, rng):
        calls.append(n)
        return rho_split(n, rng)

    monkeypatch.setattr(factorize_mod, "_rho_split", counting)
    return calls


def test_factor_splits_prime_squares_without_rho(rho_calls):
    rng = Random(41)
    for _ in range(10):
        p = sympy.nextprime(rng.randrange(2**30, 2**32 - 64))
        assert factor(p * p) == [(p, 2)]
    p = sympy.nextprime(rng.randrange(2**14, 2**15))
    assert factor(p**4) == [(p, 4)]
    assert rho_calls == []


def test_factor_with_square_parts_matches_sympy(rho_calls):
    rng = Random(43)

    def prime(lo_bits, hi_bits):
        return sympy.nextprime(rng.randrange(2**lo_bits, 2**hi_bits - 64))

    cases = [16141829676117908357]  # 7 * 1073754191 * 2147582461
    for _ in range(5):
        cases.append(prime(30, 32) ** 2)
        cases.append((prime(14, 15) * prime(15, 16)) ** 2)
        cases.append(prime(18, 20) ** 2 * rng.choice([2**10 * 3**5, 5**3 * 7**2 * 997, 46189]))
        cases.append(prime(18, 20) ** 2 * prime(18, 20))
        cases.append(prime(29, 31) * prime(29, 31))
    for n in cases:
        assert factor(n) == sorted(sympy.factorint(n).items()), n
    # Rho still splits what is not a square, and never sees a square.
    assert rho_calls
    assert all(isqrt(m) ** 2 != m for m in rho_calls)


def _prime_mod_3(rng, bits, residue):
    """A seeded prime of the given bit length that is residue (mod 3)."""
    while True:
        p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits - 2**10))
        if p % 3 == residue:
            return p


def _obstruction(factors):
    """The smallest prime 2 (mod 3) with an odd exponent, from a known factorization."""
    return next(((p, e) for p, e in sorted(factors) if p % 3 == 2 and e & 1), None)


def test_early_decisions_skip_rho(rho_calls):
    # After trial division, a cofactor m = 2 (mod 3) holds a prime 2 (mod 3)
    # to an odd power, so "not representable" needs no rho; nor does an
    # obstruction below 1000, since every prime of m is larger.
    rng = Random(53)
    threes = 0
    for bits in (31, 32, 31, 32):
        p, q = _prime_mod_3(rng, bits, 1), _prime_mod_3(rng, bits, 2)
        for k in range(4):
            n = 3**k * p * q
            if n > U64_MAX:
                break
            threes += k > 0
            assert _obstruction([(3, k), (p, 1), (q, 1)]) == (q, 1)
            assert count_formula(n) == 0, n
            assert represent_fast(n) is None, n
            assert general_form(n) is None, n
            assert enumerate_reps(n) == [], n
        if 2 * p * q <= U64_MAX:
            assert is_loeschian(2 * p * q) == Verdict(False, obstruction=(2, 1))
            assert _obstruction([(2, 1), (p, 1), (q, 1)]) == (2, 1)
    assert threes
    for _ in range(3):
        p, q = _prime_mod_3(rng, 28, 1), _prime_mod_3(rng, 28, 2)
        assert is_loeschian(5**3 * p * q) == Verdict(False, obstruction=(5, 3))
        assert _obstruction([(5, 3), (p, 1), (q, 1)]) == (5, 3)
    assert rho_calls == []


def _theta_count(n):
    """(sum of chi_-3(d) over the divisors d of n, plus 1 at a square or 3 times one) / 2."""
    total = sum((0, 1, -1)[d % 3] for d in sympy.divisors(n))
    square = isqrt(n) ** 2 == n or (n % 3 == 0 and isqrt(n // 3) ** 2 == n // 3)
    return (total + square) // 2


def test_answers_that_need_rho_still_match(rho_calls):
    rng = Random(59)
    # Both primes 2 (mod 3): m = 1 (mod 3), so only the factors show it is out.
    p, q = sorted((_prime_mod_3(rng, 31, 2), _prime_mod_3(rng, 31, 2)))
    n = p * q
    assert is_loeschian(n) == Verdict(False, obstruction=(p, 1))
    assert count_formula(n) == 0 == _theta_count(n)
    assert represent_fast(n) is None
    assert enumerate_reps(n) == []
    assert rho_calls
    # Both primes 1 (mod 3), times 5^2: representable, two ways.
    p, q = _prime_mod_3(rng, 29, 1), _prime_mod_3(rng, 29, 1)
    n = 5**2 * p * q
    reps = enumerate_reps(n)
    assert count_formula(n) == len(reps) == 2 == _theta_count(n)
    assert all(evaluate(a, b) == n for a, b in reps)
    assert represent_fast(n) == is_loeschian(n).witness
    assert represent_fast(n) in reps
    assert general_form(n).scale == 5


def _rho_split_one_step(n, rng):
    """_rho_split with one reduction of q per step; also says whether ys was walked again."""
    rewalked = False
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            rewalked = True
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, rewalked


def test_grouped_rho_returns_the_one_step_divisor():
    # Four differences per reduction leave q mod n, and so each gcd, as it was.
    rng = Random(61)
    cases = []
    for bits in (12, 20, 26, 31, 32):
        p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits - 2**10))
        cases.append(p * sympy.nextprime(rng.randrange(p, 2**bits)))
    for n in cases:
        for seed in (RHO_SEED, 1, 2):
            expected, _ = _rho_split_one_step(n, Random(seed))
            assert _rho_split(n, Random(seed)) == expected, (n, seed)
    # Found by a search among p * q near 1009 * 1013: at the default seed one
    # batch takes both primes, its gcd is n, and ys is walked again step by step.
    n = 1009 * 1019
    assert _rho_split_one_step(n, Random(RHO_SEED)) == (1019, True)
    assert _rho_split(n, Random(RHO_SEED)) == 1019
    assert factor(n) == [(1009, 1), (1019, 1)]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**9))
def test_factor_round_trip(n):
    total = 1
    last = 1
    for p, e in factor(n):
        assert p > last
        assert e >= 1
        assert is_prime(p)
        total *= p**e
        last = p
    assert total == n


def test_classify_prime_known_values():
    assert classify_prime(3) is PrimeClass.THREE
    assert classify_prime(13) is PrimeClass.ONE_MOD_6
    assert classify_prime(5) is PrimeClass.RESIDUAL
    assert classify_prime(2) is PrimeClass.RESIDUAL


def test_classify_prime_rejects_composites():
    with pytest.raises(ValueError):
        classify_prime(6)
    with pytest.raises(ValueError):
        classify_prime(1)


def test_classify_prime_partition_to_ten_thousand():
    for p in sieve_primes(10**4):
        cls = classify_prime(p)
        assert (cls is PrimeClass.ONE_MOD_6) == (p % 6 == 1)
        assert (cls is PrimeClass.THREE) == (p == 3)


def test_general_form_known_values():
    assert general_form(12) == GeneralForm(2, 1, [])
    assert general_form(147) == GeneralForm(1, 1, [(7, 2)])
    assert general_form(10) is None


def test_general_form_rejects_bad_input():
    with pytest.raises(ValueError):
        general_form(0)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**9))
def test_general_form_recomposes(n):
    shape = general_form(n)
    factors = dict(factor(n))
    residual_odd = any(
        p != 3 and p % 6 != 1 and e % 2 for p, e in factors.items()
    )
    if residual_odd:
        assert shape is None
        return
    assert shape is not None
    total = shape.scale**2 * 3**shape.power_of_three
    for p, e in shape.primes:
        assert p % 6 == 1
        assert e == factors[p]
        total *= p**e
    assert total == n
    assert shape.scale % 3 != 0
    for p, _ in factor(shape.scale):
        assert p != 3 and p % 6 != 1


def test_general_form_agrees_with_representability():
    for n in range(1, 10**4 + 1):
        assert (general_form(n) is not None) == is_loeschian(n).representable
