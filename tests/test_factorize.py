import ast
from math import gcd, isqrt, prod
from pathlib import Path
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
from loeschian.factorize import (_BLOCK, _MR_BASES, _MR_PSI, _TRIAL_BLOCKS, _TRIAL_COVERED,
                                 _TRIAL_PRIMES, _primes_upto, _rho_split, _sieve, _trial_part,
                                 _window_factors)
from loeschian.verify import CONJECTURE_LIMIT, _SEGMENT
from oracles import factor_with_table, sieve_primes, smallest_factor_table, trial_divide

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


@pytest.fixture
def pow_calls(monkeypatch):
    """Count the pow calls in factorize, one per Miller-Rabin base, which still do their work."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(factorize_mod, "pow", counting_pow, raising=False)
    return calls


def test_is_prime_around_the_base_gcd(pow_calls):
    # One gcd with the product of the first trial run, the 32 primes 2..131,
    # screens every n: a shared factor means prime exactly when n is one of them.
    first = _TRIAL_BLOCKS[0][0]
    assert first == tuple(sieve_primes(131))
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    product = 7420738134810
    assert [is_prime(n) for n in (0, 1, 41, 1681, 41 * 43, product)] == [
        False, False, True, False, False, False]
    assert all(is_prime(p) for p in bases)
    assert not any(is_prime(p * q) for p in bases for q in bases)
    assert all(map(is_prime, first))
    assert not any(is_prime(p * q) for p in first for q in first)
    # From 1009^2 up the screen still refuses a multiple of a first-run prime,
    # also of one that is no Miller-Rabin base, before any base runs.
    rng = Random(4131)
    multiples = []
    for q in (41, 131):
        lo = -(-TRIAL_COVERED // q)
        for _ in range(20):
            p = sympy.nextprime(rng.randrange(lo, 2 ** rng.randint(lo.bit_length() + 1, 56)))
            multiples.append(q * p)
    assert all(TRIAL_COVERED <= n <= U64_MAX for n in multiples)
    assert not any(map(is_prime, multiples)) and pow_calls == []
    assert is_prime(2**64 - 59) and pow_calls
    # Each psi tier reads the first k + 1 bases, so a base past the last tier is never run.
    assert len(_MR_BASES) == len(_MR_PSI)


def test_is_prime_matches_sieve_to_one_million():
    limit = 10**6
    flagged = set(sieve_primes(limit))
    for n in range(limit + 1):
        assert is_prime(n) == (n in flagged)


TRIAL_COVERED = 1009 * 1009  # every composite below has a prime factor below 1000


def test_is_prime_by_trial_runs_matches_the_sieve():
    # From 41^2 up to 1009^2 the gcds with the runs of 32 trial primes decide;
    # the windows cover the first run edges (137^2 = 18769) and the tier's end.
    flagged = set(sieve_primes(TRIAL_COVERED + 3000))
    for n in [*range(1600, 21682), *range(TRIAL_COVERED - 3000, TRIAL_COVERED + 3001)]:
        assert is_prime(n) == (n in flagged), n
    # 131 ends the first run and 137 starts the second; 991 and 997 sit in the last.
    assert _TRIAL_BLOCKS[0][0][-1] == 131 and _TRIAL_BLOCKS[1][0][0] == 137
    assert not any(map(is_prime, (131 * 137, 137 * 137, 991 * 997, 997 * 997)))
    edges = (137 * 137, 997 * 997, TRIAL_COVERED)
    assert all(map(is_prime, [*map(sympy.prevprime, edges), *map(sympy.nextprime, edges[:2])]))


def test_is_prime_runs_no_miller_rabin_below_the_trial_bound(pow_calls):
    rng = Random(1009)
    below = [*range(1681, 1800), *range(TRIAL_COVERED - 200, TRIAL_COVERED)]
    below += [rng.randrange(1681, TRIAL_COVERED) for _ in range(500)]
    assert sum(map(is_prime, below)) > 50
    assert pow_calls == []
    # 1009 * 1013 is the kind of composite the trial runs cannot see.
    above = [1009 * 1013, sympy.nextprime(TRIAL_COVERED), sympy.nextprime(2**40)]
    assert [is_prime(n) for n in above] == [False, True, True]
    assert len(pow_calls) >= 3 and all(n >= TRIAL_COVERED for _, _, n in pow_calls)


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


PSI_7 = 341550071728321
# The prime factors above 37 of Sinclair's seven bases, which is_prime runs
# from psi_7 up, with the bases that hold them. 73 divides 28178 and 450775,
# but the first-run screen (primes 2..131) refuses its multiples before any
# base runs, so it has none listed; multiples of the others reach the bases.
WIDE_FACTORS = {73: (), 193: (28178,), 407521: (9780504,), 299210837: (1795265022,)}


def _in_wide_tier(n):
    return PSI_7 <= n <= U64_MAX


def test_is_prime_matches_sympy_in_the_seven_base_tier():
    rng = Random(2011)
    probes = [PSI_7, sympy.nextprime(PSI_7), 3825123056546413051, 2**64 - 59]
    probes += [rng.randrange(PSI_7, 2**64) for _ in range(300)]
    probes += [sympy.nextprime(rng.randrange(PSI_7, 2**64 - 2**10)) for _ in range(100)]
    # Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1) with all three factors prime.
    chernick = []
    for k in (6400, 60000, 240000):  # 1296 k^3 runs from just above psi_7 to near 2^64
        found = []
        while len(found) < 8:
            k += 1
            f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if _in_wide_tier(prod(f)) and all(sympy.isprime(x) for x in f):
                found.append(prod(f))
        chernick += found
    # p(2p - 1) with both factors prime, the shape of many base-2 pseudoprimes.
    twins = []
    while len(twins) < 30:
        q = sympy.nextprime(rng.randrange(13_100_000, 3_037_000_000))
        if sympy.isprime(2 * q - 1) and _in_wide_tier(q * (2 * q - 1)):
            twins.append(q * (2 * q - 1))
    # Primes times a factor of a wide base, so that gcd(base, n) > 1.
    shared = []
    for f in WIDE_FACTORS:
        for _ in range(10):
            shared.append(f * sympy.nextprime(rng.randrange(-(-PSI_7 // f), U64_MAX // f - 2**12)))
    assert len(chernick) == 24 and all(map(_in_wide_tier, probes + twins + shared))
    for n in probes + chernick + twins + shared:
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(map(is_prime, chernick + twins + shared))


def test_a_wide_base_sharing_a_factor_with_n_rejects_it(monkeypatch):
    # With the sharing base alone, a^d mod n keeps the common factor, so it is
    # never 1 or n - 1 and the test says composite; a prime passes every base.
    # With no base at all, only the screen can refuse: it does for 73 and no other.
    rng = Random(2012)
    primes = [sympy.nextprime(rng.randrange(PSI_7, 2**64 - 2**10)) for _ in range(5)]
    for f, bases in WIDE_FACTORS.items():
        composites = [f * sympy.nextprime(rng.randrange(-(-PSI_7 // f), U64_MAX // f - 2**12))
                      for _ in range(5)]
        monkeypatch.setattr(factorize_mod, "_MR_WIDE", ())
        assert [is_prime(n) for n in composites] == [f > 131] * 5, f
        for base in bases:
            monkeypatch.setattr(factorize_mod, "_MR_WIDE", (base,))
            assert not any(map(is_prime, composites)), (f, base)
            assert all(map(is_prime, primes)), base


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
        assert _primes_upto(root) == _sieve(0, root), root


def _oracle_primes(lo, hi):
    # Trial division by the oracle's primes up to the root of hi.
    small = sieve_primes(max(isqrt(hi), 2))
    return tuple(n for n in range(max(lo, 2), hi + 1) if all(n % p for p in small if p * p <= n))


def test_segmented_sieve_matches_the_oracle():
    # lo = 0..4 takes in or leaves out 0, 1 and the first primes; around a
    # prime square its first multiple to cross off sits inside the window.
    windows = [(lo, 100) for lo in range(5)] + [(lo, lo) for lo in range(5)]
    windows += [(24, 26), (1009**2 - 3, 1009**2 + 3), (_SEGMENT - 300, _SEGMENT + 300),
                (CONJECTURE_LIMIT - 2000, CONJECTURE_LIMIT)]
    for lo, hi in windows:
        assert _sieve(lo, hi) == _oracle_primes(lo, hi), (lo, hi)


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


# The last prime of each run of _TRIAL_BLOCKS next to the first of the next one.
RUN_EDGES = ((131, 137), (311, 313), (503, 509), (719, 727), (941, 947))


def _trial_cases():
    rng = Random(61)
    small = sieve_primes(1000)
    cases = [1, 2, 3, 4, 997, 137**2, 313**2, 997**2, 997 * 1009, 1009**2, 2**63, U64_MAX,
             U64_MAX - 58, 2**32 * 997**3, 3**40]
    for p, q in RUN_EDGES:
        cases += [p * q, p**2 * q, p * q**3, p * q * 1009, p**3 * q**2 * 1013,
                  p * q * (2**31 - 1), 2 * q, q * q, p * p * 1009]
    cases.append(997 * 1009 * 1013)
    for _ in range(300):
        n = 1  # smooth: primes below 1000 up to a random bit length
        bound = 2 ** rng.randint(8, 64)
        while n * (p := rng.choice(small)) < bound:
            n *= p
        cases.append(n)
        # mixed: two small prime powers times one larger cofactor
        head = rng.choice(small) ** rng.randint(1, 4) * rng.choice(small)
        cases.append(head * rng.randrange(1009, U64_MAX // head))
        cases.append(rng.randrange(1, U64_MAX + 1))
    return cases


def test_trial_part_matches_a_per_prime_loop():
    trial_primes = sieve_primes(1000)
    for n in _trial_cases():
        small, m = _trial_part(n)
        powers, rest = trial_divide(n, trial_primes)
        # The listed powers are exact, ascending, and a prefix of the loop's.
        assert small == powers[: len(small)], n
        for p, e in small:
            assert n % p**e == 0 and n % p ** (e + 1), (n, p)
        assert prod(p**e for p, e in small) * m == n, n
        # The powers the early exit leaves in m are all it holds besides the loop's rest.
        assert prod(p**e for p, e in powers[len(small):]) * rest == m, n
        if small and m > 1:
            assert min(sympy.primefactors(m)) > small[-1][0], n
        if m < _TRIAL_COVERED:  # _shape takes such a cofactor as 1 or a prime
            assert m == 1 or sympy.isprime(m), n
        assert factor(n) == sorted(sympy.factorint(n).items()), n


def test_trial_part_reads_only_runs_that_share_a_prime_with_n(monkeypatch):
    # A run and its product: the runs concatenate to the trial primes, in order.
    assert [p for run, _ in _TRIAL_BLOCKS for p in run] == list(_TRIAL_PRIMES)
    assert all(len(run) == 32 for run, _ in _TRIAL_BLOCKS[:-1])
    for run, product in _TRIAL_BLOCKS:
        total = 1
        for p in run:
            total *= p
        assert product == total

    read = []

    class CountingRun(tuple):
        def __iter__(self):
            for p in tuple.__iter__(self):
                read.append(p)
                yield p

    monkeypatch.setattr(factorize_mod, "_TRIAL_BLOCKS",
                        tuple((CountingRun(run), product) for run, product in _TRIAL_BLOCKS))
    # No prime below 1000 divides these, so every run's gcd is 1 and none is read.
    for n in (1009 * 1013, U64_MAX - 58, 1000003**3):
        assert _trial_part(n) == ([], n)
    assert read == []
    # A run is read only up to its last prime that divides n.
    assert _trial_part(2 * 3 * 1009 * 1013) == ([(2, 1), (3, 1)], 1009 * 1013)
    assert read == [2, 3]
    read.clear()
    assert _trial_part(313**2 * 317 * 1009**3) == ([(313, 2), (317, 1)], 1009**3)
    assert read == [313, 317]
    read.clear()
    # The square of a run's first prime passing the cofactor ends the division.
    assert _trial_part(131 * 137) == ([(131, 1)], 137)
    assert read == list(_TRIAL_BLOCKS[0][0])


def test_factor_is_deterministic_and_seed_independent_in_value():
    n = 16141829676117908357  # 7 * 1073754191 * 2147582461
    first = factor(n)
    assert factor(n) == first
    assert factor(n, seed=12345) == first
    assert first == sorted(sympy.factorint(n).items())


def test_factorize_imports_nothing_from_random():
    # Rho takes its start and constant from the seed by integer arithmetic,
    # so no generator is built and seeded per split.
    tree = ast.parse(Path(factorize_mod.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "random" not in imported
    assert factor(16141829676117908357) == [(7, 1), (1073754191, 1), (2147582461, 1)]


@pytest.fixture
def rho_calls(monkeypatch):
    """Count the calls of the rho stage, which still does its work."""
    calls = []
    rho_split = factorize_mod._rho_split

    def counting(n, seed):
        calls.append(n)
        return rho_split(n, seed)

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


def test_prime_square_tests_its_root_once_and_never_the_square(monkeypatch):
    tested = []
    real = factorize_mod.is_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(factorize_mod, "is_prime", counting)
    rng = Random(71)
    for _ in range(10):
        p = sympy.nextprime(rng.randrange(2**31, 2**32 - 64))
        tested.clear()
        assert factor(p * p) == [(p, 2)]
        assert tested == [p]
    p = sympy.nextprime(rng.randrange(2**15, 2**16 - 64))
    tested.clear()
    assert factor(p**4) == [(p, 4)]
    assert tested == []  # p < 1009^2 needs no test at all


def _three_prime_powers(rng):
    """p^3 q^2 r below 2^64 for seeded primes 1000 < p < q < r."""
    while True:
        p, q, r = sorted(sympy.nextprime(rng.randrange(1000, 2**11)) for _ in range(3))
        if len({p, q, r}) == 3 and p**3 * q**2 * r <= U64_MAX:
            return p**3 * q**2 * r


def test_rho_divides_out_the_whole_power_of_its_divisor(monkeypatch, rho_calls):
    rng = Random(73)
    cases = [_three_prime_powers(rng) for _ in range(40)]
    for n in cases:
        assert factor(n) == sorted(sympy.factorint(n).items()), n
    assert rho_calls and all(isqrt(m) ** 2 != m and not is_prime(m) for m in rho_calls)
    # Rho answering with the smallest prime: p^3 q^2 r with p < q < r needs
    # two splits, p^3 off n and then q^2 off q^2 r, where splitting one
    # prime at a time would take five.
    monkeypatch.setattr(factorize_mod, "_rho_split",
                        lambda n, seed: rho_calls.append(n) or min(sympy.primefactors(n)))
    for n in cases:
        rho_calls.clear()
        assert factor(n) == sorted(sympy.factorint(n).items()), n
        assert len(rho_calls) <= 2, n
    # Rho answering with a composite divisor: its power in n is still divided
    # out whole, and the divisor is split in turn with that multiplicity.
    def two_primes(n, seed):
        d = prod(sympy.primefactors(n)[:2])
        return d if d < n else min(sympy.primefactors(n))

    monkeypatch.setattr(factorize_mod, "_rho_split", two_primes)
    for n in cases:
        assert factor(n) == sorted(sympy.factorint(n).items()), n


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


def _rho_split_one_step(n, seed):
    """_rho_split with one reduction of q per step.

    Also says whether ys was walked again and how many attempts it took.
    """
    rewalked = False
    attempts = 0
    while True:
        y = 2
        c = 1 + (seed + attempts) % (n - 3)
        attempts += 1
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
            return g, rewalked, attempts


def test_grouped_rho_returns_the_one_step_divisor():
    # Four differences per reduction leave q mod n, and so each gcd, as it was.
    rng = Random(61)
    cases = []
    for bits in (12, 20, 26, 31, 32):
        p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits - 2**10))
        cases.append(p * sympy.nextprime(rng.randrange(p, 2**bits)))
    for n in cases:
        for seed in (RHO_SEED, 1, 2):
            expected, _, _ = _rho_split_one_step(n, seed)
            assert _rho_split(n, seed) == expected, (n, seed)
    # Found by a search among p * q near 1009 * 1013: at the default seed one
    # batch takes both primes, its gcd is n, and ys is walked again step by
    # step; for 1009 * 1249 that walk meets n too, so a second c is tried.
    for p, q, d, attempts in ((1009, 1013, 1013, 1), (1009, 1249, 1249, 2)):
        assert _rho_split_one_step(p * q, RHO_SEED) == (d, True, attempts)
        assert _rho_split(p * q, RHO_SEED) == d
        assert factor(p * q) == [(p, 1), (q, 1)]


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
    assert general_form(1009**2) == GeneralForm(1, 0, [(1009, 2)])
    assert general_form(12 * 1009**2) == GeneralForm(2, 1, [(1009, 2)])


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
