import concurrent.futures
import os
from itertools import chain
from math import gcd, isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import loeschian.represent as represent_mod
import loeschian.verify as verify_mod
from loeschian import (
    U64_MAX,
    Representation,
    SweepRange,
    emit_sequence,
    factor,
    is_loeschian,
    verify_conjecture,
    verify_factor_theorem,
    verify_prime_theorems,
    verify_residues,
)
from loeschian.factorize import _window_factors
from loeschian.verify import MAX_MISMATCHES, _SEGMENT, _divisors, _window_counts
from oracles import brute_sequence, scan_reps


def test_sweep_range_validation():
    assert SweepRange(1, 5).workers == 1
    assert SweepRange(1, U64_MAX).hi == U64_MAX
    with pytest.raises(ValueError):
        SweepRange(0, 5)
    with pytest.raises(ValueError):
        SweepRange(5, 4)
    with pytest.raises(ValueError):
        SweepRange(1, 5, workers=0)


def test_reports_do_not_share_a_default_mismatch_list():
    first = verify_mod.VerificationReport(SweepRange(1, 5), 0)
    second = verify_mod.VerificationReport(SweepRange(1, 5), 0)
    first.mismatches.append(verify_mod.Mismatch(1, "a", "b"))
    assert second.mismatches == []
    assert second.ok and not first.ok
    assert second.elapsed_ms == 0.0


def test_verify_conjecture_known_ranges():
    report = verify_conjecture(SweepRange(1, 1000))
    assert report.ok
    assert report.checked == 1000

    report = verify_conjecture(SweepRange(49, 49))
    assert report.ok
    assert report.checked == 1

    report = verify_conjecture(SweepRange(10, 10))
    assert report.ok


def _scan_counts(lo, hi):
    return [len(scan_reps(n)) for n in range(lo, hi + 1)]


def test_window_counts_match_the_scan():
    # One-wide windows at a^2 and 3a^2 hit the b = 0 and a = b edges; 49 has both
    # (7, 0) and (5, 3). Seeded 200-wide windows run up to the sweep guard.
    rng = Random(20)
    guard = verify_mod.CONJECTURE_LIMIT
    windows = [(0, 3000), (1, 1), (49, 49), (_SEGMENT - 300, _SEGMENT + 300)]
    windows += [(n, n) for a in (1, 2, 17, 1000, 9999) for n in (a * a, 3 * a * a)]
    windows += [(guard - 199, guard)]
    for _ in range(4):
        hi = guard - rng.randrange(10**6)
        windows.append((hi - 199, hi))
    for lo, hi in windows:
        assert list(_window_counts(lo, hi)) == _scan_counts(lo, hi), (lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**8 - 40), st.integers(min_value=0, max_value=40))
def test_window_counts_match_the_scan_on_drawn_windows(lo, width):
    assert list(_window_counts(lo, lo + width)) == _scan_counts(lo, lo + width)


def test_verify_conjecture_guard():
    with pytest.raises(ValueError):
        verify_conjecture(SweepRange(1, 10**8 + 1))


def test_verify_conjecture_sweeps_a_full_segment_at_the_guard():
    hi = verify_mod.CONJECTURE_LIMIT
    report = verify_conjecture(SweepRange(hi - _SEGMENT + 1, hi))
    assert report.ok, report.mismatches[:5]
    assert report.checked == _SEGMENT


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a pool that records max_workers and maps in-process, starting no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_verify_conjecture_worker_count_does_not_change_content(monkeypatch, pool_sizes):
    monkeypatch.setattr(verify_mod, "_SEGMENT", 1000)
    window_counts = verify_mod._window_counts

    def one_more_at_multiples_of_seven(lo, hi):
        counts = window_counts(lo, hi)
        for n in range(-(-lo // 7) * 7, hi + 1, 7):
            counts[n - lo] += 1
        return counts

    monkeypatch.setattr(verify_mod, "_window_counts", one_more_at_multiples_of_seven)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    reports = [verify_conjecture(SweepRange(1, 10000, w)) for w in (1, 2, 3, 4)]
    assert pool_sizes == [2, 3, 4]
    first = reports[0].mismatches
    assert len(first) == MAX_MISMATCHES
    assert [m.n for m in first] == list(range(7, 7 * MAX_MISMATCHES + 1, 7))
    assert first[0] == verify_mod.Mismatch(7, "1", "2")
    for report in reports:
        assert report.checked == 10000
        assert report.mismatches == first


def test_conjecture_part_compares_every_n_and_keeps_the_first_mismatches(monkeypatch):
    calls = 0

    def wrong_count(shape):
        nonlocal calls
        calls += 1
        return 99

    monkeypatch.setattr(verify_mod, "_count", wrong_count)
    part = verify_mod._conjecture_part(range(1, 5001))
    assert calls == 5000
    assert part == [(n, 99, c) for n, c in zip(range(1, MAX_MISMATCHES + 1),
                                                _window_counts(1, MAX_MISMATCHES))]


def test_verify_conjecture_over_a_real_pool_matches_in_process(monkeypatch):
    # Three segments on two processes: the parts travel back through the pool
    # and are drained in order while it is open.
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify_mod, "_SEGMENT", 1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pooled = verify_conjecture(SweepRange(1, 3000, 2))
    alone = verify_conjecture(SweepRange(1, 3000, 1))
    assert sizes == [2]
    assert pooled.ok and pooled.checked == 3000
    assert pooled[1:3] == alone[1:3]


def test_verify_conjecture_starts_no_more_processes_than_chunks(monkeypatch, pool_sizes):
    monkeypatch.setattr(verify_mod, "_SEGMENT", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    report = verify_conjecture(SweepRange(1, 3, workers=64))
    assert report.sweep.workers == 64
    assert report.ok and report.checked == 3

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = verify_conjecture(SweepRange(1, 10, workers=64))
    assert report.sweep.workers == 64
    assert report.ok and report.checked == 10
    assert pool_sizes == [3, 2]


def test_verify_conjecture_one_segment_starts_no_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    hi = verify_mod.CONJECTURE_LIMIT
    report = verify_conjecture(SweepRange(hi - 199, hi, workers=64))
    assert report.ok and report.checked == 200
    assert pool_sizes == []


def test_verify_residues_known_limits():
    report = verify_residues(100)
    assert report.ok
    assert report.checked == 101 * 102 // 2

    report = verify_residues(500)
    assert report.ok
    assert report.checked == 125751

    report = verify_residues(1)
    assert report.ok
    assert report.checked == 3


def test_verify_residues_rejects_zero():
    # the report range starts at 1, so a limit of 0 has nothing to sweep
    with pytest.raises(ValueError, match="^limit=0 must be positive and keep values within"):
        verify_residues(0)


def test_verify_residues_guards_its_pair_count(monkeypatch):
    # (limit + 1)(limit + 2)/2 pairs may not pass the guard: 14140 gives
    # 99,991,011 and 14141 gives 100,005,153. Checking the accepted edge takes
    # seconds, so the pair loop is stubbed out there.
    with pytest.raises(ValueError, match="^limit=14141 gives 100005153 pairs, "
                                         "past the sweep guard 100000000$"):
        verify_residues(14141)
    for limit in (10**8 + 1, U64_MAX):
        with pytest.raises(ValueError):
            verify_residues(limit)
    # The largest entry whose values fit in 64 bits passes the entry check.
    edge = verify_mod._ENTRY_LIMIT
    with pytest.raises(ValueError, match=f"^limit={edge} gives {(edge + 1) * (edge + 2) // 2} "
                                         "pairs, past the sweep guard 100000000$"):
        verify_residues(edge)
    monkeypatch.setattr(verify_mod, "_report",
                        lambda sweep, checked, found, start: (sweep, checked))
    assert verify_residues(14140) == (SweepRange(1, 14140), 99991011)


def test_mismatches_are_capped(monkeypatch):
    monkeypatch.setattr(verify_mod, "_GOOD_RESIDUES", frozenset())
    report = verify_mod.verify_residues(100)
    assert not report.ok
    assert len(report.mismatches) == MAX_MISMATCHES


def _residue_mismatches(limit, good):
    # The plain double loop over every pair, as the report words each miss.
    return [verify_mod.Mismatch(v, "residue 0, 1, 3, or 4 (mod 6)",
                                f"residue {v % 6} at pair ({a}, {b})")
            for a in range(limit + 1) for b in range(a + 1)
            if (v := a * a + a * b + b * b) % 6 not in good]


class _CountingResidues(frozenset):
    """A residue set that counts its membership tests, one per pair walked."""

    def __contains__(self, residue):
        self.lookups += 1
        return super().__contains__(residue)


def test_residue_misses_past_the_cap_are_walked_but_not_worded(monkeypatch):
    counting = _CountingResidues()
    counting.lookups = 0
    monkeypatch.setattr(verify_mod, "_GOOD_RESIDUES", counting)
    monkeypatch.setattr(verify_mod, "_report", lambda sweep, checked, found, start: list(found))
    assert len(verify_mod.verify_residues(100)) == MAX_MISMATCHES
    assert counting.lookups == 101 * 102 // 2


@pytest.mark.parametrize("good, limit, total", [
    ({0, 1, 3}, 60, 320), ({0, 3}, 200, 13467),
    # Without 0 the zero bytes of a digit's upper part must not pass for good.
    ({1, 3, 4}, 120, 651),
    (set(range(6)), 200, 0),
])
def test_residue_report_lists_failing_pairs_in_loop_order(monkeypatch, good, limit, total):
    counting = _CountingResidues(good)
    counting.lookups = 0
    monkeypatch.setattr(verify_mod, "_GOOD_RESIDUES", counting)
    report = verify_mod.verify_residues(limit)
    expected = _residue_mismatches(limit, good)
    assert len(expected) == total
    assert report.checked == (limit + 1) * (limit + 2) // 2
    assert report.mismatches == expected[:MAX_MISMATCHES]
    # Exactly the rows holding a bad pair are walked, each pair once.
    failing_rows = {a for a in range(limit + 1) for b in range(a + 1)
                    if (a * a + a * b + b * b) % 6 not in good}
    assert counting.lookups == sum(a + 1 for a in failing_rows)


def test_packed_rows_hold_every_residue():
    # Rows 14100-14140 hold the largest values the pair guard admits, up to
    # 3 * 14140^2 < 2^30; each row is computed alone from the call's table.
    table = verify_mod._residue_table(14140)
    for a in chain(range(601), range(14100, 14141)):
        residues = verify_mod._row_residues(a, table)
        assert list(residues) == [(a * a + a * b + b * b) % 6 for b in range(a + 1)], a


def _primitive_counts(lo, hi):
    # The _window_counts walk, keeping only the coprime pairs.
    counts = [0] * (hi - lo + 1)
    third = -(-lo // 3)
    for a in range(isqrt(third - 1) + 1 if third else 0, isqrt(hi) + 1):
        disc = 4 * lo - 3 * a * a
        b = 0 if disc <= a * a else (isqrt(disc - 1) + 2 - a) >> 1
        value = a * a + a * b + b * b
        while value <= hi and b <= a:
            if gcd(a, b) == 1:
                counts[value - lo] += 1
            value += a + 2 * b + 1
            b += 1
    return counts


def _primitive_prediction(factors):
    # 1 for n = 1 and 3; 2^(k-1) for 3^(0 or 1) times powers of k >= 1 primes
    # 1 (mod 6); 0 when a prime 2 (mod 3) or 9 divides n.
    if any(p % 3 == 2 or (p == 3 and e > 1) for p, e in factors):
        return 0
    k = sum(p % 6 == 1 for p, _ in factors)
    return 1 << (k - 1) if k else 1


def test_primitive_counts_follow_theorem_iii():
    # A nonzero primitive count forces every prime of n to be 3 or 1 (mod 6),
    # so every divisor of a value at a coprime pair is itself a value.
    rng = Random(2004)
    windows = [(1, 10**5)]
    for _ in range(2):
        lo = rng.randrange(1, verify_mod.CONJECTURE_LIMIT - 1999)
        windows.append((lo, lo + 1999))
    for lo, hi in windows:
        predicted = [_primitive_prediction(f) for f in _window_factors(lo, hi)]
        assert _primitive_counts(lo, hi) == predicted, (lo, hi)


def test_verify_prime_theorems_known_limits():
    report = verify_prime_theorems(2)
    assert report.ok
    assert report.checked == 1

    report = verify_prime_theorems(3)
    assert report.ok
    assert report.checked == 2

    report = verify_prime_theorems(7)
    assert report.ok
    assert report.checked == 4

    report = verify_prime_theorems(10**4)
    assert report.ok


def test_verify_prime_theorems_counts_from_the_lattice_window(monkeypatch):
    window_counts = verify_mod._window_counts

    def one_more_at_seven(lo, hi):
        counts = window_counts(lo, hi)
        if lo <= 7 <= hi:
            counts[7 - lo] += 1
        return counts

    monkeypatch.setattr(verify_mod, "_window_counts", one_more_at_seven)
    assert verify_prime_theorems(100).mismatches == [
        verify_mod.Mismatch(7, "count formula 1", "2 enumerated"),
        verify_mod.Mismatch(7, "exactly one representation", "2 enumerated"),
    ]


@pytest.mark.parametrize("faulted, expected", [((), []), ((1999, 2003), [
    verify_mod.Mismatch(1999, "count formula 1", "2 enumerated"),
    verify_mod.Mismatch(1999, "exactly one representation", "2 enumerated"),
    verify_mod.Mismatch(2003, "count formula 0", "1 enumerated"),
    verify_mod.Mismatch(2003, "no representations for a residual prime", "1 enumerated"),
])])
def test_verify_prime_theorems_across_segment_boundaries(monkeypatch, faulted, expected):
    # 1999 ends the segment [1000, 1999] and 2003 sits in the next one, so a
    # count read at a wrong offset into its segment shows up as a mismatch.
    window_counts = verify_mod._window_counts

    def one_more_at_faulted(lo, hi):
        counts = window_counts(lo, hi)
        for p in faulted:
            if lo <= p <= hi:
                counts[p - lo] += 1
        return counts

    monkeypatch.setattr(verify_mod, "_window_counts", one_more_at_faulted)
    whole = verify_prime_theorems(20000)
    monkeypatch.setattr(verify_mod, "_SEGMENT", 1000)
    cut = verify_prime_theorems(20000)
    assert whole.checked == cut.checked == 2262
    assert cut.mismatches == whole.mismatches == expected


def test_verify_prime_theorems_requires_a_canonical_construction(monkeypatch):
    # (1, 2) has the value 7 but is not canonical, so it is not the one pair counted.
    represent_prime = verify_mod.represent_prime
    monkeypatch.setattr(verify_mod, "represent_prime",
                        lambda p: Representation(1, 2) if p == 7 else represent_prime(p))
    assert verify_prime_theorems(100).mismatches == [verify_mod.Mismatch(
        7, "a canonical pair of value 7", "constructed Representation(a=1, b=2)")]


def test_verify_prime_theorems_reports_both_refusal_branches(monkeypatch):
    represent_prime = verify_mod.represent_prime

    def refuses_seven_and_represents_five(p):
        if p == 7:
            raise verify_mod.NotRepresentableError("refused")
        return Representation(2, 1) if p == 5 else represent_prime(p)

    monkeypatch.setattr(verify_mod, "represent_prime", refuses_seven_and_represents_five)
    assert verify_prime_theorems(20).mismatches == [
        verify_mod.Mismatch(5, "refusal for a residual prime", "returned Representation(a=2, b=1)"),
        verify_mod.Mismatch(7, "a constructed representation", "refusal"),
    ]


def test_verify_prime_theorems_tests_each_prime_once(monkeypatch):
    # The sieve already knows every p is prime; represent_prime's own check is the only one.
    calls = 0
    is_prime = represent_mod.is_prime

    def counting_is_prime(n):
        nonlocal calls
        calls += 1
        return is_prime(n)

    monkeypatch.setattr(represent_mod, "is_prime", counting_is_prime)
    report = verify_prime_theorems(1000)
    assert report.ok
    assert calls == report.checked == 168


def test_prime_theorems_hold_by_exhaustive_search_below_ten_to_the_sixth():
    # enumerate_reps builds a prime's representation with represent_prime, so
    # comparing the two shows nothing; this sweep counts from the lattice window
    # instead. A residual prime must have no representation and be refused, any
    # other prime exactly one, and represent_prime must construct a canonical
    # pair of value p, which is then the only one.
    report = verify_prime_theorems(10**6 - 1)
    assert report.ok, report.mismatches[:5]
    assert report.checked == 78498


def test_verify_prime_theorems_rejects_tiny_limit(monkeypatch):
    with pytest.raises(ValueError):
        verify_prime_theorems(1)
    # Past the conjecture sweep's guard the sieve and the window would not fit in memory.
    for limit in (verify_mod.CONJECTURE_LIMIT + 1, 10**17, U64_MAX):
        with pytest.raises(ValueError, match="exceeds the sweep guard 100000000"):
            verify_prime_theorems(limit)
    # The guard itself is accepted; a small guard keeps that sweep short.
    monkeypatch.setattr(verify_mod, "CONJECTURE_LIMIT", 1000)
    assert verify_prime_theorems(1000).checked == 168


def test_verify_factor_theorem_known_inputs():
    report = verify_factor_theorem(1, 1, 0)
    assert report.ok
    assert report.checked == 1

    report = verify_factor_theorem(5, 10, 7)
    assert report.ok
    assert report.checked == 10

    # Entries up to the largest whose values fit in 64 bits are drawn.
    report = verify_factor_theorem(verify_mod._ENTRY_LIMIT, 1, 0)
    assert report.ok
    assert report.checked == 1


def test_verify_factor_theorem_is_reproducible():
    first = verify_factor_theorem(40, 25, 1234)
    second = verify_factor_theorem(40, 25, 1234)
    assert first.checked == second.checked
    assert first.mismatches == second.mismatches


def test_verify_factor_theorem_reports_a_bad_divisor_and_its_clean_cofactor(monkeypatch):
    # Ten times the value of the pair (2, 1) is 70 = 2 * 5 * 7: every divisor with
    # 2 or 5 to an odd power fails, and those that take both 2 and 5 leave a
    # cofactor of primes 1 (mod 6) only, which forces a second mismatch.
    evaluate = verify_mod.evaluate
    monkeypatch.setattr(verify_mod, "evaluate", lambda a, b: 10 * evaluate(a, b))
    divisor = "divisor of (2, 1) value 70 representable"
    two, five = "prime 2 has odd exponent 1", "prime 5 has odd exponent 1"
    report = verify_factor_theorem(2, 1, 0)
    assert report.checked == 1
    assert report.mismatches == [
        verify_mod.Mismatch(2, divisor, two),
        verify_mod.Mismatch(5, divisor, five),
        verify_mod.Mismatch(10, divisor, two),
        verify_mod.Mismatch(10, "representability forced by the clean cofactor 7", two),
        verify_mod.Mismatch(14, divisor, two),
        verify_mod.Mismatch(35, divisor, five),
        verify_mod.Mismatch(70, divisor, two),
        verify_mod.Mismatch(70, "representability forced by the clean cofactor 1", two),
    ]


def test_divisors_carry_their_own_factorizations():
    for n in range(1, 2001):
        pairs = _divisors(factor(n))
        # Equal to the ascending list of divisors: the order and the set at once.
        assert [d for d, _ in pairs] == [d for d in range(1, n + 1) if n % d == 0]
        for d, own in pairs:
            assert own == factor(d), (n, d)


def test_verify_factor_theorem_rejects_bad_input():
    with pytest.raises(ValueError, match="^pair_bound=0 must be positive and keep values within"):
        verify_factor_theorem(0, 1, 0)
    with pytest.raises(ValueError):
        verify_factor_theorem(5, 0, 0)


def test_emit_sequence_known_values():
    assert emit_sequence(13) == [0, 1, 3, 4, 7, 9, 12, 13]
    assert emit_sequence(0) == [0]
    assert emit_sequence(28) == [0, 1, 3, 4, 7, 9, 12, 13, 16, 19, 21, 25, 27, 28]


def test_emit_sequence_matches_brute_force():
    assert emit_sequence(500) == brute_sequence(500)


def test_emit_sequence_matches_the_factorization_to_ten_to_the_fifth():
    limit = 10**5
    assert emit_sequence(limit) == [n for n in range(limit + 1) if is_loeschian(n).representable]


def test_emit_sequence_prefix_property():
    longer = emit_sequence(400)
    shorter = emit_sequence(150)
    assert longer[: len(shorter)] == shorter


def test_report_ok_reflects_mismatches():
    report = verify_residues(10)
    assert report.ok
    assert report.mismatches == []
    assert report.elapsed_ms >= 0.0
