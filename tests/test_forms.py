import pytest
from hypothesis import example, given, strategies as st

from loeschian import (
    Representation,
    U64_MAX,
    canonicalize,
    check_identities,
    compose,
    compose_minus,
    convert_minus_to_plus,
    convert_plus_to_minus,
    evaluate,
    evaluate_minus,
    solve_b,
)

# Largest entry the form maps into 64 bits.
ENTRY_MAX = 2479700524

entries = st.integers(min_value=0, max_value=ENTRY_MAX)
small = st.integers(min_value=0, max_value=50)
signed = st.integers(min_value=-(10**9), max_value=10**9)


def canonical_pairs(bound):
    return st.tuples(
        st.integers(min_value=0, max_value=bound),
        st.integers(min_value=0, max_value=bound),
    ).map(lambda t: Representation(max(t), min(t)))


def test_evaluate_known_values():
    assert evaluate(0, 0) == 0
    assert evaluate(1, 1) == 3
    assert evaluate(5, 3) == 49


def test_evaluate_rejects_out_of_range():
    with pytest.raises(ValueError):
        evaluate(-1, 0)
    with pytest.raises(ValueError):
        evaluate(0, U64_MAX + 1)


def test_evaluate_overflow():
    with pytest.raises(OverflowError):
        evaluate(U64_MAX, U64_MAX)
    # largest pair on the diagonal that still fits
    assert evaluate(ENTRY_MAX, ENTRY_MAX) <= U64_MAX
    with pytest.raises(OverflowError):
        evaluate(ENTRY_MAX + 1, ENTRY_MAX + 1)


@given(entries, entries)
@example(0, 0)
@example(ENTRY_MAX, 0)
def test_evaluate_nonnegative_with_good_residue(a, b):
    try:
        q = evaluate(a, b)
    except OverflowError:
        return
    assert q >= 0
    assert q % 6 in {0, 1, 3, 4}


def test_evaluate_minus_known_values():
    assert evaluate_minus(1, 1) == 1
    assert evaluate_minus(3, 3) == 9
    assert evaluate_minus(2, 1) == 3


@given(entries, entries)
def test_evaluate_minus_nonnegative(a, b):
    assert evaluate_minus(a, b) >= 0


def test_representation_value():
    assert Representation(9, 1).value == 91
    assert Representation(0, 0).value == 0


def test_canonicalize_known_values():
    assert canonicalize(-2, -1) == (2, 1)
    assert canonicalize(3, -1) == (2, 1)
    assert canonicalize(1, -3) == (2, 1)


def test_canonicalize_exhaustive_small():
    for a in range(-100, 101):
        for b in range(-100, 101):
            rep = canonicalize(a, b)
            assert rep.a >= rep.b >= 0
            assert rep.value == a * a + a * b + b * b
            # The 12 symmetries of the form: 6 units of Z[w], with or without
            # the conjugate. Equal value alone would pass a pair from another
            # orbit, as 49, 91 and 637 have more than one.
            images = {(a, b), (b, a), (-a, -b), (-b, -a),
                      (a + b, -b), (-b, a + b), (-a - b, b), (b, -a - b),
                      (a + b, -a), (-a, a + b), (-a - b, a), (a, -a - b)}
            assert tuple(rep) in images


@given(signed, signed)
@example(1, -3)
@example(-3, 1)
def test_canonicalize_preserves_value(a, b):
    rep = canonicalize(a, b)
    assert rep.a >= rep.b >= 0
    assert evaluate(rep.a, rep.b) == a * a + a * b + b * b
    assert canonicalize(b, a) == rep


@given(canonical_pairs(10**6))
def test_canonicalize_fixes_canonical_pairs(rep):
    assert canonicalize(rep.a, rep.b) == rep


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize(U64_MAX + 1, 0)
    with pytest.raises(OverflowError):
        canonicalize(-U64_MAX, U64_MAX)


def test_solve_b_known_values():
    assert solve_b(7, 2) == 1
    assert solve_b(7, 3) is None
    assert solve_b(49, 7) == 0


def test_solve_b_rejects_bad_n():
    with pytest.raises(ValueError):
        solve_b(0, 1)
    with pytest.raises(ValueError):
        solve_b(-7, 1)


def test_solve_b_matches_direct_search():
    from math import isqrt

    for n in range(1, 401):
        for a in range(isqrt(n) + 2):
            hits = [b for b in range(a + 1) if a * a + a * b + b * b == n]
            assert len(hits) <= 1
            got = solve_b(n, a)
            if hits:
                assert got == hits[0]
            else:
                assert got is None


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=10**6))
def test_solve_b_solutions_check_out(n, a):
    b = solve_b(n, a)
    if b is not None:
        assert 0 <= b <= a
        assert a * a + a * b + b * b == n


def test_check_identities_known_values():
    assert check_identities(1, 1, 1, 1)
    assert check_identities(2, 1, 3, 1)
    assert check_identities(5, 0, 0, 4)
    with pytest.raises(ValueError, match="d=-1"):
        check_identities(1, 1, 1, -1)
    with pytest.raises(ValueError, match="b="):
        check_identities(0, U64_MAX + 1, 0, U64_MAX + 1)


@given(entries, entries, entries, entries)
@example(0, 0, 0, 0)
@example(1, 0, 0, 1)
def test_check_identities_always_holds(a, b, c, d):
    assert check_identities(a, b, c, d)


def test_compose_known_values():
    assert compose(Representation(2, 1), Representation(2, 1), 1) == (5, 3)
    assert compose(Representation(2, 1), Representation(2, 1), 2) == (7, 0)
    assert compose(Representation(1, 0), Representation(9, 1), 1) == (9, 1)
    # Each side of ac = bd for variant 1 and of ad = bc for variant 2;
    # ac < bd cannot happen on canonical pairs.
    assert compose(Representation(3, 1), Representation(4, 2), 1) == (12, 10)
    assert compose(Representation(2, 2), Representation(3, 3), 1) == (18, 0)
    assert compose(Representation(3, 1), Representation(5, 1), 2) == (19, 2)
    assert compose(Representation(2, 1), Representation(4, 2), 2) == (14, 0)
    assert compose(Representation(3, 1), Representation(4, 2), 2) == (18, 2)


def test_compose_rejects_bad_input():
    with pytest.raises(ValueError):
        compose(Representation(1, 2), Representation(1, 0), 1)
    with pytest.raises(ValueError):
        compose(Representation(2, 1), Representation(2, 1), 3)
    with pytest.raises(OverflowError):
        compose(Representation(ENTRY_MAX, ENTRY_MAX), Representation(2, 1), 1)


@given(canonical_pairs(50), canonical_pairs(50), st.sampled_from((1, 2)))
@example(Representation(1, 1), Representation(1, 1), 1)
@example(Representation(5, 0), Representation(0, 0), 2)
def test_compose_multiplies_values(r1, r2, variant):
    out = compose(r1, r2, variant)
    assert out.a >= out.b >= 0
    assert out.value == r1.value * r2.value


def test_compose_minus_known_values():
    assert compose_minus(Representation(1, 1), Representation(1, 1), 5) == (3, 3)
    assert compose_minus(Representation(2, 1), Representation(2, 1), 3) == (8, 3)
    assert compose_minus(Representation(1, 0), Representation(1, 0), 6) == (1, 1)
    # Each side of ac = bd for variants 3 and 5, of ad = bc for 4 and 6.
    for r1, r2, want3, want5 in (
        (Representation(3, 1), Representation(4, 2), (22, 10), (12, 22)),
        (Representation(2, 2), Representation(3, 3), (18, 0), (18, 18)),
    ):
        assert compose_minus(r1, r2, 3) == want3
        assert compose_minus(r1, r2, 5) == want5
    for r1, r2, want4, want6 in (
        (Representation(3, 1), Representation(5, 1), (21, 2), (21, 19)),
        (Representation(2, 1), Representation(4, 2), (14, 0), (14, 14)),
        (Representation(3, 1), Representation(4, 2), (20, 2), (18, 20)),
    ):
        assert compose_minus(r1, r2, 4) == want4
        assert compose_minus(r1, r2, 6) == want6


def test_compose_minus_rejects_bad_variant():
    with pytest.raises(ValueError):
        compose_minus(Representation(1, 0), Representation(1, 0), 2)
    with pytest.raises(ValueError):
        compose_minus(Representation(1, 0), Representation(1, 0), 7)


@given(canonical_pairs(50), canonical_pairs(50), st.sampled_from((3, 4, 5, 6)))
@example(Representation(1, 1), Representation(1, 1), 5)
def test_compose_minus_multiplies_values(r1, r2, variant):
    x, y = compose_minus(r1, r2, variant)
    assert x >= 0 and y >= 0
    assert evaluate_minus(x, y) == r1.value * r2.value


def test_convert_plus_to_minus_known_values():
    assert convert_plus_to_minus(Representation(2, 1)) == ((2, 3), (1, 3))
    assert convert_plus_to_minus(Representation(1, 1)) == ((1, 2), (1, 2))
    assert convert_plus_to_minus(Representation(1, 0)) == ((1, 1), (0, 1))


def test_convert_minus_to_plus_known_values():
    assert convert_minus_to_plus(2, 3) == (2, 1)
    assert convert_minus_to_plus(1, 2) == (1, 1)
    assert convert_minus_to_plus(0, 1) == (1, 0)


def test_convert_rejects_misordered_pair():
    with pytest.raises(ValueError):
        convert_minus_to_plus(3, 2)
    with pytest.raises(ValueError):
        convert_plus_to_minus(Representation(1, 2))


@given(canonical_pairs(10**6))
@example(Representation(0, 0))
@example(Representation(4, 4))
def test_convert_round_trip(rep):
    first, second = convert_plus_to_minus(rep)
    assert (first == second) == (rep.a == rep.b)
    for x, y in (first, second):
        assert x * x - x * y + y * y == rep.value
        assert convert_minus_to_plus(x, y) == rep
