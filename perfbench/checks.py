"""Answer checkers: each compares a library answer with the benchmark's own
arithmetic, or with a property every correct answer must have.

A checker returns None on a correct answer and raises WrongAnswer otherwise.
`self_check` feeds each checker one wrong answer and fails if it is accepted.
"""

from fractions import Fraction
from types import SimpleNamespace

from numtheory import (
    is_prime,
    is_residual,
    obstruction,
    q_minus,
    q_plus,
    rep_count,
)


class WrongAnswer(Exception):
    pass


def need(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


def rep_of(n: int, rep) -> None:
    need(rep is not None, f"no representation of {n}")
    a, b = rep
    need(a >= b >= 0, f"{rep} is not canonical")
    need(q_plus(a, b) == n, f"{rep} does not carry {n}")


def factorization(n: int, factors, known: dict[int, int] | None = None) -> None:
    primes = [p for p, _ in factors]
    need(primes == sorted(set(primes)), f"factors of {n} not strictly ascending")
    product = 1
    for p, e in factors:
        need(e >= 1 and is_prime(p), f"({p}, {e}) is not a prime power factor of {n}")
        product *= p**e
    need(product == n, f"factors of {n} multiply to {product}")
    if known is not None:
        need(dict(factors) == known, f"factors of {n} differ from its construction")


def verdict(n: int, answer, known: dict[int, int] | None = None) -> None:
    if answer.representable:
        rep_of(n, answer.witness)
        if known is not None:
            need(obstruction(known) is None, f"{n} reported representable")
        return
    p, e = answer.obstruction
    need(is_prime(p) and is_residual(p) and e & 1, f"({p}, {e}) is no obstruction")
    need(n % p**e == 0 and n // p**e % p != 0, f"{p}^{e} is not the exact power in {n}")
    if known is not None:
        need((p, e) == obstruction(known), f"obstruction of {n} is not the smallest")


def count(n: int, answer: int, known: dict[int, int]) -> None:
    need(answer == rep_count(known), f"count of {n} is not {answer}")


def optional_rep(n: int, rep, known: dict[int, int]) -> None:
    if obstruction(known) is None:
        rep_of(n, rep)
    else:
        need(rep is None, f"{n} has no representation, got {rep}")


def primality(n: int, answer: bool) -> None:
    need(answer == is_prime(n), f"is_prime({n}) is not {answer}")


def cube_root(p: int, z: int) -> None:
    need(0 < z and 2 * z < p, f"root {z} of {p} is not in (0, p/2)")
    need((z * z + z + 1) % p == 0, f"{z} is not a cube root of unity mod {p}")


def composed(r1, r2, result, minus: bool = False) -> None:
    x, y = result
    target = q_plus(*r1) * q_plus(*r2)
    if minus:
        need(x >= 0 and y >= 0 and q_minus(x, y) == target, f"{result} does not carry {target}")
    else:
        rep_of(target, result)


def plus_to_minus(rep, pairs) -> None:
    need(len(pairs) == 2, f"{len(pairs)} pairs for {rep}")
    for x, y in pairs:
        need(x >= 0 and y >= 0 and q_minus(x, y) == q_plus(*rep), f"({x}, {y}) misses {rep}")


def minus_to_plus(x: int, y: int, rep) -> None:
    rep_of(q_minus(x, y), rep)


def lift(alpha: Fraction, beta: Fraction, answer) -> None:
    value = alpha * alpha + alpha * beta + beta * beta
    n, rep = answer
    need(value == n, f"lift of ({alpha}, {beta}) has value {value}, not {n}")
    rep_of(n, rep)


def enumeration(n: int, reps, known: dict[int, int]) -> None:
    for rep in reps:
        rep_of(n, rep)
    seconds = [b for _, b in reps]
    need(seconds == sorted(set(seconds)), f"representations of {n} not ascending")
    need(len(reps) == rep_count(known), f"{len(reps)} representations of {n}")


def sequence(limit: int, terms, flags) -> None:
    need(list(terms) == [v for v in range(limit + 1) if flags[v]], f"sequence to {limit}")


def report(answer, lo: int, hi: int, checked: int) -> None:
    need(not answer.mismatches, f"{len(answer.mismatches)} mismatches in [{lo}, {hi}]")
    need((answer.sweep.lo, answer.sweep.hi) == (lo, hi), f"sweep range {answer.sweep}")
    need(answer.checked == checked, f"checked {answer.checked}, expected {checked}")


def self_check() -> list[str]:
    """Names of checkers that accepted a deliberately wrong answer."""
    ns = SimpleNamespace
    wrong = {
        "rep_of": lambda: rep_of(7, (2, 0)),
        "factorization": lambda: factorization(12, [(2, 1), (3, 1)]),
        "factorization.known": lambda: factorization(15, [(3, 1), (5, 1)], {3: 1, 7: 1}),
        "verdict.witness": lambda: verdict(10, ns(representable=True, witness=(3, 0))),
        "verdict.obstruction": lambda: verdict(20, ns(representable=False, obstruction=(5, 2))),
        "verdict.known": lambda: verdict(4, ns(representable=False, obstruction=(2, 1)), {2: 2}),
        "count": lambda: count(49, 1, {7: 2}),
        "optional_rep": lambda: optional_rep(10, (3, 1), {2: 1, 5: 1}),
        "primality": lambda: primality(2**61 - 1, False),
        "cube_root": lambda: cube_root(7, 4),
        "composed": lambda: composed((2, 1), (3, 1), (8, 1)),
        "composed.minus": lambda: composed((2, 1), (2, 1), (8, 4), minus=True),
        "plus_to_minus": lambda: plus_to_minus((2, 1), [(2, 3), (1, 2)]),
        "minus_to_plus": lambda: minus_to_plus(2, 3, (2, 0)),
        "lift": lambda: lift(Fraction(5, 7), Fraction(3, 7), (1, (1, 1))),
        "enumeration": lambda: enumeration(91, [(9, 1)], {7: 1, 13: 1}),
        "sequence": lambda: sequence(4, [0, 1, 3], bytearray(b"\x01\x01\x00\x01\x01")),
        "report": lambda: report(ns(mismatches=[], sweep=ns(lo=1, hi=9), checked=8), 1, 9, 9),
    }
    accepted = []
    for name, call in wrong.items():
        try:
            call()
        except WrongAnswer:
            continue
        accepted.append(name)
    return accepted
