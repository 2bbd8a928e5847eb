"""Comparison-swap, dropped-if and off-by-one mutation run for a module of the loeschian package.

    python tools/mutants.py represent factorize forms cli verify

Each mutant swaps one comparison operator of the module (< and <=, > and >=, ==
and !=), or replaces the body of one if statement with pass, keeping its test
and any else (an elif is an if of its own), or, in the modules of OFF_BY_ONE,
turns one integer constant k (not a bool) into k + 1 or k - 1. Each mutant
meets the module's own test files, run with pytest in a copy of src/ and tests/
under a temporary directory, so the checkout is never touched. A mutant is
killed when the tests fail or run past five times the clean run, and at least
30 s (a hang counts as killed). Every surviving mutant must be named in
EQUIVALENT with the reason no input can tell it apart; an unnamed survivor, or
a named mutant that no longer survives, fails the run. Stdlib only, apart from
the test suite's own dependencies; it is not part of the tier-1 tests.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
TESTS = {
    "represent": ["test_represent.py", "test_cli.py", "test_imports.py", "test_forms.py"],
    "factorize": ["test_factorize.py"],
}
# Modules whose integer constants are mutated too; the published tables of
# factorize, and cli and verify, are not run under it yet.
OFF_BY_ONE = {"represent", "forms"}
# Survivors no test can kill, keyed "module: function: mutated comparison",
# "module: function: drop if <test>" or "module: function: <k> -> <k +- 1>".
EQUIVALENT = {
    "factorize: _window_factors: first > width":
        "at first == width the loop over range(first, width, p) is empty anyway",
    "factorize: _window_factors: drop if first >= width":
        "a prime with no multiple in the block visits an empty range, so the skip only saves work",
    "factorize: _rho_split: k <= r":
        "at k == r the extra batch runs min(128, r - k) = 0 steps and takes the same gcd",
    "factorize: _factor_hard: n <= _TRIAL_COVERED":
        "n = 1009^2 is a square, so the isqrt branch takes it before this test",
    "represent: _cube_root: drop if (z * z + z + 1) % p != 0":
        "a safety check: the first power w != 1 is a primitive cube root of unity (the docstring)",
    "represent: _prime_rep: u * u >= target":
        "u^2 = 4p would make p a square, so the descent never stops on equality",
    "represent: _prime_rep: a <= b":
        "a = b would give p = 3b^2, which is not a prime 1 (mod 6)",
    "represent: _prime_rep: drop if a < b or a * a + a * b + b * b != p":
        "a safety check: represent_prime's docstring proves the descent ends on a pair of value p",
    "represent: _witness: drop if a * a + a * b + b * b != n":
        "a safety check: each _times step multiplies the value by its pair's, so it ends at n",
    "represent: _reps: drop if any((a * a + a * b + b * b != n for a, b in reps))":
        "a safety check: each _times step multiplies the value by its pair's, so all end at n",
    "represent: <module>: 0 -> 1 #2":
        "the zero shape with one power of 3 steps (0, 0) by (1, 1), which leaves (0, 0)",
    "represent: _cube_root: 1 -> 0":
        "p = 1 (mod 3), so p // 3 is (p - 1) // 3",
    "represent: _cube_root: 2 -> 1":
        "1 is a cube, so the search goes on to 2 at once",
    "represent: _cube_root: 2 -> 3":
        "any cubic non-residue gives a primitive cube root, and min(w, p - 1 - w) is one for both",
    "represent: _cube_root: 1 -> 2 #3":
        "the (p - 1)/2 evens below p outnumber the cubic residues, so x = 2, 4, ... meets a non-residue",
    "represent: <module>: 1000 -> 1001":
        "7 + 6k steps from 997 to 1003, so the table keeps the same 80 primes",
    "represent: <module>: 1000 -> 999":
        "7 + 6k steps from 997 to 1003, so the table keeps the same 80 primes",
    "represent: rational_lift: n >= U64_MAX":
        "2^64 - 1 has the prime 5 to the first power, so no rational point has that value",
    "represent: rational_lift: drop if shape is None":
        "an integer value at a rational point is a value over the integers (the docstring)",
    "forms: evaluate: q >= U64_MAX":
        "2^64 - 1 has the prime 5 to the first power, so it is no value of the form",
    "forms: evaluate_minus: q >= U64_MAX":
        "the minus form takes the same values, and 2^64 - 1 is none of them",
    "forms: canonicalize: q >= U64_MAX":
        "2^64 - 1 has the prime 5 to the first power, so no signed pair has that value",
    "forms: canonicalize: c <= d":
        "at c = d the swap leaves the same pair",
    "forms: canonicalize: drop if c * c + c * d + d * d != q":
        "a safety check: the turn (c + d, -c) and the swap keep the value, so it is always q",
    **{f"forms: solve_b: {test}":
       "disc = 0 means 4n = 3a^2 with n >= 1, so a > 0 and t = -a < 0 gives None as well"
       for test in ("disc <= 0", "0 -> 1")},
    "forms: solve_b: 0 -> -1":
        "4n - 3a^2 = -1 needs 3a^2 = 1 (mod 4), which no a gives",
    "forms: solve_b: 0 -> -1 #2":
        "t = -1 is odd, so the parity test gives None as well",
    "forms: solve_b: 1 -> 0":
        "s^2 = 4n - 3a^2 = a^2 (mod 4), so s and a have one parity and t is always even",
    **{f"forms: check_identities: {test}":
       "an entry at the edge only takes the fallback _require_entries, whose exact bounds pass it"
       for x in "abcd" for test in (f"0 < {x} <= U64_MAX", f"0 <= {x} < U64_MAX")},
    **{f"forms: check_identities: 0 -> 1{suffix}":
       "an entry 0 only takes the fallback _require_entries, whose exact bounds pass it"
       for suffix in ("", " #2", " #3", " #4")},
    **{f"forms: _times: {test}":
       "at x = 0 the turn gives (y, 0), which ordering (0, y) gives as well"
       for test in ("x <= 0", "0 -> 1")},
    "forms: _times: x > y":
        "at x = y both branches return the same pair",
    "forms: compose: x * x + x * y + y * y >= U64_MAX":
        "2^64 - 1 has the prime 5 to the first power, so it is no product of two values",
    "forms: compose: 31 -> 30":
        "x >> 30 only sends more products to the exact overflow test",
    **{f"forms: compose_minus: {test}": "at x = 0 both branches give (y, 0)"
       for test in ("x > 0", "0 -> 1 #3")},
    "forms: compose_minus: 32 -> 31":
        "(x | y) >> 31 only sends more pairs to the exact overflow test",
    "forms: compose_minus: x * x - x * y + y * y >= U64_MAX":
        "2^64 - 1 has the prime 5 to the first power, so it is no product of two values",
    "verify: verify_residues: checked >= CONJECTURE_LIMIT":
        "10^8 is no (l + 1)(l + 2)/2, so no limit gives exactly that many pairs",
    "verify: _digits: drop if sys.byteorder == 'big'":
        "array('Q') is native-endian, so the swap runs on a big-endian host only",
    "verify: mismatches: 0 < rep.b <= rep.a":
        "a pair (a, 0) has the square value a^2, so no prime has a pair with b = 0",
    "verify: mismatches: x > y":
        "coprime entries are equal only at (1, 1), where both branches give the same pair",
}


def mutants(tree, off_by_one=False):
    """(key, node, field, mutated value) for every mutant, in source order."""
    found, seen = [], {}

    def add(key, node, field, value):
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        found.append((key, node, field, value))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Compare):
                for i, op in enumerate(child.ops):
                    if type(op) in SWAP:
                        ops = [*child.ops[:i], SWAP[type(op)](), *child.ops[i + 1:]]
                        swapped = ast.Compare(child.left, ops, child.comparators)
                        add(f"{inner}: {ast.unparse(swapped)}", child, "ops", ops)
            elif isinstance(child, ast.If):
                add(f"{inner}: drop if {ast.unparse(child.test)}", child, "body", [ast.Pass()])
            elif off_by_one and isinstance(child, ast.Constant) and type(child.value) is int:
                for k in (child.value + 1, child.value - 1):
                    add(f"{inner}: {child.value} -> {k}", child, "value", k)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def run_tests(work, files, timeout):
    """True when the test files pass in the copy at work; a timeout is a failure."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", "addopts=", "--hypothesis-seed=0", *(f"tests/{f}" for f in files)]
    try:
        return subprocess.run(command, cwd=work, env=env, capture_output=True,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run_module(name, work):
    """Mutate one module; print each surviving mutant and return the faults of its list."""
    path = work / "src" / "loeschian" / f"{name}.py"
    source = path.read_text()
    files = TESTS.get(name, [f"test_{name}.py"])
    start = time.monotonic()
    if not run_tests(work, files, None):
        return [f"{name}: the unmutated tests fail"]
    limit = max(30.0, 5 * (time.monotonic() - start))
    tree = ast.parse(source)
    found = mutants(tree, name in OFF_BY_ONE)
    survivors = []
    try:
        for key, node, field, value in found:
            kept = getattr(node, field)
            setattr(node, field, value)
            path.write_text(ast.unparse(tree))
            setattr(node, field, kept)
            if run_tests(work, files, limit):
                survivors.append(f"{name}: {key}")
                print(f"  survived  {key}", flush=True)
    finally:
        path.write_text(source)
    listed = {key for key in EQUIVALENT if key.startswith(f"{name}: ")}
    print(f"{name}: {len(found)} mutants, {len(survivors)} survived, "
          f"{time.monotonic() - start:.0f} s", flush=True)
    return ([f"not listed as equivalent: {key}" for key in survivors if key not in listed]
            + [f"listed but killed or gone: {key}" for key in sorted(listed - set(survivors))])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/loeschian")
    args = parser.parse_args(argv)
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copy
            copy(ROOT / part, work / part)
        for cache in work.rglob("__pycache__"):
            shutil.rmtree(cache)
        for name in args.modules:
            faults += run_module(name, work)
    for fault in faults:
        print(fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
