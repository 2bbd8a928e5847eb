"""Command line front end: one subcommand per operation, text or JSON output.

JSON documents carry every mathematical integer as a decimal string so
consumers face no precision cliff near 2^64; small metadata fields such as
variant, workers, and elapsed_ms stay native. Exit codes: 0 success,
1 negative mathematical answer, 2 usage error, 3 overflow, 4 internal error
(a failed self-check inside the library, reported without a traceback).
"""

import argparse
import json
import os
import sys
from collections.abc import Iterable
from fractions import Fraction

from .factorize import factor
from .forms import (
    U64_MAX,
    Representation,
    canonicalize,
    compose,
    compose_minus,
    convert_minus_to_plus,
    convert_plus_to_minus,
)
from .represent import (
    NotRepresentableError,
    count_formula,
    cube_root_unity,
    enumerate_reps,
    is_loeschian,
    rational_lift,
    represent_fast,
    represent_prime,
)
from .verify import (
    SweepRange,
    _sequence,
    verify_conjecture,
    verify_factor_theorem,
    verify_prime_theorems,
    verify_residues,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INTERNAL = 4


def _u64(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value <= U64_MAX:
        raise argparse.ArgumentTypeError(f"{text} is outside the unsigned 64-bit range")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction")


def _pair(pair) -> list[str]:
    a, b = pair
    return [str(a), str(b)]


def _pair_text(pair) -> str:
    a, b = pair
    return f"[{a}, {b}]"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loeschian",
        description="Arithmetic of the form a^2 + ab + b^2: "
        "representability, witnesses, composition, verification sweeps.",
    )
    parser.add_argument("--json", action="store_true", help="emit a single JSON document")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, handler, *operands: str) -> argparse.ArgumentParser:
        """A subcommand whose positionals, named by operands, are unsigned 64-bit integers."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="emit a single JSON document")
        for operand in operands:
            p.add_argument(operand, type=_u64)
        p.set_defaults(handler=handler)
        return p

    add("classify", "decide whether N is a value of the form", _cmd_classify, "n")

    p = add("represent", "list or construct representations of N", _cmd_represent, "n")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--all", action="store_true",
                     help="every representation, ascending second entry")
    how.add_argument("--fast", action="store_true",
                     help="construct one witness from the factorization instead of every product")

    add("count", "number of canonical representations of N", _cmd_count, "n")
    add("prime-rep", "canonical representation of a prime", _cmd_prime_rep, "p")
    add("root", "cube root of unity below P/2 for a prime P = 1 (mod 6)", _cmd_root, "p")

    p = add("compose", "compose two pairs into a pair representing the product", _cmd_compose,
            "a", "b", "c", "d")
    p.add_argument("--variant", type=int, choices=range(1, 7), default=1, metavar="1..6",
                   help="rules 1 and 2 target the plus form, 3 to 6 the minus form")

    p = add("convert", "move a pair between the plus and minus forms", _cmd_convert, "a", "b")
    p.add_argument("--direction", choices=("plus-to-minus", "minus-to-plus"),
                   default="plus-to-minus")

    p = add("lift", "integer value and witness for a rational point", _cmd_lift)
    p.add_argument("alpha", type=_fraction, help="nonnegative fraction like 5/7")
    p.add_argument("beta", type=_fraction)

    p = add("sequence", "ascending representable values from 0 up to a limit", _cmd_sequence)
    p.add_argument("--limit", type=_u64, required=True)

    add("factor", "prime factorization of N", _cmd_factor, "n")

    p = add("verify", "run a checking sweep and report mismatches", _cmd_verify)
    p.add_argument("kind", choices=("conjecture", "residues", "primes", "factors"))
    p.add_argument("--max", type=_u64, required=True, dest="bound",
                   help="sweep bound: hi for conjecture, limit for residues and primes, "
                        "largest pair entry for factors")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel workers for conjecture (default: CPU count)")
    p.add_argument("--seed", type=int, default=42, help="sampling seed for factors")
    p.add_argument("--samples", type=int, default=200, help="sample count for factors")

    return parser


def _cmd_classify(args):
    verdict = is_loeschian(args.n)
    if verdict.representable:
        doc = {"n": str(args.n), "representable": True, "witness": _pair(verdict.witness)}
        return EXIT_OK, doc, [f"representable; witness {_pair_text(verdict.witness)}"]
    p, e = verdict.obstruction
    doc = {"n": str(args.n), "representable": False,
           "obstruction": {"prime": str(p), "exponent": str(e)}}
    return EXIT_NEGATIVE, doc, [f"not representable; witness prime {p} has odd exponent {e}"]


def _cmd_represent(args):
    if args.all:
        reps = enumerate_reps(args.n)
        doc = {"n": str(args.n), "representations": [_pair(r) for r in reps]}
        if not reps:
            return EXIT_NEGATIVE, doc, [f"{args.n} is not representable"]
        return EXIT_OK, doc, [_pair_text(r) for r in reps]
    if args.fast:
        rep = represent_fast(args.n) if args.n else Representation(0, 0)
    else:
        reps = enumerate_reps(args.n)
        rep = reps[0] if reps else None
    if rep is None:
        doc = {"n": str(args.n), "representation": None}
        return EXIT_NEGATIVE, doc, [f"{args.n} is not representable"]
    return EXIT_OK, {"n": str(args.n), "representation": _pair(rep)}, [_pair_text(rep)]


def _cmd_count(args):
    representations = count_formula(args.n)
    doc = {"n": str(args.n), "count": str(representations)}
    code = EXIT_OK if representations else EXIT_NEGATIVE
    return code, doc, [str(representations)]


def _cmd_prime_rep(args):
    rep = represent_prime(args.p)
    return EXIT_OK, {"p": str(args.p), "representation": _pair(rep)}, [_pair_text(rep)]


def _cmd_root(args):
    z = cube_root_unity(args.p)
    return EXIT_OK, {"p": str(args.p), "root": str(z)}, [str(z)]


def _cmd_compose(args):
    first = canonicalize(args.a, args.b)
    second = canonicalize(args.c, args.d)
    doc = {"first": _pair(first), "second": _pair(second), "variant": args.variant}
    if args.variant in (1, 2):
        result = compose(first, second, args.variant)
        doc["form"] = "plus"
    else:
        result = compose_minus(first, second, args.variant)
        doc["form"] = "minus"
    doc["result"] = _pair(result)
    return EXIT_OK, doc, [_pair_text(result)]


def _cmd_convert(args):
    if args.direction == "plus-to-minus":
        rep = canonicalize(args.a, args.b)
        pairs = convert_plus_to_minus(rep)
        doc = {"direction": args.direction, "input": _pair(rep),
               "pairs": [_pair(p) for p in pairs]}
        return EXIT_OK, doc, [_pair_text(p) for p in pairs]
    rep = convert_minus_to_plus(args.a, args.b)
    doc = {"direction": args.direction, "input": [str(args.a), str(args.b)],
           "representation": _pair(rep)}
    return EXIT_OK, doc, [_pair_text(rep)]


def _cmd_lift(args):
    value, rep = rational_lift(args.alpha, args.beta)
    doc = {"alpha": str(args.alpha), "beta": str(args.beta),
           "value": str(value), "representation": _pair(rep)}
    return EXIT_OK, doc, [f"{value} {_pair_text(rep)}"]


def _cmd_sequence(args):
    # One lazy stream of terms, read only by the output that runs: text writes
    # each term as it comes, JSON lists them once through json.dumps' default.
    terms = map(str, _sequence(args.limit))
    return EXIT_OK, {"limit": str(args.limit), "terms": terms}, terms


def _cmd_factor(args):
    factors = factor(args.n)
    doc = {"n": str(args.n), "factors": [[str(p), str(e)] for p, e in factors]}
    if not factors:
        return EXIT_OK, doc, ["1"]
    text = " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in factors)
    return EXIT_OK, doc, [text]


def _cmd_verify(args):
    if args.kind == "conjecture":
        report = verify_conjecture(SweepRange(1, args.bound, args.workers))
    elif args.kind == "residues":
        report = verify_residues(args.bound)
    elif args.kind == "primes":
        report = verify_prime_theorems(args.bound)
    else:
        report = verify_factor_theorem(args.bound, args.samples, args.seed)
    doc = {
        "kind": args.kind,
        "lo": str(report.sweep.lo),
        "hi": str(report.sweep.hi),
        "workers": report.sweep.workers,
        "checked": str(report.checked),
        "mismatches": [
            {"n": str(m.n), "expected": m.expected, "actual": m.actual}
            for m in report.mismatches
        ],
        "elapsed_ms": round(report.elapsed_ms, 3),
    }
    if args.kind == "factors":
        doc["samples"] = str(args.samples)
        doc["seed"] = str(args.seed)
    lines = [
        f"{args.kind} sweep [{report.sweep.lo}, {report.sweep.hi}]"
        f" workers={report.sweep.workers}: checked {report.checked},"
        f" mismatches {len(report.mismatches)} ({report.elapsed_ms:.0f} ms)"
    ]
    lines += [f"n={m.n} expected={m.expected} actual={m.actual}" for m in report.mismatches]
    return (EXIT_OK if report.ok else EXIT_NEGATIVE), doc, lines


def _emit(as_json: bool, doc: dict, lines: Iterable[str]) -> None:
    if as_json:
        print(json.dumps(doc, separators=(",", ":"), default=list))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, print, and hand back the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, doc, lines = args.handler(args)
    except NotRepresentableError as exc:
        code, doc, lines = EXIT_NEGATIVE, {"representable": False, "detail": str(exc)}, [str(exc)]
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(args.json, doc, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does. Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
