"""Arithmetic of the hexagonal norm form a^2 + ab + b^2 over 64-bit integers.

The values this form attains are the Loeschian numbers. The library
decides membership, enumerates and constructs witnesses, composes
representations, counts them from the factorization, and ships sweep
harnesses that cross-check all of it over ranges.
"""

from .factorize import (
    GeneralForm,
    PrimeClass,
    RHO_SEED,
    classify_prime,
    factor,
    is_prime,
)
from .forms import (
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
from .represent import (
    NotRepresentableError,
    Verdict,
    count_formula,
    cube_root_unity,
    divide_by_square,
    enumerate_reps,
    general_form,
    is_loeschian,
    rational_lift,
    represent_fast,
    represent_prime,
)
from .verify import (
    Mismatch,
    SweepRange,
    VerificationReport,
    emit_sequence,
    verify_conjecture,
    verify_factor_theorem,
    verify_prime_theorems,
    verify_residues,
)

__version__ = "0.1.0"

__all__ = [
    "GeneralForm",
    "Mismatch",
    "NotRepresentableError",
    "PrimeClass",
    "RHO_SEED",
    "Representation",
    "SweepRange",
    "U64_MAX",
    "Verdict",
    "VerificationReport",
    "canonicalize",
    "check_identities",
    "classify_prime",
    "compose",
    "compose_minus",
    "convert_minus_to_plus",
    "convert_plus_to_minus",
    "count_formula",
    "cube_root_unity",
    "divide_by_square",
    "emit_sequence",
    "enumerate_reps",
    "evaluate",
    "evaluate_minus",
    "factor",
    "general_form",
    "is_loeschian",
    "is_prime",
    "rational_lift",
    "represent_fast",
    "represent_prime",
    "solve_b",
    "verify_conjecture",
    "verify_factor_theorem",
    "verify_prime_theorems",
    "verify_residues",
]
