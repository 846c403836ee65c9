"""Exact and numerical computation of the Tian-Zhu functional F(V) and the
modified Futaki invariant Fut_V(W) for Fano complete intersections in
projective space, from purely combinatorial input, with a finite-level
trace oracle and a solver for the candidate soliton field.
"""

from .exactalg import (DEFAULT_PRECISION_BITS, Dual, EvalAtPole, ExpPoly,
                       ExpPolyParseError, LaurentPoly, PoleAtZero,
                       PrecisionNotReached)
from .futaki import (expand_integrand, f_function, f_function_via_recursion,
                     f_numeric, fut_derivative)
from .geometry import (CompleteIntersectionSpec, DiagonalField,
                       InadmissibleDirection, InconsistentWeights,
                       MalformedSupport, NotFano, NotTraceless,
                       ValidationError, anticanonical_degree, derive_weights,
                       validate)
from .localization import (RecursionCheck, i0l_symbolic, ik0_symbolic,
                           verify_recursion)
from .quantize import ConvergenceRow, convergence_report, fk, nk
from .soliton import (AdmissibleTorus, NoConvergence, SolitonResult,
                      admissible_torus, find_soliton)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleTorus", "CompleteIntersectionSpec", "ConvergenceRow",
    "DEFAULT_PRECISION_BITS", "DiagonalField", "Dual",
    "EvalAtPole", "ExpPoly", "ExpPolyParseError", "InadmissibleDirection",
    "InconsistentWeights", "LaurentPoly", "MalformedSupport", "NoConvergence",
    "NotFano", "NotTraceless", "PoleAtZero", "PrecisionNotReached",
    "RecursionCheck", "SolitonResult", "ValidationError", "admissible_torus",
    "anticanonical_degree", "convergence_report",
    "derive_weights", "expand_integrand", "f_function",
    "f_function_via_recursion", "f_numeric", "find_soliton", "fk",
    "fut_derivative", "i0l_symbolic", "ik0_symbolic", "nk", "validate",
    "verify_recursion",
]
