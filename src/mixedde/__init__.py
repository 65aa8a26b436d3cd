"""Nonoscillation certificates and positive-solution construction for
first-order mixed delay-advanced linear differential equations

    x'(t) + delta1*a(t)*x(g(t)) + delta2*b(t)*x(h(t)) = 0,  g(t) <= t <= h(t),

with variable nonnegative coefficients and arguments. The library evaluates a
catalog of explicit sufficient conditions on a finite window, constructs
positive monotone solutions by monotone fixed-point iteration on the
generating function, solves the associated characteristic and algebraic
feasibility problems, and cross-validates constructions by direct numerical
integration (waveform relaxation).
"""

from .charroots import (CharProblem, CharRootSet, SolutionClassification,
                        classify_solutions, find_real_roots, positive_root_exists)
from .construct import (ConstructionResult, GeneratingCandidate, auto_construct,
                        ineq_residual, iterate, synthesize_solution,
                        witness_candidate)
from .criteria import (ALL_CONDITION_IDS, Certificate, FeasibilityRegion,
                       check_all, check_cor_1_2, check_cor_1_3,
                       check_cor_1_4_remark, check_cor_2_x, check_cor_3_1,
                       check_divergence, check_sys30, check_thm_A_explicit,
                       check_thm_B_explicit, subequation_one_over_e_note,
                       sweep_region, sys30_values)
from .gridfn import GridFunction
from .model import (IVP, Bounds, CoefficientExpr, ExprSyntaxError, ProblemSpec,
                    ValidationReport, extract_bounds, parse_expr, read_ivp,
                    read_spec, validate_spec)
from .simulate import Trajectory, classify_trajectory, equation_residual, relax

__version__ = "0.1.0"

__all__ = [
    "CharProblem", "CharRootSet", "SolutionClassification",
    "classify_solutions", "find_real_roots", "positive_root_exists",
    "ConstructionResult", "GeneratingCandidate", "auto_construct",
    "ineq_residual", "iterate", "synthesize_solution", "witness_candidate",
    "ALL_CONDITION_IDS", "Certificate", "FeasibilityRegion", "check_all",
    "check_cor_1_2", "check_cor_1_3", "check_cor_1_4_remark", "check_cor_2_x",
    "check_cor_3_1", "check_divergence", "check_sys30", "check_thm_A_explicit",
    "check_thm_B_explicit", "subequation_one_over_e_note", "sweep_region",
    "sys30_values",
    "GridFunction",
    "IVP", "Bounds", "CoefficientExpr", "ExprSyntaxError", "ProblemSpec",
    "ValidationReport", "extract_bounds", "parse_expr", "read_ivp", "read_spec",
    "validate_spec",
    "Trajectory", "classify_trajectory", "equation_residual", "relax",
]
