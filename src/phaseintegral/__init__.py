"""Phase integral approximations for coupled Schrodinger-type ODE systems.

Library layout:

    jets         truncated Taylor series arithmetic (the derivative carrier)
    expressions  analytic expression language (parse / diff / jet evaluation)
    problem      reduction to u'' + R u = 0, the split R = G/lambda^2 + a I,
                 and the auxiliary a(x) (Langer form, singularity models)
    spectral     eigenvalue branches, gauges, Schwartzian, eps0
    vector       the four coupled-system theories and wave assembly (any N,
                 N = 1 the scalar equation)
    verify       Wave containers, currents, Wronskians, residuals,
                 reference integration
    cli          command line front end (`pia`)
"""

from .errors import PhaseIntegralError
from .jets import Jet, jet_arith, jet_derivative, jet_elem
from .expressions import diff_expr, eval_expr_jet, parse_expr
from .problem import (ProblemSpec, ReducedProblem, langer_auxiliary,
                      load_problem, model_epsilon00, reduce_first_derivative,
                      split_R)
from .spectral import (BranchField, EigenBranch, eigen_n2_closed_form,
                       eigen_track, epsilon0, kato_gauge, schwartzian)
from .vector import (CorrectionEngine, CorrectionSet, assemble_vector_wave,
                     p_coefficients, vector_corrections)
from .verify import Wave, WaveSample

__all__ = [
    "PhaseIntegralError", "Jet", "jet_arith", "jet_derivative", "jet_elem",
    "diff_expr", "eval_expr_jet", "parse_expr",
    "ProblemSpec", "ReducedProblem", "langer_auxiliary", "load_problem",
    "reduce_first_derivative", "split_R",
    "BranchField", "EigenBranch", "eigen_n2_closed_form", "eigen_track",
    "epsilon0", "kato_gauge", "schwartzian",
    "Wave", "WaveSample", "model_epsilon00",
    "CorrectionEngine", "CorrectionSet", "assemble_vector_wave",
    "p_coefficients", "vector_corrections",
]

__version__ = "0.1.0"
