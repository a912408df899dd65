"""Phase integral approximations for coupled Schrodinger-type ODE systems.

Library layout:

    jets         truncated Taylor series arithmetic (the derivative carrier)
    expressions  analytic expression language (parse / diff / jet evaluation)
    problem      reduction to u'' + R u = 0 and the split R = G/lambda^2 + a I
    spectral     eigenvalue branches, gauges, Schwartzian, eps0
    scalar       scalar corrections Y_2n, Wave containers, singularity models
    vector       the four coupled-system theories and wave assembly (any N)
    verify       currents, Wronskians, residuals, reference integration
    cli          command line front end (`pia`)
"""

from .errors import PhaseIntegralError
from .jets import Jet, jet_arith, jet_derivative, jet_elem
from .expressions import diff_expr, eval_expr_jet, parse_expr
from .problem import (ProblemSpec, ReducedProblem, langer_auxiliary,
                      load_problem, reduce_first_derivative, split_R)
from .spectral import (BranchField, EigenBranch, eigen_n2_closed_form,
                       eigen_track, epsilon0, kato_gauge, schwartzian)
from .scalar import (ScalarCorrections, Wave, WaveSample, model_epsilon00,
                     scalar_corrections)
from .vector import (CorrectionEngine, CorrectionSet, assemble_vector_wave,
                     p_coefficients, vector_corrections)

__all__ = [
    "PhaseIntegralError", "Jet", "jet_arith", "jet_derivative", "jet_elem",
    "diff_expr", "eval_expr_jet", "parse_expr",
    "ProblemSpec", "ReducedProblem", "langer_auxiliary", "load_problem",
    "reduce_first_derivative", "split_R",
    "BranchField", "EigenBranch", "eigen_n2_closed_form", "eigen_track",
    "epsilon0", "kato_gauge", "schwartzian",
    "ScalarCorrections", "Wave", "WaveSample", "model_epsilon00",
    "scalar_corrections",
    "CorrectionEngine", "CorrectionSet", "assemble_vector_wave",
    "p_coefficients", "vector_corrections",
]

__version__ = "0.1.0"
