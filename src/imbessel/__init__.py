"""Real Bessel functions of imaginary order and their nu-zeros.

For fixed argument x > 0 the functions L(nu, x), K(nu, x), F(nu, x) and
G(nu, x) are real-valued oscillating functions of the order parameter
nu > 0. This package evaluates them in overflow-safe scaled form, predicts
the location of their n-th nu-zero with a Lambert-W based asymptotic
expansion (three corrections and nu*, the root of its phase equation), and
refines each from nu* to near machine accuracy by bracketing.
"""

from .asymcoeff import (A_coefficients, CoefficientSet,
                        CorrectionCoefficients, a_coefficients, c_polynomials,
                        coefficient_set, correction_coefficients)
from .besseval import (NU_MIN, FunctionKind, ScaledReal, c_series_sum,
                       detection_value, eval_function, series_sum)
from .cgamma import STIRLING_COEFFICIENTS, log_gamma, recip_gamma_prefactor
from .cli import main
from .errors import (BracketingError, ConvergenceError, DomainError,
                     EnumerationError)
from .lambertw import WResult, lambert_w0
from .zerofinder import (ZeroEstimate, ZeroRecord, asymptotic_zero,
                         enumerate_zeros, leading_xi, phase, refine_zero)

__version__ = "0.1.0"

__all__ = [
    "A_coefficients",
    "BracketingError",
    "CoefficientSet",
    "ConvergenceError",
    "CorrectionCoefficients",
    "DomainError",
    "EnumerationError",
    "FunctionKind",
    "NU_MIN",
    "STIRLING_COEFFICIENTS",
    "ScaledReal",
    "WResult",
    "ZeroEstimate",
    "ZeroRecord",
    "a_coefficients",
    "asymptotic_zero",
    "c_polynomials",
    "c_series_sum",
    "coefficient_set",
    "correction_coefficients",
    "detection_value",
    "enumerate_zeros",
    "eval_function",
    "lambert_w0",
    "leading_xi",
    "log_gamma",
    "main",
    "phase",
    "recip_gamma_prefactor",
    "refine_zero",
    "series_sum",
    "__version__",
]
