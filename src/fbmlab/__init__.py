"""Numerics laboratory for multiplicative equations driven by Brownian
motion and regularized by a frozen fractional perturbation of the
coefficient argument.

The pipeline: sample exact fractional drivers, accumulate occupation
measures and local times, average coefficient fields along the
perturbation, sew germs into integrals, solve quenched ensembles for a
decreasing family of mollification radii, and verify the integral
identities that make the mollified limit meaningful.
"""

from .averaging import (AveragedField, HolderEstimate, RegularityBudget,
                        admissible_regularity, average_direct,
                        average_via_local_time, convolution_agreement_bound,
                        holder_exponent, hurst_admissible_fbm_driver,
                        hurst_admissible_main)
from .errors import (BlowUpError, ClampWarning, CoverageError, FbmLabError,
                     HypothesisError, InsufficientDataError,
                     IntegrabilityWarning, ParameterError, ResolutionError)
from .fields import (CLAMP_VALUE, MatrixField, MollifierSpec, ScalarField,
                     constant_field, hs_norm_sq, identity_field, lp_norm,
                     mollify, singular_example)
from .occupation import (OccupationMeasure, SpatialGrid, local_time,
                         occupation_formula_residual)
from .paths import FbmPath, TimeGrid, fbm_covariance, generate_fbm
from .sewing import Germ, SewingResult, sew
from .solver import (Ensemble, MollifiedCauchyReport, QuenchedScenario,
                     mollified_family)
from .verify import (WEIGHT_DICTIONARY_VERSION, IdentityReport,
                     MomentRatioReport, lebesgue_vs_sewing, moment_ratio,
                     moment_ratio_trend, quantized_perturbation,
                     weight_dictionary)

__version__ = "0.1.0"

__all__ = [
    "AveragedField", "BlowUpError", "CLAMP_VALUE", "ClampWarning",
    "CoverageError", "Ensemble", "FbmLabError", "FbmPath",
    "Germ", "HolderEstimate", "HypothesisError", "IdentityReport",
    "InsufficientDataError", "IntegrabilityWarning",
    "MatrixField", "MollifiedCauchyReport", "MollifierSpec",
    "MomentRatioReport", "OccupationMeasure", "ParameterError",
    "QuenchedScenario", "RegularityBudget", "ResolutionError", "ScalarField",
    "SewingResult", "SpatialGrid", "TimeGrid",
    "WEIGHT_DICTIONARY_VERSION",
    "admissible_regularity", "average_direct", "average_via_local_time",
    "constant_field", "convolution_agreement_bound",
    "fbm_covariance", "generate_fbm",
    "hs_norm_sq", "holder_exponent", "hurst_admissible_fbm_driver",
    "hurst_admissible_main", "identity_field",
    "lebesgue_vs_sewing", "local_time", "lp_norm", "moment_ratio",
    "moment_ratio_trend", "mollified_family", "mollify",
    "occupation_formula_residual", "quantized_perturbation", "sew",
    "singular_example", "weight_dictionary",
]
