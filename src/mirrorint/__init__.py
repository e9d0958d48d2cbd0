"""Exact arithmetic for mirror maps and instanton integrality at MUM points.

From a Picard-Fuchs operator in delta form this package computes the
Frobenius solution basis, the canonical coordinate q(t) in the q'(0) = 1
gauge, the Yukawa coupling and its instanton numbers, and certifies their
p-adic integrality coefficient by coefficient (Dwork congruence, the
Kontsevich-Schwarz-Vologodsky criterion, and the Frobenius gauge equations).
Coefficients are exact rationals: series composition and reversion run
modulo primes below 2^62 and rebuild the exact rationals by CRT, checked
at one more prime, and the rest runs over Fraction.  No floating point is
involved anywhere.
"""

from .certify import (DworkCertificate, FailureLocus, GaugeCertificate,
                      IntegralityReport, KSVCertificate, OrderMismatch,
                      denominator_support, dwork_certify, gauge_certify,
                      ksv_certify, n_integrality_report)
from .fixtures import FIXTURES, fixture_names, fixture_operator, hypergeometric_doc
from .padic import (INF, NotPrime, PadicValuation, PrimeTooLarge, frobenius_substitute,
                    is_prime, primes_up_to, valuation)
from .picard_fuchs import (MalformedSpec, MirrorMap, MonodromyMatrix, NotMUM,
                           PFOperator, RankCheckFailed, SolutionBasis,
                           frobenius_solutions, load_operator, load_operator_json,
                           mirror_map, monodromy_matrix, residual)
from .pipeline import PipelineResult, run_pipeline
from .series import (CompositionValuation, CRTMismatch, ExpConstantTerm,
                     LogConstantTerm, LogSeries, RationalSeries, ReversionValuation,
                     SeriesError, ZeroLeadingCoefficient, exp_series, log_series)
from .yukawa import (InstantonSeries, InsufficientOrder, NotRankFour, YukawaData,
                     instanton_extract, lambert_expand, yukawa_q, yukawa_t)

__version__ = "0.1.0"

__all__ = [
    "CRTMismatch", "CompositionValuation", "DworkCertificate", "ExpConstantTerm",
    "FIXTURES", "FailureLocus", "GaugeCertificate", "InstantonSeries", "InsufficientOrder",
    "IntegralityReport", "KSVCertificate", "LogConstantTerm", "LogSeries",
    "MalformedSpec", "MirrorMap", "MonodromyMatrix",
    "NotMUM", "NotPrime", "NotRankFour", "OrderMismatch",
    "PFOperator", "PadicValuation", "PipelineResult", "PrimeTooLarge",
    "RankCheckFailed", "RationalSeries", "ReversionValuation", "SeriesError",
    "SolutionBasis", "YukawaData", "ZeroLeadingCoefficient",
    "denominator_support", "dwork_certify", "exp_series",
    "fixture_names", "fixture_operator", "frobenius_solutions",
    "frobenius_substitute", "gauge_certify", "hypergeometric_doc",
    "INF", "instanton_extract", "is_prime", "ksv_certify", "lambert_expand",
    "load_operator", "load_operator_json", "log_series", "mirror_map",
    "monodromy_matrix", "n_integrality_report", "primes_up_to",
    "residual", "run_pipeline", "valuation",
    "yukawa_q", "yukawa_t",
]
