"""Numerical verification of high-order Schwarz-Pick derivative bounds for
holomorphic maps between complex unit balls."""

from . import bounds, cauchy, geometry, harness, multiindex
from .bounds import BoundReport, check_inequality, check_requests, lhs_quadratic
from .cauchy import frechet_derivative
from .geometry import bergman_metric, extremal_k1_map, extremal_origin_map, moebius_apply, remark_family
from .harness import Report, SuiteConfig, equality_suite, run_suite, sharpness_sweep
from .holomap import HoloMap, PolyMap, compose_ball_automorphism, random_polymap, restrict_to_line

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "HoloMap",
    "PolyMap",
    "Report",
    "SuiteConfig",
    "bergman_metric",
    "bounds",
    "cauchy",
    "check_inequality",
    "check_requests",
    "compose_ball_automorphism",
    "equality_suite",
    "extremal_k1_map",
    "extremal_origin_map",
    "frechet_derivative",
    "geometry",
    "harness",
    "lhs_quadratic",
    "moebius_apply",
    "multiindex",
    "random_polymap",
    "remark_family",
    "restrict_to_line",
    "run_suite",
    "sharpness_sweep",
]
