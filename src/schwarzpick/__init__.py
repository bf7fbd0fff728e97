"""Numerical verification of high-order Schwarz-Pick derivative bounds for
holomorphic maps between complex unit balls."""

from . import bounds, cauchy, geometry, harness, multiindex
from .bounds import check_inequality
from .geometry import (AutomorphismMap, ExtremalK1Map, ExtremalOriginMap, Remark2Map, Remark3Map,
                       Remark4Map, bergman_metric)
from .harness import Report, SuiteConfig, run_suite
from .holomap import HoloMap, LineMap, PolyMap, random_polymap

__version__ = "0.1.0"

__all__ = [
    "AutomorphismMap",
    "ExtremalK1Map",
    "ExtremalOriginMap",
    "HoloMap",
    "LineMap",
    "PolyMap",
    "Remark2Map",
    "Remark3Map",
    "Remark4Map",
    "Report",
    "SuiteConfig",
    "bergman_metric",
    "bounds",
    "cauchy",
    "check_inequality",
    "geometry",
    "harness",
    "multiindex",
    "random_polymap",
    "run_suite",
]
