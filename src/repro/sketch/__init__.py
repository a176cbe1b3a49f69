"""Linear sketches: count-sketch, count-min, AMS, p-stable, L0."""

from .ams import AMSSketch
from .count_min import CountMin
from .count_sketch import CountSketch, err_m2, rows_for_universe
from .l0_estimator import L0Estimator
from .linear import LinearSketch
from .stable import StableSketch, stable_median

__all__ = [
    "AMSSketch", "CountMin", "CountSketch", "err_m2", "rows_for_universe",
    "L0Estimator", "LinearSketch", "StableSketch", "stable_median",
]
