"""Selective classification toolkit.

Trains small dense classifiers under plain, abstaining, and three-head
selective objectives, ranks test samples with interchangeable soft
selection scores, calibrates coverage thresholds on held-out data, and
emits risk-coverage tables and score histograms.
"""

__version__ = "0.1.0"
