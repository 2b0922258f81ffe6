"""Selective classification toolkit.

Trains small dense classifiers under plain, abstaining, and three-head
selective objectives, ranks test samples with interchangeable soft
selection scores, calibrates coverage thresholds on held-out data, and
emits risk-coverage tables and score histograms.
"""

import os

# One BLAS thread unless the environment says otherwise. Training is bound
# by Python dispatch on small matrices, where extra BLAS threads cost CPU
# and buy little, and `selcls grid` already runs one worker per CPU.
# Takes effect only if numpy has not been imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
