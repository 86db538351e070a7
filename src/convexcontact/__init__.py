"""Convex incremental-potential contact models and benchmark tooling."""

import os as _os

# Multithreaded BLAS reductions are not bitwise reproducible run to run, and
# the matrices here are far too small to benefit from threads anyway.  Set
# before the first numpy import; explicit user settings win.  (No effect if
# numpy was already imported by the embedding application.)
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .normal_laws import (  # noqa: E402
    BarrierBreach,
    DiscreteNormal,
    HuntCrossley,
    IpcBarrier,
    LogBarrier,
    UnsupportedLaw,
    convexity_margin,
    discrete_impulse,
    normal_force,
)
from .potentials import (  # noqa: E402
    MODEL_IDS,
    ContactData,
    FrictionParams,
    PotentialEval,
    evaluate,
    naive_impulse,
)

__version__ = "0.1.0"
