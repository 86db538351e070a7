import os
for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import pytest

from convexcontact import validation


@pytest.fixture(autouse=True)
def _cold_validation_memos():
    """Every test starts with empty criterion-1 memos, so that what a test
    counts (kernel builds, kernel calls) does not depend on the test before."""
    validation._draws.cache_clear()
    validation._evaluated.cache_clear()
