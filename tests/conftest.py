import os

# one BLAS thread, set before numpy is first imported: the suite's timings
# and memory peaks then do not depend on how the library splits its work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from qybe import DeformParams, OSPQ12, SLQ2, build_irrep, cgc_table


@pytest.fixture(scope="session")
def params_sl():
    return DeformParams(q=1.3, algebra=SLQ2)


@pytest.fixture(scope="session")
def params_osp():
    return DeformParams(q=1.3, algebra=OSPQ12)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def params_for(algebra):
    return DeformParams(q=1.3, algebra=algebra)


def pair_table(algebra, r, params=None):
    """The coupling table of V^r (x) V^r."""
    rep = build_irrep(algebra, r, params or params_for(algebra))
    return cgc_table(rep, rep)
