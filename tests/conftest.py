import os

# one BLAS thread, set before numpy is first imported: the suite's timings
# and memory peaks then do not depend on how the library splits its work,
# and the seed-42 pins (tests/test_seed42_pins.py), whose residuals are
# bit-exact at one thread, hold whatever the calling environment asks for
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from qybe import DeformParams, OSPQ12, SLQ2, build_irrep, cgc_table
from qybe.rmatrix import PROBES


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


def blockwise_probes(sectors, rng):
    """The per-sector probe driver that whole-space probe columns replaced,
    kept as a reference for `rmatrix.probed_residual`: `sectors` yields,
    per weight sector, the factor blocks (lhs, rhs) of A B C ... and
    A' B' C' ..., each block an array or a stack on its last two axes.
    Each side is applied, one block at a time from the right, to PROBES
    random complex unit columns of its sector, drawn sector by sector from
    one child of `rng`; the residual is max|lhs - rhs| over all sectors
    divided by max(1, max|lhs|, max|rhs|) over all sectors, per stacked
    pair, and the largest of those is returned."""
    probe = rng.spawn(1)[0]
    top = lambda x: np.abs(x).max(axis=(-2, -1))
    diff = scale = 0.0
    for lhs, rhs in sectors:
        size = lhs[-1].shape[-1]
        X = probe.standard_normal((size, PROBES)) + 1j * probe.standard_normal((size, PROBES))
        X = X / np.linalg.norm(X, axis=0)
        a, b = X, X
        for block in reversed(lhs):
            a = block @ a
        for block in reversed(rhs):
            b = block @ b
        diff = np.maximum(diff, top(a - b))
        scale = np.maximum(scale, np.maximum(top(a), top(b)))
    return float(np.max(diff / np.maximum(1.0, scale)))
