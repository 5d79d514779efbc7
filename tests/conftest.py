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
from qybe.rmatrix import PROBES, sector_residual


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
    rep = build_irrep(r, params or params_for(algebra))
    return cgc_table(rep, rep)


def sample_points(rng, count, guards=(), min_dist=0.05):
    """`count` points of the box |Re u| < 1, |Im u| < 0.2, drawn one (Re, Im)
    pair at a time, rejecting any within min_dist of a guard: at the
    default min_dist, the points and draws of `toolkit.random_points`."""
    out = []
    while len(out) < count:
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2))
        if all(abs(u - g) > min_dist for g in guards):
            out.append(u)
    return out


def noncheck_ybe(fam, u, w, rng):
    """The probed residual of A12 B13 C23 = C23 B13 A12, A = R(u),
    B = R(u+w), C = R(w) the non-check matrices of `fam`, the 1-3 leg
    embedded through graded permutations, on three sites of the family."""
    A, B, C = (fam.noncheck(x) for x in (u, u + w, w))
    return sector_residual([(A, (0, 1)), (B, (0, 2)), (C, (1, 2))],
                           [(C, (1, 2)), (B, (0, 2)), (A, (0, 1))], [fam.site] * 3, rng)


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
