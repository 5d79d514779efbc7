import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qybe import (
    OSPQ12,
    DeformParams,
    QybeError,
    SLQ2,
    build_irrep,
    commutant_nullspace,
    composite_space,
    constraint_system,
    descendant_family,
    elementary_ops,
    hecke_family,
    membership,
    principal_angles,
)
from qybe.commutant import _nullspace_from_system, _sector_layout, _sectors_of
from qybe.coupling import ladder_weights
from qybe.repspace import nfold_coproduct
from qybe.toolkit import family_guards, random_points
from conftest import params_for


def test_elementary_ops_count_and_composition(params_sl, rng):
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    ops = elementary_ops(U)
    assert len(ops) == U.dim ** 2
    # composition law on random pairs
    for _ in range(100):
        a, b = rng.integers(0, len(ops), 2)
        A, B = ops[a], ops[b]
        prod = A.matrix() @ B.matrix()
        if A.source == B.target:
            expect = np.zeros((U.dim, U.dim), dtype=complex)
            expect[A.row, B.col] = 1.0
        else:
            expect = np.zeros((U.dim, U.dim), dtype=complex)
        assert np.abs(prod - expect).max() == 0
    # diagonal resolution of identity
    diag = sum(op.matrix() for op in ops if op.source == op.target)
    assert np.abs(diag - np.eye(U.dim)).max() == 0


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_of_irrep_pair(algebra):
    # V^2 (x) V^2 decomposes into two distinct blocks: the commutant of the
    # pair action is two dimensional (the two projectors)
    p = params_for(algebra)
    rep = build_irrep(algebra, 2, p)
    U = composite_space(rep, n=1, params=p)
    nb = commutant_nullspace(U, 2, p)
    assert nb.dim == 2


def test_commutant_single_copy_dims(params_sl):
    # n = 1: the commutant of U itself is the span of the per-block
    # projectors, dimension = sum of squared multiplicities
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 1, params_sl)
    assert nb.dim == 2  # blocks 3 and 5, multiplicity one each
    cb, _ = constraint_system(U, 1, params_sl)
    assert cb.dim == 2


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_u8_dimension_46(algebra):
    p = params_for(algebra)
    rep = build_irrep(algebra, 3, p)
    U = composite_space(rep, n=2, params=p)
    nb = commutant_nullspace(U, 2, p)
    assert nb.dim == 46  # 2^2 + 4^2 + 4^2 + 3^2 + 1^2
    cb, _ = constraint_system(U, 2, p)
    assert cb.dim == 46
    assert float(np.max(principal_angles(nb, cb))) < 1e-8


def test_commutant_dim_matches_multiplicities(params_sl):
    # brute-force dimension equals the sum of squared multiplicities of the
    # full product decomposition
    from qybe.coupling import decompose

    rep = build_irrep(SLQ2, 2, params_sl)
    U = composite_space(rep, n=2, params=params_sl)  # single triplet block
    nb = commutant_nullspace(U, 2, params_sl)
    chain = nfold_coproduct(SLQ2, [U.replike()] * 2, params_sl.q)
    mult = decompose(chain, params_sl).block_multiplicities()
    assert nb.dim == sum(m * m for m in mult.values())


def test_constraint_system_matches_nullspace_v2(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    U = composite_space(rep, n=1, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    cb, sys_mat = constraint_system(U, 2, params_sl)
    assert nb.dim == cb.dim == 2
    assert float(np.max(principal_angles(nb, cb))) < 1e-10
    assert sys_mat.shape[1] == 6  # weight sectors 1 + 4 + 1 coefficients


def test_weight_conservation_is_built_in(params_sl):
    # any commutant element annihilates weight-violating components exactly
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    wts = np.real(np.diag(nfold_coproduct(SLQ2, [U.replike()] * 2, params_sl.q).H)) / 2
    for m in nb.matrices()[:5]:
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if abs(wts[i] - wts[j]) > 1e-9:
                    assert abs(m[i, j]) < 1e-10


def test_descendant_samples_are_members(params_sl, rng):
    # samples of the fused solution lie in the centralizer, whichever of the
    # two constructions provides the basis
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    cb, _ = constraint_system(U, 2, params_sl)
    fam = descendant_family(rep, params_sl)
    for u in random_points(rng, 3, guards=family_guards(fam), min_dist=0.1):
        for basis in (nb, cb):
            ok, coef, resid = membership(fam.check_fn(u), basis)
            assert ok and resid < 1e-9


def test_bond_terms_are_centralizer_elements(params_sl):
    from qybe import hamiltonian_projector_form

    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    bundle = hamiltonian_projector_form(rep, 2, params_sl)
    for term in (bundle.pbar_cell, bundle.phat_cell):
        ok, coef, resid = membership(term, nb)
        assert ok and resid < 1e-9


def test_hecke_samples_are_members(params_osp, rng):
    rep = build_irrep(OSPQ12, 3, params_osp)
    U = composite_space(rep, n=1, params=params_osp)
    nb = commutant_nullspace(U, 2, params_osp)
    fam = hecke_family(rep, params_osp)
    for u in random_points(rng, 3, guards=family_guards(fam)):
        ok, coef, resid = membership(fam.check_fn(u), nb)
        assert ok and resid < 1e-9


def test_identity_is_member(params_sl):
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    ok, coef, resid = membership(np.eye(U.dim ** 2), nb)
    assert ok and resid < 1e-10


def test_generator_is_not_member(params_sl):
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    chain = nfold_coproduct(SLQ2, [U.replike()] * 2, params_sl.q)
    ok, coef, resid = membership(chain.E, nb)
    assert not ok and resid > 1e-3


def test_random_matrix_rejected(params_sl, rng):
    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(rep, n=2, params=params_sl)
    nb = commutant_nullspace(U, 2, params_sl)
    m = rng.normal(size=(U.dim ** 2, U.dim ** 2))
    ok, coef, resid = membership(m, nb)
    assert not ok and resid > 1e-3


def _dense_nullspace(sys_mat, total):
    """Reference: one dense SVD of the whole system, same rank threshold."""
    _, s, vh = np.linalg.svd(sys_mat)
    thresh = max(1.0, s.max()) * total * 1e-11
    return vh.conj().T[:, int(np.sum(s > thresh)):]


@st.composite
def _hidden_block_systems(draw):
    """Block-diagonal systems with well-separated singular values (in
    [0.5, 2] or exactly 0), some columns no row touches, ~1e-15 fill-in
    entries anywhere, and rows and columns shuffled."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           min_size=1, max_size=5))
    free = draw(st.integers(0, 3))
    rows, cols, kernel_dim = sum(m for m, _ in shapes), sum(n for _, n in shapes) + free, free
    mat = np.zeros((rows, cols), dtype=complex)
    i = j = 0
    for m, n in shapes:
        rank = draw(st.integers(0, min(m, n)))
        qa, _ = np.linalg.qr(gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m)))
        qb, _ = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
        sv = gen.uniform(0.5, 2.0, rank)
        mat[i:i + m, j:j + n] = (qa[:, :rank] * sv) @ qb[:, :rank].conj().T
        kernel_dim += n - rank
        i, j = i + m, j + n
    fill = gen.random(mat.shape) < draw(st.floats(0.0, 0.3))
    mat += fill * 1e-15 * (gen.normal(size=mat.shape) + 1j * gen.normal(size=mat.shape))
    mat *= 10.0 ** draw(st.integers(-3, 3))
    return mat[np.ix_(gen.permutation(rows), gen.permutation(cols))], kernel_dim


@settings(max_examples=80, deadline=None)
@given(_hidden_block_systems())
def test_blocked_nullspace_matches_dense_svd(case):
    mat, kernel_dim = case
    null, _ = _nullspace_from_system(mat, mat.shape[1])
    dense = _dense_nullspace(mat, mat.shape[1])
    assert null.shape == dense.shape == (mat.shape[1], kernel_dim)
    assert np.abs(null.conj().T @ null - np.eye(kernel_dim)).max(initial=0.0) < 1e-12
    if kernel_dim:
        assert float(np.max(principal_angles(null, dense))) < 1e-10


def test_rank_ambiguity_raises():
    # singular values 1, 1e-10 | 1e-11, 0 around the threshold 4e-11: a
    # gap of 10 cannot tell the rank
    with pytest.raises(QybeError, match="rank ambiguity"):
        _nullspace_from_system(np.diag([1.0, 1e-10, 1e-11, 0.0]), 4)


def test_nullspace_residual_guard_raises():
    # a thousand rows of 9e-13 fall under the 1e-12 pattern cut-off, so
    # column 1 looks free, but together they give it a singular value of
    # 2.8e-11, above the threshold 2e-11 of the full system
    sys_mat = np.zeros((1001, 2))
    sys_mat[0, 0] = 1.0
    sys_mat[1:, 1] = 9e-13
    with pytest.raises(QybeError, match="residual"):
        _nullspace_from_system(sys_mat, 2)


@pytest.mark.parametrize("q", [0.7, 1.9, complex(1.1, 0.4)])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_routes_agree_at_generic_q(algebra, q):
    p = DeformParams(q=q, algebra=algebra)
    U = composite_space(build_irrep(algebra, 3, p), n=2, params=p)
    nb = commutant_nullspace(U, 2, p)
    cb, _ = constraint_system(U, 2, p)
    assert nb.dim == cb.dim == 46
    assert float(np.max(principal_angles(nb, cb))) < 1e-8


@pytest.mark.parametrize("r,fits", [(4, True), (5, False)])
def test_commutant_budget_from_sector_layout(r, fits, params_sl):
    # the layout sizes the dense system before anything of that size exists:
    # r = 4 gives 11544 x 6021 entries, r = 5 gives 61600 x 31652
    U = composite_space(build_irrep(SLQ2, r, params_sl), n=2, params=params_sl)
    co = nfold_coproduct(SLQ2, [U.replike()] * 2, params_sl.q)
    sectors = _sectors_of(ladder_weights(co))
    if fits:
        _sector_layout(sectors, co.dim)
    else:
        with pytest.raises(QybeError, match="budget"):
            _sector_layout(sectors, co.dim)
