import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qybe import (
    OSPQ12,
    DeformParams,
    QybeError,
    SLQ2,
    build_irrep,
    cgc_table,
    commutant_nullspace,
    composite_space,
    constraint_system,
    descendant_family,
    hecke_family,
    principal_angles,
)
from qybe import commutant
from qybe.commutant import (
    SystemEntries,
    _ladder_generators,
    _nullspace_from_system,
    _sector_layout,
)
from qybe.repspace import Site, ladder_weights, nfold_coproduct
from qybe.toolkit import random_points
from conftest import pair_table, params_for, sample_points
from oracles import block_multiplicities, dense_basis, membership


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_of_irrep_pair(algebra):
    # V^2 (x) V^2 decomposes into two distinct blocks: the commutant of the
    # pair action is two dimensional (the two projectors)
    p = params_for(algebra)
    rep = build_irrep(2, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=1)
    nb = commutant_nullspace(U, 2)
    assert nb.dim == 2


def test_commutant_single_copy_dims(params_sl):
    # n = 1: the commutant of U itself is the span of the per-block
    # projectors, dimension = sum of squared multiplicities
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 1)
    assert nb.dim == 2  # blocks 3 and 5, multiplicity one each
    cb = constraint_system(U, 1)
    assert cb.dim == 2


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_u8_dimension_46(algebra):
    p = params_for(algebra)
    rep = build_irrep(3, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    assert nb.dim == 46  # 2^2 + 4^2 + 4^2 + 3^2 + 1^2
    cb = constraint_system(U, 2)
    assert cb.dim == 46
    assert float(np.max(principal_angles(nb, cb))) < 1e-8
    # each basis is held on the 646 sector unknowns, not on the 4096
    # entries of a vectorized 64 x 64 matrix
    for basis in (nb, cb):
        assert basis.coeffs.size <= 646 * 46 and basis.flat.size == 646


def test_commutant_dim_matches_multiplicities(params_sl):
    # brute-force dimension equals the sum of squared multiplicities of the
    # full product decomposition
    from qybe.coupling import decompose

    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)  # single triplet block
    nb = commutant_nullspace(U, 2)
    chain = nfold_coproduct([U.gens] * 2)
    mult = block_multiplicities(decompose(chain))
    assert nb.dim == sum(m * m for m in mult.values())


def test_constraint_system_matches_nullspace_v2(params_sl, monkeypatch):
    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=1)
    nb = commutant_nullspace(U, 2)
    systems = []
    solve = commutant._nullspace_from_system
    monkeypatch.setattr(commutant, "_nullspace_from_system",
                        lambda system: systems.append(system) or solve(system))
    cb = constraint_system(U, 2)
    assert nb.dim == cb.dim == 2
    assert float(np.max(principal_angles(nb, cb))) < 1e-10
    assert [system.shape[1] for system in systems] == [6]  # weight sectors 1 + 4 + 1


def test_weight_conservation_is_built_in(params_sl):
    # any commutant element annihilates weight-violating components exactly
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    wts = np.real(np.diag(nfold_coproduct([U.gens] * 2).H)) / 2
    d = U.dim ** 2
    for m in dense_basis(nb, d)[:, :5].T.reshape(-1, d, d):
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if abs(wts[i] - wts[j]) > 1e-9:
                    assert abs(m[i, j]) < 1e-10


def test_descendant_samples_are_members(params_sl, rng):
    # samples of the fused solution lie in the centralizer, whichever of the
    # two constructions provides the basis
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    cb = constraint_system(U, 2)
    fam = descendant_family(U)
    for u in sample_points(rng, 3, guards=fam.guards, min_dist=0.1):
        for basis in (nb, cb):
            ok, coef, resid = membership(fam.check_fn(u), basis)
            assert ok and resid < 1e-9


def test_bond_terms_are_centralizer_elements(params_sl):
    from qybe.fusion import pair_cells

    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    for term in pair_cells(U):
        ok, coef, resid = membership(term, nb)
        assert ok and resid < 1e-9


def test_hecke_samples_are_members(params_osp, rng):
    rep = build_irrep(3, params_osp)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=1)
    nb = commutant_nullspace(U, 2)
    fam = U.hecke
    for u in random_points(rng, 3, guards=fam.guards):
        ok, coef, resid = membership(fam.check_fn(u), nb)
        assert ok and resid < 1e-9


def test_identity_is_member(params_sl):
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    ok, coef, resid = membership(np.eye(U.dim ** 2), nb)
    assert ok and resid < 1e-10


def test_generator_is_not_member(params_sl):
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    chain = nfold_coproduct([U.gens] * 2)
    ok, coef, resid = membership(chain.E, nb)
    assert not ok and resid > 1e-3


def test_random_matrix_rejected(params_sl, rng):
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    nb = commutant_nullspace(U, 2)
    m = rng.normal(size=(U.dim ** 2, U.dim ** 2))
    ok, coef, resid = membership(m, nb)
    assert not ok and resid > 1e-3


def _dense_nullspace(sys_mat, total):
    """Reference: one dense SVD of the whole system, same rank threshold."""
    _, s, vh = np.linalg.svd(sys_mat)
    thresh = max(1.0, s.max()) * total * 1e-11
    return vh.conj().T[:, int(np.sum(s > thresh)):]


def _entry_system(mat):
    """The nonzero entries of a dense system, in the solver's input form."""
    row, col = np.nonzero(mat)
    return SystemEntries(row, col, mat[row, col], mat.shape)


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
    null, _ = _nullspace_from_system(_entry_system(mat))
    dense = _dense_nullspace(mat, mat.shape[1])
    assert null.shape == dense.shape == (mat.shape[1], kernel_dim)
    assert np.abs(null.conj().T @ null - np.eye(kernel_dim)).max(initial=0.0) < 1e-12
    if kernel_dim:
        assert float(np.max(principal_angles(null, dense))) < 1e-10


def test_rank_ambiguity_raises():
    # singular values 1, 1e-10 | 1e-11, 0 around the threshold 4e-11: a
    # gap of 10 cannot tell the rank
    with pytest.raises(QybeError, match="rank ambiguity"):
        _nullspace_from_system(_entry_system(np.diag([1.0, 1e-10, 1e-11, 0.0])))


def test_nullspace_residual_guard_raises():
    # a thousand rows of 9e-13 fall under the 1e-12 pattern cut-off, so
    # column 1 looks free, but together they give it a singular value of
    # 2.8e-11, above the threshold 2e-11 of the full system
    sys_mat = np.zeros((1001, 2))
    sys_mat[0, 0] = 1.0
    sys_mat[1:, 1] = 9e-13
    with pytest.raises(QybeError, match="residual"):
        _nullspace_from_system(_entry_system(sys_mat))


@pytest.mark.parametrize("q", [0.7, 1.9, complex(1.1, 0.4)])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_commutant_routes_agree_at_generic_q(algebra, q):
    p = DeformParams(q=q, algebra=algebra)
    U = composite_space(hecke_family(pair_table(algebra, 3, p)), n=2)
    nb = commutant_nullspace(U, 2)
    cb = constraint_system(U, 2)
    assert nb.dim == cb.dim == 46
    assert float(np.max(principal_angles(nb, cb))) < 1e-8
    # the angles on the coefficient rows are those of the dense views
    d = U.dim ** 2
    assert np.array_equal(principal_angles(nb, cb),
                          principal_angles(dense_basis(nb, d), dense_basis(cb, d)))


def test_principal_angles_refuse_bases_on_different_layouts(params_sl):
    # the routes must agree on the sectors: bases on two layouts are not
    # compared on whatever rows they happen to share
    U = composite_space(hecke_family(pair_table(SLQ2, 2, params_sl)), n=2)
    nb = commutant_nullspace(U, 2)
    cb = constraint_system(U, 2)
    with pytest.raises(QybeError, match="different sector layouts"):
        principal_angles(commutant_nullspace(U, 1), nb)
    moved = commutant.CommutantBasis(cb.coeffs, cb.flat[::-1].copy())
    with pytest.raises(QybeError, match="different sector layouts"):
        principal_angles(nb, moved)


@pytest.mark.parametrize("r,fits", [(4, True), (5, False)])
def test_commutant_budget_from_sector_layout(r, fits, params_sl):
    # the layout sizes the system, rows x unknowns, before anything is built:
    # r = 4 gives 11544 x 6021 entries, r = 5 gives 61600 x 31652
    U = composite_space(hecke_family(pair_table(SLQ2, r, params_sl)), n=2)
    co = nfold_coproduct([U.gens] * 2)
    sectors = Site(co.parities, ladder_weights(co)).sectors
    if fits:
        _sector_layout(sectors, co.dim)
    else:
        with pytest.raises(QybeError, match="budget"):
            _sector_layout(sectors, co.dim)


@pytest.mark.parametrize("r,n_U,n", [(2, 1, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (4, 2, 2)])
@pytest.mark.parametrize("q", [1.3, 0.7, complex(1.1, 0.4)])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_ladder_generators_match_dense_coproduct(algebra, q, r, n_U, n):
    # what the two routes do not share: constraint_system writes Delta^n(e),
    # Delta^n(f) as Kronecker terms of the block ladders and sums the
    # sectors from the keys of U.site; commutant_nullspace takes both from
    # the dense iterated coproduct
    p = DeformParams(q=q, algebra=algebra)
    U = composite_space(hecke_family(pair_table(algebra, r, p)), n=n_U)
    co = nfold_coproduct([U.gens] * n)
    for ladder, dense in zip(_ladder_generators(U, n), (co.E, co.F)):
        assert np.abs(ladder - dense).max() <= 1e-12 * np.abs(dense).max()
    ladder = Site.product(*[U.site] * n).sectors
    dense = Site(co.parities, ladder_weights(co)).sectors
    assert list(ladder) == list(dense)
    assert all(np.array_equal(ladder[k], dense[k]) for k in dense)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_ladder_generators_stay_inside_the_blocks(algebra, n):
    # every nonzero of route 2's Delta^n(e), Delta^n(f) moves exactly one
    # slot of the product state, to its neighbour one up (e) or one down
    # (f) in the same block, never across a block boundary.  U8 is V5 + V3
    # and its generators hold exact zeros between the blocks, so a crossing
    # entry is planted there for the cut to remove
    U = composite_space(hecke_family(pair_table(algebra, 3)), n=2)
    assert [b.r for b in U.decomposition.blocks] == [5, 3]
    block = np.repeat([0, 1], [5, 3])
    E, F = U.gens.E.copy(), U.gens.F.copy()
    E[4, 5] = F[5, 4] = 1.0
    planted = replace(U, gens=replace(U.gens, E=E, F=F))
    shape = (U.dim,) * n
    for G, step in zip(_ladder_generators(planted, n), (-1, 1)):
        tgt, src = (np.array(np.unravel_index(k, shape)) for k in np.nonzero(G))
        assert src.shape[1]
        moved = tgt - src  # slot by entry
        assert np.all(np.count_nonzero(moved, axis=0) == 1)
        assert np.all(moved.sum(axis=0) == step)
        a = src[np.argmax(moved != 0, axis=0), np.arange(src.shape[1])]
        assert np.array_equal(block[a], block[a + step])


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("q", [1.3, complex(1.1, 0.4)])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_basis_commutes_with_dense_generators(algebra, q, r, n):
    # both routes share the system assembly, so their principal angles
    # cannot see a fault in it: check every basis matrix against the dense
    # Delta^n(e), Delta^n(f), Delta^n(h) directly
    p = DeformParams(q=q, algebra=algebra)
    U = composite_space(hecke_family(pair_table(algebra, r, p)), n=2)
    co = nfold_coproduct([U.gens] * n)
    for basis in (commutant_nullspace(U, n), constraint_system(U, n)):
        assert basis.dim > 0
        for C in dense_basis(basis, U.dim ** n).T.reshape(basis.dim, U.dim ** n, U.dim ** n):
            for X in (co.E, co.F, co.H):
                comm = np.abs(X @ C - C @ X).max()
                assert comm <= 1e-12 * np.abs(X).max() * np.abs(C).max()


def test_constraint_system_refuses_before_writing_generators(params_sl, monkeypatch):
    # r = 5, n = 2 is a 61600 x 31652 system: the layout refuses it from the
    # summed per-state keys, before any d x d generator exists
    U = composite_space(hecke_family(pair_table(SLQ2, 5, params_sl)), n=2)

    def written(*args):
        raise AssertionError("generators written for a refused request")

    monkeypatch.setattr(commutant, "_ladder_generators", written)
    with pytest.raises(QybeError, match="budget"):
        constraint_system(U, 2)


@pytest.mark.parametrize("r,n", [(5, 2), (2, 7)])
def test_commutant_nullspace_refuses_before_the_dense_coproduct(r, n, params_sl, monkeypatch):
    # r = 5, n = 2 is a 61600 x 31652 system and r = 2, n = 7 one on 2187
    # states: both are refused from the summed per-state keys, before the
    # d x d coproduct generators exist
    U = composite_space(hecke_family(pair_table(SLQ2, r, params_sl)), n=2)

    def built(*args):
        raise AssertionError("dense coproduct built for a refused request")

    monkeypatch.setattr(commutant, "nfold_coproduct", built)
    with pytest.raises(QybeError, match="budget"):
        commutant_nullspace(U, n)


def _kron_system(layout, E, F):
    """Reference: the dense centralizer system written with np.kron, the
    pair of sectors (k, k + step) as kron(A, 1) on the unknowns of C_k and
    -kron(1, A^T) on those of C_{k+step}, A = (E or F)[tgt, src]."""
    total, _, rows, blocks = layout
    sys_mat = np.zeros((rows, total), dtype=complex)
    for step, src, tgt, off1, off2, block_rows in blocks:
        A = (E if step == 2 else F)[np.ix_(tgt, src)]
        m1, m2 = len(src), len(tgt)
        sys_mat[block_rows, off1:off1 + m1 * m1] = np.kron(A, np.eye(m1))
        sys_mat[block_rows, off2:off2 + m2 * m2] = -np.kron(np.eye(m2), A.T)
    return sys_mat


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_entry_system_matches_kron_assembly(algebra, r, n, monkeypatch):
    # each route's system, written entry by entry, is the Kronecker
    # assembly of its own generators and layout, entry for entry
    U = composite_space(hecke_family(pair_table(algebra, r)), n=2)
    inputs, systems = [], []
    centralizer, solve = commutant._centralizer, commutant._nullspace_from_system
    monkeypatch.setattr(commutant, "_centralizer",
                        lambda *args: inputs.append(args) or centralizer(*args))
    monkeypatch.setattr(commutant, "_nullspace_from_system",
                        lambda system: systems.append(system) or solve(system))
    commutant_nullspace(U, n)
    constraint_system(U, n)
    assert len(inputs) == len(systems) == 2
    for (layout, E, F), system in zip(inputs, systems):
        expect = _kron_system(layout, E, F)
        assert system.shape == expect.shape
        assert len(set(zip(system.row.tolist(), system.col.tolist()))) == system.row.size
        dense = np.zeros(system.shape, dtype=complex)
        dense[system.row, system.col] = system.val
        assert np.array_equal(dense, expect)


def test_principal_angles_are_symmetric_for_unequal_dimensions(rng):
    # span(A) inside span(B), dim 2 and 5: both orders give two zero
    # angles; for a generic pair both orders give the same two angles,
    # those of the cosines of the orthonormal bases.  Rows where both bases
    # vanish do not change the angles.
    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    B = np.zeros((20, 5), dtype=complex)
    B[:12] = rand(12, 5)
    A = B @ rand(5, 2)
    for pair in ((A, B), (B, A)):
        angles = principal_angles(*pair)
        assert angles.shape == (2,) and angles.max() < 1e-12
    C = np.zeros((20, 2), dtype=complex)
    C[4:16] = rand(12, 2)
    cos = np.linalg.svd(np.linalg.qr(C)[0].conj().T @ np.linalg.qr(B)[0], compute_uv=False)
    expect = np.sort(np.arccos(np.clip(cos, 0.0, 1.0)))
    for pair in ((C, B), (B, C), (C[:16], B[:16])):
        angles = principal_angles(*pair)
        assert angles.shape == (2,) and np.abs(angles - expect).max() < 1e-8


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constraint_system_peak_memory_u8():
    # U8 (x) U8: the centralizer system is 1200 x 646, and written densely
    # it alone would take 12.4 MB
    U = composite_space(hecke_family(pair_table(SLQ2, 3)), n=2)
    assert _traced_peak(constraint_system, U, 2) < 1200 * 646 * 16


def test_commutant_nullspace_peak_memory_u8():
    # U8 (x) U8: the basis is 646 x 46 coefficients (0.5 MB); written as
    # vectorized 64 x 64 matrices it alone would be 4096 x 46 (3 MB), and the
    # solver keeps no component block past its SVD and its residual
    U = composite_space(hecke_family(pair_table(SLQ2, 3)), n=2)
    assert _traced_peak(commutant_nullspace, U, 2) < 4 * 2 ** 20


def test_principal_angles_peak_memory_u8():
    # the two 46-dimensional bases of U8 (x) U8 hold 646 x 46 coefficients
    # each; their dense views would be 4096 x 46 each (3 MB)
    U = composite_space(hecke_family(pair_table(SLQ2, 3)), n=2)
    nb, cb = commutant_nullspace(U, 2), constraint_system(U, 2)
    assert nb.dim == cb.dim == 46
    assert _traced_peak(principal_angles, nb, cb) < 4 * 2 ** 20
