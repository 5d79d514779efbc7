import tracemalloc

import numpy as np
import pytest

from qybe import (
    DeformParams,
    OSPQ12,
    PoleError,
    SLQ2,
    build_irrep,
    cgc_table,
    chi_factor,
    composite_space,
    descendant_family,
    descendant_r_closed,
    descendant_r_product,
    dims_recurrence,
    extended_lax,
    hecke_family,
    u0_point,
    ybe_residual,
)
from qybe.coupling import decompose
from qybe.fusion import adjacent_singlet_kernel, descendant_coefficients
from qybe.repspace import Site, coproduct_pair, embed_at, nfold_coproduct
from qybe.qarith import fits_desk
from qybe.rmatrix import r33_family, rel_residual
from conftest import pair_table, params_for, sample_points
from oracles import (
    _four_site_ops,
    block_multiplicities,
    composite_states,
    dense_kernel,
    descendant_c1_terms,
    extended_lax_closed,
    f_product,
    f_slope,
    fused_train_dense,
    metric_norms,
    pair_cells_dense,
    polynomial_form,
    spectral_decompose,
    truncation_cascade,
)


def desc_guards(rep, params):
    # poles of the outer-difference parameterization
    u0 = u0_point(chi_factor(pair_table(rep.algebra, rep.dim, params)), params.a)
    return (0.0, u0, -u0, 2 * u0, -2 * u0)


def fam_guards(rep, params):
    # poles in the additive family variable (shifted by u0)
    u0 = u0_point(chi_factor(pair_table(rep.algebra, rep.dim, params)), params.a)
    return (-u0, -2 * u0)


def test_dims_recurrence_values():
    for n in range(0, 7):
        assert dims_recurrence(2, n) == n + 1
    assert dims_recurrence(3, 0) == 1
    assert dims_recurrence(3, 1) == 3
    assert dims_recurrence(3, 2) == 8
    assert dims_recurrence(3, 3) == 21
    assert dims_recurrence(3, 4) == 55
    assert dims_recurrence(4, 2) == 15


@pytest.mark.parametrize("algebra,r,n", [
    (SLQ2, 2, 2), (SLQ2, 2, 3), (SLQ2, 2, 4),
    (SLQ2, 3, 2), (SLQ2, 3, 3),
    (OSPQ12, 3, 2), (OSPQ12, 3, 3), (OSPQ12, 2, 2),
])
def test_composite_space_dims(algebra, r, n):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
    assert U.dim == dims_recurrence(r, n)
    # left inverse and projector trace
    assert np.abs(U.project @ U.embed - np.eye(U.dim)).max() < 1e-10
    Q = U.embed @ U.project
    assert abs(np.trace(Q) - U.dim) < 1e-8


def _composite(algebra, q, r, n):
    return composite_space(hecke_family(pair_table(algebra, r, DeformParams(q=q, algebra=algebra))),
                           n=n)


def _off_sector(row_site, col_site):
    """Mask of the entries between states of different weight."""
    return np.not_equal.outer(row_site.keys, col_site.keys)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("q", [1.3, 0.9 + 0.4j])
@pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 7) for n in (2, 3)
                                 if fits_desk(r, n + 1)])
def test_composite_basis_is_weight_graded(algebra, q, r, n):
    # embed and project hold exact zeros between states of different weight
    U = _composite(algebra, q, r, n)
    off = _off_sector(Site.product(*[U.rep.site] * n), U.site)
    assert off.mean() > 0.5
    assert not U.embed[off].any()
    assert not U.project.T[off].any()


def test_composite_blocks_r3(params_sl):
    rep = build_irrep(3, params_sl)
    U2 = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    assert block_multiplicities(U2.decomposition) == {3: 1, 5: 1}
    U3 = composite_space(hecke_family(cgc_table(rep, rep)), n=3)
    assert block_multiplicities(U3.decomposition) == {1: 1, 3: 1, 5: 2, 7: 1}


def test_composite_r2_single_block(params_sl):
    rep = build_irrep(2, params_sl)
    for n in (2, 3, 4):
        U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
        assert block_multiplicities(U.decomposition) == {n + 1: 1}


def test_cascade_image_is_truncated_space(params_sl):
    # the pairwise degenerate-point product spans exactly the kernel
    # intersection and has the recurrence rank
    fam = hecke_family(pair_table(SLQ2, 3, params_sl))
    for n in (2, 3):
        G = truncation_cascade(fam, n)
        want = dims_recurrence(3, n)
        assert np.linalg.matrix_rank(G, tol=1e-8 * np.abs(G).max()) == want
        ker = dense_kernel(fam, n)
        resid = np.abs(G - ker @ (ker.conj().T @ G)).max()
        assert resid < 1e-9 * max(1.0, np.abs(G).max())


def _stacked_kernel(fam, n):
    """The oracle: the joint kernel of the adjacent singlet projectors from
    one SVD of all their rows stacked over the whole of (V^r)^(x n)."""
    P1 = np.eye(fam.dim ** 2) - fam.check_fn(fam.u0)
    pars = [fam.site.parities] * n
    rows = np.vstack([embed_at(P1, (k, k + 1), pars) for k in range(n - 1)])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[int(np.sum(s > 1e-10 * max(1.0, s.max()))):].conj().T


def _span_projector(M, tol=1e-9):
    """Orthogonal projector onto the column span of M."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    u = u[:, s > tol * max(1.0, s.max(initial=0.0))]
    return u @ u.conj().T


_KERNEL_CASES = [(algebra, r, n) for algebra in (SLQ2, OSPQ12)
                 for r, n in ((2, 3), (3, 3), (4, 3), (3, 4))]


@pytest.mark.parametrize("algebra,r,n", _KERNEL_CASES)
def test_sector_kernel_spans_the_stacked_kernel(algebra, r, n):
    # per weight sector, the columns found there span the oracle kernel's
    # part in that sector: the same subspace, whatever the basis inside it
    fam = hecke_family(pair_table(algebra, r))
    ker, oracle = adjacent_singlet_kernel(fam, n), _stacked_kernel(fam, n)
    assert oracle.shape == (r ** n, dims_recurrence(r, n))
    assert sum(piece.shape[1] for piece in ker.values()) == oracle.shape[1]
    for key, s in Site.product(*[fam.site] * n).sectors.items():
        piece = ker[key]
        assert np.allclose(piece.conj().T @ piece, np.eye(piece.shape[1]), atol=1e-12)
        mine, theirs = _span_projector(piece), _span_projector(oracle[s])
        assert np.abs(mine - theirs).max() < 1e-10


@pytest.mark.parametrize("algebra,r,n", _KERNEL_CASES)
def test_sector_kernel_columns_are_weight_pure(algebra, r, n):
    # the kernel is held on the states of each weight sector, every sector
    # keyed, and the composite space's embed and project are exact zeros
    # between weights
    fam = hecke_family(pair_table(algebra, r))
    ker, ambient = adjacent_singlet_kernel(fam, n), Site.product(*[fam.site] * n)
    assert list(ker) == list(ambient.sectors)
    assert all(ker[key].shape[0] == s.size for key, s in ambient.sectors.items())
    U = composite_space(fam, n)
    off = _off_sector(ambient, U.site)
    assert not U.embed[off].any()
    assert not U.project.T[off].any()


def test_u8_pair_multiplicities(params_sl):
    # (V3 + V5) x (V3 + V5) decomposes with multiplicities 2,4,4,3,1
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    dec = decompose(nfold_coproduct([U.gens] * 2))
    assert block_multiplicities(dec) == {1: 2, 3: 4, 5: 4, 7: 3, 9: 1}


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_product_equals_closed(algebra, r, rng):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    pts = sample_points(rng, 6, guards=desc_guards(rep, p), min_dist=0.06)
    worst = 0.0
    for u in pts:
        A = descendant_r_closed(U, u)
        B = descendant_r_product(U, u)
        worst = max(worst, rel_residual(A, B))
    assert worst < 1e-9


def _product_by_embeddings(U, u):
    # the six-factor product through dense embed_at factors, one point at a
    # time, compressed to U (x) U: the oracle of the stacked product
    fam = U.hecke
    u0 = fam.u0
    pars = [fam.site.parities] * 4
    Rc = lambda x, pos: embed_at(fam.check_fn(x), pos, pars)
    full = (Rc(u0, (0, 1)) @ Rc(u0, (2, 3))
            @ Rc(u, (1, 2)) @ Rc(u - u0, (0, 1)) @ Rc(u - u0, (2, 3))
            @ Rc(u - 2 * u0, (1, 2))
            @ Rc(u0, (0, 1)) @ Rc(u0, (2, 3)))
    return np.kron(U.project, U.project) @ full @ np.kron(U.embed, U.embed)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_stacked_descendant_product_equals_the_product_per_point(algebra, r, rng):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    u0 = U.hecke.u0
    pts = sample_points(rng, 4, guards=desc_guards(rep, p), min_dist=0.06) + [u0 + 1e-8]
    stacked = descendant_r_product(U, pts)
    assert stacked.shape == (5, U.dim ** 2, U.dim ** 2)
    for u, B in zip(pts[:4], stacked):
        assert rel_residual(B, _product_by_embeddings(U, u)) < 1e-11
    # inside the Richardson window: the extrapolation of the same products,
    # from a stencil centred on the point
    h = 1e-3
    mats = [_product_by_embeddings(U, pts[4] + dz) for dz in (h, -h, h / 2, -h / 2)]
    limit = (4 * (mats[2] + mats[3]) / 2 - (mats[0] + mats[1]) / 2) / 3
    assert rel_residual(stacked[4], limit) < 1e-8
    # a point alone is the matching member of the stack
    assert np.array_equal(descendant_r_product(U, pts[1]), stacked[1])
    assert np.array_equal(descendant_r_product(U, pts[4]), stacked[4])


def test_stacked_descendant_product_holds_one_copy_of_the_stack(rng):
    # with no point inside the Richardson window the product is the stack
    # the train returns, not a copy of it into a second array of points
    rep = build_irrep(5, params_for(SLQ2))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    descendant_r_product(U, 0.3)  # the pair sandwich is built once per space
    pts = np.array(sample_points(rng, 3, guards=desc_guards(rep, rep.params), min_dist=0.06))
    tracemalloc.start()
    try:
        stacked = descendant_r_product(U, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacked.shape == (3, 576, 576)
    assert peak < 1.5 * stacked.nbytes


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_pair_sandwich_matches_dense_placements(algebra, r, rng):
    # the per-sector sandwich of U (x) U is the dense route on (V^r)^(x4):
    # np.kron(project, project), the placed factors, np.kron(embed, embed);
    # and it is exactly zero between total-weight sectors.  The family on
    # the cells is the identity exactly at its regular point
    rep = build_irrep(r, params_for(algebra))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    off = _off_sector(*[Site.product(U.site, U.site)] * 2)
    for cell, dense in zip(U.cells, pair_cells_dense(U)):
        assert not cell[off].any()
        assert rel_residual(cell, dense) <= 1e-14
    assert np.array_equal(U.descendant.check_fn(0.0), np.eye(U.dim ** 2))
    pts = np.array(sample_points(rng, 3, guards=desc_guards(rep, rep.params), min_dist=0.06))
    stacked = descendant_r_product(U, pts)
    assert not stacked[:, off].any()
    assert rel_residual(stacked, fused_train_dense(U, pts)) <= 1e-13


@pytest.mark.parametrize("chi", [0.1, 0.2 + 0.05j, 0.02, 1e-3])
@pytest.mark.parametrize("a", [1.0, 0.5 + 0.2j])
def test_reduced_c1_is_the_f_factor_sum_and_exactly_zero_at_x1(chi, a):
    # c1 = 4 (x - 1) / ((s + 1) d1) is f14 + f23 (1 + f14) + 2 chi f14 f23 f13
    # reduced with chi = (1 - s^2)/4: the same rational at generic points,
    # and exactly 0 at x = 1 (u = u0), as c2 is, where the sum of the
    # f-factor terms is 0 only up to their cancellation
    u0 = u0_point(chi, a)
    for u in (0.3, -0.41 + 0.2j, 2.1, -1.3 - 0.4j, u0 + 0.5 + 0.3j):
        ref = descendant_c1_terms(u, chi, a, u0)
        assert abs(descendant_coefficients(u, chi, a, u0)[0] - ref) <= 1e-13 * abs(ref)
    assert descendant_coefficients(u0, chi, a, u0) == (0, 0)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_product_near_u0_equals_closed(algebra, r):
    # near the pole of the inner factor each point takes its own value: inside
    # the Richardson window from a stencil centred on it, outside it directly
    rep = build_irrep(r, params_for(algebra))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    u0 = U.hecke.u0
    pts = [u0 + dist * way for way in (1, 1j) for dist in (0, 1e-8, 5e-7, 2e-6, 1e-5, 1e-4)]
    for u, product in zip(pts, descendant_r_product(U, pts)):
        assert rel_residual(descendant_r_closed(U, u), product) < 1e-9, u - u0


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_identity_at_u0(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    u0 = u0_point(chi_factor(pair_table(algebra, r, p)), p.a)
    m = descendant_r_closed(U, u0)
    assert np.abs(m - np.eye((r * r - 1) ** 2)).max() < 1e-10
    # the family regular point sits at zero in the additive variable
    fam = descendant_family(U)
    assert np.abs(fam.check_fn(0.0) - np.eye(fam.dim ** 2)).max() < 1e-10
    # the product form reaches the same limit through extrapolation
    m2 = descendant_r_product(U, u0)
    assert np.abs(m2 - np.eye((r * r - 1) ** 2)).max() < 1e-8


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_family_guards_are_poles(algebra, r):
    # every guard a family carries is a pole of its check form: at the
    # guard and 1e-8 off it, check_fn raises PoleError or exceeds 1e6
    hecke = hecke_family(pair_table(algebra, r))
    fused = composite_space(hecke, 2).descendant
    assert len(hecke.guards) == 1 and len(fused.guards) == 2
    for fam in (hecke, fused):
        for g in fam.guards:
            for d in (0.0, 1e-8, -1e-8, 1e-8j, -1e-8j):
                try:
                    assert np.abs(fam.check_fn(g + d)).max() > 1e6
                except PoleError:
                    pass


def test_spin1_families_have_no_guards():
    table = pair_table(SLQ2, 3)
    assert [r33_family(kind, table).guards for kind in (1, 2, 3)] == [(), (), ()]


def test_descendant_product_pole_guard(params_sl):
    rep = build_irrep(2, params_sl)
    chi = chi_factor(pair_table(SLQ2, 2, params_sl))
    u0 = u0_point(chi, params_sl.a)
    # -u0 is far outside the Richardson window around u0: the factor
    # R12(u) is evaluated at its pole, and refuses
    with pytest.raises(PoleError):
        descendant_r_product(composite_space(hecke_family(cgc_table(rep, rep)), n=2), -u0 + 1e-12)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_descendant_invariance(algebra, r, rng):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    pair = nfold_coproduct([U.gens] * 2)
    u = sample_points(rng, 1, guards=fam_guards(rep, p), min_dist=0.06)[0]
    R = fam.check_fn(u)
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        assert rel_residual(R @ D, D @ R) < 1e-10


def test_descendant_ybe_r2(params_sl, rng):
    rep = build_irrep(2, params_sl)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_sl)
    pts = sample_points(rng, 4, guards=guards, min_dist=0.1)
    worst = max(ybe_residual(fam, u, w)
                for u in pts[:2] for w in pts[2:]
                if all(abs(u + w - g) > 0.06 for g in guards))
    assert worst < 1e-9


def test_descendant_ybe_r3_512(params_sl, rng):
    # the 512-dimensional triple-space check for the composite solution
    rep = build_irrep(3, params_sl)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_sl)
    pts = sample_points(rng, 4, guards=guards, min_dist=0.1)
    pairs = [(u, w) for u in pts[:2] for w in pts[2:]
             if all(abs(u + w - g) > 0.06 for g in guards)]
    worst = max(ybe_residual(fam, u, w) for u, w in pairs)
    assert worst < 1e-9


def test_descendant_ybe_osp_r3(params_osp, rng):
    rep = build_irrep(3, params_osp)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_osp)
    pts = sample_points(rng, 2, guards=guards, min_dist=0.1)
    u, w = pts
    if all(abs(u + w - g) > 0.06 for g in guards):
        assert ybe_residual(fam, u, w) < 1e-9


def test_descendant_r2_matches_fixture1(params_sl, rng):
    # the composite solution for the fundamental irrep lives on the 3x3
    # space and carries the same three-term structure as the first fixture:
    # term-by-term proportional expansions in the matching power basis
    import numpy.linalg as la

    q = params_sl.q
    p2 = params_for(SLQ2)
    # rebuild the fused family at the lattice scale so exp(2au) = q**u
    from qybe.qarith import DeformParams

    plat = DeformParams(q=q, a=np.log(q) / 2, algebra=SLQ2)
    rep = build_irrep(2, plat)
    hfam = hecke_family(cgc_table(rep, rep))
    dfam = descendant_family(composite_space(hfam, n=2))
    mats_d, res_d = spectral_decompose(dfam.noncheck, *polynomial_form(dfam, hfam.chi), r1=3,
                                       rng=rng)
    assert res_d < 1e-8
    fam1 = r33_family(1, pair_table(SLQ2, 3, params_sl))
    mats_f, res_f = spectral_decompose(fam1.noncheck, *polynomial_form(fam1), r1=3, rng=rng)
    assert res_f < 1e-9
    norms = [np.abs(m).max() for m in mats_d]
    keep = [k for k, nm in enumerate(norms) if nm > 1e-7 * max(norms)]
    assert len(keep) == 3
    # proportionality of coefficient spectra: compare eigenvalue ratios
    for k_d, k_f in zip(keep, range(3)):
        ev_d = np.sort(np.round(la.eigvals(mats_d[k_d]), 8))
        ev_f = np.sort(np.round(la.eigvals(mats_f[k_f]), 8))
        nz_d = ev_d[np.abs(ev_d) > 1e-7]
        nz_f = ev_f[np.abs(ev_f) > 1e-7]
        assert len(nz_d) == len(nz_f)
        ratios = nz_d / nz_f
        assert np.abs(ratios - ratios[0]).max() < 1e-6 * max(1, abs(ratios[0]))


@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_extended_lax_rll(r, n, params_sl, rng):
    rep = build_irrep(r, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    U = composite_space(fam, n=n)
    u, w = sample_points(rng, 2, guards=(-fam.u0,), min_dist=0.06)
    L13 = extended_lax(U, u)
    L23 = extended_lax(U, w)
    Rm = fam.swap @ fam.check_fn(u - w)
    pars = [rep.parities, rep.parities, U.site.parities]
    lhs = embed_at(Rm, (0, 1), pars) @ embed_at(L13, (0, 2), pars) \
        @ embed_at(L23, (1, 2), pars)
    rhs = embed_at(L23, (1, 2), pars) @ embed_at(L13, (0, 2), pars) \
        @ embed_at(Rm, (0, 1), pars)
    assert rel_residual(lhs, rhs) < 1e-9


def _dense_lax(U, u):
    """The whole crossing train on (V^r)^(x(n+1)), sandwiched densely."""
    rep, fam, n = U.rep, U.hecke, U.n
    pars = [rep.parities] * (n + 1)
    B = np.eye(rep.dim ** (n + 1), dtype=complex)
    for m in range(n, 0, -1):
        B = B @ embed_at(fam.swap @ fam.check_fn(u + (n - m) * fam.u0), (0, m), pars)
    return np.kron(np.eye(rep.dim), U.project) @ B @ np.kron(np.eye(rep.dim), U.embed)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("q", [1.3, 0.9 + 0.4j])
@pytest.mark.parametrize("r,n", [(r, n) for r in (2, 3, 4, 5) for n in (2, 3)]
                         + [(2, 4), (3, 4)])
def test_extended_lax_by_sector_matches_dense_train(algebra, q, r, n):
    # the sector build is exactly zero between total-weight sectors and is
    # the dense crossing train everywhere else
    U = _composite(algebra, q, r, n)
    w = Site.product(U.rep.site, U.site)
    off = _off_sector(w, w)
    for u in (0.37, 0.21 - 0.13j):
        L = extended_lax(U, u)
        dense = _dense_lax(U, u)
        assert not L[off].any()
        assert np.abs(L - dense).max() < 1e-12 * np.abs(dense).max()


def test_extended_lax_n1_is_pair_matrix(params_sl):
    rep = build_irrep(3, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    u = 0.37 + 0.08j
    # n = 1 composite is the irrep itself in its block basis
    U = composite_space(fam, n=1)
    L = extended_lax(U, u)
    R = fam.swap @ fam.check_fn(u)
    big = np.kron(np.eye(3), U.project) @ R @ np.kron(np.eye(3), U.embed)
    assert rel_residual(L, big) < 1e-12


def test_extended_lax_r2_spectral_two_terms(rng):
    # the fundamental-irrep tower gives the standard two-term operator
    q = 1.3
    plat = DeformParams(q=q, a=np.log(q), algebra=SLQ2)
    rep = build_irrep(2, plat)
    n = 3
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
    chi = chi_factor(pair_table(SLQ2, 2, plat))
    u0 = u0_point(chi, plat.a)

    s = np.sqrt(1 - 4 * chi + 0j)

    def poly_weight(u):
        out = 1.0
        for k in range(1, n + 1):
            x = np.exp(2 * plat.a * complex(u + (n - k) * u0))
            out = out * ((x - 1) * (-1.0) + s * (x + 1))
        return out

    # the non-check train on the mixed pair V^2 (x) U, in U-coordinates
    mats, resid = spectral_decompose(lambda u: extended_lax(U, u), poly_weight,
                                     lambda u: np.exp(2 * plat.a * complex(u)), r1=4, rng=rng)
    assert resid < 1e-8
    # proportional to a two-term family: the fitted coefficient matrices
    # span a two-dimensional space (the overall scalar spreads the two
    # constant matrices over the power lattice)
    stacked = np.stack([m.ravel() for m in mats])
    svals = np.linalg.svd(stacked, compute_uv=False)
    assert svals[1] > 1e-6 * svals[0]
    assert svals[2] < 1e-8 * svals[0]


@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_extended_lax_closed_form(r, n, params_sl, rng):
    rep = build_irrep(r, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
    evaluate, scale, fit_resid = extended_lax_closed(U)
    assert fit_resid < 1e-10
    fam = U.hecke
    pts = sample_points(rng, 20, guards=(-fam.u0,), min_dist=0.06)
    worst = 0.0
    for u in pts:
        A = evaluate(u)
        B = extended_lax(U, u)
        worst = max(worst, rel_residual(A, B))
    assert worst < 1e-8


def test_f_product_closed_rational_r2(rng):
    # with the lattice scale, the shifted product collapses to the closed
    # rational expression (-1-q^2)^n (q^{2u}-1)/(q^{2u}-q^{2n})
    from qybe.qarith import DeformParams

    q = 1.3
    plat = DeformParams(q=q, a=np.log(q), algebra=SLQ2)
    chi = chi_factor(pair_table(SLQ2, 2, plat))
    for n in (1, 2, 3, 4):
        for _ in range(5):
            u = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            if min(abs(q ** (2 * u) - q ** (2 * n)), abs(u)) < 1e-2:
                continue
            got = f_product(chi, plat.a, n, u)
            want = (-1 - q ** 2) ** n * (q ** (2 * u) - 1) / (q ** (2 * u) - q ** (2 * n))
            assert abs(got - want) < 1e-10 * max(1, abs(want))


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_composite_states(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    labels, psi = composite_states(U)
    eps = metric_norms(U.decomposition.basis, coproduct_pair(rep, rep))[0]
    assert psi.shape == (r * r - 1, r * r - 1)
    assert len(labels) == r * r - 1
    # each state has unit metric norm and already lives in the truncation
    for k in range(psi.shape[1]):
        nrm = psi[:, k] @ (eps * psi[:, k])
        assert abs(nrm - 1) < 1e-9
    assert np.linalg.matrix_rank(psi, tol=1e-9) == r * r - 1


def test_composite_states_r2_span_triplet(params_sl):
    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    labels, psi = composite_states(U)
    assert block_multiplicities(U.decomposition) == {3: 1}
    assert psi.shape == (3, 3)


def test_first_order_expansion_at_u0(params_sl):
    # linear response at the regular point has the two-projector structure
    # with equal coefficients f0 (finite differences + Richardson)
    rep = build_irrep(3, params_sl)
    chi = chi_factor(pair_table(SLQ2, 3, params_sl))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    ext, P23, P14 = _four_site_ops(cgc_table(rep, rep))
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    pbar = DD @ (ext @ P23 @ ext) @ EE
    phat = DD @ (ext @ P23 @ P14 @ ext) @ EE

    def deriv(h):  # about the regular point 0 of the family
        return (fam.check_fn(h) - fam.check_fn(-h)) / (2 * h)

    d1, d2 = deriv(1e-5), deriv(5e-6)
    D = (4 * d2 - d1) / 3
    X = np.stack([pbar.ravel(), phat.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, D.ravel(), rcond=None)
    resid = np.abs(X @ coef - D.ravel()).max() / max(1, np.abs(D).max())
    assert resid < 1e-6
    f0 = f_slope(chi, params_sl.a)
    assert abs(coef[0] - f0) < 1e-5 * abs(f0)
    assert abs(coef[1] - f0) < 1e-5 * abs(f0)


def test_composite_states_live_in_truncation(params_osp):
    # projecting back to the ambient pair space reproduces each state
    rep = build_irrep(3, params_osp)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    labels, psi = composite_states(U)
    Qp = U.embed @ U.project
    amb = U.embed @ psi
    assert np.abs(Qp @ amb - amb).max() < 1e-10


def test_complex_deformation_parameter():
    # the whole pipeline tolerates q slightly off the real axis
    from qybe import DeformParams, cgc_table, verify_algebra
    from qybe.rmatrix import rel_residual
    from qybe import ybe_residual as ybe

    for alg in (SLQ2, OSPQ12):
        p = DeformParams(q=1.25 + 0.08j, algebra=alg)
        rep = build_irrep(3, p)
        assert max(verify_algebra(rep).values()) < 1e-12
        table = cgc_table(rep, rep)
        dec = table.decomposition
        assert np.abs(dec.dual @ dec.basis - np.eye(9)).max() < 1e-10
        fam = hecke_family(table)
        assert ybe(fam, 0.37 + 0.1j, -0.22 + 0.03j) < 1e-11
        U = composite_space(fam, n=2)
        A = descendant_r_closed(U, 0.8 + 0.1j)
        B = descendant_r_product(U, 0.8 + 0.1j)
        assert rel_residual(A, B) < 1e-10
