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
    composite_states,
    descendant_family,
    descendant_r_closed,
    descendant_r_product,
    dims_recurrence,
    extended_lax,
    extended_lax_closed,
    hecke_family,
    spectral_decompose,
    u0_point,
    ybe_residual,
)
from qybe.coupling import product_weights
from qybe.fusion import (
    adjacent_singlet_kernel,
    f_product,
    f_product_by_recurrence,
    truncation_cascade,
)
from qybe.repspace import embed_at, nfold_coproduct
from qybe.qarith import DESK_BOUND
from qybe.rmatrix import r33_family, rel_residual
from conftest import params_for, pair_table


def sample_points(rng, count, guards, box=(-1, 1, -0.2, 0.2), min_dist=0.06):
    out = []
    while len(out) < count:
        u = complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        if all(abs(u - g) > min_dist for g in guards):
            out.append(u)
    return out


def desc_guards(rep, params):
    # poles of the outer-difference parameterization
    u0 = u0_point(chi_factor(pair_table(rep.algebra, rep.r, params)), params.a)
    return (0.0, u0, -u0, 2 * u0, -2 * u0)


def fam_guards(rep, params):
    # poles in the additive family variable (shifted by u0)
    u0 = u0_point(chi_factor(pair_table(rep.algebra, rep.r, params)), params.a)
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
    rep = build_irrep(algebra, r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
    assert U.dim == dims_recurrence(r, n)
    # left inverse and projector trace
    assert np.abs(U.project @ U.embed - np.eye(U.dim)).max() < 1e-10
    Q = U.embed @ U.project
    assert abs(np.trace(Q) - U.dim) < 1e-8


def _composite(algebra, q, r, n):
    return composite_space(hecke_family(pair_table(algebra, r, DeformParams(q=q, algebra=algebra))),
                           n=n)


def _off_sector(row_weights, col_weights):
    """Mask of the entries between states of different weight."""
    return np.not_equal.outer(np.round(2 * row_weights), np.round(2 * col_weights))


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("q", [1.3, 0.9 + 0.4j])
@pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 7) for n in (2, 3)
                                 if r ** (n + 1) <= DESK_BOUND])
def test_composite_basis_is_weight_graded(algebra, q, r, n):
    # embed and project hold exact zeros between states of different weight
    U = _composite(algebra, q, r, n)
    off = _off_sector(product_weights(*[U.rep.site.weights] * n), np.array(U.site.weights))
    assert off.mean() > 0.5
    assert not U.embed[off].any()
    assert not U.project.T[off].any()


def test_composite_blocks_r3(params_sl):
    rep = build_irrep(SLQ2, 3, params_sl)
    U2 = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    assert U2.blocks == [(3, 1), (5, 1)]
    U3 = composite_space(hecke_family(cgc_table(rep, rep)), n=3)
    assert U3.blocks == [(1, 1), (3, 1), (5, 2), (7, 1)]


def test_composite_r2_single_block(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    for n in (2, 3, 4):
        U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
        assert U.blocks == [(n + 1, 1)]


def test_cascade_image_is_truncated_space(params_sl):
    # the pairwise degenerate-point product spans exactly the kernel
    # intersection and has the recurrence rank
    fam = hecke_family(pair_table(SLQ2, 3, params_sl))
    for n in (2, 3):
        G = truncation_cascade(fam, n)
        want = dims_recurrence(3, n)
        assert np.linalg.matrix_rank(G, tol=1e-8 * np.abs(G).max()) == want
        ker = adjacent_singlet_kernel(fam, n)
        resid = np.abs(G - ker @ (ker.conj().T @ G)).max()
        assert resid < 1e-9 * max(1.0, np.abs(G).max())


def test_u8_pair_multiplicities(params_sl):
    # (V3 + V5) x (V3 + V5) decomposes with multiplicities 2,4,4,3,1
    from qybe.coupling import decompose

    rep = build_irrep(SLQ2, 3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    pair = nfold_coproduct(SLQ2, [U.gens] * 2, params_sl.q)
    dec = decompose(pair, params_sl)
    assert dec.block_multiplicities() == {1: 2, 3: 4, 5: 4, 7: 3, 9: 1}


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_product_equals_closed(algebra, r, rng):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    pts = sample_points(rng, 6, guards=desc_guards(rep, p))
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
    rep = build_irrep(algebra, r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    u0 = U.hecke.u0
    pts = sample_points(rng, 4, guards=desc_guards(rep, p)) + [u0 + 1e-8]
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


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_product_near_u0_equals_closed(algebra, r):
    # near the pole of the inner factor each point takes its own value: inside
    # the Richardson window from a stencil centred on it, outside it directly
    rep = build_irrep(algebra, r, params_for(algebra))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    u0 = U.hecke.u0
    pts = [u0 + dist * way for way in (1, 1j) for dist in (0, 1e-8, 5e-7, 2e-6, 1e-5, 1e-4)]
    for u, product in zip(pts, descendant_r_product(U, pts)):
        assert rel_residual(descendant_r_closed(U, u), product) < 1e-9, u - u0


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 2), (OSPQ12, 3)])
def test_descendant_identity_at_u0(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
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


def test_descendant_product_pole_guard(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    chi = chi_factor(pair_table(SLQ2, 2, params_sl))
    u0 = u0_point(chi, params_sl.a)
    with pytest.raises(PoleError):
        descendant_r_product(composite_space(hecke_family(cgc_table(rep, rep)), n=2), -u0 + 1e-12,
                             guard=0.0)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_descendant_invariance(algebra, r, rng):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    pair = nfold_coproduct(algebra, [U.gens] * 2, p.q)
    u = sample_points(rng, 1, guards=fam_guards(rep, p))[0]
    R = fam.check_fn(u)
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        assert rel_residual(R @ D, D @ R) < 1e-10


def test_descendant_ybe_r2(params_sl, rng):
    rep = build_irrep(SLQ2, 2, params_sl)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_sl)
    pts = sample_points(rng, 4, guards=guards, min_dist=0.1)
    worst = max(ybe_residual(fam, u, w, form="check")
                for u in pts[:2] for w in pts[2:]
                if all(abs(u + w - g) > 0.06 for g in guards))
    assert worst < 1e-9


def test_descendant_ybe_r3_512(params_sl, rng):
    # the 512-dimensional triple-space check for the composite solution
    rep = build_irrep(SLQ2, 3, params_sl)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_sl)
    pts = sample_points(rng, 4, guards=guards, min_dist=0.1)
    pairs = [(u, w) for u in pts[:2] for w in pts[2:]
             if all(abs(u + w - g) > 0.06 for g in guards)]
    worst = max(ybe_residual(fam, u, w, form="check") for u, w in pairs)
    assert worst < 1e-9


def test_descendant_ybe_osp_r3(params_osp, rng):
    rep = build_irrep(OSPQ12, 3, params_osp)
    fam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    guards = fam_guards(rep, params_osp)
    pts = sample_points(rng, 2, guards=guards, min_dist=0.1)
    u, w = pts
    if all(abs(u + w - g) > 0.06 for g in guards):
        assert ybe_residual(fam, u, w, form="check") < 1e-9


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
    rep = build_irrep(SLQ2, 2, plat)
    dfam = descendant_family(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    mats_d, res_d = spectral_decompose(dfam, r1=3, rng=rng)
    assert res_d < 1e-8
    fam1 = r33_family(1, pair_table(SLQ2, 3, params_sl))
    mats_f, res_f = spectral_decompose(fam1, r1=3, rng=rng)
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
    rep = build_irrep(SLQ2, r, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    U = composite_space(fam, n=n)
    u, w = sample_points(rng, 2, guards=(-fam.u0,))
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
    B = np.eye(rep.r ** (n + 1), dtype=complex)
    for m in range(n, 0, -1):
        B = B @ embed_at(fam.swap @ fam.check_fn(u + (n - m) * fam.u0), (0, m), pars)
    return np.kron(np.eye(rep.r), U.project) @ B @ np.kron(np.eye(rep.r), U.embed)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("q", [1.3, 0.9 + 0.4j])
@pytest.mark.parametrize("r,n", [(r, n) for r in (2, 3, 4, 5) for n in (2, 3)]
                         + [(2, 4), (3, 4)])
def test_extended_lax_by_sector_matches_dense_train(algebra, q, r, n):
    # the sector build is exactly zero between total-weight sectors and is
    # the dense crossing train everywhere else
    U = _composite(algebra, q, r, n)
    w = product_weights(U.rep.site.weights, U.site.weights)
    off = _off_sector(w, w)
    for u in (0.37, 0.21 - 0.13j):
        L = extended_lax(U, u)
        dense = _dense_lax(U, u)
        assert not L[off].any()
        assert np.abs(L - dense).max() < 1e-12 * np.abs(dense).max()


def test_extended_lax_n1_is_pair_matrix(params_sl):
    rep = build_irrep(SLQ2, 3, params_sl)
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
    from types import SimpleNamespace

    q = 1.3
    plat = DeformParams(q=q, a=np.log(q), algebra=SLQ2)
    rep = build_irrep(SLQ2, 2, plat)
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

    # the non-check train on the mixed pair V^2 (x) U, in U-coordinates, as
    # the polynomialized family the fit reads
    fam = SimpleNamespace(
        noncheck=lambda u: extended_lax(U, u),
        poly_weight=poly_weight,
        poly_base=lambda u: np.exp(2 * plat.a * complex(u)),
    )
    mats, resid = spectral_decompose(fam, r1=4, rng=rng)
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
    rep = build_irrep(SLQ2, r, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=n)
    evaluate, scale, fit_resid = extended_lax_closed(U)
    assert fit_resid < 1e-10
    fam = U.hecke
    pts = sample_points(rng, 20, guards=(-fam.u0,))
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


@pytest.mark.parametrize("algebra,r", [(SLQ2, 3), (OSPQ12, 3)])
def test_f_product_recurrence_route(algebra, r, rng):
    p = params_for(algebra)
    chi = chi_factor(pair_table(algebra, r, p))
    for n in (2, 3):
        for _ in range(5):
            u = complex(rng.uniform(0.2, 1), rng.uniform(-0.2, 0.2))
            a_ = f_product(chi, p.a, n, u)
            b_ = f_product_by_recurrence(chi, p.a, n, u)
            assert abs(a_ - b_) < 1e-9 * max(1, abs(a_))


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_composite_states(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    labels, psi = composite_states(U)
    assert psi.shape == (r * r - 1, r * r - 1)
    assert len(labels) == r * r - 1
    # each state has unit metric norm and already lives in the truncation
    for k in range(psi.shape[1]):
        nrm = psi[:, k] @ (U.decomposition.eps * psi[:, k])
        assert abs(nrm - 1) < 1e-9
    assert np.linalg.matrix_rank(psi, tol=1e-9) == r * r - 1


def test_composite_states_r2_span_triplet(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    labels, psi = composite_states(U)
    assert U.blocks == [(3, 1)]
    assert psi.shape == (3, 3)


def test_first_order_expansion_at_u0(params_sl):
    # linear response at the regular point has the two-projector structure
    # with equal coefficients f0 (finite differences + Richardson)
    from qybe.fusion import _four_site_ops
    from qybe.rmatrix import f_slope

    rep = build_irrep(SLQ2, 3, params_sl)
    chi = chi_factor(pair_table(SLQ2, 3, params_sl))
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    ext, P23, P14 = _four_site_ops(cgc_table(rep, rep))
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    pbar = DD @ (ext @ P23 @ ext) @ EE
    phat = DD @ (ext @ P23 @ P14 @ ext) @ EE

    def deriv(h):
        return (fam.check_fn(fam.u0 + h) - fam.check_fn(fam.u0 - h)) / (2 * h)

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
    rep = build_irrep(OSPQ12, 3, params_osp)
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
        rep = build_irrep(alg, 3, p)
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
