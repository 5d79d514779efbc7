import dataclasses
from functools import reduce

import numpy as np
import pytest

from qybe import (
    OSPQ12,
    PoleError,
    QybeError,
    SLQ2,
    build_irrep,
    cgc_table,
    chi_factor,
    composite_space,
    descendant_family,
    hecke_f,
    hecke_family,
    mixed_braid_check,
    r33_family,
    u0_point,
    universal_r,
    ybe_residual,
)
from qybe import rmatrix
from qybe.coupling import product_sectors, projector
from qybe.repspace import Site, block_index, embed_at, perm_matrix
from qybe.rmatrix import intertwining_residual, rel_residual, sector_residual
from conftest import blockwise_probes, noncheck_ybe, pair_table, params_for, sample_points
from oracles import (
    IllConditionedFitError,
    braid_limit,
    braid_limit_f,
    polynomial_form,
    spectral_decompose,
)


def test_hecke_f_zero():
    assert hecke_f(0.0, 0.1) == 0


def test_hecke_f_at_u0():
    for chi in (0.09, 0.23, -14.4):
        u0 = u0_point(chi)
        assert abs(hecke_f(u0, chi) + 1) < 1e-10


def test_hecke_f_pole():
    chi = chi_factor(pair_table(SLQ2, 2))
    u0 = u0_point(chi)
    with pytest.raises(PoleError):
        hecke_f(-u0, chi)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (OSPQ12, 5)])
def test_hecke_f_on_arrays_equals_its_values_point_by_point(algebra, r, rng):
    p = params_for(algebra)
    chi = chi_factor(pair_table(algebra, r, p))
    u0 = u0_point(chi, p.a)
    pts = np.array(sample_points(rng, 50, guards=(-u0,)) + [0.0, 1e-15, u0, 2 * u0])
    values = hecke_f(pts, chi, p.a)
    assert values.shape == pts.shape
    assert values.tolist() == [hecke_f(u, chi, p.a) for u in pts]
    assert values[-4] == 0 and values[-3] == 0  # the coth limit at u = 0
    assert hecke_f(np.zeros((2, 3)), chi, p.a).tolist() == [[0j] * 3] * 2
    with pytest.raises(PoleError, match="pole"):
        hecke_f(np.append(pts, -u0), chi, p.a)


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 5), (OSPQ12, 2), (OSPQ12, 5)])
def test_functional_identity(algebra, r, rng):
    p = params_for(algebra)
    chi = chi_factor(pair_table(algebra, r, p))
    u0 = u0_point(chi, p.a)
    pts = sample_points(rng, 200, guards=(-u0,))
    worst = 0.0
    for k in range(100):
        u, w = pts[2 * k], pts[2 * k + 1]
        if abs(u + w + u0) < 0.05:
            continue
        fu, fw, fuw = (hecke_f(x, chi, p.a) for x in (u, w, u + w))
        worst = max(worst, abs(fu + fw - fuw + fu * fw + chi * fu * fw * fuw))
    assert worst < 1e-10


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3), (OSPQ12, 4)])
def test_shift_recurrence(algebra, r, rng):
    # f(u + u0) = -1 / (1 + chi f(u))
    p = params_for(algebra)
    chi = chi_factor(pair_table(algebra, r, p))
    u0 = u0_point(chi, p.a)
    pts = sample_points(rng, 100, guards=(-u0, -2 * u0))
    for u in pts:
        lhs = hecke_f(u + u0, chi, p.a)
        rhs = -1.0 / (1.0 + chi * hecke_f(u, chi, p.a))
        assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))


def test_hecke_r_normalization(params_osp):
    R0 = hecke_family(pair_table(OSPQ12, 3, params_osp)).check_fn(0.0)
    assert np.abs(R0 - np.eye(9)).max() < 1e-12


def test_hecke_r_degeneration_point(params_osp):
    fam = hecke_family(pair_table(OSPQ12, 3, params_osp))
    P1 = projector(fam.table, 1)
    assert np.abs(fam.check_fn(fam.u0) - (np.eye(9) - P1)).max() < 1e-9


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_hecke_ybe(algebra, r, rng):
    p = params_for(algebra)
    fam = hecke_family(pair_table(algebra, r, p))
    pts = sample_points(rng, 6, guards=(-fam.u0,))
    worst = max(ybe_residual(fam, u, w)
                for u in pts[:3] for w in pts[3:])
    assert worst < r ** 3 * 1e-12


def test_hecke_commutes_with_coproduct(params_osp):
    from qybe.repspace import coproduct_pair

    rep = build_irrep(3, params_osp)
    fam = hecke_family(cgc_table(rep, rep))
    pair = coproduct_pair(rep, rep)
    R = fam.check_fn(0.37 + 0.1j)
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        assert rel_residual(R @ D, D @ R) < 1e-11


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (OSPQ12, 3)])
def test_braid_limits_two_eigenvalues(algebra, r):
    p = params_for(algebra)
    fam = hecke_family(pair_table(algebra, r, p))
    for sign in (+1, -1):
        B = braid_limit(fam, sign)
        vals = np.linalg.eigvals(B)
        f_inf = braid_limit_f(fam.chi, sign)
        distinct = {1.0, complex(1 + f_inf)}
        for v in vals:
            assert min(abs(v - d) for d in distinct) < 1e-8


def test_braid_eigenvalue_ratio_sl2(params_sl):
    # frozen from the closed reduction with s = (q - 1/q)/(q + 1/q):
    # (1 + f_+)/(1 + f_-) = ((s+1)/(s-1))^2 = q^4
    chi = chi_factor(pair_table(SLQ2, 2, params_sl))
    ratio = (1 + braid_limit_f(chi, +1)) / (1 + braid_limit_f(chi, -1))
    assert abs(ratio - params_sl.q ** 4) < 1e-10


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fixture_normalization(kind, params_sl):
    fam = r33_family(kind, pair_table(SLQ2, 3, params_sl))
    assert np.abs(fam.check_fn(0.0) - np.eye(9)).max() < 1e-10


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fixture_ybe(kind, params_sl, rng):
    fam = r33_family(kind, pair_table(SLQ2, 3, params_sl))
    pts = sample_points(rng, 6, guards=())
    worst = max(ybe_residual(fam, u, w)
                for u in pts[:3] for w in pts[3:])
    assert worst < 1e-9


def test_fixtures_1_2_share_braid_ratios(params_sl):
    # as u -> +-infinity the projector-coefficient ratios of kinds 1 and 2
    # agree (their braid limits are proportional)
    f1 = r33_family(1, pair_table(SLQ2, 3, params_sl))
    f2 = r33_family(2, pair_table(SLQ2, 3, params_sl))
    for sign in (+1, -1):
        B1, B2 = braid_limit(f1, sign), braid_limit(f2, sign)
        lam = np.vdot(B2, B1) / np.vdot(B2, B2)
        assert rel_residual(B1, lam * B2) < 1e-9


def test_fixture_3_is_reparametrized_hecke(params_sl):
    # fam3(lam*u) equals I + f(u) P1 after the per-point overall scalar is
    # divided out; lam is fitted from a single point
    hfam = hecke_family(pair_table(SLQ2, 3, params_sl))
    fam3 = r33_family(3, hfam.table)
    P1 = projector(hfam.table, 1)
    nrm = np.vdot(P1, P1)

    def ghat(v):
        # singlet coefficient over identity coefficient; entry (0,0) has no
        # singlet component, so it carries the scalar prefactor
        m = fam3.check_fn(v)
        c = m[0, 0]
        return complex(np.vdot(P1, m - c * np.eye(9)) / (nrm * c))

    def f(u):
        return hecke_f(u, hfam.chi, params_sl.a)

    # one-point fit: ghat is a Moebius function of q**(2v) whose limit at
    # large v is acoef - 1, so the matching point inverts in closed form
    q = params_sl.q
    acoef = 1 + ghat(40.0).real
    ustar = 0.4
    t = f(ustar).real
    x = ((acoef - 1) + acoef * t) / ((acoef - 1) - t)
    lam = (np.log(x) / (2 * np.log(q))).real / ustar
    worst = 0.0
    for u in (0.15, 0.3, 0.55, 0.8, -0.25, -0.6):
        m = fam3.check_fn(lam * u)
        scaled = m / m[0, 0]
        worst = max(worst, rel_residual(scaled, np.eye(9) + f(u) * P1))
    assert worst < 1e-8


def test_universal_intertwining(params_osp):
    r2 = build_irrep(2, params_osp)
    for sign in (+1, -1):
        R = universal_r(r2, r2, sign)
        assert intertwining_residual(R, r2, r2) < 1e-10


def test_universal_intertwining_mixed_dims(params_osp):
    r2 = build_irrep(2, params_osp)
    r3 = build_irrep(3, params_osp)
    R = universal_r(r2, r3, +1)
    assert intertwining_residual(R, r2, r3) < 1e-10


def test_universal_trivial_factor(params_osp):
    one = build_irrep(1, params_osp)
    r4 = build_irrep(4, params_osp)
    R = universal_r(one, r4, +1)
    assert np.abs(R - np.eye(4)).max() < 1e-12


def test_universal_graded_ybe(params_osp):
    r2 = build_irrep(2, params_osp)
    Rp = universal_r(r2, r2, +1)
    Rm = universal_r(r2, r2, -1)
    out = mixed_braid_check(Rp, Rm, r2.parities)
    assert out["ppp"] < 1e-10 and out["mmm"] < 1e-10
    assert out["max_balanced"] < 1e-10


def test_universal_flip_inverse(params_osp):
    # the minus matrix equals the flipped inverse of the plus one
    r2 = build_irrep(2, params_osp)
    Rp = universal_r(r2, r2, +1)
    Rm = universal_r(r2, r2, -1)
    P = perm_matrix([1, 0], [r2.parities] * 2)
    assert rel_residual(Rm, P @ np.linalg.inv(Rp) @ P) < 1e-12


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (SLQ2, 4), (OSPQ12, 2)])
def test_spectral_decompose_hecke_two_terms(algebra, r, rng):
    p = params_for(algebra)
    fam = hecke_family(pair_table(algebra, r, p))
    mats, resid = spectral_decompose(fam.noncheck, *polynomial_form(fam), r1=max(r, 2), rng=rng)
    assert resid < 1e-9
    norms = [np.abs(m).max() for m in mats]
    big = max(norms)
    nonzero = [k for k, nm in enumerate(norms) if nm > 1e-8 * big]
    assert len(nonzero) == 2


def test_spectral_decompose_rnn_pair(params_sl, rng):
    # the two terms of the fundamental family are the braid limits, with the
    # relative minus sign of the two-term form
    rep = build_irrep(2, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    mats, resid = spectral_decompose(fam.noncheck, *polynomial_form(fam), r1=2, rng=rng)
    assert resid < 1e-10
    Bp = fam.swap @ braid_limit(fam, +1)
    Bm = fam.swap @ braid_limit(fam, -1)
    s = np.sqrt(1 - 4 * fam.chi + 0j)
    lam_p = np.vdot(Bp, mats[1]) / np.vdot(Bp, Bp)
    lam_m = np.vdot(Bm, mats[0]) / np.vdot(Bm, Bm)
    assert rel_residual(mats[1], lam_p * Bp) < 1e-10
    assert rel_residual(mats[0], lam_m * Bm) < 1e-10
    # (s-1)(s+1) = -4 chi fixes the opposite signs of the two coefficients
    assert abs(lam_p * lam_m - (-4 * fam.chi)) < 1e-8


def test_mixed_braid_relations_from_family(params_sl, rng):
    rep = build_irrep(2, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    mats, _ = spectral_decompose(fam.noncheck, *polynomial_form(fam), r1=2, rng=rng)
    out = mixed_braid_check(mats[1], -mats[0], rep.parities)
    assert out["max"] < 1e-10


def test_mixed_braid_identity_trivial(params_sl):
    rep = build_irrep(2, params_sl)
    I = np.eye(4)
    out = mixed_braid_check(I, I, rep.parities)
    assert out["max"] < 1e-14


def test_mixed_braid_negative_control(params_sl, rng):
    rep = build_irrep(2, params_sl)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    out = mixed_braid_check(A, B, rep.parities)
    assert out["max"] > 1e-4


def test_spectral_decompose_fixture1_three_terms(params_sl, rng):
    fam = r33_family(1, pair_table(SLQ2, 3, params_sl))
    mats, resid = spectral_decompose(fam.noncheck, *polynomial_form(fam), r1=3, rng=rng)
    assert resid < 1e-9
    norms = [np.abs(m).max() for m in mats]
    assert all(nm > 1e-6 * max(norms) for nm in norms)


def _dense_check_ybe(fam, u, w):
    # A12 B23 C12 - C23 B12 A23 through dense kron embeddings: the oracle
    A, B, C = fam.check_fn(u), fam.check_fn(u + w), fam.check_fn(w)
    I = np.eye(fam.dim)
    lhs = np.kron(A, I) @ np.kron(I, B) @ np.kron(C, I)
    rhs = np.kron(I, C) @ np.kron(B, I) @ np.kron(I, A)
    return rel_residual(lhs, rhs)


def _ybe_families():
    for algebra in (SLQ2, OSPQ12):
        for r in (2, 3, 4, 5):
            yield f"hecke-{algebra}-{r}", lambda a=algebra, r=r: hecke_family(pair_table(a, r))
    for kind in (1, 2, 3):
        yield f"fixture-{kind}", lambda k=kind: r33_family(k, pair_table(SLQ2, 3))
    yield "fused-2", lambda: descendant_family(composite_space(hecke_family(
        pair_table(SLQ2, 2)), n=2))


@pytest.mark.parametrize("build", [b for _, b in _ybe_families()],
                         ids=[name for name, _ in _ybe_families()])
def test_stacked_ybe_equals_the_largest_dense_pair_residual(build, rng):
    # the check form probed per weight sector over a stack of pairs, the
    # fused family's sectors those of its composite site: the largest of
    # the per-pair probe residuals on the same columns, and within ten
    # times the largest dense residual
    fam = build()
    guards = fam.guards
    pts = sample_points(rng, 5, guards=guards, min_dist=0.1)
    us, ws = np.array([(u, w) for u in pts[:3] for w in pts[3:]
                       if all(abs(u + w - g) > 0.1 for g in guards)]).T
    dense = [_dense_check_ybe(fam, u, w) for u, w in zip(us, ws)]
    probe = lambda u, w: ybe_residual(fam, u, w, rng=np.random.default_rng(0))
    stacked = probe(us, ws)
    r = fam.dim
    assert stacked < r ** 3 * 1e-12
    assert stacked == pytest.approx(max(probe(u, w) for u, w in zip(us, ws)), abs=1e-15)
    assert stacked <= 10 * max(dense)
    assert probe(us[0], ws[0]) <= 10 * dense[0]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_stacked_ybe_negative_controls(algebra):
    # chi * 1.01 fails at the hecke-ybe tolerance r^3 1e-12, and a factor
    # with a 1e-6 entry between two weights is refused, not contracted
    table = pair_table(algebra, 3)
    us, ws = np.array([0.7, 0.2 + 0.1j]), np.array([-0.3, 0.4 - 0.05j])
    fam = hecke_family(table, chi=chi_factor(table) * 1.01)
    assert ybe_residual(fam, us, ws) > 3 ** 3 * 1e-12
    fam = hecke_family(table)
    keys = Site.product(*[table.rep1.site] * 2).keys
    planted = np.zeros((9, 9))
    planted[np.argmax(keys), np.argmin(keys)] = 1e-6
    leaky = dataclasses.replace(fam, check_fn=lambda u: fam.check_fn(u) + planted)
    with pytest.raises(QybeError, match="outside the weight sectors"):
        ybe_residual(leaky, us, ws)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_fused_ybe_negative_control(algebra):
    # the fused family is contracted per weight sector like every other
    # family: chi * 1.01 in its coefficients fails at the fused YBE bound
    U = composite_space(hecke_family(pair_table(algebra, 2)), n=2)
    us, ws = np.array([0.7, 0.2 + 0.1j]), np.array([-0.3, 0.4 - 0.05j])
    assert ybe_residual(descendant_family(U), us, ws) < 1e-9
    off = dataclasses.replace(U, hecke=dataclasses.replace(U.hecke, chi=U.hecke.chi * 1.01))
    assert ybe_residual(descendant_family(off), us, ws) > 1e-9


# three unlike graded sites; the third is the first's twin
_SITES = [Site((0, 1), (0.5, -0.5)), Site((0, 1, 0), (1.0, 0.0, -1.0)), Site((1, 0), (0.5, -0.5))]


def _conserving(rng, legs):
    """A random operator on the legs that conserves their summed weight."""
    keys = np.array(Site.product(*[_SITES[k] for k in legs]).keys)
    keep = keys[:, None] == keys[None, :]
    return keep * (rng.normal(size=keep.shape) + 1j * rng.normal(size=keep.shape))


def _sides(rng):
    A, B, C = (_conserving(rng, legs) for legs in ((0, 1), (1, 2), (0, 2)))
    return [(A, (0, 1)), (B, (1, 2)), (C, (0, 2))], [(C, (0, 2)), (B, (1, 2)), (A, (0, 1))]


def test_sector_residual_is_bounded_by_the_dense_residual(rng, monkeypatch):
    # each distinct factor is checked once, in order of first appearance,
    # over the sectors of its own legs; the probe residual of two products
    # that differ is of the order of the dense one, within ten times it
    lhs, rhs = _sides(rng)
    checked = []
    check = rmatrix.check_sectors

    def counting(M, sectors):
        checked.append((id(M), [len(s) for s in sectors]))
        check(M, sectors)

    monkeypatch.setattr(rmatrix, "check_sectors", counting)
    got = sector_residual(lhs, rhs, _SITES, rng)
    assert checked == [(id(op), [len(s) for s in product_sectors(*[_SITES[k] for k in legs])])
                       for op, legs in lhs]
    pars = [site.parities for site in _SITES]
    dense = rel_residual(*[reduce(np.matmul, [embed_at(op, legs, pars) for op, legs in side])
                           for side in (lhs, rhs)])
    assert dense / 10 < got <= 10 * dense
    assert sector_residual(lhs, lhs, _SITES, rng) == 0.0


def test_sector_residual_equals_the_probes_of_the_sector_blocks(rng):
    # the whole-space columns carry each sector's own probe columns: the
    # same residual as probing the gathered sector blocks, sector by sector,
    # with the per-sector reference driver
    lhs, rhs = _sides(rng)
    pars = [site.parities for site in _SITES]

    def blocks(side, s):
        return [sign * op.ravel()[index] for op, legs in side
                for index, sign in [block_index(legs, pars)(s)]]

    sectors = product_sectors(*_SITES)
    want = blockwise_probes(((blocks(lhs, s), blocks(rhs, s)) for s in sectors),
                            np.random.default_rng(3))
    assert want > 1e-3
    assert sector_residual(lhs, rhs, _SITES, np.random.default_rng(3)) == pytest.approx(
        want, rel=1e-12)


def test_probed_residual_leaves_its_generator_alone(rng):
    # the columns come from a spawned child: the generator's own draws
    # after the call are those it would have made without it
    lhs, rhs = _sides(rng)
    seen, fresh = np.random.default_rng(11), np.random.default_rng(11)
    first = sector_residual(lhs, rhs, _SITES, seen)
    assert seen.bit_generator.state == fresh.bit_generator.state
    # a second call draws from the next child: other columns, same order
    assert sector_residual(lhs, rhs, _SITES, seen) != first
    assert sector_residual(lhs, rhs, _SITES, np.random.default_rng(11)) == first


def test_probed_residual_draws_each_sector_into_its_own_rows():
    # PROBES unit columns per sector, drawn in sector order from the first
    # child of the generator, each in its sector's rows of the whole space
    sectors = [np.array([1, 4]), np.array([0, 2, 3]), np.array([5])]
    seen = []

    def lhs(X):
        seen.append(X)
        return X

    assert rmatrix.probed_residual(lhs, lambda X: X, sectors, np.random.default_rng(5)) == 0.0
    [X] = seen
    assert X.shape == (6, rmatrix.PROBES)
    child = np.random.default_rng(5).spawn(1)[0]
    for s in sectors:
        Y = (child.standard_normal((len(s), rmatrix.PROBES))
             + 1j * child.standard_normal((len(s), rmatrix.PROBES)))
        assert np.array_equal(X[s], Y / np.linalg.norm(Y, axis=0))


def test_sector_residual_refuses_an_entry_between_sectors(rng):
    # a 1e-6 entry between the sectors of the legs (0, 2), those of the
    # third site, is refused with the check_sectors message
    lhs, rhs = _sides(rng)
    C = lhs[2][0]
    sectors = product_sectors(_SITES[0], _SITES[2])
    C[sectors[0][0], sectors[-1][0]] = 1e-6
    with pytest.raises(QybeError, match="outside the weight sectors"):
        sector_residual(lhs, rhs, _SITES, rng)


def test_ybe_trivial_at_zero(params_osp):
    fam = hecke_family(pair_table(OSPQ12, 3, params_osp))
    assert ybe_residual(fam, 0.0, 0.0) < 1e-13


def test_ybe_negative_control(params_sl):
    # a 1 percent perturbation of chi breaks the YBE visibly
    rep = build_irrep(2, params_sl)
    chi = chi_factor(pair_table(SLQ2, 2, params_sl)) * 1.01
    fam = hecke_family(cgc_table(rep, rep), chi=chi)
    res = ybe_residual(fam, 0.7, -0.3)
    assert res > 1e-4


def test_ybe_noncheck_negative_control(params_sl):
    # the same perturbation through the graded non-check form
    rep = build_irrep(2, params_sl)
    chi = chi_factor(pair_table(SLQ2, 2, params_sl)) * 1.01
    fam = hecke_family(cgc_table(rep, rep), chi=chi)
    assert noncheck_ybe(fam, 0.7, -0.3, np.random.default_rng(42)) > 1e-4


def test_ybe_noncheck_graded(params_osp, rng):
    rep = build_irrep(3, params_osp)
    fam = hecke_family(cgc_table(rep, rep))
    pts = sample_points(rng, 4, guards=(-fam.u0,))
    worst = max(noncheck_ybe(fam, u, w, np.random.default_rng(42))
                for u in pts[:2] for w in pts[2:])
    assert worst < 1e-11


def test_spectral_decompose_ill_conditioned(params_sl):
    rep = build_irrep(2, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    with pytest.raises(IllConditionedFitError):
        spectral_decompose(fam.noncheck, *polynomial_form(fam), r1=2,
                           samples=[0.4, 0.4 + 1e-14, 0.4 + 2e-14, 0.4])
