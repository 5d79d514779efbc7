"""Acceptance battery: one test per criterion, each printing a pass/fail line
with the measured residual and its pinned tolerance."""

import numpy as np

from qybe import (
    OSPQ12,
    SLQ2,
    ChainSpec,
    DeformParams,
    Site,
    build_irrep,
    cgc_table,
    chain_bond,
    chi_factor,
    commutant_nullspace,
    composite_space,
    constraint_system,
    descendant_family,
    descendant_r_closed,
    descendant_r_product,
    dims_recurrence,
    extended_lax,
    hamiltonian_log_derivative,
    hamiltonian_projector_form,
    hecke_f,
    hecke_family,
    mixed_braid_check,
    principal_angles,
    q_sub_bracket,
    r33_family,
    transfer_matrix,
    u0_point,
    universal_r,
    ybe_residual,
)
from qybe.coupling import decompose
from qybe.repspace import embed_at, nfold_coproduct
from qybe.rmatrix import intertwining_residual, rel_residual
from qybe.toolkit import RunConfig, random_points, verify_all
from conftest import pair_table, params_for, sample_points
from oracles import (
    block_multiplicities,
    braid_limit,
    coupled_matrix_elements,
    extended_lax_closed,
    f_product,
)

Q = 1.3


def report(num, name, residual, tol):
    status = "PASS" if residual < tol else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name}: residual {residual:.3e} < {tol:.1e}")
    assert residual < tol, f"criterion {num} ({name}): {residual:.3e} >= {tol:.1e}"


def test_criterion_01_hecke_ybe_suite():
    rng = np.random.default_rng(101)
    worst_by_dim = 0.0
    for algebra in (SLQ2, OSPQ12):
        p = params_for(algebra)
        for r in (2, 3, 4, 5):
            fam = hecke_family(pair_table(algebra, r, p))
            pts = random_points(rng, 10, guards=fam.guards)
            pairs = [(pts[2 * k], pts[2 * k + 1]) for k in range(5)] + \
                    [(u, w) for u in pts[:3] for w in pts[3:8]]
            pairs = pairs[:20]
            for u, w in pairs:
                res = ybe_residual(fam, u, w)
                worst_by_dim = max(worst_by_dim, res / (r ** 3))
    report(1, "baxterized family YBE, both algebras, r in 2..5",
           worst_by_dim, 1e-12)


def test_criterion_02_functional_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for algebra in (SLQ2, OSPQ12):
        p = params_for(algebra)
        for r in (2, 3, 4, 5):
            chi = chi_factor(pair_table(algebra, r, p))
            u0 = u0_point(chi, p.a)
            count = 0
            while count < 1000:
                u, w = random_points(rng, 2, guards=(-u0,))
                if abs(u + w + u0) < 0.05:
                    continue
                count += 1
                fu, fw, fuw = (hecke_f(x, chi, p.a) for x in (u, w, u + w))
                worst = max(worst, abs(fu + fw - fuw + fu * fw + chi * fu * fw * fuw))
    report(2, "coefficient functional identity, 1000 pairs per case", worst, 1e-10)


def test_criterion_03_chi_closed_form():
    p = params_for(OSPQ12)
    worst = 0.0
    for r in (2, 3, 4, 5):
        chi = chi_factor(pair_table(OSPQ12, r, p))
        worst = max(worst, abs(chi - 1.0 / q_sub_bracket(r, p.q) ** 2))
    report(3, "projector-extracted scalar matches closed form (graded)", worst, 1e-10)


def test_criterion_04_fixtures():
    rng = np.random.default_rng(104)
    p = params_for(SLQ2)
    worst_ybe = 0.0
    fams = {k: r33_family(k, pair_table(SLQ2, 3, p)) for k in (1, 2, 3)}
    for k, fam in fams.items():
        pts = random_points(rng, 8)
        for u, w in zip(pts[:4], pts[4:]):
            worst_ybe = max(worst_ybe, ybe_residual(fam, u, w))
    report(4, "three spin-1 solutions satisfy the YBE", worst_ybe, 1e-9)
    worst_braid = 0.0
    for sign in (+1, -1):
        B1 = braid_limit(fams[1], sign)
        B2 = braid_limit(fams[2], sign)
        lam = np.vdot(B2, B1) / np.vdot(B2, B2)
        worst_braid = max(worst_braid, rel_residual(B1, lam * B2))
    report(4, "kinds 1 and 2 share braid-limit ratios", worst_braid, 1e-9)
    # kind 3 matches the baxterized family after a fitted reparametrization
    from qybe.coupling import projector

    hfam = hecke_family(pair_table(SLQ2, 3, p))
    P1 = projector(hfam.table, 1)
    nrm = np.vdot(P1, P1)

    def ghat(v):
        m = fams[3].check_fn(v)
        return complex(np.vdot(P1, m - m[0, 0] * np.eye(9)) / (nrm * m[0, 0]))

    acoef = 1 + ghat(40.0).real
    ustar = 0.4
    t = hecke_f(ustar, hfam.chi, p.a).real
    x = ((acoef - 1) + acoef * t) / ((acoef - 1) - t)
    lam = (np.log(x) / (2 * np.log(p.q))).real / ustar
    worst_fit = 0.0
    for u in (0.15, 0.35, 0.6, -0.3, -0.55):
        m = fams[3].check_fn(lam * u)
        worst_fit = max(worst_fit, rel_residual(
            m / m[0, 0], np.eye(9) + hecke_f(u, hfam.chi, p.a) * P1))
    report(4, "kind 3 is the baxterized family after reparametrization",
           worst_fit, 1e-8)


def test_criterion_05_universal_intertwiner():
    p = params_for(OSPQ12)
    r2 = build_irrep(2, p)
    Rp = universal_r(r2, r2, +1)
    Rm = universal_r(r2, r2, -1)
    worst_int = max(intertwining_residual(Rp, r2, r2),
                    intertwining_residual(Rm, r2, r2))
    report(5, "universal intertwiner: coproduct exchange relation", worst_int, 1e-10)
    out = mixed_braid_check(Rp, Rm, r2.parities)
    report(5, "universal pair: homogeneous and mixed braid relations",
           out["max_balanced"], 1e-10)


def test_criterion_06_fusion_cross_check():
    rng = np.random.default_rng(106)
    worst = 0.0
    for algebra in (SLQ2, OSPQ12):
        p = params_for(algebra)
        for r in (2, 3):
            U = composite_space(hecke_family(pair_table(algebra, r, p)), n=2)
            u0 = u0_point(chi_factor(pair_table(algebra, r, p)), p.a)
            guards = (0.0, u0, -u0, 2 * u0, -2 * u0)
            for u in random_points(rng, 20, guards=guards):
                A = descendant_r_closed(U, u)
                B = descendant_r_product(U, u)
                worst = max(worst, rel_residual(A, B))
    report(6, "fused product form equals closed form, r = 2, 3", worst, 1e-9)
    worst_id = 0.0
    for algebra in (SLQ2, OSPQ12):
        p = params_for(algebra)
        for r in (2, 3):
            U = composite_space(hecke_family(pair_table(algebra, r, p)), n=2)
            u0 = u0_point(chi_factor(pair_table(algebra, r, p)), p.a)
            m = descendant_r_closed(U, u0)
            worst_id = max(worst_id, np.abs(m - np.eye((r * r - 1) ** 2)).max())
    report(6, "fused solution is the identity at the degeneration point",
           worst_id, 1e-10)
    p = params_for(SLQ2)
    fam = descendant_family(composite_space(hecke_family(pair_table(SLQ2, 3, p)), n=2))
    guards = fam.guards
    pts = sample_points(rng, 4, guards=guards, min_dist=0.1)
    worst_ybe = max(ybe_residual(fam, u, w)
                    for u in pts[:2] for w in pts[2:]
                    if all(abs(u + w - g) > 0.06 for g in guards))
    report(6, "fused solution YBE on the 512-dimensional triple space",
           worst_ybe, 1e-9)


def test_criterion_07_composite_pair_structure():
    p = params_for(SLQ2)
    rep = build_irrep(3, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    mult = block_multiplicities(decompose(nfold_coproduct([U.gens] * 2)))
    ok = mult == {1: 2, 3: 4, 5: 4, 7: 3, 9: 1}
    report(7, "composite pair multiplicities (2,4,4,3,1)", 0.0 if ok else 1.0, 0.5)
    nb = commutant_nullspace(U, 2)
    cb = constraint_system(U, 2)
    ok_dim = nb.dim == 46 and cb.dim == 46
    report(7, "centralizer dimension 46 from both routes",
           0.0 if ok_dim else 1.0, 0.5)
    report(7, "centralizer subspaces agree (principal angles)",
           float(np.max(principal_angles(nb, cb))), 1e-8)


def test_criterion_08_extended_lax():
    rng = np.random.default_rng(108)
    p = params_for(SLQ2)
    ok_dims = (all(dims_recurrence(2, n) == n + 1 for n in range(6))
               and dims_recurrence(3, 2) == 8 and dims_recurrence(3, 3) == 21)
    report(8, "composite dimension recurrence values", 0.0 if ok_dims else 1.0, 0.5)
    worst_rll = 0.0
    for (r, n) in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rep = build_irrep(r, p)
        fam = hecke_family(cgc_table(rep, rep))
        U = composite_space(fam, n=n)
        u, w = random_points(rng, 2, guards=(-fam.u0,))
        L13 = extended_lax(U, u)
        L23 = extended_lax(U, w)
        Rm = fam.swap @ fam.check_fn(u - w)
        pars = [rep.parities, rep.parities, U.site.parities]
        lhs = embed_at(Rm, (0, 1), pars) \
            @ embed_at(L13, (0, 2), pars) @ embed_at(L23, (1, 2), pars)
        rhs = embed_at(L23, (1, 2), pars) \
            @ embed_at(L13, (0, 2), pars) @ embed_at(Rm, (0, 1), pars)
        worst_rll = max(worst_rll, rel_residual(lhs, rhs))
    report(8, "exchange relation RLL = LLR for (r,n) up to (3,3)", worst_rll, 1e-9)
    plat = DeformParams(q=Q, a=np.log(Q), algebra=SLQ2)
    chi2 = chi_factor(pair_table(SLQ2, 2, plat))
    worst_fp = 0.0
    for n in (1, 2, 3):
        for u in random_points(rng, 5, guards=()):
            want = (-1 - Q ** 2) ** n * (Q ** (2 * u) - 1) / (Q ** (2 * u) - Q ** (2 * n))
            got = f_product(chi2, plat.a, n, u)
            worst_fp = max(worst_fp, abs(got - want) / max(1, abs(want)))
    report(8, "fundamental f-product matches the closed rational form",
           worst_fp, 1e-10)
    worst_closed = 0.0
    for (r, n) in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rep = build_irrep(r, p)
        fam = hecke_family(cgc_table(rep, rep))
        U = composite_space(fam, n=n)
        evaluate, scale, fit_res = extended_lax_closed(U)
        for u in random_points(rng, 20, guards=(-fam.u0,)):
            A = evaluate(u)
            B = extended_lax(U, u)
            worst_closed = max(worst_closed, rel_residual(A, B))
    report(8, "two-projector closed form after one-point scalar fit",
           worst_closed, 1e-8)


def test_criterion_09_chain_suite():
    rng = np.random.default_rng(109)
    p = params_for(SLQ2)
    rep = build_irrep(3, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    whole = Site(U.site.parities, (0,) * U.dim)  # zero weights: one block, the whole tau
    for N in (2, 3):
        spec = ChainSpec(whole, N)
        dim = U.dim ** N
        pts = sample_points(rng, 10, guards=fam.guards, min_dist=0.1)
        taus = [transfer_matrix(spec, fam.noncheck(x))[0] for x in pts]
        worst = 0.0
        for k in range(5):
            t1, t2 = taus[2 * k], taus[2 * k + 1]
            worst = max(worst, rel_residual(t1 @ t2, t2 @ t1) / dim)
        report(9, f"commuting transfer matrices, N = {N} ({dim}-dim)",
               worst, 1e-12)
    spec = ChainSpec(whole, 2)
    Hlog = hamiltonian_log_derivative(spec, fam)[0]
    H = hamiltonian_projector_form(U, spec)[0]
    X = np.stack([H.ravel(), np.eye(U.dim ** 2).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, Hlog.ravel(), rcond=None)
    resid = np.abs(X @ coef - Hlog.ravel()).max() / max(1, np.abs(Hlog).max())
    report(9, "log-derivative equals projector form up to affine scalars",
           resid, 1e-7)
    # bond terms are two-cell centralizer elements; the periodic sum
    # preserves the weight operator and the commuting family
    pair = nfold_coproduct([U.gens] * 2)
    bond = chain_bond(U)[1]
    worst_inv = max(rel_residual(bond @ getattr(pair, g), getattr(pair, g) @ bond)
                    for g in ("E", "F", "H"))
    worst_inv = max(worst_inv,
                    rel_residual(H @ pair.H, pair.H @ H))
    report(9, "bond terms commute with the algebra action on two cells",
           worst_inv, 1e-9)
    u = sample_points(rng, 1, guards=fam.guards, min_dist=0.1)[0]
    tau = transfer_matrix(spec, fam.noncheck(u))[0]
    report(9, "Hamiltonian commutes with the transfer matrix",
           rel_residual(H @ tau, tau @ H), 1e-8)


def test_criterion_10_coupled_basis_structure():
    p = params_for(SLQ2)
    worst_route = 0.0
    for r in (2, 3):
        rep = build_irrep(r, p)
        out1 = coupled_matrix_elements(cgc_table(rep, rep), "P23")
        out2 = coupled_matrix_elements(cgc_table(rep, rep), "P23P14")
        worst_route = max(worst_route, out1.route_residual, out2.route_residual)
        assert out1.conserves_total
        for row, col in out2.support:
            assert abs(row[2]) < 1e-9 and abs(col[2]) < 1e-9
            assert abs(row[0] - row[1]) < 1e-9 and abs(col[0] - col[1]) < 1e-9
    report(10, "double-projector term supported on equal-pair total singlets",
           0.0, 0.5)
    report(10, "table contraction equals direct conjugation, r = 2, 3",
           worst_route, 1e-9)


def test_criterion_11_determinism():
    cfg = RunConfig(algebra=SLQ2, r_list=(2, 3), n_list=(2,), seed=42)
    r1 = verify_all(cfg)
    r2 = verify_all(cfg)
    assert r1.all_passed, [c for c in r1.checks if not c["passed"]]
    same = r1.comparable_json() == r2.comparable_json()
    report(11, "verify-all reports are identical for a fixed seed",
           0.0 if same else 1.0, 0.5)
