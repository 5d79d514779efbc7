import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qybe import (
    OSPQ12,
    SLQ2,
    ChainSpec,
    QybeError,
    Site,
    build_irrep,
    cgc_table,
    chain_bond,
    chi_factor,
    composite_space,
    descendant_family,
    extended_lax,
    hamiltonian_log_derivative,
    hamiltonian_projector_form,
    hecke_family,
    check_sectors,
    spectrum,
    transfer_matrix,
)
from qybe.coupling import product_sectors
from qybe.rmatrix import rel_residual
from qybe.repspace import embed_at, nfold_coproduct
from qybe.spinchain import bond_expansion_coefficients
from qybe.toolkit import Context, RunConfig
from conftest import pair_table, params_for, sample_points
from oracles import coupled_matrix_elements, f_slope


def chain_points(rng, count, fam):
    return sample_points(rng, count, guards=fam.guards, min_dist=0.1)


def plain(parities):
    """The site of these parities with zero weights."""
    return Site(parities, (0,) * len(parities))


def whole(spec):
    """The chain with zero weights on site and auxiliary: one sector, so
    each chain builder returns the whole matrix as its one block."""
    return ChainSpec(plain(spec.site.parities), spec.n_sites, plain(spec.aux.parities))


def test_f0_matches_finite_difference(params_sl):
    from qybe import hecke_f

    chi = chi_factor(pair_table(SLQ2, 3, params_sl))
    f0 = f_slope(chi, params_sl.a)
    h = 1e-5
    fd = (hecke_f(h, chi, params_sl.a) - hecke_f(-h, chi, params_sl.a)) / (2 * h)
    assert abs(fd - f0) < 1e-7


def test_f0_linear_in_scale():
    p1 = params_for(SLQ2)
    from qybe.qarith import DeformParams

    p2 = DeformParams(q=p1.q, a=2.0, algebra=SLQ2)
    f0a = f_slope(chi_factor(pair_table(SLQ2, 2, p1)), p1.a)
    f0b = f_slope(chi_factor(pair_table(SLQ2, 2, p2)), p2.a)
    assert abs(f0b - 2 * f0a) < 1e-12


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_bond_expansion_both_equal_f0(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    c1p, c2p = bond_expansion_coefficients(composite_space(hecke_family(cgc_table(rep, rep)), n=2))
    chi = chi_factor(pair_table(algebra, r, p))
    f0 = f_slope(chi, p.a)
    assert abs(c1p - f0) < 1e-7 * max(1, abs(f0))
    assert abs(c2p - f0) < 1e-7 * max(1, abs(f0))


def test_transfer_matrices_commute_n2(params_sl, rng):
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 2))
    pts = chain_points(rng, 4, fam)
    taus = [transfer_matrix(spec, fam.noncheck(u))[0] for u in pts]
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            assert rel_residual(taus[i] @ taus[j], taus[j] @ taus[i]) < 64 * 1e-12


def test_transfer_matrix_regular_point_is_shift(params_sl):
    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 2))
    t0 = transfer_matrix(spec, fam.noncheck(0.0))[0]
    d = U.dim
    shift = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            shift[b * d + a, a * d + b] = 1.0
    assert rel_residual(t0, shift) < 1e-10


def test_single_site_transfer_invariant(params_sl, rng):
    # N = 1: the trace of R commutes with the site action of h
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 1))
    u = chain_points(rng, 1, fam)[0]
    tau = transfer_matrix(spec, fam.noncheck(u))[0]
    h = U.gens.H
    assert rel_residual(tau @ h, h @ tau) < 1e-10


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_hamiltonian_log_derivative_matches_projector_form(algebra, r, n_sites):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, n_sites))
    Hlog = hamiltonian_log_derivative(spec, fam)[0]
    H = hamiltonian_projector_form(U, spec)[0]
    X = np.stack([H.ravel(), np.eye(H.shape[0]).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, Hlog.ravel(), rcond=None)
    resid = np.abs(X @ coef - Hlog.ravel()).max() / max(1, np.abs(Hlog).max())
    assert resid < 1e-7


def test_chain_size_validation(params_sl):
    rep = build_irrep(2, params_sl)
    with pytest.raises(QybeError):
        ChainSpec(plain((0, 0, 0)), 0)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    with pytest.raises(QybeError):
        hamiltonian_projector_form(U, ChainSpec(U.site, 1))


@pytest.mark.parametrize("change", [
    {"parities": (0,) * 8, "weights": (0,) * 8},  # eight states, as at r = 3
    {"parities": (1, 0, 0)},  # one odd state
    {"weights": (1.0, 0.0, -2.0)},
])
def test_hamiltonian_refuses_a_chain_of_other_sites(change, params_sl):
    # the sectors of the spec decide the blocks, so they must be U's
    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    weights = change.get("weights", np.array(U.site.keys) / 2)
    site = Site(change.get("parities", U.site.parities), weights)
    spec = ChainSpec(site, 2)
    with pytest.raises(QybeError, match="site is not"):
        hamiltonian_projector_form(U, spec)


def test_hamiltonian_commutes_with_generators_and_tau(params_sl, rng):
    # every bond term is a centralizer element of its two-cell space; the
    # periodic closure itself only preserves the weight operator (the
    # exchange tails of the coproduct are not translation invariant), so the
    # chain-level invariance checks are per-bond plus the weight and the
    # commuting transfer matrix
    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 2))
    H = hamiltonian_projector_form(U, spec)[0]
    pair = nfold_coproduct([U.gens] * 2)
    bond = chain_bond(U)[1]
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        assert rel_residual(bond @ D, D @ bond) < 1e-9
    assert rel_residual(H @ pair.H, pair.H @ H) < 1e-10
    u = chain_points(rng, 1, fam)[0]
    tau = transfer_matrix(spec, fam.noncheck(u))[0]
    assert rel_residual(H @ tau, tau @ H) < 1e-8


def test_hecke_chain_locality(params_sl, rng):
    # N = 3 fundamental chain: the log-derivative Hamiltonian is a sum of
    # two-site terms, so it commutes with single-site operators two sites away
    rep = build_irrep(2, params_sl)
    fam = hecke_family(cgc_table(rep, rep))
    spec = ChainSpec(plain((0, 0)), 3)
    H = hamiltonian_log_derivative(spec, fam)[0]
    # bond terms on (0,1),(1,2),(2,0) wrap the ring; any single-site operator
    # commutes with the one bond not touching it, so check the bond split:
    # H reconstructs from two-site blocks fitted on each pair
    from qybe.repspace import embed_at

    pars = [rep.parities] * 3
    basis = []
    rng2 = np.random.default_rng(0)
    for pair in ((0, 1), (1, 2), (2, 0)):
        for k in range(16):
            m = np.zeros((4, 4))
            m[k // 4, k % 4] = 1.0
            basis.append(embed_at(m, pair, pars).ravel())
    X = np.stack(basis, axis=1)
    coef, *_ = np.linalg.lstsq(X, H.ravel(), rcond=None)
    resid = np.abs(X @ coef - H.ravel()).max() / max(1, np.abs(H).max())
    assert resid < 1e-8


def test_spin_structure_block_transitions(params_sl):
    # bond terms move block labels for composite cells with several blocks
    # (r = 3) and cannot for single-block cells (r = 2)
    for r, expect_offdiag in ((2, False), (3, True)):
        rep = build_irrep(r, params_sl)
        U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
        bond = chain_bond(U)[1]
        blocks = U.decomposition.blocks
        labels = np.zeros(U.dim, dtype=int)
        for bi, b in enumerate(blocks):
            labels[list(b.cols)] = bi
        found = False
        for i in range(U.dim ** 2):
            for j in range(U.dim ** 2):
                if abs(bond[i, j]) > 1e-9:
                    bi = (labels[i // U.dim], labels[i % U.dim])
                    bj = (labels[j // U.dim], labels[j % U.dim])
                    if bi != bj:
                        found = True
        assert found == expect_offdiag


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (SLQ2, 4),
                                      (OSPQ12, 2), (OSPQ12, 3), (OSPQ12, 4)])
def test_coupled_elements_p23(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    out = coupled_matrix_elements(cgc_table(rep, rep), "P23")
    assert out.route_residual < 1e-9
    assert out.conserves_total
    # external projectors kill pair singlets on both sides
    for row, col in out.support:
        assert row[0] > 0 and row[1] > 0 and col[0] > 0 and col[1] > 0


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (SLQ2, 4),
                                      (OSPQ12, 2), (OSPQ12, 3), (OSPQ12, 4)])
def test_coupled_elements_p23p14(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    out = coupled_matrix_elements(cgc_table(rep, rep), "P23P14")
    assert out.route_residual < 1e-9
    # support only on the total singlet with equal pair labels
    for row, col in out.support:
        assert abs(row[2]) < 1e-9 and abs(col[2]) < 1e-9
        assert abs(row[0] - row[1]) < 1e-9 and abs(col[0] - col[1]) < 1e-9
        assert row[0] > 0 and col[0] > 0


def _pair_composite(algebra, r):
    rep = build_irrep(r, params_for(algebra))
    return composite_space(hecke_family(cgc_table(rep, rep)), n=2)


def _pairing_gap(a, b):
    """Largest distance when each value of a takes the nearest value of b
    not yet taken."""
    rest = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin(np.abs(np.asarray(rest) - x)))
        worst = max(worst, abs(rest.pop(j) - x))
    return worst


def _same_table(ca, cb, tol):
    """Each level of one table is a level of the other, at the same
    degeneracy."""
    rest = list(cb)
    for lead, count in ca:
        hits = [k for k, (other, n) in enumerate(rest) if n == count and abs(other - lead) < tol]
        if not hits:
            return False
        rest.pop(hits[0])
    return not rest


def _cut(M, sectors):
    """The diagonal blocks of M over `sectors`, once `check_sectors` has
    found no entry of M between them."""
    check_sectors(M, sectors)
    return [M[np.ix_(s, s)] for s in sectors]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_sector_route_matches_whole_space(algebra, r, n_sites, rng):
    # a chain spec of zero weights is one sector, the whole space: the
    # dense oracle of the blocks, the blocked spectrum and the log-derivative
    U = _pair_composite(algebra, r)
    spec = ChainSpec(U.site, n_sites)
    fam = descendant_family(U)
    u = chain_points(rng, 1, fam)[0]
    # H summed per sector holds exactly the entries of the sector blocks of
    # the whole-space H; the blocked tau sums its GEMMs in another order than
    # the one-group contraction, so it matches them to round-off
    blocks = hamiltonian_projector_form(U, spec)
    want = _cut(hamiltonian_projector_form(U, whole(spec))[0], spec.sectors)
    assert len(blocks) == len(want) == len(spec.sectors)
    assert all(np.array_equal(b, w) for b, w in zip(blocks, want))
    blocks = transfer_matrix(spec, fam.noncheck(u))
    tau = transfer_matrix(whole(spec), fam.noncheck(u))[0]
    want = _cut(tau, spec.sectors)
    assert len(blocks) == len(want)
    assert max(np.abs(b - w).max() for b, w in zip(blocks, want)) <= 1e-14 * np.abs(tau).max()
    vals, clusters = spectrum(hamiltonian_projector_form(U, spec))
    want_vals, want_clusters = spectrum(hamiltonian_projector_form(U, whole(spec)))
    assert _pairing_gap(vals, want_vals) < 1e-10
    assert _same_table(clusters, want_clusters, 1e-7)
    blocks = hamiltonian_log_derivative(spec, fam)
    want = _cut(hamiltonian_log_derivative(whole(spec), fam)[0], spec.sectors)
    assert len(blocks) == len(want)
    for b, w in zip(blocks, want):
        assert rel_residual(b, w) < 1e-9


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_hamiltonian_blocks_are_the_dense_bond_sum(algebra, r, n_sites):
    # the dense oracle: f0 times the bond embedded at every (i+1, i), the
    # ring bond (0, N-1) included, cut to the chain's sectors; the blocks sum
    # the same signed bond entries in the same bond order
    U = _pair_composite(algebra, r)
    spec = ChainSpec(U.site, n_sites)
    f0, bond = chain_bond(U)
    pars = [U.site.parities] * n_sites
    dense = f0 * sum(embed_at(bond, ((i + 1) % n_sites, i), pars) for i in range(n_sites))
    blocks = hamiltonian_projector_form(U, spec)
    want = _cut(dense, spec.sectors)
    assert len(blocks) == len(want) == len(spec.sectors)
    assert all(np.array_equal(b, w) for b, w in zip(blocks, want))


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_sector_blocks_refuse_an_off_sector_entry(algebra):
    U = _pair_composite(algebra, 3)
    spec = ChainSpec(U.site, 2)
    sectors = spec.sectors
    H = hamiltonian_projector_form(U, whole(spec))[0]
    check_sectors(H, sectors)
    H[sectors[0][0], sectors[1][0]] = 1e-6
    with pytest.raises(QybeError, match="outside the weight sectors"):
        check_sectors(H, sectors)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r,n_sites,count,largest", [(2, 3, 7, 7), (3, 3, 13, 92),
                                                     (3, 4, 17, 646)])
def test_sector_sizes(algebra, r, n_sites, count, largest):
    # sizes come from the site weights alone; nothing of chain size is built
    spec = ChainSpec(_pair_composite(algebra, r).site, n_sites)
    sectors = spec.sectors
    assert spec.sectors is sectors  # built once per spec
    assert (len(sectors), max(len(s) for s in sectors)) == (count, largest)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(spec.site.dim ** n_sites))


def test_spectrum_clusters_levels_the_sort_separates():
    # 1j and 2e-19 + 1j are one level although 1e-19 + 2j sorts between them
    vals, clusters = spectrum([np.diag([1j, 1e-19 + 2j, 2e-19 + 1j])])
    assert [count for _, count in clusters] == [2, 1]
    assert abs(clusters[0][0] - 1j) < 1e-15


def test_spectrum_table_is_basis_independent():
    # the osp_q(1|2) r = 3 two-site chain has a 7-fold level on the imaginary
    # axis whose members sort among the other levels of real part 0
    U = _pair_composite(OSPQ12, 3)
    H = hamiltonian_projector_form(U, ChainSpec(plain(U.site.parities), 2))[0]
    perm = np.random.default_rng(7).permutation(H.shape[0])
    _, clusters = spectrum([H])
    _, permuted = spectrum([H[np.ix_(perm, perm)]])
    assert _same_table(clusters, permuted, 1e-7)
    assert sorted(count for _, count in clusters) == [1, 1, 1, 7, 7, 47]


def test_spectrum_order_ignores_real_round_off():
    # levels whose real parts differ by round-off sort by imaginary part,
    # whichever of them carries the larger real part
    for re in (1e-16, -1e-16):
        vals, _ = spectrum([np.diag([re + 2j, -re + 1j])])
        assert np.array_equal(vals.imag, [1.0, 2.0])


def test_spectrum_levels_ignore_eigenvalue_order():
    # a level is the mean of its members in one canonical order, so the
    # order of round-off-split members does not reach its last digits
    v = 1 + 0.1j + np.array([0, 3e-16, 7e-16, 1e-16, -5e-16])
    levels = {spectrum([np.diag(v[list(p)])])[1][0] for p in itertools.permutations(range(5))}
    assert len(levels) == 1


def test_hamiltonian_projector_form_peak_memory():
    # H is summed bond by bond into its sector blocks: not even one
    # whole-space complex matrix is formed
    U = _pair_composite(SLQ2, 3)
    spec = ChainSpec(U.site, 3)
    spec.sectors  # built before tracing, so the peak is H's own
    D = U.dim ** 3
    tracemalloc.start()
    try:
        hamiltonian_projector_form(U, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < D * D * 16


def test_spectrum_zero_matrix():
    vals, clusters = spectrum([np.zeros((5, 5))])
    assert np.abs(vals).max() == 0
    assert clusters[0][1] == 5


def test_spectrum_descendant_chain_consistency(params_sl):
    # the log-derivative and projector-form spectra coincide up to the
    # fitted affine map for the fundamental composite chain
    rep = build_irrep(2, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 2))
    Hlog = hamiltonian_log_derivative(spec, fam)[0]
    H = hamiltonian_projector_form(U, spec)[0]
    X = np.stack([H.ravel(), np.eye(9).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, Hlog.ravel(), rcond=None)
    vals1, _ = spectrum([Hlog])
    vals2, _ = spectrum([coef[0] * H + coef[1] * np.eye(9)])
    assert np.abs(np.sort(vals1.real) - np.sort(vals2.real)).max() < 1e-6


def test_spectrum_degeneracies_are_multiplet_sums(params_sl):
    # every eigenvalue cluster of an invariant chain operator spans whole
    # irreducible blocks, so its degeneracy is a sum of block dimensions
    from qybe.coupling import decompose

    rep = build_irrep(3, params_sl)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    vals, clusters = spectrum(hamiltonian_projector_form(U, ChainSpec(U.site, 2)))
    chain = nfold_coproduct([U.gens] * 2)
    dims = sorted(b.r for b in decompose(chain).blocks)
    reachable = {0}
    for d in dims:
        reachable = reachable | {s + d for s in reachable}
    for lead, count in clusters:
        assert count in reachable


def test_graded_chain_transfer_commutes(params_osp, rng):
    # composite chain over the graded algebra: parity-signed auxiliary trace
    rep = build_irrep(3, params_osp)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = whole(ChainSpec(U.site, 2))
    pts = chain_points(rng, 2, fam)
    t1 = transfer_matrix(spec, fam.noncheck(pts[0]))[0]
    t2 = transfer_matrix(spec, fam.noncheck(pts[1]))[0]
    assert rel_residual(t1 @ t2, t2 @ t1) < 64 * 1e-12


def _dense_transfer_times(spec, R, V):
    """tau V from the dense product R_01 R_02 ... R_0N, each crossing embedded
    with its Koszul signs, and the parity-signed trace over the auxiliary
    factor 0.  The product is applied to e_a (x) V block by block, so no
    monodromy matrix is formed."""
    pa = spec.aux.parities
    da, N = len(pa), spec.n_sites
    pars = [pa] + [spec.site.parities] * N
    X = np.concatenate([np.kron(np.eye(da)[:, [a]], V) for a in range(da)], axis=1)
    for i in range(N, 0, -1):
        X = embed_at(R, (0, i), pars) @ X
    k = V.shape[1]
    d = V.shape[0]
    return sum((-1.0) ** pa[a] * X[a * d:(a + 1) * d, a * k:(a + 1) * k] for a in range(da))


def _check_against_dense(spec, R, rng):
    """tau of the spec, from its sector blocks, and tau of the whole space
    both apply as the dense product does."""
    d = spec.site.dim ** spec.n_sites
    V = rng.normal(size=(d, 8)) + 1j * rng.normal(size=(d, 8))
    want = _dense_transfer_times(spec, R, V)
    for s in [spec, whole(spec)]:
        got = np.zeros_like(V)
        for rows, block in zip(s.sectors, transfer_matrix(s, R)):
            got[rows] = block @ V[rows]
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_graded_transfer_matches_dense_product(r, n_sites, params_osp, rng):
    rep = build_irrep(r, params_osp)
    U = composite_space(hecke_family(cgc_table(rep, rep)), n=2)
    fam = descendant_family(U)
    spec = ChainSpec(U.site, n_sites)
    R = fam.noncheck(chain_points(rng, 1, fam)[0])
    _check_against_dense(spec, R, rng)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_weighted_transfer_matches_dense_product(r, n_sites, params_sl, rng):
    # the sl_q(2) chains, weighted; the osp_q(1|2) ones are the case above
    U = _pair_composite(SLQ2, r)
    fam = descendant_family(U)
    R = fam.noncheck(chain_points(rng, 1, fam)[0])
    _check_against_dense(ChainSpec(U.site, n_sites), R, rng)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_lax_auxiliary_transfer_matches_dense_product(algebra, n_sites, rng):
    # tau_V: the extended Lax operator on V^r (x) U, the auxiliary V^r
    U = _pair_composite(algebra, 2)
    spec = ChainSpec(U.site, n_sites, aux=U.rep.site)
    _check_against_dense(spec, extended_lax(U, 0.37 + 0.11j), rng)


@st.composite
def _weighted_chains(draw):
    """A random chain with integer weights on site and auxiliary, and an R
    that conserves both the weight and the parity."""
    def states(max_size):
        n = draw(st.integers(1, max_size))
        return (tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
                tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))))

    (site, ws), (aux, wa) = states(3), states(3)
    n_sites = draw(st.integers(1, 4))
    spec = ChainSpec(Site(site, ws), n_sites, Site(aux, wa))
    par = np.add.outer(aux, site).ravel() % 2
    weight = np.add.outer(wa, ws).ravel()
    keep = (par[:, None] == par[None, :]) & (weight[:, None] == weight[None, :])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = (rng.normal(size=keep.shape) + 1j * rng.normal(size=keep.shape)) * keep
    return spec, R, rng


@settings(max_examples=60, deadline=None)
@given(_weighted_chains())
def test_weighted_transfer_matches_dense_product_random(case):
    _check_against_dense(*case)


def test_transfer_refuses_an_r_that_moves_the_weight(rng):
    U = _pair_composite(SLQ2, 3)
    fam = descendant_family(U)
    spec = ChainSpec(U.site, 2)
    R = fam.noncheck(chain_points(rng, 1, fam)[0]).copy()
    sectors = product_sectors(spec.aux, spec.site)
    R[sectors[0][0], sectors[1][0]] = 1e-6
    with pytest.raises(QybeError, match="outside the weight sectors"):
        transfer_matrix(spec, R)


def test_transfer_commutation_check_fails_on_an_r_that_moves_the_weight():
    ctx = Context(RunConfig(r_list=(2,)))
    U = ctx.composite(2, 2)
    dfam = ctx.descendant(2)
    sectors = product_sectors(U.site, U.site)

    def planted(u):
        m = dfam.check_fn(u).copy()
        m[sectors[0][0], sectors[1][0]] = 1e-6
        return m

    U.descendant = dataclasses.replace(dfam, check_fn=planted)
    assert not ctx.check("transfer-commutation", r=2, N=2)
    assert "outside the weight sectors" in ctx.report.checks[-1]["error"]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
def test_each_layer_reads_one_site(algebra, r):
    # the irrep, its Hecke family, the pair space, its descendant family and
    # the chain over it each hold the site they act on, built in one place
    ctx = Context(RunConfig(algebra=algebra, r_list=(r,)))
    rep, U = ctx.rep(r), ctx.composite(r, 2)
    assert ctx.hecke(r).site == rep.site
    assert U.descendant.site == U.site
    assert ctx.chain(r, 2).site == U.site
    assert ctx.chain(r, 2).aux == U.site  # the auxiliary is the site unless given
    assert rep.site.keys == tuple(r - 1 - 2 * k for k in range(r))
    assert U.site.dim == U.dim and U.site.parities == tuple(U.decomposition.parities)


def test_site_refuses_mismatched_lengths():
    with pytest.raises(QybeError, match="2 weights for 3 states"):
        Site((0, 1, 0), (0.5, -0.5))
    with pytest.raises(QybeError, match="1 weights for 2 states"):
        ChainSpec(Site((0, 0, 0), (1.0, 0.0, -1.0)), 2, Site((0, 0), (0.5,)))


def test_hand_built_chain_is_one_sector():
    # zero weights on the site and the auxiliary: the whole space is one sector
    spec = ChainSpec(plain((0, 1, 0)), 3, plain((0, 1)))
    assert len(spec.sectors) == 1 and np.array_equal(spec.sectors[0], np.arange(27))


def test_transfer_matrix_peak_memory(rng):
    # with its plan built, tau is contracted over the weight-allowed entries
    # only: not even one whole-space complex matrix is formed
    U = _pair_composite(SLQ2, 3)
    fam = descendant_family(U)
    spec = ChainSpec(U.site, 3)
    R = fam.noncheck(chain_points(rng, 1, fam)[0])
    spec.transfer_plan
    D = U.dim ** 3
    tracemalloc.start()
    try:
        transfer_matrix(spec, R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < D * D * 16


@pytest.mark.parametrize("aux,site", [((0, 1), (0, 0, 0)), ((1, 0, 1), (0, 1))])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_transfer_odd_auxiliary_matches_dense_product(aux, site, n_sites, params_sl, rng):
    # a random even R on aux (x) site, the auxiliary holding odd states
    spec = ChainSpec(plain(site), n_sites, plain(aux))
    par = np.add.outer(aux, site).reshape(-1) % 2
    D = len(par)
    R = (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))) * (par[:, None] == par[None, :])
    _check_against_dense(spec, R, rng)
