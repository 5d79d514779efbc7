import numpy as np
import pytest

from qybe import (
    OSPQ12,
    SLQ2,
    QybeError,
    build_irrep,
    casimir_projector,
    cgc_table,
    chi_factor,
    projector,
    q_number,
    q_sub_bracket,
    qr_shift,
    tensor_decompose,
)
from qybe.repspace import coproduct_pair, embed_at
from conftest import params_for, pair_table
from oracles import coupled_basis, metric_norms


def test_tensor_decompose_values():
    assert tensor_decompose(2, 2) == [1, 3]
    assert tensor_decompose(3, 3) == [1, 3, 5]
    assert tensor_decompose(1, 4) == [4]
    assert tensor_decompose(2, 5) == [4, 6]


@pytest.mark.parametrize("algebra,r1,r2", [
    (SLQ2, 2, 2), (SLQ2, 3, 3), (SLQ2, 2, 3),
    (OSPQ12, 2, 2), (OSPQ12, 3, 3), (OSPQ12, 2, 3), (OSPQ12, 4, 4),
])
def test_biorthogonality(algebra, r1, r2):
    p = params_for(algebra)
    t = cgc_table(build_irrep(r1, p), build_irrep(r2, p))
    dec = t.decomposition
    assert np.abs(dec.dual @ dec.basis - np.eye(dec.dim)).max() < 1e-10


def test_trivial_factor(params_osp):
    one = build_irrep(1, params_osp)
    r4 = build_irrep(4, params_osp)
    t = cgc_table(one, r4)
    assert t.targets == [4]
    # the coupled state k of the one block has a unit-modulus component on
    # the product state (0, k)
    assert np.abs(np.abs(np.diag(t.decomposition.basis)) - 1).max() < 1e-10


@pytest.mark.parametrize("algebra,r1,r2", [
    (SLQ2, 2, 2), (SLQ2, 3, 3), (OSPQ12, 3, 3), (OSPQ12, 2, 2), (OSPQ12, 4, 4),
])
def test_dual_proportionality_and_unit_norms(algebra, r1, r2):
    # Cbar is the metric-weighted transpose of C with per-state signs eps;
    # all |eps| equal 1 for the ladder-normalized coupled basis
    p = params_for(algebra)
    t = cgc_table(build_irrep(r1, p), build_irrep(r2, p))
    dec = t.decomposition
    eps, md = metric_norms(dec.basis, coproduct_pair(t.rep1, t.rep2))
    for c in range(dec.dim):
        pred = eps[c] * md * dec.basis[:, c]
        assert np.abs(pred - dec.dual[c, :]).max() < 1e-10
        assert abs(abs(eps[c]) - 1) < 1e-10


def test_osp_eps_pattern_alternates(params_osp):
    # graded norms alternate along indefinite ladders in period-two steps
    t = pair_table(OSPQ12, 3, params_osp)
    dec = t.decomposition
    norms = metric_norms(dec.basis, coproduct_pair(t.rep1, t.rep2))[0]
    for b in dec.blocks:
        eps = np.real(norms[list(b.cols)])
        assert abs(eps[0] - 1) < 1e-10  # highest state normalized positive
        for k in range(1, b.r):
            step = eps[k] / eps[k - 1]
            assert abs(abs(step) - 1) < 1e-10


def test_hw_product_formula_osp33(params_osp):
    # top-weight coefficient recursion: C(i1+1)/C(i1) at total weight i = j
    # equals -(-1)^{p_{i1+1}} q^{-(j+1)/2} beta_{i1} / beta_{j-i1-1}
    rep = build_irrep(3, params_osp)
    q = params_osp.q
    dec = cgc_table(rep, rep).decomposition
    jl = (rep.dim - 1) / 2
    for r0 in (3, 5):
        j0 = (r0 - 1) / 2.0
        # the highest-weight state of block r0 on the product states (k1, k2)
        top = dec.basis[:, next(b.start for b in dec.blocks if b.r == r0)].reshape(rep.dim, rep.dim)
        for i1 in np.arange(-jl, jl):
            i1n = i1 + 1
            i2, i2n = j0 - i1, j0 - i1n
            if abs(i2) > jl or abs(i2n) > jl:
                continue
            c0 = top[int(round(jl - i1)), int(round(jl - i2))]
            c1 = top[int(round(jl - i1n)), int(round(jl - i2n))]
            if abs(c0) < 1e-12:
                continue
            par = rep.parities[int(round(jl - i1n))]
            shift = qr_shift(rep.dim, q)
            # E v_i = beta_i v_{i+1}: beta_i = E[k - 1, k] at ladder index k = jl - i
            k1, k2 = int(round(jl - i1)), int(round(jl - i2n))
            pred = (-((-1.0) ** par) * q ** (-(j0 + 1 + 2 * shift) / 2)
                    * rep.E[k1 - 1, k1] / rep.E[k2 - 1, k2])
            assert abs(c1 / c0 - pred) < 1e-9


@pytest.mark.parametrize("algebra,r", [
    (SLQ2, 2), (SLQ2, 3), (SLQ2, 4), (SLQ2, 5),
    (OSPQ12, 2), (OSPQ12, 3), (OSPQ12, 4), (OSPQ12, 5),
])
def test_projector_laws(algebra, r):
    p = params_for(algebra)
    t = pair_table(algebra, r, p)
    total = np.zeros((r * r, r * r), dtype=complex)
    projs = {}
    for r0 in tensor_decompose(r, r):
        P = projector(t, r0)
        projs[r0] = P
        assert np.abs(P @ P - P).max() < 1e-10
        assert abs(np.trace(P) - r0) < 1e-9
        total += P
    assert np.abs(total - np.eye(r * r)).max() < 1e-10
    for r0, A in projs.items():
        for r1, B in projs.items():
            if r0 != r1:
                assert np.abs(A @ B).max() < 1e-10


@pytest.mark.parametrize("algebra,r", [(SLQ2, 3), (OSPQ12, 3)])
def test_projector_invariance(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    pair = coproduct_pair(rep, rep)
    t = cgc_table(rep, rep)
    for r0 in tensor_decompose(r, r):
        P = projector(t, r0)
        for g in ("E", "F", "H"):
            D = getattr(pair, g)
            assert np.abs(P @ D - D @ P).max() < 1e-10


@pytest.mark.parametrize("algebra,r", [
    (SLQ2, 2), (SLQ2, 3), (SLQ2, 4), (OSPQ12, 2), (OSPQ12, 3), (OSPQ12, 4),
])
def test_projector_routes_agree(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    t = cgc_table(rep, rep)
    for r0 in tensor_decompose(r, r):
        A = projector(t, r0)
        B = casimir_projector(rep, rep, r0)
        sc = max(1.0, np.abs(A).max(), np.abs(B).max())
        assert np.abs(A - B).max() / sc < 1e-9


def test_casimir_projector_trivial(params_osp):
    one = build_irrep(1, params_osp)
    r3 = build_irrep(3, params_osp)
    P = casimir_projector(one, r3, 3)
    assert np.abs(P - np.eye(3)).max() < 1e-12


def test_invalid_target_raises(params_sl):
    t = pair_table(SLQ2, 2, params_sl)
    with pytest.raises(QybeError):
        projector(t, 2)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_chi_osp_closed_form(r, params_osp):
    chi = chi_factor(pair_table(OSPQ12, r, params_osp))
    assert abs(chi - 1.0 / q_sub_bracket(r, params_osp.q) ** 2) < 1e-10


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_chi_sl_closed_form(r, params_sl):
    chi = chi_factor(pair_table(SLQ2, r, params_sl))
    assert abs(chi - 1.0 / q_number(r, params_sl.q) ** 2) < 1e-10


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 3), (OSPQ12, 3)])
def test_chi_equals_quartic_product(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(r, p)
    t = cgc_table(rep, rep)
    chi = chi_factor(t)
    # C Cbar of the singlet on each product state (k1, k2); the quartic
    # product at opposite weights (t, -t) pairs (k, r-1-k) with (r-1-k, k)
    dec = t.decomposition
    s = next(b.start for b in dec.blocks if b.r == 1)
    pair = np.fliplr((dec.basis[:, s] * dec.dual[s]).reshape(r, r)).diagonal()
    vals = pair * pair[::-1]
    # independent of the weight index, and equal to the projector scalar
    assert np.abs(vals - vals[0]).max() < 1e-10
    assert abs(vals[0] - chi) < 1e-10


def test_triple_projector_identities():
    # the sign-free placement of the outer-pair projector closes all four
    # composite identities for both algebras, including even ladders whose
    # pair singlet is odd
    for algebra in (SLQ2, OSPQ12):
        p = params_for(algebra)
        for r in (2, 3):
            t = pair_table(algebra, r, p)
            chi = chi_factor(t)
            P1 = projector(t, 1)
            plain = [tuple(0 for _ in range(r))] * 4
            P12 = embed_at(P1, (0, 1), plain)
            P23 = embed_at(P1, (1, 2), plain)
            P34 = embed_at(P1, (2, 3), plain)
            P14 = embed_at(P1, (0, 3), plain)
            sc = max(1.0, abs(chi))
            assert np.abs(P12 @ P23 @ P12 - chi * P12).max() / sc < 1e-10
            assert np.abs(P23 @ P12 @ P23 - chi * P23).max() / sc < 1e-10
            assert np.abs(P23 @ P34 @ P23 - chi * P23).max() / sc < 1e-10
            assert np.abs(P23 @ P12 @ P34 @ P23 - chi * P14 @ P23).max() / sc < 1e-10


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_coupled_basis_metric_orthonormal(algebra):
    # columns are metric-orthogonal; after normalizing each by its recorded
    # norm the Gram matrix is a sign diagonal
    p = params_for(algebra)
    rep = build_irrep(2, p)
    cb = coupled_basis(cgc_table(rep, rep))
    gram = cb.basis.T @ (cb.metric[:, None] * cb.basis)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-10
    assert np.abs(np.diag(gram) - cb.eps).max() < 1e-12
    normed = cb.basis / np.sqrt(cb.eps)[None, :]
    gram2 = normed.T @ (cb.metric[:, None] * normed)
    assert np.abs(np.abs(np.diag(gram2)) - 1).max() < 1e-10


def test_coupled_basis_diagonalizes_pair_casimirs(params_sl):
    from qybe.repspace import casimir_matrix

    rep = build_irrep(2, params_sl)
    cb = coupled_basis(cgc_table(rep, rep))
    c12 = casimir_matrix(coproduct_pair(rep, rep))
    d2 = rep.dim ** 2
    c12_full = np.kron(c12, np.eye(d2))
    c34_full = np.kron(np.eye(d2), c12)
    both = cb.dual @ (c12_full + c34_full) @ cb.basis
    assert np.abs(both - np.diag(np.diag(both))).max() < 1e-9


def test_weight_sectors_match_the_unique_reference(rng):
    # the argsort grouping keeps np.unique's keys, key order and index
    # arrays, on integer keys and on the keys a Site rounds from weights
    from qybe.repspace import Site, weight_sectors

    for size in (0, 1, 7, 60):
        for span in (1, 4, 20):
            keys = rng.integers(-span, span + 1, size=size)
            want = {int(k): np.flatnonzero(keys == k) for k in np.unique(keys)}
            noisy = Site((0,) * size, keys / 2 + rng.normal(scale=1e-9, size=size))
            for got in (weight_sectors(keys), noisy.sectors):
                assert list(got) == list(want)
                assert all(np.array_equal(got[k], want[k]) for k in want)
