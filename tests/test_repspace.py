import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qybe import (
    OSPQ12,
    QybeError,
    SLQ2,
    build_irrep,
    casimir_value,
    graded_permutation,
    q_number,
    verify_algebra,
)
from qybe.repspace import (
    Site,
    alpha_closed,
    alpha_sum,
    apply_at,
    block_index,
    casimir_matrix,
    coproduct_pair,
    diag_power,
    embed_at,
    graded_kron_raw,
    invariant_metric,
    nfold_coproduct,
    perm_matrix,
)
from qybe.coupling import local_product, product_sectors, product_weights
from qybe.toolkit import GradedOperator, Space
from conftest import params_for


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_defining_relations(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
    assert max(verify_algebra(rep).values()) < 1e-12


def test_sl_commutator_exact(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    q = params_sl.q
    lhs = rep.E @ rep.F - rep.F @ rep.E
    rhs = (diag_power(q, rep.H) - diag_power(q, -rep.H)) / (q - 1 / q)
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_alpha_sum_equals_closed(r, params_osp, params_sl):
    for p in (params_osp, params_sl):
        j = (r - 1) / 2.0
        for k in range(r - 1):
            i = j - k
            a = alpha_sum(p.algebra, r, i, p.q)
            b = alpha_closed(p.algebra, r, i, p.q)
            assert abs(a - b) < 1e-12 * max(1, abs(a))


@pytest.mark.parametrize("r", [3, 5])
def test_alpha_antisymmetry_odd(r, params_osp):
    # alpha_i = -alpha_{-i+1} on odd-dimensional ladders
    j = (r - 1) / 2.0
    for k in range(r - 1):
        i = j - k
        if -i + 1 > j or -i + 1 < -j + 1:
            continue
        a = alpha_sum(OSPQ12, r, i, params_osp.q)
        b = alpha_sum(OSPQ12, r, -i + 1, params_osp.q)
        assert abs(a + b) < 1e-12 * max(1, abs(a))


@pytest.mark.parametrize("r", [2, 4])
def test_alpha_symmetry_even(r, params_osp):
    # even ladders carry the imaginary weight shift, under which the bracket
    # is even; alpha is then symmetric rather than antisymmetric
    j = (r - 1) / 2.0
    for k in range(r - 1):
        i = j - k
        if abs(-i + 1) > j:
            continue
        a = alpha_sum(OSPQ12, r, i, params_osp.q)
        b = alpha_sum(OSPQ12, r, -i + 1, params_osp.q)
        assert abs(a - b) < 1e-12 * max(1, abs(a))


def test_corrupted_rep_is_detected(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    E = rep.E.copy()
    E[0, 1] += 1e-3
    bad = type(rep)(rep.algebra, rep.r, rep.j, E, rep.F, rep.H,
                    rep.parities, rep.casimir_value, rep.params)
    res = max(verify_algebra(bad).values())
    assert 1e-4 < res < 1e-2


def test_graded_kron_identity(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    p = rep.parities
    II = graded_kron_raw(np.eye(3), np.eye(3), p, p, p, p)
    assert np.abs(II - np.eye(9)).max() == 0


def test_graded_kron_all_even_is_plain(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    pz3, pz2 = (0, 0, 0), (0, 0)
    out = graded_kron_raw(A, B, pz3, pz3, pz2, pz2)
    assert np.abs(out - np.kron(A, B)).max() == 0


def test_graded_kron_product_rule(rng):
    # (A x B)(C x D) = +- (AC x BD) with sign from parities of B and C
    p = (0, 1)
    for pB in (0, 1):
        for pC in (0, 1):
            # homogeneous-parity 2x2 operators: diag = even, offdiag = odd
            def hom(par):
                m = rng.normal(size=(2, 2))
                mask = np.array([[1 - par, par], [par, 1 - par]])
                return m * mask
            A, B, C, D = hom(0), hom(pB), hom(pC), hom(0)
            AB = graded_kron_raw(A, B, p, p, p, p)
            CD = graded_kron_raw(C, D, p, p, p, p)
            ACBD = graded_kron_raw(A @ C, B @ D, p, p, p, p)
            sign = (-1.0) ** (pB * pC)
            assert np.abs(AB @ CD - sign * ACBD).max() < 1e-12


@pytest.mark.parametrize("algebra,r1,r2", [
    (SLQ2, 2, 2), (SLQ2, 3, 3), (OSPQ12, 2, 2), (OSPQ12, 3, 3), (OSPQ12, 2, 3),
])
def test_coproduct_homomorphism(algebra, r1, r2):
    p = params_for(algebra)
    a = build_irrep(algebra, r1, p)
    b = build_irrep(algebra, r2, p)
    pair = coproduct_pair(algebra, a, b, p.q)
    d = np.diag(pair.H)
    qn = np.diag((p.q ** d - p.q ** (-d)) / (p.q - 1 / p.q))
    if algebra == OSPQ12:
        res = pair.E @ pair.F + pair.F @ pair.E - qn
    else:
        res = pair.E @ pair.F - pair.F @ pair.E - qn
    assert np.abs(res).max() < 1e-12


def test_coproduct_weights_add(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    Dh = coproduct_pair(OSPQ12, rep, rep, params_osp.q).H
    w = rep.ladder_j - np.arange(rep.r)  # the ladder weights, highest first
    expect = np.add.outer(w, w).reshape(-1)
    assert np.abs(np.diag(Dh) - expect).max() < 1e-13


def test_coassociativity(params_osp):
    rep = build_irrep(OSPQ12, 2, params_osp)
    q = params_osp.q
    pair = coproduct_pair(OSPQ12, rep, rep, q)
    left = coproduct_pair(OSPQ12, pair, rep, q)
    right = coproduct_pair(OSPQ12, rep, pair, q)
    for g in ("E", "F", "H"):
        assert np.abs(getattr(left, g) - getattr(right, g)).max() < 1e-12


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_permutation_squares_to_identity(algebra):
    p = params_for(algebra)
    rep = build_irrep(algebra, 3, p)
    P = graded_permutation(rep, rep)
    assert np.abs(P @ P - np.eye(9)).max() == 0


def test_permutation_sign_on_odd_states(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    P = graded_permutation(rep, rep)
    # state index 1 is odd; v_odd (x) v_odd picks up a minus sign
    vec = np.zeros(9)
    vec[1 * 3 + 1] = 1.0
    assert P @ vec @ vec == -1


def test_permutation_all_even_is_swap(params_sl):
    rep = build_irrep(SLQ2, 2, params_sl)
    P = graded_permutation(rep, rep)
    v = np.zeros(4)
    v[0 * 2 + 1] = 1.0
    out = P @ v
    assert out[1 * 2 + 0] == 1.0 and np.abs(out).sum() == 1.0


def test_perm_matrix_composition(params_osp):
    rep = build_irrep(OSPQ12, 2, params_osp)
    dims = [2, 2, 2]
    pars = [rep.parities] * 3
    s01 = perm_matrix([1, 0, 2], pars)
    s12 = perm_matrix([0, 2, 1], pars)
    sigma = [[1, 0, 2][[0, 2, 1][t]] for t in range(3)]
    assert np.abs(s12 @ s01 - perm_matrix(sigma, pars)).max() == 0


def test_embed_consistency(params_osp, rng):
    rep = build_irrep(OSPQ12, 2, params_osp)
    dims = [2, 2, 2]
    pars = [rep.parities] * 3
    pp = (np.add.outer(np.array(rep.parities), np.array(rep.parities)) % 2).reshape(-1)
    X = rng.normal(size=(4, 4)) * (np.add.outer(pp, pp) % 2 == 0)
    s12 = perm_matrix([0, 2, 1], pars)
    direct = embed_at(X, (0, 2), pars)
    conj = s12 @ embed_at(X, (0, 1), pars) @ s12
    assert np.abs(direct - conj).max() < 1e-12


def _embed_reference(op, pos, dims, parities):
    """P^T (op (x) 1) P entry by entry, with the signed permutation P bringing
    the factors pos to the front built state by state."""
    n = len(dims)
    sigma = list(pos) + [k for k in range(n) if k not in pos]
    tdims = [dims[k] for k in sigma]
    D = int(np.prod(dims))
    full = np.kron(op, np.eye(D // op.shape[0]))
    tgt, sign = [], []
    for src in np.ndindex(*dims):
        odd = sum(parities[sigma[t1]][src[sigma[t1]]] * parities[sigma[t2]][src[sigma[t2]]]
                  for t1 in range(n) for t2 in range(t1 + 1, n) if sigma[t1] > sigma[t2])
        tgt.append(np.ravel_multi_index([src[k] for k in sigma], tdims))
        sign.append((-1.0) ** odd)
    out = np.zeros((D, D), dtype=complex)
    for x in range(D):
        for y in range(D):
            out[x, y] = sign[x] * full[tgt[x], tgt[y]] * sign[y]
    return out


def _factor(draw, dims):
    """A random complex operator on an ordered tuple of distinct legs."""
    order = draw(st.permutations(range(len(dims))))
    pos = tuple(order[:draw(st.integers(1, len(dims)))])
    dop = int(np.prod([dims[k] for k in pos]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return gen.normal(size=(dop, dop)) + 1j * gen.normal(size=(dop, dop)), pos


@st.composite
def _embeddings(draw, count=(1, 1)):
    """One (dims, parities) of 1-4 graded legs and count[0]..count[1]
    operators on it."""
    n = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pars = [tuple(draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))) for d in dims]
    return [_factor(draw, dims) for _ in range(draw(st.integers(*count)))], dims, pars


@settings(max_examples=60, deadline=None)
@given(_embeddings())
def test_embed_at_matches_signed_permutation_reference(case):
    [(op, pos)], dims, pars = case
    assert np.array_equal(embed_at(op, pos, pars), _embed_reference(op, pos, dims, pars))


@settings(max_examples=60, deadline=None)
@given(_embeddings(), st.data())
def test_block_index_gathers_the_embedded_block(case, data):
    [(op, pos)], dims, pars = case
    D = int(np.prod(dims))
    idx = np.array(data.draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=D,
                                      unique=True)))
    index, sign = block_index(pos, pars)(idx)
    assert np.array_equal(embed_at(op, pos, pars)[np.ix_(idx, idx)],
                          sign * op.ravel()[index])


@settings(max_examples=60, deadline=None)
@given(_embeddings(), st.data())
def test_apply_at_matches_the_embedded_product(case, data):
    # a run of consecutive legs on one matrix, on a stack of them, and a
    # stack of operators on one matrix
    _, dims, pars = case
    k = data.draw(st.integers(0, len(dims) - 1))
    pos = tuple(range(k, data.draw(st.integers(k + 1, len(dims)))))
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dop, D, cols = int(np.prod([dims[j] for j in pos])), int(np.prod(dims)), 3
    op = gen.normal(size=(dop, dop)) + 1j * gen.normal(size=(dop, dop))
    X = gen.normal(size=(2, D, cols)) + 1j * gen.normal(size=(2, D, cols))
    ops = np.stack([op, op.T])
    embed = lambda A: embed_at(A, pos, pars)
    tol = 1e-13 * max(1.0, np.abs(op).max() * np.abs(X).max() * dop)
    assert np.abs(apply_at(op, pos, pars, X[0]) - embed(op) @ X[0]).max() <= tol
    assert np.abs(apply_at(op, pos, pars, X) - embed(op) @ X).max() <= tol
    want = np.stack([embed(A) @ X[0] for A in ops])
    assert np.abs(apply_at(ops, pos, pars, X[0]) - want).max() <= tol


def test_apply_at_refuses_legs_out_of_order():
    op, X = np.eye(4), np.ones((8, 1))
    for pos in [(1, 0), (0, 2)]:
        with pytest.raises(QybeError, match="consecutive legs"):
            apply_at(op, pos, [(0, 1)] * 3, X)


def _dense_product(factors, dims, pars):
    dense = np.eye(int(np.prod(dims)))
    for op, pos in factors:
        dense = dense @ embed_at(op, pos, pars)
    return dense


def _assert_local_product_matches_embed_at(factors, dims, pars):
    dense = _dense_product(factors, dims, pars)
    # sites of zero weight: one sector, the whole space
    [local] = local_product(factors, [Site(p, np.zeros(d)) for p, d in zip(pars, dims)])
    assert np.abs(local - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())


@settings(max_examples=60, deadline=None)
@given(_embeddings(count=(1, 3)))
def test_local_product_matches_embed_at_product(case):
    _assert_local_product_matches_embed_at(*case)


def test_local_product_odd_legs_crossing(rng):
    """Odd states on every leg, with the second factor placed in reverse
    order across the leg between: every Koszul sign is exercised."""
    dims, pars = [2, 2, 2], [(0, 1)] * 3
    A, B, C = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    _assert_local_product_matches_embed_at([(A, (0, 1)), (B, (2, 0)), (C, (1, 2))], dims, pars)


def test_local_product_weight_sectors(rng):
    """Factors that conserve the summed leg weights: the per-sector blocks
    are the dense product's diagonal blocks, and the product is exactly
    zero off them."""
    dims, pars = [2, 3, 2], [(0, 1), (0, 1, 0), (0, 1)]
    weights = [np.array([0.5, -0.5]), np.array([1.0, 0.0, -1.0]), np.array([0.5, -0.5])]

    def conserving(pos):
        w = product_weights(*[weights[k] for k in pos])
        keep = w[:, None] == w[None, :]
        return keep * (rng.normal(size=keep.shape) + 1j * rng.normal(size=keep.shape))

    factors = [(conserving(pos), pos) for pos in [(0, 1), (2, 0), (1, 2), (0, 2)]]
    sectors = product_sectors(*weights)
    blocks = local_product(factors, [Site(p, w) for p, w in zip(pars, weights)])
    dense = _dense_product(factors, dims, pars)
    inside = np.zeros(dense.shape, dtype=bool)
    for s, blk in zip(sectors, blocks):
        assert np.abs(blk - dense[np.ix_(s, s)]).max() <= 1e-13 * max(1.0, np.abs(dense).max())
        inside[np.ix_(s, s)] = True
    assert not dense[~inside].any()


@pytest.mark.parametrize("algebra,r", [(SLQ2, 2), (SLQ2, 4), (OSPQ12, 3), (OSPQ12, 4)])
def test_casimir_scalar(algebra, r):
    p = params_for(algebra)
    rep = build_irrep(algebra, r, p)
    c = casimir_matrix(algebra, rep, p.q)
    assert np.abs(c - rep.casimir_value * np.eye(r)).max() < 1e-10


def test_casimir_value_sl(params_sl):
    for r in range(1, 6):
        assert abs(casimir_value(SLQ2, r, params_sl.q)
                   - q_number(r / 2.0, params_sl.q) ** 2) < 1e-13


def test_casimir_apply_osp4(params_osp):
    rep = build_irrep(OSPQ12, 4, params_osp)
    c = casimir_matrix(OSPQ12, rep, params_osp.q)
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        assert np.abs(c @ v - rep.casimir_value * v).max() < 1e-10


def test_pair_casimir_spectrum(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    cc = casimir_matrix(OSPQ12, coproduct_pair(OSPQ12, rep, rep, params_osp.q), params_osp.q)
    got = np.sort_complex(np.linalg.eigvals(cc))
    want = []
    for r0 in (1, 3, 5):
        want += [casimir_value(OSPQ12, r0, params_osp.q)] * r0
    want = np.sort_complex(np.array(want))
    assert np.abs(got - want).max() < 1e-9


def test_pair_casimir_central(params_osp):
    rep = build_irrep(OSPQ12, 3, params_osp)
    pair = coproduct_pair(OSPQ12, rep, rep, params_osp.q)
    cc = casimir_matrix(OSPQ12, pair, params_osp.q)
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        assert np.abs(cc @ D - D @ cc).max() < 1e-10


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_invariant_metric_consistency(algebra):
    p = params_for(algebra)
    rep = build_irrep(algebra, 3, p)
    tri = nfold_coproduct(algebra, [rep] * 3, p.q)
    md, res = invariant_metric(tri.E, tri.F)
    assert res < 1e-11
    # metric also intertwines f^T with e, up to the residual tolerance
    M = np.diag(md)
    sc = max(1.0, np.abs(tri.F).max() * np.abs(md).max())
    assert np.abs(tri.F.T @ M - M @ tri.E).max() / sc < 1e-10


def test_space_mismatch_raises():
    from qybe import QybeError
    sp3 = Space((3,), ((0, 0, 0),))
    with pytest.raises(QybeError):
        GradedOperator(np.eye(2), sp3, sp3)
