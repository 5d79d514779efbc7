"""Test oracles: second routes to the library's objects and closed forms of
the paper that no `qybe` command or check runs.  The tests compare the
library against them; the library itself never imports this module.

Grouped by the layer whose objects they take: the ladder coefficients
(`repspace`), the baxterized coefficient, the polynomial forms of the
spectral families and their fit (`rmatrix`), the truncation cascade,
f-product and two-projector closed form of the extended Lax operator, the
unreduced closed coefficient c1, the pair cells and fused product through
dense placements on (V^r)^(x4), and the induced pair states (`fusion`),
the block multiplicities of a decomposition, the metric norms of coupled
states and the four-factor coupled basis (`coupling`), the bond matrix
elements in it (`spinchain`), and the dense view and membership test
of a centralizer basis (`commutant`)."""

from dataclasses import dataclass

import numpy as np

from qybe.qarith import OSPQ12, QybeError, q_number, qr_shift
from qybe.repspace import (
    Rep,
    Site,
    apply_at,
    coproduct_pair,
    embed_at,
    graded_kron_raw,
    invariant_metric,
    nfold_coproduct,
)
from qybe.coupling import decompose, projector
from qybe.rmatrix import hecke_f, u0_point
from qybe.fusion import (
    _require_pair,
    _singlet,
    adjacent_singlet_kernel,
    dims_recurrence,
    extended_lax,
)


# repspace

def alpha_closed(algebra, r, i, q):
    """Closed form of alpha_i.

    For osp_q(1|2) the sign of the [r/2 + shift] term alternates with the
    ladder depth, (-1)^((r-1)/2 - i); this is the resummation of alpha_sum and
    is what the recursion actually produces.
    """
    j = (r - 1) / 2.0
    if algebra == OSPQ12:
        qr = qr_shift(r, q)
        sgn = (-1.0) ** int(round(j - i))
        num = sgn * q_number(r / 2.0 + qr, q) + q_number(i + qr - 0.5, q)
        return num / (np.sqrt(complex(q)) + 1.0 / np.sqrt(complex(q)))
    return q_number(j + 0.5, q) ** 2 - q_number(i - 0.5, q) ** 2


# rmatrix

def f_slope(chi, a=1.0):
    """f'(0) = 2a / sqrt(1 - 4 chi)."""
    return 2.0 * a / np.sqrt(1 - 4 * chi + 0j)


def braid_limit_f(chi, sign):
    """f at u -> +-infinity: 2 / (-1 +- sqrt(1-4 chi))."""
    s = np.sqrt(1 - 4 * chi + 0j)
    return 2.0 / (-1.0 + sign * s)


def braid_limit(fam, sign):
    """Constant matrix limit of the normalized check form of the spectral
    family `fam` at u -> +-inf, evaluated at the saturating argument
    u = +-40 / |a|."""
    a = fam.params.a if fam.family == "hecke" else np.log(fam.params.q)
    u = sign * 40.0 / max(abs(a), 1e-3)
    return fam.check_fn(u)


class IllConditionedFitError(QybeError):
    """Spectral decomposition sampling produced an ill-conditioned system."""


def polynomial_form(fam, chi=None):
    """(weight, base) with weight(u) R(u) = sum_p base(u)**(p-1) M_p for the
    spectral family `fam` of `rmatrix` or `fusion`.  The spin-1 families
    are polynomial in q**u once multiplied by it.  The Hecke family's
    weight (e^{2au} - 1)(-1 + s coth(au)) clears the f-denominator and
    leaves content linear in x = e^{2au}; the fused family's is the reduced
    common denominator of its two coefficients, one pole from the
    outer-line factor and one from the diagonal factors, with s from `chi`,
    the triple-overlap scalar of its Hecke family."""
    if fam.family.startswith("r33"):
        qu = lambda u: fam.params.q ** complex(u)
        return qu, qu
    a, s = fam.params.a, np.sqrt(1 - 4 * (fam.chi if fam.family == "hecke" else chi) + 0j)
    base = lambda u: np.exp(2 * a * complex(u))
    if fam.family == "hecke":
        return (lambda u: (base(u) - 1) * (-1.0) + s * (base(u) + 1)), base
    z0 = (1 - s) / (1 + s)
    return (lambda x: ((s - 1) * base(x) * z0 + (s + 1)) * ((s - 1) * base(x) + (s + 1))), base


def spectral_decompose(noncheck, weight, base, r1, samples=None, rng=None):
    """Fit weight(u) R(u) = sum_p base(u)^(p-1) M_p, p = 1..r1, over >= r1
    sample points of the non-check family u -> R(u) = noncheck(u); returns
    (list of M_p, residual)."""
    rng = rng or np.random.default_rng(42)
    if samples is None:
        samples = [complex(x) for x in rng.uniform(0.2, 1.4, 2 * r1)]
    if len(samples) < r1:
        raise QybeError("need at least r1 sample points")
    V = np.array([[x ** p for p in range(r1)] for x in map(base, samples)], dtype=complex)
    R = np.stack([weight(u) * noncheck(u) for u in samples])
    Y = R.reshape(len(samples), -1)
    cond = np.linalg.cond(V)
    if cond > 1e10:
        raise IllConditionedFitError(f"Vandermonde condition number {cond:.1e}")
    coefs, res, rank, sv = np.linalg.lstsq(V, Y, rcond=None)
    fitted = V @ coefs
    resid = np.abs(fitted - Y).max() / max(1.0, np.abs(Y).max())
    mats = list(coefs.reshape((r1,) + R.shape[1:]))
    return mats, float(resid)


# fusion

def truncation_cascade(fam, n):
    """Pairwise product of degenerate-point R-matrices of the Hecke family
    over all factor pairs (the step-by-step truncation); its image spans
    U^{R_n}."""
    u0 = fam.u0
    pars = [fam.site.parities] * n
    out = np.eye(fam.dim ** n, dtype=complex)
    for k in range(2, n + 1):
        for p in range(1, k):
            out = out @ embed_at(fam.noncheck((k - p) * u0), (k - 1, p - 1), pars)
    return out


def _plain_placements(P1, r, pairs):
    # adjacent placements need no signs; the outer-pair projector enters the
    # check-formalism products sign-free as well (the Koszul-decorated
    # embedding differs for even-dimensional graded irreps, whose pair
    # singlet is odd, and does not satisfy the composite triple identity)
    plain = [(0,) * r] * 4
    return [embed_at(P1, pair, plain) for pair in pairs]


def descendant_c1_terms(u, chi, a, u0):
    """c1 of the closed fused form as the sum of its f-factor terms,
    f14 + f23 (1 + f14) + 2 chi f14 f23 f13, each a rational in
    x = exp(2a(u-u0)): the unreduced form of the first coefficient of
    `fusion.descendant_coefficients`, which vanishes at x = 1 only by
    cancellation."""
    s = np.sqrt(1 - 4 * chi + 0j)
    z0 = (1 - s) / (1 + s)
    x = np.exp(2 * a * (complex(u) - u0))
    d1 = (s - 1) * x * z0 + (s + 1)      # f14 denominator
    d2 = (s - 1) * x + (s + 1)           # f13 = f24 denominator
    f14 = 2 * (x * z0 - 1) / d1
    t2 = -2 * (x - z0) / d1              # f23 (1 + f14)
    t3 = 4 * (x - z0) / ((s - 1) * d2)   # f23 f13
    return f14 + t2 + 2 * chi * f14 * t3


def pair_cells_dense(U):
    """P23 and P23 P14 on U (x) U through plain placements on (V^r)^(x4),
    sandwiched by np.kron(project, project) and np.kron(embed, embed): the
    dense route to `fusion.pair_cells`."""
    _require_pair(U)
    P23, P14 = _plain_placements(_singlet(U.hecke), U.rep.dim, ((1, 2), (0, 3)))
    project, embed = np.kron(U.project, U.project), np.kron(U.embed, U.embed)
    return project @ P23 @ embed, project @ (P23 @ P14) @ embed


def fused_train_dense(U, pts):
    """The eight adjacent factors of the fused product at the points `pts`,
    applied leg by leg by `repspace.apply_at` to the columns of
    np.kron(embed, embed) on (V^r)^(x4) and compressed by
    np.kron(project, project): the dense route to the stack that
    `fusion.descendant_r_product` returns outside its Richardson window."""
    fam = U.hecke
    u0 = fam.u0
    pars = [fam.site.parities] * 4
    R0 = fam.check_fn(u0)
    at = lambda xs: np.reshape([fam.check_fn(x) for x in xs], (-1,) + R0.shape)
    R1 = at(pts - u0)
    # R01(u0) R23(u0) R12(u) R01(u-u0) R23(u-u0) R12(u-2u0) R01(u0) R23(u0),
    # applied from the right
    X = np.kron(U.embed, U.embed)
    for op, pos in ((R0, (2, 3)), (R0, (0, 1)), (at(pts - 2 * u0), (1, 2)), (R1, (2, 3)),
                    (R1, (0, 1)), (at(pts), (1, 2)), (R0, (2, 3)), (R0, (0, 1))):
        X = apply_at(op, pos, pars, X)
    return np.kron(U.project, U.project) @ X


def _four_site_ops(table):
    """(1 - P12)(1 - P34), P23 and P14 on (V^r)^(x4), P1 the table's singlet."""
    r = table.rep1.dim
    P12, P34, P23, P14 = _plain_placements(projector(table, 1), r,
                                           ((0, 1), (2, 3), (1, 2), (0, 3)))
    I = np.eye(r ** 4)
    return (I - P12) @ (I - P34), P23, P14


def f_product(chi, a, n, u):
    """prod_{k=1..n} f(u + (n-k) u0)."""
    u0 = u0_point(chi, a)
    out = complex(1.0)
    for k in range(1, n + 1):
        out *= hecke_f(u + (n - k) * u0, chi, a)
    return out


def dense_kernel(fam, n):
    """`adjacent_singlet_kernel` as dense columns on (V^r)^(x n): each weight
    sector's null columns placed on its states, sector by sector in
    increasing weight, exact zeros elsewhere."""
    pieces = adjacent_singlet_kernel(fam, n)
    sectors = Site.product(*[fam.site] * n).sectors
    out = np.zeros((fam.dim ** n, sum(p.shape[1] for p in pieces.values())), dtype=complex)
    j = 0
    for key, piece in pieces.items():
        out[sectors[key], j:j + piece.shape[1]] = piece
        j += piece.shape[1]
    return out


def lax_lower_projector(U):
    """Invariant projector onto the U^{R_{n-1}} component of V^r (x) U^{R_n},
    complementary (in the invariant metric) to the embedded U^{R_{n+1}}."""
    rep, n = U.rep, U.n
    Tn1 = dense_kernel(U.hecke, n + 1)  # U^{R_{n+1}} in the ambient
    if Tn1.shape[1] != dims_recurrence(rep.dim, n + 1):
        raise QybeError("upper component rank mismatch")
    Efull = np.kron(np.eye(rep.dim), U.embed)
    co = nfold_coproduct([rep] * (n + 1))
    md, res = invariant_metric(co.E, co.F)
    if res > 1e-6:
        raise QybeError("invariant metric inconsistent on the Lax space")
    A = (md[:, None] * Tn1).T @ Efull
    uu, ss, vv = np.linalg.svd(A)
    rank = int(np.sum(ss > 1e-9 * max(1.0, ss.max())))
    lower = vv.conj().T[:, rank:]  # metric-orthogonal to the upper component
    if lower.shape[1] != dims_recurrence(rep.dim, n - 1):
        raise QybeError("lower component rank mismatch")
    upper = np.linalg.lstsq(Efull, Tn1, rcond=None)[0]  # upper block in U-coords
    W = np.hstack([upper, lower])
    Winv = np.linalg.inv(W)
    k = upper.shape[1]
    return W[:, k:] @ Winv[k:, :]


def extended_lax_closed(U):
    """Two-projector closed form of the extended Lax operator on V^r (x) U.

    Returns (evaluate, scale, fit_residual): evaluate(u) reproduces the train
    product as L(0) (1 + scale * F_n(u) * P_lower), with the single scalar
    fitted at the generic point u = 0.31 + 0.05i and F_n the shifted
    f-product."""
    fit_u = 0.31 + 0.05j
    chi, a, n = U.hecke.chi, U.params.a, U.n
    Plow = lax_lower_projector(U)
    K0 = extended_lax(U, 0.0)
    Lfit = extended_lax(U, fit_u)
    M = np.linalg.inv(K0) @ Lfit - np.eye(K0.shape[0])
    coef = np.vdot(Plow, M) / np.vdot(Plow, Plow)
    resid = np.abs(M - coef * Plow).max() / max(1.0, np.abs(M).max())
    scale = coef / f_product(chi, a, n, fit_u)

    def evaluate(u):
        return K0 @ (np.eye(K0.shape[0]) + scale * f_product(chi, a, n, u) * Plow)

    return evaluate, complex(scale), float(resid)


def composite_states(U):
    """Normalized pair states of U = U^{r^2-1} induced from the product basis:
    psi_(i,k) = (1 - P1)(v_i (x) v_k), written in composite-block coordinates
    and normalized to unit invariant-metric norm.  One weight-zero pair is
    linearly dependent on the rest and is dropped; the returned family spans
    the whole composite space."""
    _require_pair(U)
    rep = U.rep
    eps, _ = metric_norms(U.decomposition.basis, coproduct_pair(rep, rep))
    j = (rep.dim - 1) / 2.0
    states, labels = [], []
    drop_done = False
    for k1 in range(rep.dim):
        for k2 in range(rep.dim):
            i, k = j - k1, j - k2
            flat = k1 * rep.dim + k2
            vec = np.zeros(rep.dim ** 2, dtype=complex)
            vec[flat] = 1.0
            coords = U.project @ vec
            if abs(i + k) < 1e-9 and not drop_done:
                drop_done = True  # drop the first weight-zero pair
                continue
            nrm = coords @ (eps * coords)
            if abs(nrm) < 1e-12:
                raise QybeError(f"pair state ({i},{k}) has null metric norm")
            states.append(coords / np.sqrt(nrm + 0j))
            labels.append((float(i), float(k)))
    rank = np.linalg.matrix_rank(np.array(states).T, tol=1e-9)
    if rank != U.dim or len(states) != rep.dim ** 2 - 1:
        raise QybeError(f"pair states span rank {rank}, expected {U.dim}")
    return labels, np.array(states).T


# coupling

def metric_norms(basis, R):
    """The metric norm of each column of `basis`, states of the rep R, and
    the diagonal invariant metric of R they are measured in
    (`repspace.invariant_metric`)."""
    metric = invariant_metric(R.E, R.F)[0]
    return np.array([c @ (metric * c) for c in basis.T]), metric


def block_multiplicities(dec):
    """{irrep dimension: number of blocks} of a decomposition, ascending."""
    mult = {}
    for b in dec.blocks:
        mult[b.r] = mult.get(b.r, 0) + 1
    return dict(sorted(mult.items()))


@dataclass
class CoupledBasis:
    """Iterated pair coupling of four like factors bracketed ((1,2),(3,4)).

    Column c is the state |j12, j34; J, i> with labels[c] = (j12, j34, J, i);
    dual rows give the matching bra family.  sectors maps a pair of pair-block
    dimensions to its inner coupling data (used by the table-only evaluation
    of bond matrix elements)."""

    labels: list
    basis: np.ndarray
    dual: np.ndarray
    eps: np.ndarray
    metric: np.ndarray
    sectors: dict


def _block_rep(dec, pair_gens, block):
    cols = list(block.cols)
    return Rep(
        pair_gens.E[np.ix_(cols, cols)],
        pair_gens.F[np.ix_(cols, cols)],
        pair_gens.H[np.ix_(cols, cols)],
        Site(dec.parities[cols], [block.hw_weight - k for k in range(block.r)]),
        pair_gens.params,
    )


def coupled_basis(table):
    """Four-factor coupled basis |j12, j34; J, i> for (V^r)^(x4), from the
    coupling table of V^r (x) V^r.

    Pair blocks are coupled with their measured ladder data (an embedded
    block can carry the opposite parity convention to a standalone irrep,
    e.g. an odd pair singlet), so the sector couplings are rebuilt from the
    block generators rather than from standard tables."""
    rep = table.rep1
    dec = table.decomposition
    d2 = rep.dim ** 2
    pair_co = coproduct_pair(rep, rep)
    gens = Rep(dec.dual @ pair_co.E @ dec.basis, dec.dual @ pair_co.F @ dec.basis,
               dec.dual @ pair_co.H @ dec.basis, dec.site, rep.params)
    B1 = graded_kron_raw(dec.basis, dec.basis, dec.parities, dec.parities, pair_co.parities)
    total = np.zeros((d2 * d2, d2 * d2), dtype=complex)
    labels = []
    sectors = {}
    for ai, bA in enumerate(dec.blocks):
        Alike = _block_rep(dec, gens, bA)
        for bi, bB in enumerate(dec.blocks):
            Blike = _block_rep(dec, gens, bB)
            sector = decompose(coproduct_pair(Alike, Blike))
            sectors[(ai, bi)] = (bA, bB, sector)
            rows = [cA * d2 + cB for cA in bA.cols for cB in bB.cols]
            for bT in sector.blocks:
                for k, col in enumerate(bT.cols):
                    vec = np.zeros(d2 * d2, dtype=complex)
                    vec[rows] = sector.basis[:, col]
                    total[:, len(labels)] = vec
                    labels.append((
                        (bA.r - 1) / 2.0,
                        (bB.r - 1) / 2.0,
                        (bT.r - 1) / 2.0,
                        (bT.r - 1) / 2.0 - k,
                    ))
    basis = B1 @ total
    dual = np.linalg.inv(basis)
    eps, metric = metric_norms(basis, coproduct_pair(pair_co, pair_co))
    return CoupledBasis(labels=labels, basis=basis, dual=dual, eps=eps,
                        metric=metric, sectors=sectors)


# spinchain

@dataclass
class CoupledElements:
    """Bond-term matrix elements in the four-factor coupled basis."""

    labels: list
    direct: np.ndarray
    summed: np.ndarray
    route_residual: float
    conserves_total: bool
    support: list  # labels of rows/cols with nonzero blocks


def coupled_matrix_elements(table, term):
    """Matrix elements of a sandwiched bond operator on (V^r)^(x4) in the
    coupled basis |j12, j34; J, i>, computed two ways from the coupling
    table of V^r (x) V^r: direct conjugation of the dense operator, and
    contraction of coefficient-table data only.

    term: "P23" for the single middle projector, "P23P14" for the double one.
    Both routes place the projectors without Koszul signs (the direct one
    through `_four_site_ops`, the table one by plain index contractions), so
    they agree for either algebra: for r = 2, 3, 4 the route residual is at
    most 4.4e-16 for sl_q(2) and 5.6e-13 for osp_q(1|2)."""
    if term not in ("P23", "P23P14"):
        raise QybeError("term must be 'P23' or 'P23P14'")
    cb = coupled_basis(table)
    ext, P23, P14 = _four_site_ops(table)
    op = ext @ P23 @ ext if term == "P23" else ext @ P23 @ P14 @ ext
    direct = cb.dual @ op @ cb.basis
    summed = _sum_route(table, cb, term)
    # the outer projectors are diagonal in the coupled basis: they kill any
    # state whose pair label is a singlet
    keep = np.array([1.0 if (l[0] > 0 and l[1] > 0) else 0.0 for l in cb.labels])
    summed = keep[:, None] * summed * keep[None, :]
    residual = float(np.abs(summed - direct).max() / max(1.0, np.abs(direct).max()))

    conserves = True
    for ci, li in enumerate(cb.labels):
        for cj, lj in enumerate(cb.labels):
            if abs(direct[ci, cj]) > 1e-9 and (abs(li[2] - lj[2]) > 1e-9
                                              or abs(li[3] - lj[3]) > 1e-9):
                conserves = False
    support = sorted({
        (cb.labels[ci][:3], cb.labels[cj][:3])
        for ci in range(len(cb.labels)) for cj in range(len(cb.labels))
        if abs(direct[ci, cj]) > 1e-9
    })
    return CoupledElements(
        labels=cb.labels, direct=direct, summed=summed,
        route_residual=residual, conserves_total=conserves, support=support,
    )


def _sum_route(table, cb, term):
    """Assemble the bond-term matrix from coefficient data alone: pair and
    sector coupling coefficients plus singlet components, no dense
    conjugations."""
    r = table.rep1.dim
    dec = table.decomposition
    Cp = dec.basis.reshape(r, r, r * r)
    Cpb = dec.dual.reshape(r * r, r, r)
    scol = next(b.start for b in dec.blocks if b.r == 1)
    sing = Cp[:, :, scol]
    sing_bar = Cpb[scol]

    ncols = len(cb.labels)
    K = np.zeros((ncols, r, r, r, r), dtype=complex)
    B = np.zeros((ncols, r, r, r, r), dtype=complex)
    c = 0
    for (ai, bi), (bA, bB, sector) in cb.sectors.items():
        for bT in sector.blocks:
            for k in range(bT.r):
                vec = sector.basis[:, bT.start + k]
                dvec = sector.dual[bT.start + k, :]
                for p12 in range(bA.r):
                    c12 = Cp[:, :, bA.start + p12]
                    c12b = Cpb[bA.start + p12]
                    for p34 in range(bB.r):
                        sc = vec[p12 * bB.r + p34]
                        scb = dvec[p12 * bB.r + p34]
                        if abs(sc) < 1e-14 and abs(scb) < 1e-14:
                            continue
                        c34 = Cp[:, :, bB.start + p34]
                        c34b = Cpb[bB.start + p34]
                        if abs(sc) > 1e-14:
                            K[c] += sc * np.einsum("ab,cd->abcd", c12, c34)
                        if abs(scb) > 1e-14:
                            B[c] += scb * np.einsum("ab,cd->abcd", c12b, c34b)
                c += 1
    if term == "P23":
        left = np.einsum("cabxd,bx->cad", B, sing)
        right = np.einsum("cabxd,bx->cad", K, sing_bar)
        return np.einsum("cad,ead->ce", left, right)
    # P23 P14: both middle and outer singlets contract
    left = np.einsum("cabxd,bx,ad->c", B, sing, sing)
    right = np.einsum("cabxd,bx,ad->c", K, sing_bar, sing_bar)
    return np.outer(left, right)


# commutant

def dense_basis(basis, d):
    """A CommutantBasis as vectorized d x d matrices (d^2 x dim, row-major):
    its coefficients scattered to their flat positions, zero elsewhere.
    Every unknown has its own matrix entry, so orthonormal columns stay
    orthonormal."""
    vecs = np.zeros((d * d, basis.dim), dtype=complex)
    vecs[basis.flat] = basis.coeffs
    return vecs


def membership(op, basis):
    """Least-squares expansion of an operator over a commutant basis, on its
    dense view.  Returns (is_member, coefficients, residual); a member's
    residual is below 1e-8."""
    op = np.asarray(op)
    v = op.reshape(-1)
    vecs = dense_basis(basis, op.shape[0])
    coef, *_ = np.linalg.lstsq(vecs, v, rcond=None)
    resid = np.abs(vecs @ coef - v).max() / max(1.0, np.abs(v).max())
    return bool(resid < 1e-8), coef, float(resid)
