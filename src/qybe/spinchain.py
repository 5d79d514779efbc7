"""Periodic chains over composite sites: transfer matrices, the fused-chain
Hamiltonian in projector form, coupled-basis matrix elements and desk-scale
spectra.  `chain_bond` defines the bond operator of the fused chain in one
place; the projector-form Hamiltonian is f0 times its sum over the bonds.

Transfer matrices of graded and ungraded chains share one contraction: the
monodromy is built along the auxiliary bond one site at a time, with the
Koszul signs of an even R reduced to sign vectors, and the auxiliary trace is
taken inside the last contraction.  R conserves the weight, so the
contraction runs over the weight-allowed monodromy entries only, one GEMM
per pair of auxiliary weights (the block-sparse contraction of U(1)-symmetric
tensors, Singh, Pfeifer & Vidal, Phys. Rev. B 83, 115125 (2011)), from a
gather/scatter plan built once per `ChainSpec`.  No array of the chain's
squared dimension is formed, for sl_q(2) and osp_q(1|2) alike, within
`qarith.DESK_BOUND` dimensions.

H and tau(u) conserve the total weight Delta^N(h), so every chain operator
is returned as its diagonal blocks over `ChainSpec.sectors`, in that order,
and the spectra and solves run one sector at a time.  H is summed bond by
bond into its blocks (`coupling.local_product` over the chain's sites);
tau(u) is contracted into its blocks once `check_sectors` has found no R
entry between the aux (x) site sectors, so the block spectra are the
spectrum.  A chain's site and auxiliary are `repspace.Site`s, read from the
objects that own them; a site of zero weights is one sector, its one block
is the whole matrix, and tau runs the same GEMMs with one weight group.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qarith import DESK_BOUND, QybeError
from .repspace import Site
from .coupling import (
    check_sectors,
    coupled_basis,
    local_product,
    product_sectors,
    product_weights,
    weight_sectors,
)
from .fusion import descendant_coefficients, _four_site_ops


@dataclass
class ChainSpec:
    """Periodic chain of `n_sites` copies of the tensor factor `site` (a
    `Site`), and `aux`, the auxiliary factor of its transfer matrix (the
    site unless given).  The chain's weight sectors follow from the sites'
    weights; a site of zero weights makes the chain one sector."""

    site: Site
    n_sites: int
    aux: Site = None

    def __post_init__(self):
        if self.aux is None:
            self.aux = self.site
        if self.n_sites < 1:
            raise QybeError(f"a chain needs at least one site, got {self.n_sites}")
        if self.site.dim ** self.n_sites > DESK_BOUND:
            raise QybeError(f"chain {self.site.dim}^{self.n_sites} exceeds the desk bound "
                            f"{DESK_BOUND}")

    @cached_property
    def sectors(self):
        """Index arrays of the product states of each total weight, in
        increasing weight, built once per spec; Delta^N(h) is additive, so a
        state's weight is the sum of its site weights."""
        return product_sectors(*[self.site.weights] * self.n_sites)

    @cached_property
    def transfer_plan(self):
        """The gathers and scatters of `transfer_matrix`, built once per spec."""
        return _TransferPlan(self)


def _groups(keys):
    """Indices of equal integer keys, keyed by the key, in increasing key
    order (`weight_sectors` keys by twice a weight)."""
    return weight_sectors(np.asarray(keys) / 2)


def _rank(groups, size):
    """The position of each index within its group."""
    out = np.empty(size, dtype=np.intp)
    for g in groups.values():
        out[g] = np.arange(g.size)
    return out


class _TransferPlan:
    """Where each entry of the blocked monodromy comes from and goes to.

    Weights enter as integer keys, twice the weights.  The monodromy of k
    sites T(a, S_out, b, S_in) obeys w(a) + W(S_out) = w(b) + W(S_in), w the
    weight of an auxiliary state and W the total weight of a run of site
    states.  T is held as one flat array: for each weight beta of b, its
    rows (a, S_out, S_in) times the states b of that weight; then one zero.
    A site step multiplies the rows of beta by the R entries
    (b, s_out, b', s_in) with b of weight beta and b' of weight beta', one
    GEMM per (beta, beta'), and its product rows (a, S_out s_out, S_in s_in)
    are a slice of the rows of beta' in the next T: it writes in place.

    The closing crossing, with the supertrace over a = b_N, is one GEMM per
    difference delta = w(b) - w(a): rows the (S_out, S_in) with
    W(S_out) - W(S_in) = delta, gathered from T (the trailing zero where the
    intermediate weights had no auxiliary state), inner index the pairs
    (a, b), columns the last site's (s_out, s_in).  The products are
    scattered into one flat buffer whose slices are the tau blocks over
    `spec.sectors`."""

    def __init__(self, spec):
        da, ds, N = spec.aux.dim, spec.site.dim, spec.n_sites
        ka, ks = (np.round(2 * np.asarray(w)).astype(int)
                  for w in (spec.aux.weights, spec.site.weights))
        aux = _groups(ka)
        site_pairs = _groups(np.subtract.outer(ks, ks).ravel())  # s_out * ds + s_in
        self.r_sectors = list(_groups(np.add.outer(ka, ks).ravel()).values())

        # the R entries of each (beta, beta') block, (b, pair, b') row-major
        gather, blocks = [], {}
        for b2, ib2 in aux.items():
            for b, ib in aux.items():
                if b2 - b in site_pairs:
                    so, si = np.divmod(site_pairs[b2 - b], ds)
                    idx = ((ib[:, None, None] * ds + so[:, None]) * da + ib2) * ds + si[:, None]
                    w0 = sum(g.size for g in gather)
                    blocks[b, b2] = (slice(w0, w0 + idx.size), so.size * ib2.size)
                    gather.append(idx.ravel())
        self.step = np.concatenate(gather)

        # the labels (a, S_out, S_in) of the rows of each beta
        rows = {b: (ib, np.zeros(ib.size, int), np.zeros(ib.size, int)) for b, ib in aux.items()}
        self.start = np.concatenate([np.eye(ib.size).ravel() for ib in aux.values()] + [[0.0]])
        self.steps = []
        for _ in range(N - 1):
            t0 = np.cumsum([0] + [rows[b][0].size * ib.size for b, ib in aux.items()])
            offset = dict(zip(aux, t0.tolist()))
            moves, new, o0 = [], {}, 0
            for b2 in aux:
                labels = []
                for b, ib in aux.items():
                    A, So, Si = rows[b]
                    if (b, b2) not in blocks or not A.size:
                        continue
                    w, cols = blocks[b, b2]
                    moves.append((slice(offset[b], offset[b] + A.size * ib.size), ib.size, w,
                                  slice(o0, o0 + A.size * cols), A.size))
                    o0 += A.size * cols
                    so, si = np.divmod(site_pairs[b2 - b], ds)
                    labels.append((np.repeat(A, so.size), (So[:, None] * ds + so).ravel(),
                                   (Si[:, None] * ds + si).ravel()))
                new[b2] = (tuple(np.concatenate(x) for x in zip(*labels)) if labels
                           else (np.zeros(0, int),) * 3)
            self.steps.append((moves, o0))
            rows = new

        # the closing GEMMs, one per delta: L rows (S_out, S_in) as
        # S_out * d + S_in, inner index (a, b) as a * da + b
        d = ds ** (N - 1)
        WS = product_weights(*[ks] * (N - 1)).astype(int)
        chain_pairs = _groups(np.subtract.outer(WS, WS).ravel())
        aux_pairs = _groups(np.subtract.outer(ka, ka).T.ravel())
        bsize = np.array([s.size for s in spec.sectors])
        boff = np.cumsum(np.concatenate(([0], bsize ** 2)))
        sec, loc = np.empty(d * ds, np.intp), np.empty(d * ds, np.intp)
        for k, s in enumerate(spec.sectors):
            sec[s], loc[s] = k, np.arange(s.size)
        self.size = int(boff[-1])
        self.blocks = list(zip(boff.tolist(), bsize.tolist()))
        loff, lwidth, self.ends, rgather, scatter = {}, {}, [], [], []
        l0 = c0 = s0 = 0
        for delta, iab in aux_pairs.items():
            P, Q = chain_pairs.get(delta), site_pairs.get(-delta)
            loff[delta], lwidth[delta] = l0, iab.size
            l0 += (0 if P is None else P.size) * iab.size
            if P is None or Q is None:
                continue
            a, b = np.divmod(iab, da)
            so, si = np.divmod(Q, ds)
            rgather.append((((b[:, None] * ds + so) * da + a[:, None]) * ds + si).ravel())
            So, Si = np.divmod(P, d)
            I, J = So[:, None] * ds + so, Si[:, None] * ds + si
            scatter.append((boff[sec[I]] + loc[I] * bsize[sec[I]] + loc[J]).ravel())
            self.ends.append((slice(loff[delta], l0), P.size, slice(c0, c0 + iab.size * Q.size),
                              Q.size, slice(s0, s0 + P.size * Q.size)))
            c0 += iab.size * Q.size
            s0 += P.size * Q.size
        self.rclose = np.concatenate(rgather or [np.zeros(0, np.intp)])
        self.scatter = np.concatenate(scatter or [np.zeros(0, np.intp)])

        # where each entry of T sits in the closing rows, and the closing
        # weight (-1)^(p(a) (1 + p(S_in))) of its row
        pa = np.asarray(spec.aux.parities)
        PS = product_weights(*[spec.site.parities] * (N - 1)).astype(int) % 2
        prow, pab = _rank(chain_pairs, d * d), _rank(aux_pairs, da * da)
        size = sum(rows[b][0].size * ib.size for b, ib in aux.items())
        self.close = np.full(l0, size, dtype=np.intp)
        self.flip = np.zeros(l0, bool) if pa.any() else None
        t0 = 0
        for b, ib in aux.items():
            A, So, Si = rows[b]
            lo = np.array([loff.get(b - k, 0) for k in ka.tolist()])
            width = np.array([lwidth.get(b - k, 0) for k in ka.tolist()])
            dest = (lo[A] + prow[So * d + Si] * width[A])[:, None] + pab[A[:, None] * da + ib]
            dest = dest.ravel()
            self.close[dest] = np.arange(t0, t0 + dest.size)
            if self.flip is not None:
                self.flip[dest] = np.repeat(pa[A] * (1 + PS[Si]) % 2 == 1, ib.size)
            t0 += dest.size


def transfer_matrix(spec, R):
    """tau: graded partial trace over the auxiliary space of the ordered
    product of the non-check R-matrix `R` (an array on aux (x) site) along
    the chain, as its blocks over `spec.sectors`.

    R must conserve the weight: `check_sectors` refuses an R entry between
    the aux (x) site sectors, and then tau conserves the weight too.  The
    monodromy is contracted along the auxiliary bond one site at a time,
    over the weight-allowed entries only (`_TransferPlan`), and the last
    contraction sums the bond and the traced auxiliary index together and
    writes the tau blocks, so neither the aux (x) chain monodromy nor the
    whole tau is formed.  R is even, so the Koszul signs of the graded
    product reduce to a factor (-1)^(p(a_in) p(s_in)) on each crossing and a
    closing weight on the traced index a: (-1)^p(a) on even-parity columns,
    1 on odd ones.  The last crossing's own factor cancels against its share
    of that weight.  A chain of zero weights is one block, contracted by the
    same GEMMs with one weight group."""
    R = np.asarray(R)
    da, ds = spec.aux.dim, spec.site.dim
    if R.shape != (da * ds, da * ds):
        raise QybeError("R does not act on aux (x) site")
    plan = spec.transfer_plan
    check_sectors(R, plan.r_sectors)
    sign = (-1.0) ** np.outer(spec.aux.parities, spec.site.parities)  # on (a_in, s_in)
    W = (R.reshape(da, ds, da, ds) * sign).ravel()[plan.step]
    T = plan.start
    for moves, size in plan.steps:
        out = np.empty(size + 1, dtype=complex)
        out[size] = 0.0
        for t, nb, w, o, rows in moves:
            np.matmul(T[t].reshape(rows, nb), W[w].reshape(nb, -1),
                      out=out[o].reshape(rows, -1))
        T = out
    Rc = R.ravel()[plan.rclose]
    tau = np.zeros(plan.size, dtype=complex)
    for l, rows, c, cols, s in plan.ends:
        L = T[plan.close[l]]
        if plan.flip is not None:
            np.negative(L, out=L, where=plan.flip[l])
        tau[plan.scatter[s]] = (L.reshape(rows, -1) @ Rc[c].reshape(-1, cols)).ravel()
    return [tau[o:o + n * n].reshape(n, n) for o, n in plan.blocks]


def bond_expansion_coefficients(U):
    """First-order expansion of the fused solution on U (x) U at its regular
    point: d/du of the two closed coefficients, central differences at the
    steps 1e-6 and 5e-7, Richardson-extrapolated.

    Both derivatives equal the slope f0 for every r, algebra and scale a, so
    the chain bond operator is f0 (Pbar + Phat); the ratio is returned rather
    than assumed so the construction stays self-calibrating."""
    chi, a, u0 = U.hecke.chi, U.params.a, U.hecke.u0

    def der(ix, h):
        cp = descendant_coefficients(u0 + h, chi, a, u0)[ix]
        cm = descendant_coefficients(u0 - h, chi, a, u0)[ix]
        return (cp - cm) / (2 * h)

    out = []
    for ix in range(2):
        d1 = der(ix, 1e-6)
        d2 = der(ix, 1e-6 / 2)
        out.append((4 * d2 - d1) / 3)
    return complex(out[0]), complex(out[1])


def chain_bond(U):
    """The slope f0 and the bond operator Pbar + chibar Phat on U (x) U of
    the fused chain, chibar the ratio of the two measured expansion
    coefficients: the bond term of sites (i+1, i) is f0 times the bond.
    A zero or non-finite slope (it underflows as a -> 0) raises QybeError."""
    pbar, phat = U.cells
    c1p, c2p = bond_expansion_coefficients(U)
    if c1p == 0 or not np.isfinite(c1p):
        raise QybeError(f"the bond slope f0 = {c1p} is zero or not finite")
    return c1p, pbar + (c2p / c1p) * phat


def hamiltonian_projector_form(U, spec):
    """Nearest-neighbour Hamiltonian of the periodic chain `spec` of U sites,
    f0 times the bond summed over the bonds, as its blocks over
    `spec.sectors`; each block is summed bond by bond from the bond's
    entries (`local_product` over the chain's sites).  Bond i couples sites
    (i+1, i), the orientation of the transfer matrix's log-derivative.  A
    spec whose site is not U raises QybeError: one with other parities, or
    with weights the bond does not conserve, whose blocks would not carry H."""
    N = spec.n_sites
    if N < 2:
        raise QybeError(f"the chain Hamiltonian needs at least two sites, got {N}")
    not_u = QybeError("the chain's site is not the composite space U")
    if spec.site.parities != U.site.parities:
        raise not_u
    f0, bond = chain_bond(U)
    try:
        check_sectors(bond, product_sectors(spec.site.weights, spec.site.weights))
    except QybeError as exc:
        raise not_u from exc
    bonds = [local_product([(bond, ((i + 1) % N, i))], [spec.site] * N) for i in range(N)]
    return [f0 * sum(terms) for terms in zip(*bonds)]


def hamiltonian_log_derivative(spec, fam, point=None, step=1e-6):
    """tau(u*)^-1 dtau/du at the regular point u* by central differences with
    one Richardson step, solved in each weight sector of the chain from the
    sector blocks of tau.  Returns the blocks of the Hamiltonian, in the
    order of `spec.sectors`."""
    point = point if point is not None else (fam.u0 or 0.0)

    tau = lambda x: transfer_matrix(spec, fam.noncheck(x))

    def ddu(h):
        return [(tp - tm) / (2 * h) for tp, tm in zip(tau(point + h), tau(point - h))]

    return [np.linalg.solve(t0, (4 * d2 - d1) / 3)
            for t0, d1, d2 in zip(tau(point), ddu(step), ddu(step / 2))]


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
    r = table.rep1.r
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


def spectrum(blocks, cluster_tol=1e-7):
    """Eigenvalues of the diagonal blocks of an operator (such as those the
    chain builders return), sorted by real part rounded at the cluster
    tolerance, then by imaginary part, plus a degeneracy table of clustered
    levels.  The rounding keeps round-off in a real part from deciding the
    order of levels that share it.

    Each eigenvalue joins the nearest level within the tolerance, so a level
    whose members are not neighbours in the sort order stays whole; a
    level's value is the mean of its members in `np.sort_complex` order,
    which does not depend on the order the eigenvalues come in."""
    vals = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    vals = vals[np.lexsort((vals.imag, np.round(vals.real / cluster_tol)))]
    leads = np.zeros(len(vals), dtype=complex)
    counts = np.zeros(len(vals), dtype=int)
    level = np.zeros(len(vals), dtype=int)
    k = 0
    for i, v in enumerate(vals):
        gap = np.abs(leads[:k] - v)
        j = int(np.argmin(gap)) if k else 0
        if k and gap[j] < cluster_tol * max(1.0, abs(v)) + cluster_tol:
            leads[j] = (leads[j] * counts[j] + v) / (counts[j] + 1)
            counts[j] += 1
        else:
            j, leads[k], counts[k] = k, v, 1
            k += 1
        level[i] = j
    means = [np.mean(np.sort_complex(vals[level == j])) for j in range(k)]
    return vals, list(zip(means, counts[:k].tolist()))
