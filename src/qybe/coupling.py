"""Tensor-product decomposition: highest-weight coupling, coefficient tables,
invariant projectors and the scalar controlling the baxterized family.

Coupled bases are built per block by solving for the highest-weight vector in
the top weight subspace and lowering with the standard gamma coefficients of
the target ladder (no irrep is built per block), so every block carries
textbook generator matrix elements.
Dual coefficients come from the exact matrix inverse of the basis, which makes
the biorthogonality relation hold to machine precision by construction; the
per-state norms are measured in the propagated invariant metric.
`cgc_table` takes a pair of irreps; `projector`, `chi_factor` and
`coupled_basis` take the table, so one table of V^r (x) V^r serves all.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qarith import OSPQ12, QybeError, q_number, q_sub_bracket
from .repspace import (
    Irrep,
    RepLike,
    block_index,
    casimir_matrix,
    casimir_value,
    coproduct_pair,
    graded_kron_raw,
    invariant_metric,
    ladder_coefficients,
    ladder_weights,
)


class RankDeficiencyError(QybeError):
    """Highest-weight space has unexpected dimension (q not generic)."""


class EigenvalueCollisionError(QybeError):
    """Casimir eigenvalues collide; the spectral projector is ill-posed."""


def tensor_decompose(r1, r2):
    """Target dimensions in V^r1 (x) V^r2: |r1-r2|+1, |r1-r2|+3, ..., r1+r2-1."""
    r1, r2 = int(r1), int(r2)
    if r1 < 1 or r2 < 1:
        raise QybeError("factor dimensions must be >= 1")
    return list(range(abs(r1 - r2) + 1, r1 + r2, 2))


@dataclass
class Block:
    """One irreducible block of a decomposed space."""

    r: int
    start: int  # first column in the basis matrix
    hw_weight: float

    @property
    def cols(self):
        return range(self.start, self.start + self.r)


@dataclass
class Decomposition:
    """Block basis of a (sub)space of a graded tensor product.

    basis columns are coupled states, grouped per block with the highest
    weight first; dual rows are a left inverse that kills the invariant
    complement of the decomposed subspace.
    """

    blocks: list
    basis: np.ndarray
    dual: np.ndarray
    eps: np.ndarray     # invariant-metric norm of each coupled state
    metric: np.ndarray  # diagonal of the ambient invariant metric
    parities: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    def block_multiplicities(self):
        mult = {}
        for b in self.blocks:
            mult[b.r] = mult.get(b.r, 0) + 1
        return dict(sorted(mult.items()))


def product_weights(*site_weights):
    """Total weight of every product state of the sites, in flat order: the
    sum of its site weights (the coproduct of h is additive)."""
    total = np.zeros(1)
    for w in site_weights:
        total = np.add.outer(total, np.asarray(w)).ravel()
    return total


def weight_sectors(weights):
    """Indices of the states of each ladder weight, keyed by twice the
    weight rounded to an integer (one ladder step moves the key by 2), in
    increasing key order.  The states are grouped by one stable argsort, so
    each index array is ascending."""
    keys = np.round(2 * np.asarray(weights)).astype(int)
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if keys.size else []
    return {int(keys[g[0]]): g for g in groups}


def product_sectors(*site_weights):
    """Index arrays of the product states of each total weight, ascending."""
    return list(weight_sectors(product_weights(*site_weights)).values())


def check_sectors(M, sectors):
    """Require an array, or each array of a stack on the last two axes, to
    be carried by its diagonal blocks M[s, s] over the index arrays
    `sectors`, which partition its rows.

    Raises QybeError when an entry outside the blocks exceeds
    1e-12 * max(1, max|M|) of its own array: the blocks would then not
    carry M, and their spectra would not be its spectrum.  No block is
    gathered."""
    M = np.asarray(M)
    scale = off = np.zeros(M.shape[:-2])
    for s in sectors:
        rows = np.abs(M[..., s, :])
        scale = np.maximum(scale, rows.max(axis=(-2, -1), initial=0.0))
        rows[..., s] = 0.0
        off = np.maximum(off, rows.max(axis=(-2, -1), initial=0.0))
    bound = 1e-12 * np.maximum(1.0, scale)
    if np.any(off > bound):
        worst = np.argmax(off / bound)
        raise QybeError(f"an entry of modulus {off.flat[worst]:.3e} lies outside the weight "
                        f"sectors (bound {bound.flat[worst]:.1e})")


def local_product(factors, sites):
    """The diagonal blocks of embed_at(A, p) @ embed_at(B, q) @ ... on the
    product of `sites`, for factors [(A, p), (B, q), ...]: each site is the
    `Site` of one tensor factor, and the blocks are taken over the
    total-weight sectors of the sites (`product_sectors`), in that order.
    Per sector, the product of the factors' blocks gathered by
    `block_index`, made one at a time as the returned iterator is consumed.
    A factor may be a stack of operators on its last two axes; the blocks
    are then stacks, multiplied point by point.

    These are the blocks of the product only when every embedded factor
    conserves the weight (`check_sectors` over the sectors of its legs);
    sites of zero weight are one sector, the whole space, which always
    qualifies."""
    parities = [site.parities for site in sites]
    gathers = [(np.reshape(op, np.shape(op)[:-2] + (-1,)), block_index(pos, parities))
               for op, pos in factors]

    def block(op, gather, s):
        index, sign = gather(s)
        return sign * op[..., index]

    return (reduce(np.matmul, [block(op, gather, s) for op, gather in gathers])
            for s in product_sectors(*[site.weights for site in sites]))


def _hw_vectors(e_mat, weights, target_weight, within=None):
    """Vectors at one ladder weight annihilated by e, inside an optional
    restriction span.  Columns returned in the ambient space.

    Inside a restriction span the vectors are combinations of its columns
    whose components off the target weight vanish to the rank tolerance;
    those components are set to exact zeros, so the vectors, the states
    lowered from them and the dual rows solved for them are exactly graded
    by weight."""
    mask = np.abs(weights - target_weight) < 1e-7
    if not mask.any():
        return np.zeros((e_mat.shape[0], 0), dtype=complex)
    if within is None:
        sub = np.zeros((e_mat.shape[0], int(mask.sum())), dtype=complex)
        sub[np.where(mask)[0], np.arange(mask.sum())] = 1.0
        A = e_mat @ sub
    else:
        sub = within
        off = sub[~mask, :] if (~mask).any() else np.zeros((0, sub.shape[1]))
        A = np.vstack([e_mat @ sub, off])
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > 1e-9 * max(1.0, smax)))
    null = vh.conj().T[:, rank:]
    out = sub @ null
    out[~mask] = 0.0
    keep = [c for c in range(out.shape[1]) if np.abs(out[:, c]).max() > 1e-9]
    return out[:, keep]


def decompose(R, params, within=None):
    """Block-decompose an irrep or a RepLike space (optionally restricted to
    the span of the columns of `within`) into irreducible ladders.

    Multiplicity spaces are orthogonalized with modified Gram-Schmidt in the
    invariant bilinear metric, scanning weights from the top, which fixes the
    gauge deterministically.  Each highest-weight vector is phase-fixed (first
    sizable component made real positive), normalized to unit metric norm and
    lowered with the standard gamma of the matching ladder.
    """
    metric, mres = invariant_metric(R.E, R.F)
    if mres > 1e-6:
        raise QybeError(f"invariant metric propagation inconsistent (residual {mres:.2e})")
    wts = ladder_weights(R)
    flatpar = np.asarray(R.parities)
    blocks, cols, eps, pars_out = [], [], [], []
    w = float(np.max(wts))
    while w > -0.25:
        hw = _hw_vectors(R.E, wts, w, within=within)
        if hw.shape[1]:
            kept = []
            for c in range(hw.shape[1]):
                v = hw[:, c].copy()
                for u_ in kept:
                    nrm = u_ @ (metric * u_)
                    v = v - u_ * ((u_ @ (metric * v)) / nrm)
                if np.abs(v).max() > 1e-8:
                    kept.append(v)
            r0 = int(round(2 * w + 1))
            gamma = ladder_coefficients(R.algebra, r0, params)[1]
            for v in kept:
                nz = np.nonzero(np.abs(v) > 1e-8 * np.abs(v).max())[0][0]
                v = v * (np.abs(v[nz]) / v[nz])
                nrm = v @ (metric * v)
                if abs(nrm) < 1e-10:
                    raise QybeError("metric-null highest weight vector; cannot normalize")
                v = v / np.sqrt(nrm + 0j)
                start = len(cols)
                ladder = [v]
                for k in range(r0 - 1):
                    ladder.append(R.F @ ladder[-1] / gamma[k])
                for state in ladder:
                    cols.append(state)
                    eps.append(state @ (metric * state))
                    supp = np.abs(state) > 1e-9 * max(1.0, np.abs(state).max())
                    ps = set(flatpar[supp].tolist())
                    pars_out.append(ps.pop() if len(ps) == 1 else 0)
                blocks.append(Block(r=r0, start=start, hw_weight=w))
        w -= 0.5
    basis = np.array(cols).T if cols else np.zeros((R.dim, 0), dtype=complex)
    if within is None:
        if basis.shape[1] != R.dim:
            raise RankDeficiencyError(
                f"decomposition found {basis.shape[1]} states in a {R.dim}-dim space"
            )
        dual = np.linalg.inv(basis)
    else:
        gram = basis.T @ (metric[:, None] * basis)
        dual = np.linalg.solve(gram, (metric[:, None] * basis).T)
    return Decomposition(
        blocks=blocks,
        basis=basis,
        dual=dual,
        eps=np.array(eps),
        metric=metric,
        parities=np.array(pars_out, dtype=int),
    )


@dataclass
class CouplingTable:
    """Clebsch-Gordan data for V^r1 (x) V^r2.

    C(r0; i1, i2) is the component of the coupled state |r0, i1+i2> on the
    product state (i1, i2); Cbar is the inverse family.  eps holds the metric
    norm of every coupled state, so the entrywise proportionality
    Cbar = eps * metric * C is a direct consistency check.
    """

    rep1: Irrep
    rep2: Irrep
    decomposition: Decomposition

    @property
    def targets(self):
        return sorted(b.r for b in self.decomposition.blocks)

    def _flat(self, i1, i2):
        k1 = int(round(self.rep1.ladder_j - i1))
        k2 = int(round(self.rep2.ladder_j - i2))
        if not (0 <= k1 < self.rep1.r and 0 <= k2 < self.rep2.r):
            raise QybeError(f"weights ({i1},{i2}) outside the ladders")
        return k1 * self.rep2.r + k2

    def _col(self, r0, i):
        for b in self.decomposition.blocks:
            if b.r == r0:
                k = int(round((r0 - 1) / 2.0 - i))
                if not 0 <= k < r0:
                    raise QybeError(f"weight {i} outside target ladder {r0}")
                return b.start + k
        raise QybeError(f"target dimension {r0} not in the decomposition")

    def coefficient(self, r0, i1, i2):
        return complex(self.decomposition.basis[self._flat(i1, i2), self._col(r0, i1 + i2)])

    def inverse_coefficient(self, r0, i1, i2):
        return complex(self.decomposition.dual[self._col(r0, i1 + i2), self._flat(i1, i2)])


def cgc_table(rep1, rep2):
    """Coupling table for a pair of irreps of the same algebra."""
    if rep1.algebra != rep2.algebra:
        raise QybeError("mixed-algebra coupling")
    pair = coproduct_pair(rep1.algebra, rep1, rep2, rep1.params.q)
    dec = decompose(pair, rep1.params)
    found = sorted(b.r for b in dec.blocks)
    if found != tensor_decompose(rep1.r, rep2.r):
        raise RankDeficiencyError(
            f"block dimensions {found} do not match the expected decomposition"
        )
    return CouplingTable(rep1, rep2, dec)


def projector(table, r0):
    """CGC-route projector onto the dimension-r0 block of the table's pair."""
    if r0 not in table.targets:
        raise QybeError(f"target {r0} not in the decomposition of "
                        f"({table.rep1.r},{table.rep2.r})")
    dec = table.decomposition
    sel = np.zeros(dec.dim)
    for b in dec.blocks:
        if b.r == r0:
            sel[list(b.cols)] = 1.0
    return dec.basis @ (sel[:, None] * dec.dual)


def casimir_projector(rep1, rep2, r0):
    """Spectral-route projector: polynomial in the pair Casimir with the known
    block eigenvalues.  Independent of the CGC construction."""
    params = rep1.params
    targets = tensor_decompose(rep1.r, rep2.r)
    if r0 not in targets:
        raise QybeError(f"target {r0} not in the decomposition of ({rep1.r},{rep2.r})")
    vals = {t: casimir_value(rep1.algebra, t, params.q) for t in targets}
    for t in targets:
        if t != r0 and abs(vals[t] - vals[r0]) < 1e-8:
            raise EigenvalueCollisionError(
                f"casimir eigenvalues for blocks {r0} and {t} collide at this q"
            )
    pair = coproduct_pair(rep1.algebra, rep1, rep2, params.q)
    C = casimir_matrix(rep1.algebra, pair, params.q)
    out = np.eye(C.shape[0], dtype=complex)
    for t in targets:
        if t != r0:
            out = out @ (C - vals[t] * np.eye(C.shape[0])) / (vals[r0] - vals[t])
    return out


def chi_quartic(table, t):
    """Quartic coefficient product C Cbar C Cbar at opposite weights (t, -t)
    in the singlet block; t-independent for a consistent table."""
    return (
        table.coefficient(1, t, -t)
        * table.inverse_coefficient(1, t, -t)
        * table.coefficient(1, -t, t)
        * table.inverse_coefficient(1, -t, t)
    )


def chi_closed(algebra, r, q):
    """Closed form of the triple-overlap scalar: 1/[r]^2 at base i*sqrt(q)
    for the graded algebra, 1/[r]_q^2 for sl_q(2)."""
    if algebra == OSPQ12:
        return 1.0 / q_sub_bracket(r, q) ** 2
    return 1.0 / q_number(r, q) ** 2


def chi_factor(table):
    """Scalar in P1_12 P1_23 P1_12 = chi P1_12 on the triple product, by brute
    force from the singlet projector of the table of V^r (x) V^r."""
    r = table.rep1.r
    if r < 2:
        raise QybeError("chi_factor needs r >= 2")
    P1 = projector(table, 1)
    I = np.eye(r)
    P12 = np.kron(P1, I)
    P23 = np.kron(I, P1)
    lhs = P12 @ P23 @ P12
    chi = np.vdot(P12, lhs) / np.vdot(P12, P12)
    resid = np.abs(lhs - chi * P12).max() / max(1.0, np.abs(lhs).max())
    if resid > 1e-8:
        raise QybeError(f"projector product not proportional to P1 (residual {resid:.2e})")
    return complex(chi)


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


def _block_replike(algebra, dec, pair_gens, block):
    cols = list(block.cols)
    return RepLike(
        algebra,
        pair_gens.E[np.ix_(cols, cols)],
        pair_gens.F[np.ix_(cols, cols)],
        pair_gens.H[np.ix_(cols, cols)],
        dec.parities[cols],
    )


def coupled_basis(table):
    """Four-factor coupled basis |j12, j34; J, i> for (V^r)^(x4), from the
    coupling table of V^r (x) V^r.

    Pair blocks are coupled with their measured ladder data (an embedded
    block can carry the opposite parity convention to a standalone irrep,
    e.g. an odd pair singlet), so the sector couplings are rebuilt from the
    block generators rather than from standard tables."""
    rep, params = table.rep1, table.rep1.params
    dec = table.decomposition
    d2 = rep.r ** 2
    pair_co = coproduct_pair(rep.algebra, rep, rep, params.q)
    gens = RepLike(rep.algebra, dec.dual @ pair_co.E @ dec.basis,
                   dec.dual @ pair_co.F @ dec.basis,
                   dec.dual @ pair_co.H @ dec.basis, dec.parities)
    pprod = (np.add.outer(np.asarray(rep.parities), np.asarray(rep.parities)) % 2).reshape(-1)
    B1 = graded_kron_raw(dec.basis, dec.basis, dec.parities, pprod, dec.parities, pprod)
    total = np.zeros((d2 * d2, d2 * d2), dtype=complex)
    labels = []
    sectors = {}
    for ai, bA in enumerate(dec.blocks):
        Alike = _block_replike(rep.algebra, dec, gens, bA)
        for bi, bB in enumerate(dec.blocks):
            Blike = _block_replike(rep.algebra, dec, gens, bB)
            sector = decompose(coproduct_pair(rep.algebra, Alike, Blike, params.q), params)
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
    four = coproduct_pair(rep.algebra, pair_co, pair_co, params.q)
    metric, _ = invariant_metric(four.E, four.F)
    eps = np.array([basis[:, c] @ (metric * basis[:, c]) for c in range(basis.shape[1])])
    return CoupledBasis(labels=labels, basis=basis, dual=dual, eps=eps,
                        metric=metric, sectors=sectors)
