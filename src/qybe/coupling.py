"""Tensor-product decomposition: highest-weight coupling, coefficient tables,
invariant projectors and the scalar controlling the baxterized family.

Coupled bases are built per block by solving for the highest-weight vector in
the top weight subspace and lowering with the standard gamma coefficients of
the target ladder (no irrep is built per block), so every block carries
textbook generator matrix elements.
Dual coefficients come from the exact matrix inverse of the basis, which makes
the biorthogonality relation hold to machine precision by construction; each
highest-weight vector is normalized in the propagated invariant metric.
`cgc_table` takes a pair of irreps; `projector` and `chi_factor` take the
table, so one table of V^r (x) V^r serves both.

The total-weight sectors of product states (`product_sectors`, a lookup of
`Site.product` keys) and the guard `check_sectors`, which refuses an
operator with an entry between them, live here too; the sector blocks
themselves are gathered by `repspace.block_index`.
"""

from dataclasses import dataclass

import numpy as np

from .qarith import OSPQ12, QybeError, q_number, q_sub_bracket
from .repspace import (
    Rep,
    Site,
    casimir_matrix,
    casimir_value,
    coproduct_pair,
    invariant_metric,
    ladder_coefficients,
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
    parities: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def site(self):
        """The coupled states as a tensor factor: in basis order, block by
        block, their parities and the weights hw - k down each ladder."""
        return Site(self.parities, [b.hw_weight - k for b in self.blocks for k in range(b.r)])


def product_sectors(*sites):
    """Index arrays of the product states of the sites of each total
    weight, ascending, in increasing weight."""
    return list(Site.product(*sites).sectors.values())


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


def _hw_vectors(e_mat, states, within=None):
    """Vectors on the states of one weight sector annihilated by e, inside an
    optional restriction span.  Columns returned in the ambient space.

    The columns of a restriction span must be weight-pure (exact zeros off
    one weight, as `decompose` requires); only those on `states` enter, so
    the vectors, the states lowered from them and the dual rows solved for
    them are exactly graded by weight."""
    if within is None:
        sub = np.zeros((e_mat.shape[0], states.size), dtype=complex)
        sub[states, np.arange(states.size)] = 1.0
    else:
        sub = within[:, np.any(within[states] != 0, axis=0)]
    if not sub.shape[1]:
        return np.zeros((e_mat.shape[0], 0), dtype=complex)
    _, s, vh = np.linalg.svd(e_mat @ sub, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s.max())))
    return sub @ vh[rank:].conj().T


def decompose(R, within=None):
    """Block-decompose the space of a rep (optionally restricted to
    the span of the columns of `within`, each of which must lie in one weight
    sector of `R.site`) into irreducible ladders, with R's parameters.

    The keys of `R.site` are scanned from the top down to 0: a highest
    weight of key k heads k + 1 states.  Multiplicity spaces are
    orthogonalized with modified Gram-Schmidt in the invariant bilinear
    metric, so the gauge inside a multiplicity space follows the kernel
    basis it is given: the same span from other round-off in the kernel
    gives another basis of it.  Each highest-weight
    vector is phase-fixed (first sizable component made real positive),
    normalized to unit metric norm and lowered with the standard gamma of
    the matching ladder.
    """
    metric, mres = invariant_metric(R.E, R.F)
    if mres > 1e-6:
        raise QybeError(f"invariant metric propagation inconsistent (residual {mres:.2e})")
    sectors = R.site.sectors
    if within is not None:
        hits = sum(np.any(within[s] != 0, axis=0).astype(int) for s in sectors.values())
        if np.any(hits != 1):
            raise QybeError("a column of the restriction span is not in one weight sector")
    flatpar = np.asarray(R.parities)
    blocks, cols, pars_out = [], [], []
    for key in range(max(sectors), -1, -1):
        hw = _hw_vectors(R.E, sectors.get(key, np.zeros(0, dtype=int)), within=within)
        if hw.shape[1]:
            kept = []
            for c in range(hw.shape[1]):
                v = hw[:, c].copy()
                for u_ in kept:
                    nrm = u_ @ (metric * u_)
                    v = v - u_ * ((u_ @ (metric * v)) / nrm)
                if np.abs(v).max() > 1e-8:
                    kept.append(v)
            r0 = key + 1
            gamma = ladder_coefficients(r0, R.params)[1]
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
                    supp = np.abs(state) > 1e-9 * max(1.0, np.abs(state).max())
                    ps = set(flatpar[supp].tolist())
                    pars_out.append(ps.pop() if len(ps) == 1 else 0)
                blocks.append(Block(r=r0, start=start, hw_weight=key / 2))
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
    return Decomposition(blocks, basis, dual, np.array(pars_out, dtype=int))


@dataclass
class CouplingTable:
    """Clebsch-Gordan data for V^r1 (x) V^r2.

    C(r0; i1, i2) is the component of the coupled state |r0, i1+i2> on the
    product state (i1, i2); Cbar is the inverse family, entrywise the
    product of C, the invariant metric and each coupled state's metric norm.
    """

    rep1: Rep
    rep2: Rep
    decomposition: Decomposition

    @property
    def targets(self):
        return sorted(b.r for b in self.decomposition.blocks)


def cgc_table(rep1, rep2):
    """Coupling table for a pair of irreps of the same algebra and
    parameters (`coproduct_pair` refuses any other pair)."""
    dec = decompose(coproduct_pair(rep1, rep2))
    found = sorted(b.r for b in dec.blocks)
    if found != tensor_decompose(rep1.dim, rep2.dim):
        raise RankDeficiencyError(
            f"block dimensions {found} do not match the expected decomposition"
        )
    return CouplingTable(rep1, rep2, dec)


def projector(table, r0):
    """CGC-route projector onto the dimension-r0 block of the table's pair."""
    if r0 not in table.targets:
        raise QybeError(f"target {r0} not in the decomposition of "
                        f"({table.rep1.dim},{table.rep2.dim})")
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
    targets = tensor_decompose(rep1.dim, rep2.dim)
    if r0 not in targets:
        raise QybeError(f"target {r0} not in the decomposition of ({rep1.dim},{rep2.dim})")
    vals = {t: casimir_value(rep1.algebra, t, params.q) for t in targets}
    for t in targets:
        if t != r0 and abs(vals[t] - vals[r0]) < 1e-8:
            raise EigenvalueCollisionError(
                f"casimir eigenvalues for blocks {r0} and {t} collide at this q"
            )
    C = casimir_matrix(coproduct_pair(rep1, rep2))
    out = np.eye(C.shape[0], dtype=complex)
    for t in targets:
        if t != r0:
            out = out @ (C - vals[t] * np.eye(C.shape[0])) / (vals[r0] - vals[t])
    return out


def chi_closed(algebra, r, q):
    """Closed form of the triple-overlap scalar: 1/[r]^2 at base i*sqrt(q)
    for the graded algebra, 1/[r]_q^2 for sl_q(2)."""
    if algebra == OSPQ12:
        return 1.0 / q_sub_bracket(r, q) ** 2
    return 1.0 / q_number(r, q) ** 2


def chi_factor(table):
    """Scalar in P1_12 P1_23 P1_12 = chi P1_12 on the triple product, by brute
    force from the singlet projector of the table of V^r (x) V^r."""
    r = table.rep1.dim
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
