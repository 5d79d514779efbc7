"""Centralizer operators on tensor powers of composite spaces.

Two independent constructions of the same subspace:

* commutant_nullspace works with the dense coproduct generator matrices and
  solves the commutator equations blocked by total-weight sectors (the h
  commutator forces weight conservation, so the unknown coefficient tensor
  is sector diagonal).

* constraint_system never touches a dense generator: it assembles the ladder
  recursions on the coefficients of elementary-operator products directly
  from per-block matrix-element data (beta, gamma, weights, parities),
  i.e. the weight-conservation rule plus one raising and one lowering family
  of equations with the graded prefix factors of the iterated coproduct.

Both return bases of the same space; principal angles compare them.  The
two systems are assembled independently but share one solver: the system
splits into the connected components of its sparsity pattern (16 for the
1200 x 646 system of U8 (x) U8, none larger than 160 x 85), and each
component gets its own small SVD.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .qarith import COMMUTANT_BUDGET, DESK_BOUND, OSPQ12, QybeError
from .repspace import GradedOperator, nfold_coproduct
from .coupling import ladder_weights


@dataclass
class ElementaryOp:
    """|target><source| between two ladder states of a composite space."""

    source: tuple  # (block index, spin j, weight i)
    target: tuple
    dim: int
    row: int
    col: int

    def matrix(self):
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.row, self.col] = 1.0
        return m


def elementary_ops(U):
    """Complete basis of dim(U)^2 elementary operators on the block
    coordinates of a composite space."""
    dec = U.decomposition
    states = []
    for bi, b in enumerate(dec.blocks):
        jb = (b.r - 1) / 2.0
        for k, col in enumerate(b.cols):
            states.append((bi, jb, jb - k, col))
    ops = []
    for tgt in states:
        for src in states:
            ops.append(ElementaryOp(
                source=src[:3], target=tgt[:3], dim=U.dim, row=tgt[3], col=src[3],
            ))
    return ops


@dataclass
class CommutantBasis:
    """Orthonormal basis of the operators commuting with the n-fold coproduct
    action on U^(x n), stored as vectorized matrices (columns, row-major)."""

    dim_space: int
    n: int
    vectors: np.ndarray
    provenance: str
    rank_gap: float = np.inf

    @property
    def dim(self):
        return self.vectors.shape[1]

    def matrices(self):
        d = self.dim_space ** self.n
        return [self.vectors[:, k].reshape(d, d) for k in range(self.dim)]


def _sectors_of(weights):
    keys = np.round(2 * weights).astype(int)
    sectors = {}
    for idx, k in enumerate(keys):
        sectors.setdefault(int(k), []).append(idx)
    return sectors


def _sector_layout(sectors, d):
    """Layout of the dense centralizer system over the weight sectors: the
    number of unknowns (the sector blocks one after the other), the flat
    position in a vectorized d x d matrix of every unknown, the row count,
    and in row order one (step, source states, target states, source
    offset, target offset, rows) per sector pair (k, k + step), step 2 then
    -2.

    Raises QybeError when the system, one row per (sector, sector +-2)
    entry pair and one column per unknown, would pass COMMUTANT_BUDGET."""
    offsets, total, flat = {}, 0, []
    for k in sorted(sectors):
        idx = np.asarray(sectors[k])
        offsets[k] = total
        total += idx.size ** 2
        flat.append(np.add.outer(idx * d, idx).ravel())
    blocks, rows = [], 0
    for step in (2, -2):
        for k in sorted(sectors):
            if k + step in sectors:
                src, tgt = sectors[k], sectors[k + step]
                blocks.append((step, src, tgt, offsets[k], offsets[k + step],
                               slice(rows, rows + len(src) * len(tgt))))
                rows += len(src) * len(tgt)
    if rows * total > COMMUTANT_BUDGET:
        raise QybeError(f"commutant system {rows} x {total} exceeds the budget "
                        f"of {COMMUTANT_BUDGET:.0e} entries")
    return total, np.concatenate(flat), rows, blocks


def _scatter_sectors(null, flat, d):
    """Sector-block null vectors as vectorized d x d matrices.  Every
    unknown has its own matrix entry, so orthonormal columns stay
    orthonormal."""
    vecs = np.zeros((d * d, null.shape[1]), dtype=complex)
    vecs[flat] = null
    return vecs


def _column_components(pattern):
    """Connected-component label of every column of a boolean system
    pattern: two columns are connected when an equation row touches both.
    Min-label propagation over the row/column incidence, with pointer
    jumping; each label is the smallest column index of its component."""
    rows, cols = np.nonzero(pattern)
    label = np.arange(pattern.shape[1])
    while True:
        row_min = np.full(pattern.shape[0], label.size)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _nullspace_from_system(sys_mat, total, gap_tol=1e3):
    """Orthonormal null space of sys_mat, one SVD per connected component of
    its sparsity pattern.

    Entries below 1e-12 of the largest one are round-off fill-in and do not
    connect components.  The null space is the direct sum of the component
    null spaces; columns no equation touches are free.  The rank threshold
    and the gap test see the singular values of all components together,
    and the assembled basis must satisfy the full, uncut system."""
    mags = np.abs(sys_mat)
    pattern = mags > 1e-12 * mags.max()
    label = _column_components(pattern)
    row_label = label[np.argmax(pattern, axis=1)]
    live = pattern.any(axis=1)
    parts = []
    for lab in np.unique(label):
        cols = np.flatnonzero(label == lab)
        rows = np.flatnonzero(live & (row_label == lab))
        if rows.size:
            _, s, vh = np.linalg.svd(sys_mat[np.ix_(rows, cols)])
        else:
            s, vh = np.zeros(0), np.eye(cols.size)
        parts.append((cols, s, vh))
    s_all = np.sort(np.concatenate([s for _, s, _ in parts]))[::-1]
    smax = s_all[0] if s_all.size else 0.0
    thresh = max(1.0, smax) * max(total, 1) * 1e-11
    rank = int(np.sum(s_all > thresh))
    gap = np.inf
    if 0 < rank < len(s_all) and s_all[rank] > 0:
        gap = float(s_all[rank - 1] / s_all[rank])
        if gap < gap_tol and s_all[rank] > thresh / gap_tol:
            raise QybeError(f"rank ambiguity in the null space (gap {gap:.1e})")
    kerns = [(cols, vh[int(np.sum(s > thresh)):].conj().T) for cols, s, vh in parts]
    null = np.zeros((total, sum(k.shape[1] for _, k in kerns)), dtype=complex)
    j = 0
    for cols, kern in kerns:
        null[cols, j:j + kern.shape[1]] = kern
        j += kern.shape[1]
    resid = np.linalg.norm(sys_mat @ null, axis=0).max(initial=0.0)
    if resid > thresh:
        raise QybeError(f"null-space residual {resid:.1e} exceeds the rank "
                        f"threshold {thresh:.1e}")
    return null, gap


def commutant_nullspace(U, n, params=None, gap_tol=1e3):
    """Joint null space of [Delta^n g, c] = 0 for g in {e, f, h}, solved by
    SVD over the weight-sector blocks of the coefficient matrix."""
    params = params or U.params
    gens = U.replike() if hasattr(U, "replike") else U
    dU = gens.dim
    if n < 1:
        raise QybeError(f"commutant needs n >= 1, got {n}")
    if dU ** n > DESK_BOUND:
        raise QybeError(f"commutant space {dU}^{n} exceeds the desk bound {DESK_BOUND}")
    co = nfold_coproduct(gens.algebra, [gens] * n, params.q)
    d = co.dim
    total, flat, rows, blocks = _sector_layout(_sectors_of(ladder_weights(co)), d)
    sys_mat = np.zeros((max(rows, 1), total), dtype=complex)
    for step, src, tgt, off1, off2, block_rows in blocks:
        A = (co.E if step == 2 else co.F)[np.ix_(tgt, src)]
        blk, m1, m2 = sys_mat[block_rows], len(src), len(tgt)
        for t in range(m2):
            for s_ in range(m1):
                row = t * m1 + s_
                for s2 in range(m1):
                    blk[row, off1 + s2 * m1 + s_] += A[t, s2]
                for t2 in range(m2):
                    blk[row, off2 + t * m2 + t2] -= A[t2, s_]
    null, gap = _nullspace_from_system(sys_mat, total, gap_tol)
    return CommutantBasis(dim_space=dU, n=n, vectors=_scatter_sectors(null, flat, d),
                          provenance="nullspace-svd", rank_gap=gap)


def _block_ladder_data(U):
    """Per-state (block, weight, parity, beta, gamma) read from the compressed
    generators: beta[s] raises state s within its block, gamma[s] lowers."""
    gens = U.replike()
    dec = U.decomposition
    E, F, H = gens.E, gens.F, gens.H
    states = []
    for bi, b in enumerate(dec.blocks):
        cols = list(b.cols)
        for k, col in enumerate(cols):
            beta = E[cols[k - 1], col] if k > 0 else 0j
            gamma = F[cols[k + 1], col] if k + 1 < len(cols) else 0j
            states.append({
                "index": col,
                "block": bi,
                "weight": b.hw_weight - k,
                "lam": complex(H[col, col]),
                "parity": int(dec.parities[col]),
                "beta": complex(beta),       # e|s> = beta |s raised>
                "gamma": complex(gamma),     # f|s> = gamma |s lowered>
                "up": cols[k - 1] if k > 0 else None,
                "down": cols[k + 1] if k + 1 < len(cols) else None,
            })
    states.sort(key=lambda st: st["index"])
    return states


def _coproduct_action(states, n, q, algebra, which):
    """Sparse action of the n-fold coproduct of e (which='e') or f on the
    product basis of states^n, as {multi-index: [(multi-index', coeff)]}.

    The raising/lowering entry at slot m carries the exchange prefix of the
    iterated coproduct: products of q^{lam} (or q^{+-lam/2}) over the other
    slots, and for the graded algebra the Koszul sign of moving an odd
    generator past the leading slots."""
    dU = len(states)
    action = {}
    for multi in itertools.product(range(dU), repeat=n):
        out = []
        for m in range(n):
            st = states[multi[m]]
            nxt = st["up"] if which == "e" else st["down"]
            coef = st["beta"] if which == "e" else st["gamma"]
            if nxt is None or coef == 0:
                continue
            pref = complex(1.0)
            if algebra == OSPQ12:
                for p in range(m):
                    pref *= q ** (states[multi[p]]["lam"] / 2)
                    pref *= (-1.0) ** states[multi[p]]["parity"]
                for p in range(m + 1, n):
                    pref *= q ** (-states[multi[p]]["lam"] / 2)
            else:
                if which == "e":
                    for p in range(m):
                        pref *= q ** states[multi[p]]["lam"]
                else:
                    for p in range(m + 1, n):
                        pref *= q ** (-states[multi[p]]["lam"])
            tgt = multi[:m] + (nxt,) + multi[m + 1:]
            out.append((tgt, coef * pref))
        action[multi] = out
    return action


def constraint_system(U, n, params=None, gap_tol=1e3):
    """Centralizer coefficients from the structured ladder equations.

    Unknowns are coefficients of elementary-operator products, keyed by
    weight sector (the conservation rule); one equation family per generator
    relates coefficients along the raising and lowering ladders.  Returns
    (CommutantBasis, system matrix)."""
    params = params or U.params
    states = _block_ladder_data(U)
    dU = len(states)
    if n < 1:
        raise QybeError(f"commutant needs n >= 1, got {n}")
    if dU ** n > DESK_BOUND:
        raise QybeError(f"commutant space {dU}^{n} exceeds the desk bound {DESK_BOUND}")
    d = dU ** n
    multis = list(itertools.product(range(dU), repeat=n))
    wts = np.array([sum(states[i]["weight"] for i in multi) for multi in multis])
    sectors = _sectors_of(wts)
    # position of each multi-index within its weight sector
    pos = {multis[idx]: a for states_k in sectors.values() for a, idx in enumerate(states_k)}
    total, flat, rows, blocks = _sector_layout(sectors, d)
    sys_mat = np.zeros((max(rows, 1), total), dtype=complex)
    acts = {step: _coproduct_action(states, n, params.q, U.algebra, which)
            for which, step in (("e", 2), ("f", -2))}
    for step, src, tgt, off1, off2, block_rows in blocks:
        act, blk, m1, m2 = acts[step], sys_mat[block_rows], len(src), len(tgt)
        # + (A c): A from src-sector states upward/downward into tgt
        for a, idx in enumerate(src):
            for tgt_multi, coef in act[multis[idx]]:
                for s_ in range(m1):
                    blk[pos[tgt_multi] * m1 + s_, off1 + a * m1 + s_] += coef
        # - (c A): same A entries acting on the right index
        for a, idx in enumerate(src):
            for tgt_multi, coef in act[multis[idx]]:
                t2 = pos[tgt_multi]
                for t in range(m2):
                    blk[t * m1 + a, off2 + t * m2 + t2] -= coef
    null, gap = _nullspace_from_system(sys_mat, total, gap_tol)
    basis = CommutantBasis(dim_space=dU, n=n, vectors=_scatter_sectors(null, flat, d),
                           provenance="ladder-constraints", rank_gap=gap)
    return basis, sys_mat


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two commutant bases, computed with
    the sine formulation so that near-zero angles are resolved to machine
    precision instead of the arccos floor."""
    A = basis_a.vectors if isinstance(basis_a, CommutantBasis) else basis_a
    B = basis_b.vectors if isinstance(basis_b, CommutantBasis) else basis_b
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    resid = qb - qa @ (qa.conj().T @ qb)
    sines = np.linalg.svd(resid, compute_uv=False)
    sines = np.clip(sines[: min(qa.shape[1], qb.shape[1])], 0.0, 1.0)
    return np.sort(np.arcsin(sines))


def membership(op, basis, tol=1e-8):
    """Least-squares expansion of an operator over a commutant basis.
    Returns (is_member, coefficients, residual)."""
    m = op.matrix if isinstance(op, GradedOperator) else np.asarray(op)
    v = m.reshape(-1)
    coef, *_ = np.linalg.lstsq(basis.vectors, v, rcond=None)
    resid = np.abs(basis.vectors @ coef - v).max() / max(1.0, np.abs(v).max())
    return bool(resid < tol), coef, float(resid)
