"""Centralizer operators on tensor powers of composite spaces.

Two routes to the same subspace.  They differ in where the n-fold
generators Delta^n(e), Delta^n(f) and the weight sectors come from:

* commutant_nullspace takes the generators from the dense iterated
  coproduct (repspace.nfold_coproduct) and the sectors from its h.

* constraint_system writes the generators from per-block matrix-element
  data (beta, gamma, h eigenvalues, parities) with the graded prefix factors
  of the iterated coproduct, and sums the sectors from the per-state
  weights (coupling.product_weights).

Everything after that is shared.  The h commutator forces weight
conservation, so the unknown coefficient matrix is sector diagonal
(_sector_layout); the equations A C_k - C_{k+-2} A = 0 of each pair of
sectors are the two Kronecker blocks kron(A, 1) and -kron(1, A^T), written
as a list of their nonzero entries (_centralizer, SystemEntries: the
1200 x 646 system of U8 (x) U8 is 3992 entries); and one solver splits the
system into the connected components of its sparsity pattern (16 for
U8 (x) U8, none larger than 160 x 85), each scattered into a small dense
block with its own SVD.  Principal angles between the two bases therefore
check the generators and sectors, not the shared assembly.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qarith import COMMUTANT_BUDGET, DESK_BOUND, OSPQ12, QybeError
from .repspace import ladder_weights, nfold_coproduct
from .coupling import product_weights, weight_sectors


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
    rank_gap: float = np.inf

    @property
    def dim(self):
        return self.vectors.shape[1]

    def matrices(self):
        d = self.dim_space ** self.n
        return [self.vectors[:, k].reshape(d, d) for k in range(self.dim)]


def _refuse_over_budget(sectors):
    """Raise QybeError when the centralizer system over the weight sectors,
    one row per (sector, sector +-2) entry pair and one column per unknown,
    would pass COMMUTANT_BUDGET; it needs only the sector sizes."""
    size = {k: len(idx) for k, idx in sectors.items()}
    total = sum(s * s for s in size.values())
    rows = 2 * sum(s * size.get(k + 2, 0) for k, s in size.items())
    if rows * total > COMMUTANT_BUDGET:
        raise QybeError(f"commutant system {rows} x {total} exceeds the budget "
                        f"of {COMMUTANT_BUDGET:.0e} entries")


def _sector_layout(sectors, d):
    """Layout of the centralizer system over the weight sectors: the
    number of unknowns (the sector blocks one after the other), the flat
    position in a vectorized d x d matrix of every unknown, the row count,
    and in row order one (step, source states, target states, source
    offset, target offset, rows) per sector pair (k, k + step), step 2 then
    -2.  Refuses a system over the budget (_refuse_over_budget) first."""
    _refuse_over_budget(sectors)
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
    return total, np.concatenate(flat), rows, blocks


def _scatter_sectors(null, flat, d):
    """Sector-block null vectors as vectorized d x d matrices.  Every
    unknown has its own matrix entry, so orthonormal columns stay
    orthonormal."""
    vecs = np.zeros((d * d, null.shape[1]), dtype=complex)
    vecs[flat] = null
    return vecs


class SystemEntries(NamedTuple):
    """A linear system by its nonzero entries: the value val[k] at
    (row[k], col[k]), each position at most once, in a matrix of the given
    shape (equations, unknowns)."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple


def _column_components(rows, cols, shape):
    """Connected-component label of every column of a system whose pattern
    holds the entries (rows, cols): two columns are connected when an
    equation row touches both.  Min-label propagation over the row/column
    incidence, with pointer jumping; each label is the smallest column index
    of its component."""
    label = np.arange(shape[1])
    while True:
        row_min = np.full(shape[0], label.size)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _nullspace_from_system(system):
    """Orthonormal null space of a SystemEntries, one SVD per connected
    component of its sparsity pattern.

    Entries below 1e-12 of the largest one are round-off fill-in and do not
    connect components.  Each component's columns and the rows they touch,
    in ascending order, form a dense block of the system; its rows whose
    entries pass the cut-off go to the SVD.  The null space is the direct
    sum of the component null spaces; columns no equation touches are free.
    The rank threshold and the gap test (a gap below 1e3 between singular
    values above thresh / 1e3 is ambiguous) see the singular values of all
    components together, and the assembled basis must satisfy the full,
    uncut system: each block times its component's null vectors."""
    row, col, val, (n_rows, total) = system
    mags = np.abs(val)
    cut = mags > 1e-12 * mags.max(initial=0.0)
    label = _column_components(row[cut], col[cut], (n_rows, total))
    row_label = np.full(n_rows, -1)
    row_label[row[cut]] = label[col[cut]]
    entry_label = label[col]
    col_pos = np.empty(total, dtype=np.intp)  # position in its component
    parts = []
    for lab in np.flatnonzero(label == np.arange(label.size)):  # component roots
        cols = np.flatnonzero(label == lab)
        col_pos[cols] = np.arange(cols.size)
        touch = entry_label == lab
        rows, row_pos = np.unique(row[touch], return_inverse=True)
        block = np.zeros((rows.size, cols.size), dtype=complex)
        block[row_pos, col_pos[col[touch]]] = val[touch]
        own = block[row_label[rows] == lab]
        if own.size:
            # the null space needs every row of vh, but never the square u
            _, s, vh = np.linalg.svd(own, full_matrices=own.shape[0] < cols.size)
        else:
            s, vh = np.zeros(0), np.eye(cols.size)
        parts.append((cols, block, s, vh))
    s_all = np.sort(np.concatenate([s for _, _, s, _ in parts]))[::-1]
    smax = s_all[0] if s_all.size else 0.0
    thresh = max(1.0, smax) * max(total, 1) * 1e-11
    rank = int(np.sum(s_all > thresh))
    gap = np.inf
    if 0 < rank < len(s_all) and s_all[rank] > 0:
        gap = float(s_all[rank - 1] / s_all[rank])
        if gap < 1e3 and s_all[rank] > thresh / 1e3:
            raise QybeError(f"rank ambiguity in the null space (gap {gap:.1e})")
    null = np.zeros((total, total - rank), dtype=complex)
    j, resid = 0, 0.0
    for cols, block, s, vh in parts:
        kern = vh[int(np.sum(s > thresh)):].conj().T
        null[cols, j:j + kern.shape[1]] = kern
        j += kern.shape[1]
        resid = max(resid, np.linalg.norm(block @ kern, axis=0).max(initial=0.0))
    if resid > thresh:
        raise QybeError(f"null-space residual {resid:.1e} exceeds the rank "
                        f"threshold {thresh:.1e}")
    return null, gap


def _product_dim(dU, n):
    """dU^n, refusing n < 1 and a product space past the desk bound."""
    if n < 1:
        raise QybeError(f"commutant needs n >= 1, got {n}")
    if dU ** n > DESK_BOUND:
        raise QybeError(f"commutant space {dU}^{n} exceeds the desk bound {DESK_BOUND}")
    return dU ** n


def _centralizer(layout, E, F, dU, n):
    """Centralizer of the n-fold generators E = Delta^n(e), F = Delta^n(f)
    over a `_sector_layout`.  The pair of sectors (k, k + step) gives the
    rows of A C_k - C_{k+step} A = 0 with A = (E or F)[tgt, src]; in
    row-major vectorization that is kron(A, 1) on the unknowns of C_k and
    -kron(1, A^T) on those of C_{k+step}, written entry by entry from the
    nonzero A[i, a]: row i m1 + j meets column a m1 + j of C_k with A[i, a]
    and column i m2 + b of C_{k+step} with -A[b, j].  Returns
    (CommutantBasis, SystemEntries)."""
    total, flat, n_rows, blocks = layout
    row, col = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    val = [np.zeros(0, dtype=complex)]
    for step, src, tgt, off1, off2, block_rows in blocks:
        A = (E if step == 2 else F)[np.ix_(tgt, src)]
        m1, m2 = len(src), len(tgt)
        i, a = np.nonzero(A)
        v = A[i, a]
        j1, i2 = np.arange(m1), np.arange(m2)
        # the second pair of lists is -kron(1, A^T), with (b, j) = (i, a)
        row += [((block_rows.start + i * m1)[:, None] + j1).ravel(),
                (block_rows.start + i2 * m1 + a[:, None]).ravel()]
        col += [((off1 + a * m1)[:, None] + j1).ravel(),
                (off2 + i2 * m2 + i[:, None]).ravel()]
        val += [np.repeat(v, m1), np.repeat(-v, m2)]
    system = SystemEntries(np.concatenate(row), np.concatenate(col),
                           np.concatenate(val), (n_rows, total))
    null, gap = _nullspace_from_system(system)
    basis = CommutantBasis(dim_space=dU, n=n, rank_gap=gap,
                           vectors=_scatter_sectors(null, flat, dU ** n))
    return basis, system


def commutant_nullspace(U, n):
    """Joint null space of [Delta^n g, c] = 0 for g in {e, f, h}, solved by
    SVD over the weight-sector blocks of the coefficient matrix."""
    gens = U.gens
    d = _product_dim(gens.dim, n)
    # refused from the summed per-state weights, before any d x d generator
    # exists; the layout solved on still comes from the coproduct's own h
    _refuse_over_budget(weight_sectors(product_weights(*[U.site.weights] * n)))
    co = nfold_coproduct(gens.algebra, [gens] * n, U.params.q)
    layout = _sector_layout(weight_sectors(ladder_weights(co)), d)
    return _centralizer(layout, co.E, co.F, gens.dim, n)[0]


def _block_ladder_data(U):
    """Per-state ladder data in basis order, read from the compressed
    generators: weight, h eigenvalue lam, parity, and the neighbours in the
    block with e|s> = beta |up> and f|s> = gamma |down> (None past the ends
    of the ladder)."""
    gens = U.gens
    dec = U.decomposition
    E, F, H = gens.E, gens.F, gens.H
    states = []
    for b in dec.blocks:
        cols = list(b.cols)
        for k, col in enumerate(cols):
            beta = E[cols[k - 1], col] if k > 0 else 0j
            gamma = F[cols[k + 1], col] if k + 1 < len(cols) else 0j
            states.append({
                "index": col,
                "weight": b.hw_weight - k,
                "lam": complex(H[col, col]),
                "parity": int(dec.parities[col]),
                "beta": complex(beta),
                "gamma": complex(gamma),
                "up": cols[k - 1] if k > 0 else None,
                "down": cols[k + 1] if k + 1 < len(cols) else None,
            })
    states.sort(key=lambda st: st["index"])
    return states


def _coproduct_generators(states, n, q, algebra):
    """Dense n-fold coproducts (E, F) of e and f on the product basis of
    states^n, written from the per-state ladder data.

    The raising/lowering entry at slot m carries the exchange prefix of the
    iterated coproduct: products of q^{lam} (or q^{+-lam/2}) over the other
    slots, and for the graded algebra the Koszul sign of moving an odd
    generator past the leading slots."""
    dU = len(states)
    E, F = np.zeros((2, dU ** n, dU ** n), dtype=complex)
    for which, G in (("e", E), ("f", F)):
        for src, multi in enumerate(itertools.product(range(dU), repeat=n)):
            for m in range(n):
                st = states[multi[m]]
                nxt = st["up"] if which == "e" else st["down"]
                if nxt is None:
                    continue
                pref = complex(1.0)
                if algebra == OSPQ12:
                    for p in range(m):
                        pref *= q ** (states[multi[p]]["lam"] / 2)
                        pref *= (-1.0) ** states[multi[p]]["parity"]
                    for p in range(m + 1, n):
                        pref *= q ** (-states[multi[p]]["lam"] / 2)
                elif which == "e":
                    for p in range(m):
                        pref *= q ** states[multi[p]]["lam"]
                else:
                    for p in range(m + 1, n):
                        pref *= q ** (-states[multi[p]]["lam"])
                coef = st["beta"] if which == "e" else st["gamma"]
                G[src + (nxt - multi[m]) * dU ** (n - 1 - m), src] = coef * pref
    return E, F


def constraint_system(U, n):
    """Centralizer from the structured ladder equations.

    The unknowns are grouped by the total weight of the product states (the
    conservation rule), summed from the per-state weights; the raising and
    lowering equations take their coefficients from Delta^n(e) and
    Delta^n(f) written from the per-state ladder data.  Returns
    (CommutantBasis, SystemEntries of the system)."""
    states = _block_ladder_data(U)
    d = _product_dim(len(states), n)
    weights = [st["weight"] for st in states]
    layout = _sector_layout(weight_sectors(product_weights(*[weights] * n)), d)
    E, F = _coproduct_generators(states, n, U.params.q, U.rep.algebra)
    return _centralizer(layout, E, F, len(states), n)


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two subspaces, given by bases or
    CommutantBasis objects, computed with the sine formulation so that
    near-zero angles are resolved to machine precision instead of the
    arccos floor.  There are min(dim a, dim b) of them: the smaller basis is
    projected off the larger.  Both bases are first cut to the rows where
    either has an entry, which spans the same subspaces."""
    A = basis_a.vectors if isinstance(basis_a, CommutantBasis) else basis_a
    B = basis_b.vectors if isinstance(basis_b, CommutantBasis) else basis_b
    support = np.flatnonzero(A.any(axis=1) | B.any(axis=1))
    qa, _ = np.linalg.qr(A[support])
    qb, _ = np.linalg.qr(B[support])
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    resid = qb - qa @ (qa.conj().T @ qb)
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    return np.sort(np.arcsin(sines))


def membership(op, basis):
    """Least-squares expansion of an operator over a commutant basis.
    Returns (is_member, coefficients, residual); a member's residual is
    below 1e-8."""
    v = np.asarray(op).reshape(-1)
    coef, *_ = np.linalg.lstsq(basis.vectors, v, rcond=None)
    resid = np.abs(basis.vectors @ coef - v).max() / max(1.0, np.abs(v).max())
    return bool(resid < 1e-8), coef, float(resid)
