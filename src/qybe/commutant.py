"""Centralizer operators on tensor powers of composite spaces.

Two routes to the same subspace.  They differ in where the n-fold
generators Delta^n(e), Delta^n(f) and the weight sectors come from:

* commutant_nullspace takes the generators from the dense iterated
  coproduct (repspace.nfold_coproduct) and the sectors from its h
  (repspace.ladder_weights).

* constraint_system writes the generators as n Kronecker terms of the
  block ladders, one per slot, each scaled by the graded prefix factors of
  the iterated coproduct (_ladder_generators), and sums the sectors from
  the integer keys of the space's site, read from its blocks (Site.product,
  Site.sectors).

Everything after that is shared.  The h commutator forces weight
conservation, so the unknown coefficient matrix is sector diagonal
(_sector_layout); the equations A C_k - C_{k+-2} A = 0 of each pair of
sectors are the two Kronecker blocks kron(A, 1) and -kron(1, A^T), written
as a list of their nonzero entries (_centralizer, SystemEntries: the
1200 x 646 system of U8 (x) U8 is 3992 entries); and one solver splits the
system into the connected components of its sparsity pattern (16 for
U8 (x) U8, none larger than 160 x 85), each rebuilt as a small dense block
for its own SVD and again for its residual.  A CommutantBasis is held on
the sector unknowns: its coefficients (646 x 46 for U8 (x) U8, where a
vectorized d x d basis would be 4096 x 46) and the flat d x d position of
each unknown.  Principal angles between the two bases are taken on these
coefficient rows, so they check the generators and sectors, not the shared
assembly; no array with d^2 rows is formed.
"""

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .qarith import COMMUTANT_BUDGET, OSPQ12, QybeError, desk_dim
from .repspace import Site, ladder_weights, nfold_coproduct


@dataclass
class CommutantBasis:
    """Orthonormal basis of the operators commuting with the n-fold coproduct
    action on U^(x n), held on the sector unknowns of `_sector_layout`: row
    k of `coeffs` holds the basis operators' entries at the flat position
    `flat[k]` of a row-major vectorized d x d matrix, and every other entry
    of every basis operator is zero."""

    coeffs: np.ndarray
    flat: np.ndarray
    rank_gap: float = np.inf

    @property
    def dim(self):
        return self.coeffs.shape[1]


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
    uncut system: each block, rebuilt from its entries when its turn comes,
    times its component's null vectors.  Only the entry lists and the SVD
    factors outlive the loop over the components."""
    row, col, val, (n_rows, total) = system
    mags = np.abs(val)
    cut = mags > 1e-12 * mags.max(initial=0.0)
    label = _column_components(row[cut], col[cut], (n_rows, total))
    row_label = np.full(n_rows, -1)
    row_label[row[cut]] = label[col[cut]]
    entry_label = label[col]
    col_pos = np.empty(total, dtype=np.intp)  # position in its component

    def block(cols, touch):
        """A component's dense block from its entries: the rows they touch,
        ascending, by the component's columns."""
        rows, row_pos = np.unique(row[touch], return_inverse=True)
        out = np.zeros((rows.size, cols.size), dtype=complex)
        out[row_pos, col_pos[col[touch]]] = val[touch]
        return rows, out

    parts = []  # per component its columns, entries and SVD; no block is kept
    for lab in np.flatnonzero(label == np.arange(label.size)):  # component roots
        cols = np.flatnonzero(label == lab)
        col_pos[cols] = np.arange(cols.size)
        touch = np.flatnonzero(entry_label == lab)
        rows, dense = block(cols, touch)
        own = dense[row_label[rows] == lab]
        if own.size:
            # the null space needs every row of vh, but never the square u
            _, s, vh = np.linalg.svd(own, full_matrices=own.shape[0] < cols.size)
        else:
            s, vh = np.zeros(0), np.eye(cols.size)
        parts.append((cols, touch, s, vh))
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
    for cols, touch, s, vh in parts:
        kern = vh[int(np.sum(s > thresh)):].conj().T
        null[cols, j:j + kern.shape[1]] = kern
        j += kern.shape[1]
        resid = max(resid, np.linalg.norm(block(cols, touch)[1] @ kern, axis=0).max(initial=0.0))
    if resid > thresh:
        raise QybeError(f"null-space residual {resid:.1e} exceeds the rank "
                        f"threshold {thresh:.1e}")
    return null, gap


def _centralizer(layout, E, F):
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
    return CommutantBasis(null, flat, rank_gap=gap), system


def commutant_nullspace(U, n):
    """Joint null space of [Delta^n g, c] = 0 for g in {e, f, h}, solved by
    SVD over the weight-sector blocks of the coefficient matrix."""
    gens = U.gens
    d = desk_dim("commutant space", gens.dim, n)
    # refused from the summed per-state keys, before any d x d generator
    # exists; the layout solved on still comes from the coproduct's own h
    _refuse_over_budget(Site.product(*[U.site] * n).sectors)
    co = nfold_coproduct([gens] * n)
    layout = _sector_layout(Site(co.parities, ladder_weights(co)).sectors, d)
    return _centralizer(layout, co.E, co.F)[0]


def _ladder_generators(U, n):
    """Delta^n(e), Delta^n(f) on U^(x n) as n Kronecker terms of the block
    ladders, written without the coproduct of `repspace`.

    The term of slot m is kron(1^(x m), g, 1^(x n-m-1)), g the within-block
    neighbours of U's generators (the superdiagonal of E, the subdiagonal
    of F, cut at the block boundaries), its columns scaled by the exchange
    prefix of the iterated coproduct: the kron, in slot order, of per-state
    factors, q^lam before slot m for e and q^-lam after it for f, or for
    osp_q(1|2) q^(lam/2) (-1)^parity before and q^(-lam/2) after, for both;
    lam is the h eigenvalue of a state.  The factors take Python's complex
    power state by state: numpy's array power can differ from it in the
    last bit, and the seed-42 pins hold these systems bit for bit."""
    gens, q, dU = U.gens, U.params.q, U.dim
    inner = np.ones(dU - 1, dtype=bool)  # state k and k + 1 share a block
    inner[[b.start - 1 for b in U.decomposition.blocks if b.start]] = False
    lam = [complex(x) for x in np.diag(gens.H)]
    power = lambda exps: np.array([q ** x for x in exps])
    one = np.ones(dU)
    if U.rep.algebra == OSPQ12:
        sign = (-1.0) ** np.asarray(gens.parities)
        before, after = power([x / 2 for x in lam]) * sign, power([-x / 2 for x in lam])
        prefixes = [(before, after)] * 2
    else:
        prefixes = [(power(lam), one), (one, power([-x for x in lam]))]
    ladders = [np.diag(np.where(inner, np.diag(gens.E, 1), 0), 1),
               np.diag(np.where(inner, np.diag(gens.F, -1), 0), -1)]
    out = []
    for g, (before, after) in zip(ladders, prefixes):
        terms = [reduce(np.kron, [np.eye(dU ** m), g, np.eye(dU ** (n - m - 1))])
                 * reduce(np.kron, [before] * m + [one] + [after] * (n - m - 1))
                 for m in range(n)]
        out.append(sum(terms))
    return out


def constraint_system(U, n):
    """Centralizer from the structured ladder equations.

    The unknowns are grouped by the total weight of the product states (the
    conservation rule), summed from the keys of `U.site`, and the layout
    refuses an over-budget system before any generator is written; the
    raising and lowering equations take their coefficients from Delta^n(e)
    and Delta^n(f) written as Kronecker terms of the block ladders
    (`_ladder_generators`).  Returns (CommutantBasis, SystemEntries of the
    system)."""
    d = desk_dim("commutant space", U.dim, n)
    layout = _sector_layout(Site.product(*[U.site] * n).sectors, d)
    return _centralizer(layout, *_ladder_generators(U, n))


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two subspaces, given by dense bases
    or by two CommutantBasis objects, computed with the sine formulation so
    that near-zero angles are resolved to machine precision instead of the
    arccos floor.  There are min(dim a, dim b) of them: the smaller basis is
    projected off the larger.  Both bases are first cut to the rows where
    either has an entry, which spans the same subspaces.

    Two CommutantBasis objects are compared on their coefficient rows, taken
    in the order of their flat positions: every other entry of either is
    zero, so these are the rows of the dense bases that the cut keeps, and
    the angles are those of the dense bases bit for bit.  Bases on
    different sector layouts (different `flat`) mean the two routes
    disagree on the sectors, which raises QybeError."""
    A, B = basis_a, basis_b
    if isinstance(A, CommutantBasis):
        if not np.array_equal(A.flat, B.flat):
            raise QybeError(f"commutant bases on different sector layouts "
                            f"({A.flat.size} and {B.flat.size} unknowns)")
        order = np.argsort(A.flat)
        A, B = A.coeffs, B.coeffs
    else:
        order = np.arange(len(A))
    live = A.any(axis=1) | B.any(axis=1)
    support = order[live[order]]
    qa, _ = np.linalg.qr(A[support])
    qb, _ = np.linalg.qr(B[support])
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    resid = qb - qa @ (qa.conj().T @ qb)
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    return np.sort(np.arcsin(sines))
