"""Fused descendants of the baxterized family: composite truncated spaces,
the homogeneous solution on the (r^2-1)-dimensional states, and the extended
Lax operators on V^r (x) U^{R_n}.

Truncated spaces are realized concretely: U^{R_n} inside (V^r)^(x n) is the
intersection of the kernels of all adjacent singlet projectors, which the
step-by-step truncation cascade generates (the cascade product is kept as a
cross-check; its image equals the kernel intersection and its rank equals the
recurrence dimension).

The closed descendant coefficients are evaluated as pole-free rationals in
x = exp(2a(u-u0)), so the degeneration point u0 is an ordinary point of the
closed form even though individual f-factors blow up there.

`composite_space` takes the Hecke family (which keeps its coupling table and
so its irrep); the fused, Lax and chain builders take the composite space.

The composite basis is exactly graded by weight: `embed` and `project` are
exact zeros between states of different weight.  The extended Lax operators
commute with the total weight, so they are built one total-weight sector at
a time (the crossing train on the sector of (V^r)^(x(n+1)), sandwiched
between the matching slices of 1 (x) project and 1 (x) embed), and every
entry between sectors is an exact zero.  Each crossing's sector block is
gathered from its own entries by `repspace.block_index`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qarith import DESK_BOUND, PoleError, QybeError
from .repspace import (
    RepLike,
    Site,
    apply_at,
    block_index,
    embed_at,
    invariant_metric,
    ladder_weights,
    nfold_coproduct,
)
from .coupling import (
    Decomposition,
    decompose,
    product_weights,
    projector,
    weight_sectors,
)
from .rmatrix import SpectralRMatrix, hecke_f, u0_point


def dims_recurrence(r, n):
    """R_n = r R_{n-1} - R_{n-2} with R_0 = 1, R_1 = r."""
    if n < 0:
        raise QybeError("n must be >= 0")
    a, b = 1, int(r)
    if n == 0:
        return 1
    for _ in range(n - 1):
        a, b = b, int(r) * b - a
    return b


@dataclass
class CompositeSpace:
    """U^{R_n} inside (V^r)^(x n), with its block basis and generator data.

    hecke is the baxterized family on V^r (x) V^r whose degenerate point
    cuts the space out, and rep the irrep V^r of its coupling table; the
    fused, Lax and chain builders take the space and read both from it.
    embed columns are the coupled block states (an isometry in the invariant
    metric); project is the left inverse that annihilates the invariant
    complement, so sandwiched operators compress multiplicatively.
    """

    hecke: SpectralRMatrix
    n: int
    dim: int
    decomposition: Decomposition
    embed: np.ndarray
    project: np.ndarray
    gens: RepLike

    @property
    def rep(self):
        return self.hecke.table.rep1

    @property
    def params(self):
        return self.hecke.params

    @property
    def blocks(self):
        """(irrep dimension, multiplicity) pairs, ascending."""
        return sorted(self.decomposition.block_multiplicities().items())

    @cached_property
    def site(self):
        """The space as a tensor factor: the parities and ladder weights of
        its block states."""
        return Site(self.decomposition.parities, ladder_weights(self.gens))

    @cached_property
    def pair_project(self):
        """project (x) project, built once per space."""
        return np.kron(self.project, self.project)

    @cached_property
    def pair_embed(self):
        """embed (x) embed, built once per space."""
        return np.kron(self.embed, self.embed)

    def compress_pair(self, full_matrix):
        """An operator on the ambient factors of U (x) U, in block coordinates."""
        return self.pair_project @ full_matrix @ self.pair_embed

    @cached_property
    def cells(self):
        """`pair_cells` of this space, built once per space."""
        return pair_cells(self)

    @cached_property
    def descendant(self):
        """`descendant_family` of this space, built once per space."""
        return descendant_family(self)

    @cached_property
    def lax_sectors(self):
        """Index data of the extended Lax operators on V^r (x) U, built once
        per space.  One entry per total weight: the places t x t of its
        block in V^r (x) U, the rows t of 1 (x) project and the columns t of
        1 (x) embed over the states s of (V^r)^(x(n+1)) at that weight, and
        the `block_index` (index, sign) of the s x s block of each crossing
        of the train, in train order."""
        r, n, site = self.rep.r, self.n, self.rep.site
        ambient = weight_sectors(product_weights(*[site.weights] * (n + 1)))
        lift = np.kron(np.eye(r), self.project)
        drop = np.kron(np.eye(r), self.embed)
        gathers = [block_index((0, m), [site.parities] * (n + 1)) for m in range(n, 0, -1)]
        out = []
        for key, t in weight_sectors(product_weights(site.weights, self.site.weights)).items():
            s = ambient[key]
            index, sign = zip(*[gather(s) for gather in gathers])
            out.append(((t[:, None], t), lift[t[:, None], s], index, sign, drop[s[:, None], t]))
        return out


def _singlet(fam):
    # the Hecke family's check form at its degenerate point is 1 - P1
    return np.eye(fam.dim ** 2) - fam.check_fn(fam.u0)


def adjacent_singlet_kernel(fam, n):
    """Orthonormal basis of the joint kernel of all adjacent-pair singlet
    projectors on (V^r)^(x n), fam the Hecke family on V^r (x) V^r."""
    P1 = _singlet(fam)
    pars = [fam.site.parities] * n
    rows = np.vstack([embed_at(P1, (k, k + 1), pars) for k in range(n - 1)])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    tol = 1e-10 * max(1.0, s.max())
    rank = int(np.sum(s > tol))
    return vh.conj().T[:, rank:]


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


def composite_space(fam, n):
    """Build U^{R_n} with block structure, embedding and compressed generators,
    cut out of (V^r)^(x n) by the Hecke family `fam` on V^r (x) V^r.

    Raises on a rank mismatch between the kernel intersection and the
    recurrence dimension."""
    rep, params = fam.table.rep1, fam.params
    if n < 1:
        raise QybeError(f"composite space needs n >= 1, got {n}")
    want = dims_recurrence(rep.r, n)
    if rep.r ** n > DESK_BOUND:
        raise QybeError(f"composite space {rep.r}^{n} exceeds the desk bound {DESK_BOUND}")
    co = nfold_coproduct(rep.algebra, [rep] * n, params.q)
    if n == 1:
        dec = decompose(rep, params)
    else:
        within = adjacent_singlet_kernel(fam, n)
        if within.shape[1] != want:
            raise QybeError(
                f"truncated-space rank {within.shape[1]} != recurrence value {want}"
            )
        dec = decompose(co, params, within=within)
    E, D = dec.basis, dec.dual
    if E.shape[1] != want:
        raise QybeError(f"block basis rank {E.shape[1]} != recurrence value {want}")
    gens = RepLike(rep.algebra, D @ co.E @ E, D @ co.F @ E, D @ co.H @ E, dec.parities)
    return CompositeSpace(
        hecke=fam, n=n, dim=want, decomposition=dec, embed=E, project=D, gens=gens,
    )


def _require_pair(U):
    if U.n != 2:
        raise QybeError(f"the pair builders act on U^(r^2-1) (n = 2), got n = {U.n}")


def descendant_coefficients(u, chi, a, u0):
    """Coefficient pair (c1, c2) of the closed fused form, as pole-free
    rationals in x = exp(2a(u-u0)), u0 the degeneration point of (chi, a);
    exact at u = u0 where both vanish."""
    s = np.sqrt(1 - 4 * chi + 0j)
    z0 = (1 - s) / (1 + s)
    x = np.exp(2 * a * (complex(u) - u0))
    d1 = (s - 1) * x * z0 + (s + 1)      # f14 denominator
    d2 = (s - 1) * x + (s + 1)           # f13 = f24 denominator
    if min(abs(d1), abs(d2)) < 1e-10 * max(1.0, abs(x)):
        raise PoleError(f"fused coefficients singular at u={u}")
    f14 = 2 * (x * z0 - 1) / d1
    t2 = -2 * (x - z0) / d1              # f23 (1 + f14)
    t3 = 4 * (x - z0) / ((s - 1) * d2)   # f23 f13
    c1 = f14 + t2 + 2 * chi * f14 * t3
    c2 = chi * f14 * 8 * (x - 1) * (x - z0) / (d2 ** 2 * (s - 1))
    return c1, c2


def _plain_placements(P1, r, pairs):
    # adjacent placements need no signs; the outer-pair projector enters the
    # check-formalism products sign-free as well (the Koszul-decorated
    # embedding differs for even-dimensional graded irreps, whose pair
    # singlet is odd, and does not satisfy the composite triple identity)
    plain = [(0,) * r] * 4
    return [embed_at(P1, pair, plain) for pair in pairs]


def _four_site_ops(table):
    """(1 - P12)(1 - P34), P23 and P14 on (V^r)^(x4), P1 the table's singlet."""
    r = table.rep1.r
    P12, P34, P23, P14 = _plain_placements(projector(table, 1), r,
                                           ((0, 1), (2, 3), (1, 2), (0, 3)))
    I = np.eye(r ** 4)
    return (I - P12) @ (I - P34), P23, P14


def pair_cells(U):
    """The sandwiched singlet projectors P23 and P23 P14 on U (x) U, in block
    coordinates.  The outer projectors P12 and P34 vanish on U (x) U, so
    they need not enter the sandwich.  `U.cells` keeps them per space."""
    _require_pair(U)
    P23, P14 = _plain_placements(_singlet(U.hecke), U.rep.r, ((1, 2), (0, 3)))
    return U.compress_pair(P23), U.compress_pair(P23 @ P14)


def descendant_r_closed(U, u):
    """Closed fused solution on U (x) U at outer line difference u: the
    descendant family (`U.descendant`) at u - u0."""
    return U.descendant.check_fn(u - U.hecke.u0)


def descendant_r_product(U, us, guard=1e-4):
    """Fused solution on U (x) U as the six-factor product of pair R-matrices,
    at a point u or stacked over a sequence of points.

    The eight adjacent factors are applied leg by leg to the columns of
    embed (x) embed, the ones at the constant argument u0 built once for
    all points.  The inner factor at argument u - 2 u0 has a pole at
    u = u0, and the product loses digits to cancellation near it (the
    limit exists, the direct product does not evaluate at u0).  So each
    point p within the guard takes its value by fourth-order Richardson
    extrapolation from the products at p +- h and p +- h/2, h = 1e-3, a
    stencil centred on p whose points stay at least h/2 - guard from u0."""
    _require_pair(U)
    fam = U.hecke
    u0 = fam.u0
    pars = [fam.site.parities] * 4
    us = np.asarray(us, dtype=complex)
    pts = us.ravel()
    near = np.abs(pts - u0) < guard
    out = np.empty((pts.size,) + (U.dim ** 2,) * 2, dtype=complex)
    if near.any():
        h = 1e-3
        stencil = pts[near, None] + np.array([h, -h, h / 2, -h / 2])
        mats = descendant_r_product(U, stencil, guard=0.0)
        coarse = (mats[:, 0] + mats[:, 1]) / 2
        fine = (mats[:, 2] + mats[:, 3]) / 2
        out[near] = (4 * fine - coarse) / 3
    far = pts[~near]
    R0 = fam.check_fn(u0)
    at = lambda xs: np.reshape([fam.check_fn(x) for x in xs], (-1,) + R0.shape)
    R1 = at(far - u0)
    # R01(u0) R23(u0) R12(u) R01(u-u0) R23(u-u0) R12(u-2u0) R01(u0) R23(u0),
    # applied from the right
    X = U.pair_embed
    for op, pos in ((R0, (2, 3)), (R0, (0, 1)), (at(far - 2 * u0), (1, 2)), (R1, (2, 3)),
                    (R1, (0, 1)), (at(far), (1, 2)), (R0, (2, 3)), (R0, (0, 1))):
        X = apply_at(op, pos, pars, X)
    out[~near] = U.pair_project @ X
    return out.reshape(us.shape + out.shape[-2:])


def descendant_family(U):
    """Spectral family of the fused solution on the composite pair U (x) U,
    in the additive spectral variable.

    The construction is parameterized by the outermost line difference; the
    family shifts that variable so its regular point sits at zero, which is
    where the standard additive triple-product relation holds:
    check_fn(x) is the closed fused form at outer difference x + u0, and
    check_fn(0) is the identity."""
    B1, B2 = U.cells
    fam = U.hecke
    B0 = np.eye(U.dim ** 2)
    a = U.params.a
    s = np.sqrt(1 - 4 * fam.chi + 0j)
    z0 = (1 - s) / (1 + s)
    shift = fam.u0

    def check_fn(x):
        c1, c2 = descendant_coefficients(x + shift, fam.chi, a, shift)
        return B0 + c1 * B1 + c2 * B2

    def poly_weight(x):
        # reduced common denominator of the two coefficients: one pole from
        # the outer-line factor, one from the diagonal factors
        X = np.exp(2 * a * complex(x))
        return ((s - 1) * X * z0 + (s + 1)) * ((s - 1) * X + (s + 1))

    return SpectralRMatrix(
        family="fused", params=U.params, site=U.site,
        chi=fam.chi, u0=0.0, check_fn=check_fn,
        poly_weight=poly_weight,
        poly_base=lambda x: np.exp(2 * a * complex(x)),
    )


def f_product(chi, a, n, u):
    """prod_{k=1..n} f(u + (n-k) u0)."""
    u0 = u0_point(chi, a)
    out = complex(1.0)
    for k in range(1, n + 1):
        out *= hecke_f(u + (n - k) * u0, chi, a)
    return out


def f_product_by_recurrence(chi, a, n, u):
    """Same product, but each factor after the first generated by the shift
    recurrence f(u + u0) = -1 / (1 + chi f(u))."""
    u0 = u0_point(chi, a)
    f = hecke_f(u, chi, a)
    out = f
    for _ in range(n - 1):
        f = -1.0 / (1.0 + chi * f)
        out *= f
    return out


def lax_fits(r, n):
    """Whether the extended Lax operator on V^r (x) U^{R_n} is within the
    desk bound: its crossing train acts on (V^r)^(x(n+1))."""
    return r ** (n + 1) <= DESK_BOUND


def extended_lax(U, u=0.0):
    """Descendant operator on V^r (x) U^{R_n}: the crossing train of pair
    R-matrices restricted to the truncated quantum space (which the train
    preserves exactly, so no output projector is needed).

    Every crossing conserves the total weight, and so does the graded
    composite basis, so the train is multiplied on one total-weight sector
    of (V^r)^(x(n+1)) at a time, starting from the rows of 1 (x) project
    and ending on the columns of 1 (x) embed (`U.lax_sectors`).  The
    entries between sectors are exact zeros."""
    rep, fam, n = U.rep, U.hecke, U.n
    if not lax_fits(rep.r, n):
        raise QybeError(f"extended Lax {rep.r}^{n + 1} exceeds the desk bound {DESK_BOUND}")
    # written from factor n down to factor 1: the auxiliary line crosses factor 1 first
    ops = [fam.noncheck(u + (n - m) * fam.u0).ravel() for m in range(n, 0, -1)]
    out = np.zeros((rep.r * U.dim,) * 2, dtype=complex)
    for place, rows, index, sign, cols in U.lax_sectors:
        blk = rows
        for op, i, s in zip(ops, index, sign):
            blk = blk @ (s * op[i])
        out[place] = blk @ cols
    return out


def lax_lower_projector(U):
    """Invariant projector onto the U^{R_{n-1}} component of V^r (x) U^{R_n},
    complementary (in the invariant metric) to the embedded U^{R_{n+1}}."""
    rep, n = U.rep, U.n
    Tn1 = adjacent_singlet_kernel(U.hecke, n + 1)  # U^{R_{n+1}} in the ambient
    if Tn1.shape[1] != dims_recurrence(rep.r, n + 1):
        raise QybeError("upper component rank mismatch")
    Efull = np.kron(np.eye(rep.r), U.embed)
    co = nfold_coproduct(rep.algebra, [rep] * (n + 1), U.params.q)
    md, res = invariant_metric(co.E, co.F)
    if res > 1e-6:
        raise QybeError("invariant metric inconsistent on the Lax space")
    A = (md[:, None] * Tn1).T @ Efull
    uu, ss, vv = np.linalg.svd(A)
    rank = int(np.sum(ss > 1e-9 * max(1.0, ss.max())))
    lower = vv.conj().T[:, rank:]  # metric-orthogonal to the upper component
    if lower.shape[1] != dims_recurrence(rep.r, n - 1):
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
    dec = U.decomposition
    j = rep.ladder_j
    states, labels = [], []
    drop_done = False
    for k1 in range(rep.r):
        for k2 in range(rep.r):
            i, k = j - k1, j - k2
            flat = k1 * rep.r + k2
            vec = np.zeros(rep.r ** 2, dtype=complex)
            vec[flat] = 1.0
            coords = U.project @ vec
            if abs(i + k) < 1e-9 and not drop_done:
                drop_done = True  # drop the first weight-zero pair
                continue
            nrm = coords @ (dec.eps * coords)
            if abs(nrm) < 1e-12:
                raise QybeError(f"pair state ({i},{k}) has null metric norm")
            states.append(coords / np.sqrt(nrm + 0j))
            labels.append((float(i), float(k)))
    rank = np.linalg.matrix_rank(np.array(states).T, tol=1e-9)
    if rank != U.dim or len(states) != rep.r ** 2 - 1:
        raise QybeError(f"pair states span rank {rank}, expected {U.dim}")
    return labels, np.array(states).T
