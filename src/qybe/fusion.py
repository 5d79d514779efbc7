"""Fused descendants of the baxterized family: composite truncated spaces,
the homogeneous solution on the (r^2-1)-dimensional states, and the extended
Lax operators on V^r (x) U^{R_n}.

Truncated spaces are realized concretely: U^{R_n} inside (V^r)^(x n) is the
intersection of the kernels of all adjacent singlet projectors, which the
step-by-step truncation cascade generates.  Every singlet projector
conserves the weight, so the kernel is found one weight sector of
(V^r)^(x n) at a time, with one thin SVD of the sector's rows of the
stacked projectors; its columns are weight-pure, and the highest-weight
search of `decompose` reads, at each weight, only the columns at that
weight.

The closed descendant coefficients are evaluated as pole-free rationals in
x = exp(2a(u-u0)), each with its factor (x - 1) explicit, so the fused
family is the identity exactly at its regular point and the degeneration
point u0 is an ordinary point of the closed form even though individual
f-factors blow up there.

`composite_space` takes the Hecke family (which keeps its coupling table and
so its irrep); the fused, Lax and chain builders take the composite space.

The composite basis is exactly graded by weight: `embed` and `project` are
exact zeros between states of different weight.  Every operator compressed
into a product of composite spaces (the extended Lax operator on V^r (x) U,
the pair cells and the fused product on U (x) U) conserves the total
weight, so it is built by one `sandwich`: per total-weight sector, a train
of factors gathered by `repspace.block_index` on the matching sector of the
ambient legs, between the slices of the slots' project and embed
(`compress`).  Every entry between sectors is an exact zero, and no array
on the whole ambient space is formed.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .qarith import PoleError, QybeError, desk_dim
from .repspace import Rep, Site, block_index, nfold_coproduct
from .coupling import (
    Decomposition,
    check_sectors,
    decompose,
    product_sectors,
)
from .rmatrix import SpectralRMatrix


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
    complement, so operators compress multiplicatively (`sandwich`).
    """

    hecke: SpectralRMatrix
    n: int
    dim: int
    decomposition: Decomposition
    embed: np.ndarray
    project: np.ndarray
    gens: Rep

    @property
    def rep(self):
        return self.hecke.table.rep1

    @property
    def params(self):
        return self.hecke.params

    @property
    def site(self):
        """The space as a tensor factor: the site of its decomposition,
        read from the blocks."""
        return self.gens.site

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
        """The `sandwich` of V^r (x) U and the Lax crossings, once per space."""
        return sandwich([self.rep, self], [(0, m) for m in range(self.n, 0, -1)])

    @cached_property
    def pair_sectors(self):
        """The `sandwich` of U (x) U and the fused crossings, once per space."""
        return sandwich([self, self], [(0, 1), (2, 3), (1, 2)])


def sandwich(slots, crossings, plain=False):
    """Index data of the compression of operators on the ambient legs of
    `slots` into their product, a slot being a composite space (its n legs
    of V^r, its project and embed) or a bare irrep (one leg, the identity).
    One entry per total weight of the product: the places t x t of its
    block; the rows t of (x) project and the columns t of (x) embed over
    the ambient states s at that weight, read from the slots' own factors;
    and per leg tuple of `crossings`, the `block_index` (index, sign) of a
    factor's s x s block, with the legs' parities or, if `plain`, none."""
    projects, embeds, legs, sites = zip(*[
        (x.project, x.embed, [x.rep.site] * x.n, x.site) if isinstance(x, CompositeSpace)
        else (np.eye(x.dim), np.eye(x.dim), [x.site], x.site) for x in slots])
    ambient = [leg for own in legs for leg in own]
    pars = [(0,) * leg.dim if plain else leg.parities for leg in ambient]
    gathers = {pos: block_index(pos, pars) for pos in crossings}
    sectors = Site.product(*ambient).sectors
    out = []
    for key, t in Site.product(*sites).sectors.items():
        s = sectors[key]
        ts = np.unravel_index(t, [P.shape[0] for P in projects])
        ss = np.unravel_index(s, [P.shape[1] for P in projects])
        rows = reduce(np.multiply, [P[i[:, None], j] for P, i, j in zip(projects, ts, ss)])
        cols = reduce(np.multiply, [E[j[:, None], i] for E, i, j in zip(embeds, ts, ss)])
        out.append(((t[:, None], t), rows, {pos: g(s) for pos, g in gathers.items()}, cols))
    return out


def compress(sectors, train, dim):
    """The product of the factors of `train`, pairs (op, legs) in order of
    multiplication, compressed by the `sandwich` `sectors` into a dim x dim
    array: each sector's rows times the gathered blocks times its columns.
    An op may be a stack of matrices on its last two axes; the result is
    stacked like them.  Entries between sectors are exact zeros."""
    flat = [(op.reshape(*op.shape[:-2], op.shape[-2] * op.shape[-1]), pos) for op, pos in train]
    out = np.zeros(np.broadcast_shapes(*[op.shape[:-1] for op, _ in flat]) + (dim, dim),
                   dtype=complex)
    for place, rows, gathered, cols in sectors:
        blk = rows
        for op, pos in flat:
            index, sign = gathered[pos]
            blk = blk @ (sign * op[..., index])
        out[(...,) + place] = blk @ cols
    return out


def _singlet(fam):
    # the Hecke family's check form at its degenerate point is 1 - P1
    return np.eye(fam.dim ** 2) - fam.check_fn(fam.u0)


def adjacent_singlet_kernel(fam, n):
    """Orthonormal basis of the joint kernel of all adjacent-pair singlet
    projectors on (V^r)^(x n), fam the Hecke family on V^r (x) V^r.

    Every projector conserves the weight, so the kernel is found one weight
    sector of (V^r)^(x n) at a time: one thin SVD of the sector's rows of
    the stacked projectors, gathered by `repspace.block_index`.  Each
    column is weight-pure (exact zeros off its sector); the columns come
    sector by sector in increasing weight."""
    P1 = _singlet(fam)
    site = fam.site
    check_sectors(P1, product_sectors(site, site))
    gathers = [block_index((k, k + 1), [site.parities] * n) for k in range(n - 1)]
    P1 = P1.ravel()
    columns = []
    for s in product_sectors(*[site] * n):
        rows = np.vstack([sign * P1[index] for index, sign in (g(s) for g in gathers)])
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        null = vh[int(np.sum(sv > 1e-10 * max(1.0, sv.max()))):].conj().T
        block = np.zeros((site.dim ** n, null.shape[1]), dtype=complex)
        block[s] = null
        columns.append(block)
    return np.hstack(columns)


def composite_space(fam, n):
    """Build U^{R_n} with block structure, embedding and compressed generators,
    cut out of (V^r)^(x n) by the Hecke family `fam` on V^r (x) V^r.

    Raises on a rank mismatch between the kernel intersection and the
    recurrence dimension."""
    rep = fam.table.rep1
    desk_dim("composite space", rep.dim, n)
    want = dims_recurrence(rep.dim, n)
    co = nfold_coproduct([rep] * n)
    if n == 1:
        dec = decompose(rep)
    else:
        within = adjacent_singlet_kernel(fam, n)
        if within.shape[1] != want:
            raise QybeError(
                f"truncated-space rank {within.shape[1]} != recurrence value {want}"
            )
        dec = decompose(co, within=within)
    E, D = dec.basis, dec.dual
    if E.shape[1] != want:
        raise QybeError(f"block basis rank {E.shape[1]} != recurrence value {want}")
    gens = Rep(D @ co.E @ E, D @ co.F @ E, D @ co.H @ E, dec.site, rep.params)
    return CompositeSpace(
        hecke=fam, n=n, dim=want, decomposition=dec, embed=E, project=D, gens=gens,
    )


def _require_pair(U):
    if U.n != 2:
        raise QybeError(f"the pair builders act on U^(r^2-1) (n = 2), got n = {U.n}")


def descendant_coefficients(u, chi, a, u0):
    """Coefficient pair (c1, c2) of the closed fused form, as pole-free
    rationals in x = exp(2a(u-u0)), u0 the degeneration point of (chi, a);
    each carries its factor (x - 1), so both are exactly 0 at u = u0."""
    s = np.sqrt(1 - 4 * chi + 0j)
    z0 = (1 - s) / (1 + s)
    x = np.exp(2 * a * (complex(u) - u0))
    d1 = (s - 1) * x * z0 + (s + 1)      # f14 denominator
    d2 = (s - 1) * x + (s + 1)           # f13 = f24 denominator
    if min(abs(d1), abs(d2)) < 1e-10 * max(1.0, abs(x)):
        raise PoleError(f"fused coefficients singular at u={u}")
    f14 = 2 * (x * z0 - 1) / d1
    # c1 = f14 + f23 (1 + f14) + 2 chi f14 f23 f13, reduced with chi = (1 - s^2)/4
    c1 = 4 * (x - 1) / ((s + 1) * d1)
    c2 = chi * f14 * 8 * (x - 1) * (x - z0) / (d2 ** 2 * (s - 1))
    return c1, c2


def pair_cells(U):
    """The sandwiched singlet projectors P23 and P23 P14 on U (x) U, in block
    coordinates, under the desk rule for the (r^2-1)^2 states of U (x) U.
    The outer projectors P12 and P34 vanish on U (x) U, so they need not
    enter the sandwich.  `U.cells` keeps them per space."""
    _require_pair(U)
    desk_dim("fused pair", U.dim, 2)
    # plain placements: the Koszul-signed P14 of an even-dimensional graded
    # irrep (odd pair singlet) breaks the composite triple identity
    P1, dim = _singlet(U.hecke), U.dim ** 2
    sectors = sandwich([U, U], [(1, 2), (0, 3)], plain=True)
    return (compress(sectors, [(P1, (1, 2))], dim),
            compress(sectors, [(P1, (1, 2)), (P1, (0, 3))], dim))


def descendant_r_closed(U, u):
    """Closed fused solution on U (x) U at outer line difference u: the
    descendant family (`U.descendant`) at u - u0."""
    return U.descendant.check_fn(u - U.hecke.u0)


def _train(U, pts):
    """The eight adjacent factors of the fused product at the points `pts`
    (a 1-d array), compressed into U (x) U by `U.pair_sectors`; the ones at
    the constant argument u0 are built once for all points."""
    fam, u0 = U.hecke, U.hecke.u0
    R0 = fam.check_fn(u0)
    at = lambda xs: np.reshape([fam.check_fn(x) for x in xs], (-1,) + R0.shape)
    R1 = at(pts - u0)
    # R01(u0) R23(u0) R12(u) R01(u-u0) R23(u-u0) R12(u-2u0) R01(u0) R23(u0)
    train = [(R0, (0, 1)), (R0, (2, 3)), (at(pts), (1, 2)), (R1, (0, 1)), (R1, (2, 3)),
             (at(pts - 2 * u0), (1, 2)), (R0, (0, 1)), (R0, (2, 3))]
    return compress(U.pair_sectors, train, U.dim ** 2)


def descendant_r_product(U, us):
    """Fused solution on U (x) U as the six-factor product of pair R-matrices,
    at a point u or stacked over a sequence of points (`_train`).

    The inner factor at argument u - 2 u0 has a pole at u = u0, and the
    product loses digits to cancellation near it (the limit exists, the
    direct product does not evaluate at u0).  So each point p within 1e-4
    of u0 takes its value by fourth-order Richardson extrapolation from the
    products at p +- h and p +- h/2, h = 1e-3, a stencil centred on p whose
    points stay at least h/2 - 1e-4 from u0."""
    _require_pair(U)
    us = np.asarray(us, dtype=complex)
    pts = us.ravel()
    near = np.abs(pts - U.hecke.u0) < 1e-4
    out = np.empty((pts.size,) + (U.dim ** 2,) * 2, dtype=complex)
    if near.any():
        h = 1e-3
        stencil = pts[near, None] + np.array([h, -h, h / 2, -h / 2])
        mats = _train(U, stencil.ravel()).reshape(stencil.shape + out.shape[-2:])
        coarse = (mats[:, 0] + mats[:, 1]) / 2
        fine = (mats[:, 2] + mats[:, 3]) / 2
        out[near] = (4 * fine - coarse) / 3
    out[~near] = _train(U, pts[~near])
    return out.reshape(us.shape + out.shape[-2:])


def descendant_family(U):
    """Spectral family of the fused solution on the composite pair U (x) U,
    in the additive spectral variable.

    The construction is parameterized by the outermost line difference; the
    family shifts that variable so its regular point sits at zero, which is
    where the standard additive triple-product relation holds:
    check_fn(x) is the closed fused form at outer difference x + u0, and
    check_fn(0) is the identity.  Its `guards` are its poles x = -u0 and
    x = -2 u0, u0 of the Hecke family: those of the factors R(u - u0) and
    R(u) of the product form at u = x + u0."""
    B1, B2 = U.cells
    fam = U.hecke
    B0 = np.eye(U.dim ** 2)
    a = U.params.a
    shift = fam.u0

    def check_fn(x):
        c1, c2 = descendant_coefficients(x + shift, fam.chi, a, shift)
        return B0 + c1 * B1 + c2 * B2

    return SpectralRMatrix(
        family="fused", params=U.params, site=U.site,
        check_fn=check_fn, guards=(-shift, -2 * shift),
    )


def extended_lax(U, u=0.0):
    """Descendant operator on V^r (x) U^{R_n}: the crossing train of pair
    R-matrices restricted to the truncated quantum space (which the train
    preserves exactly, so no output projector is needed), compressed by
    `U.lax_sectors` one total-weight sector at a time."""
    rep, fam, n = U.rep, U.hecke, U.n
    desk_dim("extended Lax", rep.dim, n + 1)
    # written from factor n down to factor 1: the auxiliary line crosses factor 1 first
    train = [(fam.noncheck(u + (n - m) * fam.u0), (0, m)) for m in range(n, 0, -1)]
    return compress(U.lax_sectors, train, rep.dim * U.dim)
