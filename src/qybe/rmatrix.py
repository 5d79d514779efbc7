"""Spectral R-matrices: the baxterized singlet-projector family, the three
spin-1 solutions, the universal intertwiner and verification helpers.

`hecke_family` baxterizes the singlet projector of the coupling table of
V^r (x) V^r and keeps the table; `r33_family` takes the sl_q(2) table of V^3.

All residuals returned by the checkers are relative: max-abs of the mismatch
divided by the scale of the operators entering the relation (`rel_residual`,
the one residual, per pair of a stack).  The universal intertwiner on
even-dimensional graded irreps has entries spanning many orders of
magnitude, so absolute residuals would be meaningless there.  Product
identities are compared on random probe columns of each weight sector by
one driver, `probed_residual`; `sector_residual` feeds it two chains of
embedded factors applied through `repspace.apply_at`.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qarith import (
    DegenerateParameterError,
    DeformParams,
    OSPQ12,
    SLQ2,
    PoleError,
    QybeError,
    bracket_plus_factorial,
)
from .repspace import (
    Site,
    apply_at,
    coproduct_pair,
    diag_power,
    embed_at,
    graded_kron_raw,
    perm_matrix,
)
from .coupling import (
    CouplingTable,
    check_sectors,
    chi_factor,
    product_sectors,
    projector,
)


def rel_residual(A, B):
    """max|A - B| / max(1, |A|, |B|) over the last two axes; for stacks of
    matrices on them, the largest per-pair value (a NaN entry propagates)."""
    top = lambda x: np.abs(x).max(axis=(-2, -1))
    return float(np.max(top(A - B) / np.maximum(1.0, np.maximum(top(A), top(B)))))


# Random columns per weight sector on which `probed_residual` compares two
# products (R. Freivalds, 1977).
PROBES = 4


def probed_residual(lhs, rhs, sectors, rng):
    """rel_residual of lhs(X) and rhs(X), X the PROBES random complex unit
    columns of each weight sector, held as columns of the whole space with
    each sector's in its own rows (the index arrays `sectors`, which
    partition the rows).  lhs and rhs map X to arrays or to stacks of them
    on their last two axes.  The columns are drawn sector by sector, in
    order, from one child of `rng` (`Generator.spawn`), so the draws of
    `rng` itself are left as they were.  Sides that differ by a nonzero D
    give a residual of the order of max|D| with probability one, as a
    random column meets no fixed null space."""
    probe = rng.spawn(1)[0]
    X = np.empty((sum(len(s) for s in sectors), PROBES), dtype=complex)
    for s in sectors:
        Y = probe.standard_normal((len(s), PROBES)) + 1j * probe.standard_normal((len(s), PROBES))
        X[s] = Y / np.linalg.norm(Y, axis=0)
    return rel_residual(lhs(X), rhs(X))


def sector_residual(lhs, rhs, sites, rng):
    """The `probed_residual` of the products of embedded factors `lhs` and
    `rhs`, lists [(op, legs), ...] for embed_at(A, p) @ embed_at(B, q) @ ...
    on the product of `sites` (one `Site` per tensor factor), over the
    total-weight sectors of the sites (`product_sectors`).

    Each side is applied to the probe columns one factor at a time through
    `repspace.apply_at`: no product and no block of an embedded factor is
    formed.  The rows of a sector carry that sector's products only if
    every factor conserves the weight, so each distinct factor (by
    identity), in order of first appearance, first passes `check_sectors`
    over the sectors of its own legs: one with an entry between them is
    refused, not contracted.  A factor may be a stack of operators on its
    last two axes; the sides are then stacks, compared per stacked pair."""
    guarded = []
    for op, legs in lhs + rhs:
        if not any(op is seen for seen in guarded):
            check_sectors(op, product_sectors(*[sites[k] for k in legs]))
            guarded.append(op)
    parities = [site.parities for site in sites]

    def apply(side):
        def product(Y):
            for op, legs in reversed(side):
                Y = apply_at(op, legs, parities, Y)
            return Y
        return product

    return probed_residual(apply(lhs), apply(rhs), product_sectors(*sites), rng)


def hecke_f(u, chi, a=1.0):
    """Baxterized coefficient f(u) = 2 / (-1 + s coth(a u)), s = sqrt(1-4 chi),
    at a point or elementwise at an array of points.

    f(0) = 0 by the coth limit; a pole sits where the denominator vanishes
    (at u = -u0 modulo the period of coth)."""
    u = np.asarray(u, dtype=complex)
    zero = np.abs(u) < 1e-14
    s = np.sqrt(1 - 4 * chi + 0j)
    den = -1.0 + s / np.tanh(a * np.where(zero, 1.0, u))
    pole = ~zero & (np.abs(den) < 1e-9)
    if pole.any():
        raise PoleError(f"f(u) pole at u={u[pole][0]}")
    return np.where(zero, 0j, 2.0 / den)[()]


def u0_point(chi, a=1.0):
    """Degeneration point: f(u0) = -1, i.e. u0 = atanh(-sqrt(1-4 chi))/a."""
    s = np.sqrt(1 - 4 * chi + 0j)
    return np.arctanh(-s + 0j) / a


@dataclass
class SpectralRMatrix:
    """A one-parameter family u -> R(u) on a pair of like tensor factors,
    each of them the `Site` `site`, whose parities and weights are those of
    the object the family acts on (`Rep.site`, `CompositeSpace.site`).

    check_fn evaluates the check form as an array; `noncheck` composes it
    with the graded swap of the two sites.  u0 is the degeneration point of
    a Hecke family, and `guards` holds the family's poles, set by the
    builder that knows them (none for the spin-1 families).
    """

    family: str
    params: DeformParams
    site: Site
    chi: complex = None
    u0: complex = None
    check_fn: callable = field(repr=False, default=None)
    table: CouplingTable = field(repr=False, default=None)
    guards: tuple = ()

    @property
    def dim(self):
        """The number of states of one site."""
        return self.site.dim

    @cached_property
    def swap(self):
        """The graded swap of the two sites, built once per family."""
        return perm_matrix([1, 0], [self.site.parities] * 2)

    def noncheck(self, u):
        """The non-check form swap @ check_fn(u)."""
        return self.swap @ self.check_fn(u)


def hecke_family(table, chi=None):
    """Baxterized family I + f(u) P1 on V^r (x) V^r for either algebra, P1
    the singlet projector of `table`, the coupling table of V^r (x) V^r.

    The coefficient function is parameterized by the triple-overlap scalar
    chi alone, so one code path covers both symmetry classes.  Raises
    DegenerateParameterError when the degeneration point u0 is not finite
    (at extreme q, chi is so small that 1 - 4 chi rounds to 1)."""
    rep, params = table.rep1, table.rep1.params
    if chi is None:
        chi = chi_factor(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        u0 = u0_point(chi, params.a)
    if not np.isfinite(u0):
        raise DegenerateParameterError(f"the degeneration point u0 = {u0} is not finite "
                                       f"at chi = {chi}")
    P1 = projector(table, 1)
    I = np.eye(rep.dim ** 2)
    a = params.a

    def check_fn(u):
        return I + hecke_f(u, chi, a) * P1

    return SpectralRMatrix(
        family="hecke", params=params, site=rep.site,
        chi=chi, u0=u0, check_fn=check_fn, table=table, guards=(-u0,),
    )


def r33_family(kind, table):
    """Spectral families on V^3 (x) V^3 of sl_q(2), normalized to 1 at u = 0,
    over the invariant projectors P5, P3, P1 of its coupling table `table`.
    Kind 1 is the three-term descendant-type solution, kind 2 the
    Birman-Wenzl-Murakami-type one sharing its braid limits, kind 3 the
    two-term family (requires real q > 0 for its square-root coefficient).
    """
    rep, params = table.rep1, table.rep1.params
    if rep.algebra != SLQ2 or (rep.dim, table.rep2.dim) != (3, 3):
        raise QybeError("the spin-1 families need the sl_q(2) table of V^3 (x) V^3")
    q = params.q
    P5, P3, P1 = (projector(table, r0) for r0 in (5, 3, 1))

    if kind == 1:
        abar = (q ** 2 - q ** -2) * (q - 1 / q)
        # middle-term P3 coefficient q^3 + q^-3: forced by the normalization
        # at u = 0 and confirmed by the triple-product relation
        R0 = -(q + 1 / q) * (P5 + P1) + (q ** 3 + q ** -3) * P3

        def check_fn(u):
            qu = q ** complex(u)
            return (qu * (q ** -3 * P5 - q * P3 + q ** 3 * P1) + R0
                    + (1 / qu) * (q ** 3 * P5 - q ** -1 * P3 + q ** -3 * P1)) / abar
    elif kind == 2:
        aprime = (q ** 2 - q ** -2) * (q ** 3 + q ** -3)
        R0 = (q ** 5 - q ** -5) * (P3 + P1) + (q ** -1 - q) * P5

        def check_fn(u):
            qu = q ** complex(u)
            return (-qu * q ** -2 * (q ** -3 * P5 - q * P3 + q ** 3 * P1) + R0
                    + (1 / qu) * q ** 2 * (q ** 3 * P5 - q ** -1 * P3 + q ** -3 * P1)) / aprime
    elif kind == 3:
        if abs(np.imag(q)) > 1e-12 or np.real(q) <= 0:
            raise QybeError("kind-3 coefficient needs real positive q")
        root = np.sqrt(q ** 4 + q ** -4 - 1 + 2 * q ** 2 + 2 * q ** -2)
        acoef = (root + q ** 2 + 1 + q ** -2) / (root - (q ** 2 + 1 + q ** -2))

        def check_fn(u):
            qu = q ** complex(u)
            return (qu * (P5 + P3 + acoef * P1)
                    + (1 / qu) * (acoef * (P5 + P3) + P1)) / (1 + acoef)
    else:
        raise QybeError(f"fixture kind must be 1, 2 or 3, got {kind}")

    return SpectralRMatrix(
        family=f"r33_{kind}", params=params, site=rep.site, check_fn=check_fn, table=table,
    )


def universal_r(rep1, rep2, sign=+1):
    """Universal intertwiner on V^r1 (x) V^r2 of the graded algebra.

    The plus matrix is the weight-twisted nilpotent sum; the minus one is its
    transpose with q -> 1/q substituted in every scalar (the representation
    matrices are kept, so both live in the same basis)."""
    if rep1.algebra != OSPQ12 or rep2.algebra != OSPQ12:
        raise QybeError("the universal intertwiner is implemented for the graded algebra")
    q = 1.0 / rep1.params.q if sign < 0 else rep1.params.q
    E1, H1, p1 = rep1.E, rep1.H, rep1.parities
    F2, H2, p2 = rep2.F, rep2.H, rep2.parities
    l1, l2 = np.diag(H1), np.diag(H2)
    khh = np.exp(-np.log(q) * np.outer(l1, l2)).ravel()
    out = np.zeros((rep1.dim * rep2.dim,) * 2, dtype=complex)
    for n in range(0, min(rep1.dim, rep2.dim)):
        coef = ((-np.sqrt(q)) ** (0.5 * n * (n - 1)) * (q - 1.0 / q) ** n
                / bracket_plus_factorial(n, q))
        A = diag_power(q, -n * H1 / 2) @ np.linalg.matrix_power(E1, n)
        B = np.linalg.matrix_power(F2, n) @ diag_power(q, n * H2 / 2)
        out += coef * graded_kron_raw(A, B, p1, p2, p2)
    m = np.diag(khh) @ out
    return m.T if sign < 0 else m


def intertwining_residual(R, rep1, rep2):
    """Relative residual of R Delta[g] = Delta'[g] R over all generators,
    with Delta' the flipped coproduct."""
    pair, pair_flip = coproduct_pair(rep1, rep2), coproduct_pair(rep2, rep1)
    P = perm_matrix([1, 0], [rep2.parities, rep1.parities])  # V2 x V1 -> V1 x V2
    worst = 0.0
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        Dp = P @ getattr(pair_flip, g) @ P.T  # a signed permutation is orthogonal
        worst = max(worst, rel_residual(R @ D, Dp @ R))
    return worst


def ybe_residual(fam, u, w, rng=None):
    """Relative residual of the triple-product relation of the spectral
    family `fam` in its check form, A12 B23 C12 = C23 B12 A23 with
    A = R(u), B = R(u+w), C = R(w) and plain embeddings (the check form
    carries no grading signs), at a pair of points or the largest over the
    pairs of two equal-length sequences u and w.

    A, B and C are stacked over the pairs, and both sides are applied to
    random columns per total-weight sector of three sites of the family
    (`sector_residual`, columns from a child of `rng`, by default of a
    generator seeded with 42), once each stacked factor has passed
    `check_sectors`."""
    # even parities, but the family's weights: its sectors stay small
    site = fam.site._replace(parities=(0,) * fam.dim)
    u, w = np.atleast_1d(u), np.atleast_1d(w)
    A, B, C = (np.stack([fam.check_fn(x) for x in xs]) for xs in (u, u + w, w))
    if A.shape[-1] != fam.dim ** 2:
        raise QybeError("operator does not act on a like-factor pair")
    return sector_residual([(A, (0, 1)), (B, (1, 2)), (C, (0, 1))],
                           [(C, (1, 2)), (B, (0, 1)), (A, (1, 2))],
                           [site] * 3, rng or np.random.default_rng(42))


def mixed_braid_check(Rplus, Rminus, parities):
    """Residuals of the constant braid relations a two-term spectral family
    forces on its limits: the two homogeneous triples, four mixed ones and
    the alternating-difference relation.

    The alternating relation is inhomogeneous in the pair, so it is sensitive
    to the relative normalization of the two matrices (the six others are
    not).  alt holds as stated for the pair extracted from one spectral
    family; alt_balanced reports its scale-free content, the proportionality
    of the two difference terms, together with the balancing scalar."""
    place = lambda X: [embed_at(X, legs, [parities] * 3) for legs in ((0, 1), (0, 2), (1, 2))]
    (p12, p13, p23), (m12, m13, m23) = place(np.asarray(Rplus)), place(np.asarray(Rminus))
    t_linear = p12 @ m13 @ p23 - p23 @ m13 @ p12
    t_square = m12 @ p13 @ m23 - m23 @ p13 @ m12
    scale = np.vdot(t_square, t_linear) / max(np.vdot(t_square, t_square).real, 1e-300)
    out = {
        "ppp": rel_residual(p12 @ p13 @ p23, p23 @ p13 @ p12),
        "mmm": rel_residual(m12 @ m13 @ m23, m23 @ m13 @ m12),
        "ppm": rel_residual(p12 @ p13 @ m23, m23 @ p13 @ p12),
        "mmp": rel_residual(m12 @ m13 @ p23, p23 @ m13 @ m12),
        "mpp": rel_residual(m12 @ p13 @ p23, p23 @ p13 @ m12),
        "pmm": rel_residual(p12 @ m13 @ m23, m23 @ m13 @ p12),
        "alt": rel_residual(t_linear, t_square),
        "alt_balanced": rel_residual(t_linear, scale * t_square),
        "balance_scale": complex(scale),
    }
    out["max"] = max(v for k, v in out.items()
                     if k not in ("balance_scale", "alt_balanced"))
    out["max_balanced"] = max(v for k, v in out.items()
                              if k not in ("balance_scale", "alt", "max"))
    return out
