"""Spectral R-matrices: the baxterized singlet-projector family, the three
spin-1 solutions, the universal intertwiner and verification helpers.

`hecke_family` baxterizes the singlet projector of the coupling table of
V^r (x) V^r and keeps the table; `r33_family` takes the sl_q(2) table of V^3.

All residuals returned by the checkers are relative: max-abs of the mismatch
divided by the scale of the operators entering the relation.  The universal
intertwiner on even-dimensional graded irreps has entries spanning many
orders of magnitude, so absolute residuals would be meaningless there.
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
    coproduct_pair,
    diag_power,
    embed_at,
    graded_kron_raw,
    graded_permutation,
    perm_matrix,
)
from .coupling import (
    CouplingTable,
    check_sectors,
    chi_factor,
    local_product,
    product_sectors,
    projector,
)


def rel_residual(A, B):
    """max|A - B| / max(1, |A|, |B|)."""
    sc = max(1.0, np.abs(A).max(), np.abs(B).max())
    return float(np.abs(A - B).max() / sc)


def blockwise_residual(pairs):
    """rel_residual of the concatenated entries of (lhs, rhs) sector-block
    pairs, reduced one pair at a time: the maxima it takes are the same (a
    NaN entry still propagates).  Stacked blocks (on the last two axes) are
    reduced per stacked pair, and the largest of those residuals returned."""
    top = lambda x: np.abs(x).max(axis=(-2, -1))
    diff = scale = 0.0
    for a, b in pairs:
        diff = np.maximum(diff, top(a - b))
        scale = np.maximum(scale, np.maximum(top(a), top(b)))
    return float(np.max(diff / np.maximum(1.0, scale)))


def sector_residual(lhs, rhs, sites):
    """blockwise_residual of the products of embedded factors `lhs` and
    `rhs`, lists [(op, legs), ...] on the product of `sites` as for
    `local_product`, compared per total-weight sector.

    The sector blocks carry the products only if every factor conserves the
    weight, so each distinct factor (by identity), in order of first
    appearance, first passes `check_sectors` over the sectors of its own
    legs: one with an entry between them is refused, not contracted."""
    guarded = []
    for op, legs in lhs + rhs:
        if not any(op is seen for seen in guarded):
            check_sectors(op, product_sectors(*[sites[k].weights for k in legs]))
            guarded.append(op)
    return blockwise_residual(zip(local_product(lhs, sites), local_product(rhs, sites)))


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


def f_slope(chi, a=1.0):
    """f'(0) = 2a / sqrt(1 - 4 chi)."""
    return 2.0 * a / np.sqrt(1 - 4 * chi + 0j)


def braid_limit_f(chi, sign):
    """f at u -> +-infinity: 2 / (-1 +- sqrt(1-4 chi))."""
    s = np.sqrt(1 - 4 * chi + 0j)
    return 2.0 / (-1.0 + sign * s)


@dataclass
class SpectralRMatrix:
    """A one-parameter family u -> R(u) on a pair of like tensor factors,
    each of them the `Site` `site`, whose parities and weights are those of
    the object the family acts on (`Irrep.site`, `CompositeSpace.site`).

    check_fn evaluates the check form as an array; `noncheck` composes it
    with the graded swap of the two sites.  poly_weight/poly_base, when set,
    polynomialize the family: poly_weight(u) * R(u) = sum_p
    poly_base(u)**(p-1) * M_p, which is what spectral_decompose fits.
    """

    family: str
    params: DeformParams
    site: Site
    chi: complex = None
    u0: complex = None
    check_fn: callable = field(repr=False, default=None)
    poly_weight: callable = field(repr=False, default=None)
    poly_base: callable = field(repr=False, default=None)
    table: CouplingTable = field(repr=False, default=None)

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

    def braid_limit(self, sign):
        """Constant matrix limit of the normalized check form at u -> +-inf,
        evaluated at the saturating argument u = +-40 / |a|."""
        a = self.params.a if self.family == "hecke" else np.log(self.params.q)
        u = sign * 40.0 / max(abs(a), 1e-3)
        return self.check_fn(u)


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
    I = np.eye(rep.r ** 2)
    a = params.a
    s = np.sqrt(1 - 4 * chi + 0j)

    def check_fn(u):
        return I + hecke_f(u, chi, a) * P1

    def poly_weight(u):
        # (e^{2au}-1) * (-1 + s*coth(au)): clears the f-denominator and
        # leaves x-linear content, x = e^{2au}
        x = np.exp(2 * a * complex(u))
        return (x - 1) * (-1.0) + s * (x + 1)

    return SpectralRMatrix(
        family="hecke", params=params, site=rep.site,
        chi=chi, u0=u0, check_fn=check_fn,
        poly_weight=poly_weight,
        poly_base=lambda u: np.exp(2 * a * complex(u)),
        table=table,
    )


def r33_family(kind, table):
    """Spectral families on V^3 (x) V^3 of sl_q(2), normalized to 1 at u = 0,
    over the invariant projectors P5, P3, P1 of its coupling table `table`.
    Kind 1 is the three-term descendant-type solution, kind 2 the
    Birman-Wenzl-Murakami-type one sharing its braid limits, kind 3 the
    two-term family (requires real q > 0 for its square-root coefficient).
    """
    rep, params = table.rep1, table.rep1.params
    if rep.algebra != SLQ2 or (rep.r, table.rep2.r) != (3, 3):
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
        family=f"r33_{kind}", params=params, site=rep.site, check_fn=check_fn,
        poly_weight=lambda u: q ** complex(u),
        poly_base=lambda u: q ** complex(u),
        table=table,
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
    out = np.zeros((rep1.r * rep2.r,) * 2, dtype=complex)
    for n in range(0, min(rep1.r, rep2.r)):
        coef = ((-np.sqrt(q)) ** (0.5 * n * (n - 1)) * (q - 1.0 / q) ** n
                / bracket_plus_factorial(n, q))
        A = diag_power(q, -n * H1 / 2) @ np.linalg.matrix_power(E1, n)
        B = np.linalg.matrix_power(F2, n) @ diag_power(q, n * H2 / 2)
        out += coef * graded_kron_raw(A, B, p1, p1, p2, p2)
    m = np.diag(khh) @ out
    return m.T if sign < 0 else m


def intertwining_residual(R, rep1, rep2):
    """Relative residual of R Delta[g] = Delta'[g] R over all generators,
    with Delta' the flipped coproduct."""
    q = rep1.params.q
    pair = coproduct_pair(rep1.algebra, rep1, rep2, q)
    pair_flip = coproduct_pair(rep1.algebra, rep2, rep1, q)
    P = graded_permutation(rep2, rep1)  # V2 x V1 -> V1 x V2
    worst = 0.0
    for g in ("E", "F", "H"):
        D = getattr(pair, g)
        Dp = P @ getattr(pair_flip, g) @ np.linalg.inv(P)
        worst = max(worst, rel_residual(R @ D, Dp @ R))
    return worst


def ybe_residual(fam, u, w, form="check"):
    """Relative residual of the triple-product relation of the spectral
    family `fam`, with A = R(u), B = R(u+w), C = R(w), at a pair of points
    or the largest over the pairs of two equal-length sequences u and w.

    check:    A12 B23 C12 = C23 B12 A23, plain embeddings (the check form
              carries no grading signs).
    noncheck: A12 B13 C23 = C23 B13 A12, with the 1-3 leg embedded through
              graded permutations.

    A, B and C are stacked over the pairs, and both sides are compared per
    total-weight sector of three sites of the family (`sector_residual`),
    once each stacked factor has passed `check_sectors`."""
    if form == "check":
        # even parities, but the family's weights: its sectors stay small
        get, site = fam.check_fn, Site((0,) * fam.dim, fam.site.weights)
        legs = ((0, 1), (1, 2), (0, 1)), ((1, 2), (0, 1), (1, 2))
    elif form == "noncheck":
        get, site = fam.noncheck, fam.site
        legs = ((0, 1), (0, 2), (1, 2)), ((1, 2), (0, 2), (0, 1))
    else:
        raise QybeError(f"unknown YBE form {form!r}")
    u, w = np.atleast_1d(u), np.atleast_1d(w)
    A, B, C = (np.stack([get(x) for x in xs]) for xs in (u, u + w, w))
    if A.shape[-1] != fam.dim ** 2:
        raise QybeError("operator does not act on a like-factor pair")
    return sector_residual(list(zip((A, B, C), legs[0])), list(zip((C, B, A), legs[1])),
                           [site] * 3)


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


class IllConditionedFitError(QybeError):
    """Spectral decomposition sampling produced an ill-conditioned system."""


def spectral_decompose(fam, r1, samples=None, rng=None):
    """Fit poly_weight(u) R(u) = sum_p poly_base(u)^(p-1) M_p, p = 1..r1,
    over >= r1 sample points of the non-check family; returns (list of M_p,
    residual).

    Trigonometric families only: the family must declare its polynomial
    weight and elementary power."""
    if fam.poly_weight is None or fam.poly_base is None:
        raise QybeError("family does not declare a polynomialization")
    rng = rng or np.random.default_rng(42)
    if samples is None:
        samples = [complex(x) for x in rng.uniform(0.2, 1.4, 2 * r1)]
    if len(samples) < r1:
        raise QybeError("need at least r1 sample points")
    V = np.array([[x ** p for p in range(r1)] for x in map(fam.poly_base, samples)],
                 dtype=complex)
    R = np.stack([fam.poly_weight(u) * fam.noncheck(u) for u in samples])
    Y = R.reshape(len(samples), -1)
    cond = np.linalg.cond(V)
    if cond > 1e10:
        raise IllConditionedFitError(f"Vandermonde condition number {cond:.1e}")
    coefs, res, rank, sv = np.linalg.lstsq(V, Y, rcond=None)
    fitted = V @ coefs
    resid = np.abs(fitted - Y).max() / max(1.0, np.abs(Y).max())
    mats = list(coefs.reshape((r1,) + R.shape[1:]))
    return mats, float(resid)
