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
"""

from dataclasses import dataclass

import numpy as np

from .qarith import DESK_BOUND, DeformParams, PoleError, QybeError
from .repspace import (
    GradedOperator,
    RepLike,
    Space,
    build_irrep,
    embed_at,
    graded_permutation,
    nfold_coproduct,
)
from .coupling import Decomposition, decompose, projector
from .rmatrix import SpectralRMatrix, hecke_f, hecke_family, u0_point

_COMPOSITE_CACHE = {}


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

    embed columns are the coupled block states (an isometry in the invariant
    metric); project is the left inverse that annihilates the invariant
    complement, so sandwiched operators compress multiplicatively.
    """

    algebra: str
    r: int
    n: int
    dim: int
    decomposition: Decomposition
    embed: np.ndarray
    project: np.ndarray
    gens: RepLike
    params: DeformParams

    @property
    def blocks(self):
        """(irrep dimension, multiplicity) pairs, ascending."""
        return sorted(self.decomposition.block_multiplicities().items())

    @property
    def parities(self):
        return tuple(int(x) for x in self.decomposition.parities)

    def space(self):
        return Space.single(self.parities)

    def compress(self, full_matrix):
        return self.project @ full_matrix @ self.embed

    def replike(self):
        return self.gens


def adjacent_singlet_kernel(rep, n, params):
    """Orthonormal basis of the joint kernel of all adjacent-pair singlet
    projectors on (V^r)^(x n)."""
    P1 = projector(rep, rep, 1, params).matrix
    dims = [rep.r] * n
    pars = [rep.parities] * n
    rows = np.vstack([embed_at(P1, (k, k + 1), dims, pars) for k in range(n - 1)])
    u, s, vh = np.linalg.svd(rows)
    tol = 1e-10 * max(1.0, s.max())
    rank = int(np.sum(s > tol))
    return vh.conj().T[:, rank:]


def truncation_cascade(rep, n, params, chi=None):
    """Pairwise product of degenerate-point R-matrices over all factor pairs
    (the step-by-step truncation); its image spans U^{R_n}."""
    fam = hecke_family(rep, params, chi)
    u0 = fam.u0
    dims = [rep.r] * n
    pars = [rep.parities] * n
    out = np.eye(rep.r ** n, dtype=complex)
    for k in range(2, n + 1):
        for p in range(1, k):
            op = fam.swap @ fam.check_fn((k - p) * u0)
            out = out @ embed_at(op, (k - 1, p - 1), dims, pars)
    return out


def composite_space(algebra_or_rep, r=None, n=None, params=None):
    """Build U^{R_n} with block structure, embedding and compressed generators.

    Raises on a rank mismatch between the kernel intersection and the
    recurrence dimension."""
    if isinstance(algebra_or_rep, str):
        params = params or DeformParams(algebra=algebra_or_rep)
        rep = build_irrep(algebra_or_rep, r, params)
    else:
        rep = algebra_or_rep
        params = params or rep.params
        if n is None:
            n = r
            r = rep.r
    if n < 1:
        raise QybeError(f"composite space needs n >= 1, got {n}")
    key = (rep.algebra, rep.r, n, params.q, params.a)
    if key in _COMPOSITE_CACHE:
        return _COMPOSITE_CACHE[key]
    want = dims_recurrence(rep.r, n)
    if rep.r ** n > DESK_BOUND:
        raise QybeError(f"composite space {rep.r}^{n} exceeds the desk bound {DESK_BOUND}")
    if n == 1:
        dec = decompose(rep, params)
        E = dec.basis
        D = dec.dual
    else:
        within = adjacent_singlet_kernel(rep, n, params)
        if within.shape[1] != want:
            raise QybeError(
                f"truncated-space rank {within.shape[1]} != recurrence value {want}"
            )
        co = nfold_coproduct(rep.algebra, [rep] * n, params.q)
        dec = decompose(co, params, within=within)
        E = dec.basis
        D = dec.dual
    if E.shape[1] != want:
        raise QybeError(f"block basis rank {E.shape[1]} != recurrence value {want}")
    co = nfold_coproduct(rep.algebra, [rep] * n, params.q)
    gens = RepLike(rep.algebra, D @ co.E @ E, D @ co.F @ E, D @ co.H @ E, dec.parities)
    out = CompositeSpace(
        algebra=rep.algebra, r=rep.r, n=n, dim=want, decomposition=dec,
        embed=E, project=D, gens=gens, params=params,
    )
    _COMPOSITE_CACHE[key] = out
    return out


def descendant_coefficients(u, chi, a, u0=None):
    """Coefficient pair (c1, c2) of the closed fused form, as pole-free
    rationals in x = exp(2a(u-u0)); exact at u = u0 where both vanish."""
    s = np.sqrt(1 - 4 * chi + 0j)
    z0 = (1 - s) / (1 + s)
    u0 = u0 if u0 is not None else u0_point(chi, a)
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


def _four_site_ops(rep, params):
    # adjacent placements need no signs; the outer-pair projector enters the
    # check-formalism products sign-free as well (the Koszul-decorated
    # embedding differs for even-dimensional graded irreps, whose pair
    # singlet is odd, and does not satisfy the composite triple identity)
    P1 = projector(rep, rep, 1, params).matrix
    dims = [rep.r] * 4
    plain = [tuple(0 for _ in range(rep.r))] * 4
    P12 = embed_at(P1, (0, 1), dims, plain)
    P34 = embed_at(P1, (2, 3), dims, plain)
    P23 = embed_at(P1, (1, 2), dims, plain)
    P14 = embed_at(P1, (0, 3), dims, plain)
    I = np.eye(rep.r ** 4)
    ext = (I - P12) @ (I - P34)
    return ext, P23, P14


def descendant_r_closed(rep, params, u, chi=None, compressed=True):
    """Closed fused solution on U^{r^2-1} (x) U^{r^2-1} (or the ambient
    4-factor space when compressed=False)."""
    params = params or rep.params
    fam = hecke_family(rep, params, chi)
    c1, c2 = descendant_coefficients(u, fam.chi, params.a, fam.u0)
    ext, P23, P14 = _four_site_ops(rep, params)
    full = ext @ (np.eye(rep.r ** 4) + c1 * P23 + c2 * P14 @ P23) @ ext
    if not compressed:
        return full
    U = composite_space(rep, n=2, params=params)
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    sp = U.space().tensor(U.space())
    return GradedOperator(DD @ full @ EE, sp, sp, label=f"Rfused({u})")


def descendant_r_product(rep, params, u, chi=None, compressed=True, guard=1e-6):
    """Fused solution as the six-factor product of pair R-matrices.

    The inner factor at argument u - 2 u0 has a pole at u = u0; within the
    guard the limit is taken by fourth-order Richardson extrapolation from
    nearby points (the limit exists, the direct product does not evaluate)."""
    params = params or rep.params
    fam = hecke_family(rep, params, chi)
    u0 = fam.u0
    if abs(complex(u) - u0) < guard:
        h = 1e-3
        vals = [descendant_r_product(rep, params, u0 + dz, chi, compressed, guard=0.0)
                for dz in (h, -h, h / 2, -h / 2)]
        mats = [v.matrix if isinstance(v, GradedOperator) else v for v in vals]
        coarse = (mats[0] + mats[1]) / 2
        fine = (mats[2] + mats[3]) / 2
        m = (4 * fine - coarse) / 3
        if isinstance(vals[0], GradedOperator):
            return GradedOperator(m, vals[0].domain, vals[0].codomain, label=f"Rfused({u})")
        return m
    dims = [rep.r] * 4
    pars = [rep.parities] * 4
    Rc = lambda x, pos: embed_at(fam.check_fn(x), pos, dims, pars)
    full = (Rc(u0, (0, 1)) @ Rc(u0, (2, 3))
            @ Rc(u, (1, 2)) @ Rc(u - u0, (0, 1)) @ Rc(u - u0, (2, 3))
            @ Rc(u - 2 * u0, (1, 2))
            @ Rc(u0, (0, 1)) @ Rc(u0, (2, 3)))
    if not compressed:
        return full
    U = composite_space(rep, n=2, params=params)
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    sp = U.space().tensor(U.space())
    return GradedOperator(DD @ full @ EE, sp, sp, label=f"Rfused({u})")


def descendant_family(rep, params=None, chi=None):
    """Spectral family of the fused solution on the composite pair, in the
    additive spectral variable.

    The construction is parameterized by the outermost line difference; the
    family shifts that variable so its regular point sits at zero, which is
    where the standard additive triple-product relation holds:
    check_fn(x) is the closed fused form at outer difference x + u0, and
    check_fn(0) is the identity."""
    params = params or rep.params
    fam = hecke_family(rep, params, chi)
    U = composite_space(rep, n=2, params=params)
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    ext, P23, P14 = _four_site_ops(rep, params)
    B0 = DD @ (ext @ ext) @ EE
    B1 = DD @ (ext @ P23 @ ext) @ EE
    B2 = DD @ (ext @ P14 @ P23 @ ext) @ EE
    a = params.a
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

    Urep = RepLike(rep.algebra, U.gens.E, U.gens.F, U.gens.H, U.parities)
    sp = U.space().tensor(U.space())
    swap = graded_permutation(Urep, Urep).matrix
    return SpectralRMatrix(
        algebra=rep.algebra, r1=U.dim, r2=U.dim, family="fused", params=params,
        chi=fam.chi, u0=0.0, check_fn=check_fn, swap=swap, space=sp,
        parities=U.parities,
        poly_weight=poly_weight,
        poly_base=lambda x: np.exp(2 * a * complex(x)),
        nterms=3,
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


def extended_lax(rep, n, params=None, u=0.0, chi=None):
    """Descendant operator on V^r (x) U^{R_n}: the crossing train of pair
    R-matrices restricted to the truncated quantum space (which the train
    preserves exactly, so no output projector is needed)."""
    params = params or rep.params
    fam = hecke_family(rep, params, chi)
    u0 = fam.u0
    if rep.r ** (n + 1) > DESK_BOUND:
        raise QybeError(f"extended Lax {rep.r}^{n + 1} exceeds the desk bound {DESK_BOUND}")
    U = composite_space(rep, n=n, params=params)
    dims = [rep.r] * (n + 1)
    pars = [rep.parities] * (n + 1)
    B = np.eye(rep.r ** (n + 1), dtype=complex)
    for m in range(n, 0, -1):  # auxiliary line crosses factor 1 first
        op = fam.swap @ fam.check_fn(u + (n - m) * u0)
        B = B @ embed_at(op, (0, m), dims, pars)
    Efull = np.kron(np.eye(rep.r), U.embed)
    Dfull = np.kron(np.eye(rep.r), U.project)
    m_ = Dfull @ B @ Efull
    sp = Space.single(rep.parities).tensor(U.space())
    return GradedOperator(m_, sp, sp, label=f"L[{rep.r},{n}]({u})")


def lax_lower_projector(rep, n, params=None):
    """Invariant projector onto the U^{R_{n-1}} component of V^r (x) U^{R_n},
    complementary (in the invariant metric) to the embedded U^{R_{n+1}}."""
    params = params or rep.params
    U = composite_space(rep, n=n, params=params)
    Tn1 = adjacent_singlet_kernel(rep, n + 1, params)  # U^{R_{n+1}} in the ambient
    if Tn1.shape[1] != dims_recurrence(rep.r, n + 1):
        raise QybeError("upper component rank mismatch")
    Efull = np.kron(np.eye(rep.r), U.embed)
    co = nfold_coproduct(rep.algebra, [rep] * (n + 1), params.q)
    from .repspace import invariant_metric

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


def extended_lax_closed(rep, n, params=None, chi=None, fit_u=0.31 + 0.05j):
    """Two-projector closed form of the extended Lax operator.

    Returns (evaluate, scale, fit_residual): evaluate(u) reproduces the train
    product as L(0) (1 + scale * F_n(u) * P_lower), with the single scalar
    fitted at one generic point and F_n the shifted f-product."""
    params = params or rep.params
    fam = hecke_family(rep, params, chi)
    Plow = lax_lower_projector(rep, n, params)
    K0 = extended_lax(rep, n, params, 0.0, chi).matrix
    Lfit = extended_lax(rep, n, params, fit_u, chi).matrix
    M = np.linalg.inv(K0) @ Lfit - np.eye(K0.shape[0])
    coef = np.vdot(Plow, M) / np.vdot(Plow, Plow)
    resid = np.abs(M - coef * Plow).max() / max(1.0, np.abs(M).max())
    scale = coef / f_product(fam.chi, params.a, n, fit_u)
    sp = Space.single(rep.parities).tensor(composite_space(rep, n=n, params=params).space())

    def evaluate(u):
        m = K0 @ (np.eye(K0.shape[0]) + scale * f_product(fam.chi, params.a, n, u) * Plow)
        return GradedOperator(m, sp, sp, label=f"Lclosed[{rep.r},{n}]({u})")

    return evaluate, complex(scale), float(resid)


def composite_states(rep, params=None):
    """Normalized pair states of U^{r^2-1} induced from the product basis:
    psi_(i,k) = (1 - P1)(v_i (x) v_k), written in composite-block coordinates
    and normalized to unit invariant-metric norm.  One weight-zero pair is
    linearly dependent on the rest and is dropped; the returned family spans
    the whole composite space."""
    params = params or rep.params
    U = composite_space(rep, n=2, params=params)
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
