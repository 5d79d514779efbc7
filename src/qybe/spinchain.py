"""Periodic chains over composite sites: transfer matrices, the fused-chain
Hamiltonian in projector form, coupled-basis matrix elements and desk-scale
spectra.

Transfer matrices of graded and ungraded chains share one contraction: the
monodromy is built along the auxiliary bond by tensor contractions, with the
Koszul signs of an even R reduced to sign vectors, and the auxiliary trace is
taken inside the last contraction.  A 512-dimensional three-site chain thus
costs tensor contractions instead of products of 4096-dimensional matrices,
for sl_q(2) and osp_q(1|2) alike.  The dense Hamiltonians and spectra keep
chains within `qarith.DESK_BOUND` dimensions.
"""

from dataclasses import dataclass

import numpy as np

from .qarith import DESK_BOUND, DeformParams, QybeError
from .repspace import GradedOperator, Space, embed_at
from .coupling import cgc_table, chi_factor, coupled_basis
from .fusion import composite_space, descendant_coefficients, _four_site_ops
from .rmatrix import SpectralRMatrix, f_slope, u0_point


@dataclass
class ChainSpec:
    """Periodic chain with identical site spaces and a chosen auxiliary."""

    site_dim: int
    n_sites: int
    params: DeformParams
    parities: tuple = ()
    aux_parities: tuple = None

    def __post_init__(self):
        if not self.parities:
            self.parities = tuple(0 for _ in range(self.site_dim))
        if self.aux_parities is None:
            self.aux_parities = self.parities
        if self.n_sites < 1:
            raise QybeError(f"a chain needs at least one site, got {self.n_sites}")
        if self.site_dim ** self.n_sites > DESK_BOUND:
            raise QybeError(f"chain {self.site_dim}^{self.n_sites} exceeds the desk bound "
                            f"{DESK_BOUND}")

    @staticmethod
    def from_composite(U, n_sites):
        return ChainSpec(U.dim, n_sites, U.params, U.parities)


def transfer_matrix(spec, fam, u):
    """tau(u): graded partial trace over the auxiliary space of the ordered
    product of non-check R-matrices along the chain.

    The monodromy is contracted along the auxiliary bond one site at a time,
    and the last contraction sums the bond and the traced auxiliary index
    together, so the full aux (x) chain monodromy is never formed.  R is
    even, so the Koszul signs of the graded product reduce to a factor
    (-1)^(p(a_in) p(s_in)) on each crossing and a closing weight on the
    traced index a: (-1)^p(a) on even-parity columns, 1 on odd ones.  The
    last crossing's own factor cancels against its share of that weight."""
    R = fam.noncheck(u).matrix if isinstance(fam, SpectralRMatrix) else np.asarray(fam)
    da = len(spec.aux_parities)
    ds = spec.site_dim
    N = spec.n_sites
    if R.shape != (da * ds, da * ds):
        raise QybeError("R does not act on aux (x) site")
    pa = np.asarray(spec.aux_parities)
    R4 = R.reshape(da, ds, da, ds)  # (a_out, s_out, a_in, s_in)
    W = R4 * (-1.0) ** np.outer(pa, spec.parities)[None, None]
    T = np.eye(da, dtype=complex)[:, None, :, None]  # (a, s_out, b, s_in), no sites yet
    for _ in range(N - 1):
        d = T.shape[1]
        T = np.tensordot(T, W, axes=([2], [0]))  # (a, so, si, s_out, b, s_in)
        T = T.transpose(0, 1, 3, 4, 2, 5).reshape(da, d * ds, da, d * ds)
    # closing weight of the traced index a (= a_0 = a_N) against the column
    # parity of the first N-1 sites; the last crossing then goes unsigned
    d = T.shape[1]
    cols = Space(tuple([ds] * (N - 1)), tuple([spec.parities] * (N - 1))).flat_parities()
    T = T * (-1.0) ** np.outer(pa, 1 + cols)[:, None, None, :]
    tau = np.tensordot(T, R4, axes=([0, 2], [2, 0]))  # (so, si, s_out, s_in)
    tau = tau.transpose(0, 2, 1, 3).reshape(d * ds, d * ds)
    sp = Space(tuple([ds] * N), tuple([spec.parities] * N))
    return GradedOperator(tau, sp, sp, label=f"tau({u})")


def f0_and_chibar(r, params):
    """Linearization slope f0 = 2a/sqrt(1-4 chi) and the rescaled scalar
    chibar = chi 2 f0^2 / (4 - f0^2)."""
    chi = chi_factor(params.algebra, r, params)
    f0 = f_slope(chi, params.a)
    chibar = chi * 2 * f0 ** 2 / (4 - f0 ** 2)
    return complex(f0), complex(chibar)


def bond_expansion_coefficients(rep, params=None, chi=None, step=1e-6):
    """First-order expansion of the fused solution at its regular point:
    d/du of the two closed coefficients, Richardson-extrapolated.

    Both derivatives equal the slope f0 for every r, algebra and scale a, so
    the chain bond operator is f0 (Pbar + Phat); the ratio is returned rather
    than assumed so the construction stays self-calibrating."""
    params = params or rep.params
    chi = chi if chi is not None else chi_factor(rep.algebra, rep.r, params)
    a = params.a
    u0 = u0_point(chi, a)

    def der(ix, h):
        cp = descendant_coefficients(u0 + h, chi, a, u0)[ix]
        cm = descendant_coefficients(u0 - h, chi, a, u0)[ix]
        return (cp - cm) / (2 * h)

    out = []
    for ix in range(2):
        d1 = der(ix, step)
        d2 = der(ix, step / 2)
        out.append((4 * d2 - d1) / 3)
    return complex(out[0]), complex(out[1])


@dataclass
class HamiltonianBundle:
    """Chain Hamiltonian with its per-bond building blocks.

    H = f0 * sum_i (Pbar_{i+1,i} + chibar * Phat_{i+1,i}) holds exactly with
    the stored f0 and chibar (the measured expansion coefficients of the
    fused solution at its regular point)."""

    H: GradedOperator
    f0: complex
    chibar: complex
    pbar_cell: np.ndarray
    phat_cell: np.ndarray
    terms: list


def hamiltonian_projector_form(rep, n_sites, params=None, chi=None):
    """Nearest-neighbour Hamiltonian of the fused chain on (U^{r^2-1})^(x N),
    assembled from the sandwiched singlet projectors of each two-cell block
    and closed periodically.  Bond i couples sites (i+1, i), the orientation
    of the transfer matrix's log-derivative."""
    if n_sites < 2:
        raise QybeError(f"the chain Hamiltonian needs at least two sites, got {n_sites}")
    params = params or rep.params
    chi = chi if chi is not None else chi_factor(rep.algebra, rep.r, params)
    U = composite_space(rep, n=2, params=params)
    ext, P23, P14 = _four_site_ops(rep, params)
    EE = np.kron(U.embed, U.embed)
    DD = np.kron(U.project, U.project)
    pbar = DD @ (ext @ P23 @ ext) @ EE
    phat = DD @ (ext @ P23 @ P14 @ ext) @ EE
    c1p, c2p = bond_expansion_coefficients(rep, params, chi)
    f0 = c1p
    chibar = c2p / c1p
    dU = U.dim
    dims = [dU] * n_sites
    pars = [U.parities] * n_sites
    bond = pbar + chibar * phat
    terms = [embed_at(bond, ((i + 1) % n_sites, i), dims, pars) for i in range(n_sites)]
    H = f0 * sum(terms)
    sp = Space(tuple(dims), tuple(pars))
    return HamiltonianBundle(
        H=GradedOperator(H, sp, sp, label="H"),
        f0=f0, chibar=chibar, pbar_cell=pbar, phat_cell=phat, terms=terms,
    )


def hamiltonian_log_derivative(spec, fam, point=None, step=1e-6):
    """tau(u*)^-1 dtau/du at the regular point u* by central differences with
    one Richardson step."""
    point = point if point is not None else (fam.u0 or 0.0)
    t0 = transfer_matrix(spec, fam, point).matrix
    t0inv = np.linalg.inv(t0)

    def ddu(h):
        tp = transfer_matrix(spec, fam, point + h).matrix
        tm = transfer_matrix(spec, fam, point - h).matrix
        return (tp - tm) / (2 * h)

    d1 = ddu(step)
    d2 = ddu(step / 2)
    d = (4 * d2 - d1) / 3
    m = t0inv @ d
    sp = Space(tuple([spec.site_dim] * spec.n_sites), tuple([spec.parities] * spec.n_sites))
    return GradedOperator(m, sp, sp, label="Hlog")


@dataclass
class CoupledElements:
    """Bond-term matrix elements in the four-factor coupled basis."""

    labels: list
    direct: np.ndarray
    summed: np.ndarray
    route_residual: float
    conserves_total: bool
    support: list  # labels of rows/cols with nonzero blocks


def coupled_matrix_elements(rep, term, params=None, tol=1e-9):
    """Matrix elements of a sandwiched bond operator in the coupled basis
    |j12, j34; J, i>, computed two ways: direct conjugation of the dense
    operator, and contraction of coefficient-table data only.

    term: "P23" for the single middle projector, "P23P14" for the double one.
    The table route for the double term uses plain factor reordering and is
    restricted to the non-graded algebra."""
    params = params or rep.params
    if term not in ("P23", "P23P14"):
        raise QybeError("term must be 'P23' or 'P23P14'")
    cb = coupled_basis(rep, params)
    ext, P23, P14 = _four_site_ops(rep, params)
    op = ext @ P23 @ ext if term == "P23" else ext @ P23 @ P14 @ ext
    direct = cb.dual @ op @ cb.basis
    summed = _sum_route(rep, params, cb, term)
    # the outer projectors are diagonal in the coupled basis: they kill any
    # state whose pair label is a singlet
    keep = np.array([1.0 if (l[0] > 0 and l[1] > 0) else 0.0 for l in cb.labels])
    summed = keep[:, None] * summed * keep[None, :]
    residual = float(np.abs(summed - direct).max() / max(1.0, np.abs(direct).max()))

    conserves = True
    for ci, li in enumerate(cb.labels):
        for cj, lj in enumerate(cb.labels):
            if abs(direct[ci, cj]) > tol and (abs(li[2] - lj[2]) > 1e-9
                                              or abs(li[3] - lj[3]) > 1e-9):
                conserves = False
    support = sorted({
        (cb.labels[ci][:3], cb.labels[cj][:3])
        for ci in range(len(cb.labels)) for cj in range(len(cb.labels))
        if abs(direct[ci, cj]) > tol
    })
    return CoupledElements(
        labels=cb.labels, direct=direct, summed=summed,
        route_residual=residual, conserves_total=conserves, support=support,
    )


def _sum_route(rep, params, cb, term):
    """Assemble the bond-term matrix from coefficient data alone: pair and
    sector coupling coefficients plus singlet components, no dense
    conjugations."""
    r = rep.r
    pair = cgc_table(rep, rep, params)
    dec = pair.decomposition
    Cp = dec.basis.reshape(r, r, r * r)
    Cpb = dec.dual.reshape(r * r, r, r)
    scol = next(b.start for b in dec.blocks if b.r == 1)
    sing = Cp[:, :, scol]
    sing_bar = Cpb[scol]

    ncols = len(cb.labels)
    K = np.zeros((ncols, r, r, r, r), dtype=complex)
    B = np.zeros((ncols, r, r, r, r), dtype=complex)
    c = 0
    for (ai, bi), (bA, bB, sector) in cb.sectors.items():
        for bT in sector.blocks:
            for k in range(bT.r):
                vec = sector.basis[:, bT.start + k]
                dvec = sector.dual[bT.start + k, :]
                for p12 in range(bA.r):
                    c12 = Cp[:, :, bA.start + p12]
                    c12b = Cpb[bA.start + p12]
                    for p34 in range(bB.r):
                        sc = vec[p12 * bB.r + p34]
                        scb = dvec[p12 * bB.r + p34]
                        if abs(sc) < 1e-14 and abs(scb) < 1e-14:
                            continue
                        c34 = Cp[:, :, bB.start + p34]
                        c34b = Cpb[bB.start + p34]
                        if abs(sc) > 1e-14:
                            K[c] += sc * np.einsum("ab,cd->abcd", c12, c34)
                        if abs(scb) > 1e-14:
                            B[c] += scb * np.einsum("ab,cd->abcd", c12b, c34b)
                c += 1
    if term == "P23":
        left = np.einsum("cabxd,bx->cad", B, sing)
        right = np.einsum("cabxd,bx->cad", K, sing_bar)
        return np.einsum("cad,ead->ce", left, right)
    # P23 P14: both middle and outer singlets contract
    left = np.einsum("cabxd,bx,ad->c", B, sing, sing)
    right = np.einsum("cabxd,bx,ad->c", K, sing_bar, sing_bar)
    return np.outer(left, right)


def spectrum(H, cluster_tol=1e-7):
    """Eigenvalues sorted by real part plus a degeneracy table of clustered
    levels."""
    m = H.matrix if isinstance(H, GradedOperator) else np.asarray(H)
    vals = np.linalg.eigvals(m)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0]) < cluster_tol * max(1.0, abs(v)) + cluster_tol:
            lead, count = clusters[-1]
            clusters[-1] = ((lead * count + v) / (count + 1), count + 1)
        else:
            clusters.append((v, 1))
    return vals, clusters
