"""Finite-dimensional irreps of sl_q(2) and osp_q(1|2), graded tensor calculus.

Weight ladders are stored highest weight first: basis index k of an
r-dimensional irrep carries weight i = j - k with j = (r-1)/2, so the raising
generator E is an upper shift matrix and F a lower shift.  osp_q(1|2) states
alternate parity down the ladder starting from an even highest-weight state;
sl_q(2) states are all even.

The graded Kronecker product uses the matrix sign rule

    (A (x) B)[(i,j),(k,l)] = A[i,k] B[j,l] (-1)^(p_k (p_j + p_l))

with p the domain/codomain parities, which makes operator products of graded
Kroneckers plain matrix products.  A tensor factor is a `Site`, the parity
and ladder weight of each state; the index kernels take its parities.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qarith import (
    SLQ2,
    OSPQ12,
    DeformParams,
    DegenerateParameterError,
    QybeError,
    q_number,
    qr_shift,
)


@dataclass(frozen=True)
class Irrep:
    """Irreducible representation data.

    j is the algebra spin value ((r-1)/2 for sl_q(2), (r-1)/4 + shift/2 for
    osp_q(1|2)); ladder_j = (r-1)/2 is the weight-ladder half-width used for
    all index bookkeeping.
    """

    algebra: str
    r: int
    j: complex
    E: np.ndarray
    F: np.ndarray
    H: np.ndarray
    parities: tuple
    casimir_value: complex
    params: DeformParams = field(repr=False, default=None)

    @property
    def dim(self):
        return self.r

    @property
    def ladder_j(self):
        return (self.r - 1) / 2.0

    @cached_property
    def site(self):
        """The irrep as a tensor factor: its parities and ladder weights."""
        return Site(self.parities, ladder_weights(self))


def alpha_sum(algebra, r, i, q):
    """alpha_i = beta_{i-1} gamma_i from the descending anticommutator or
    commutator recursion, summed from the top of the ladder."""
    j = (r - 1) / 2.0
    if algebra == OSPQ12:
        qr = qr_shift(r, q)
        steps = int(round(j - i))
        ks = np.arange(steps + 1)
        vals = np.array([q_number(i + t + qr, q) for t in ks])
        return complex(np.sum((-1.0) ** ks * vals))
    return q_number(j + i, q) * q_number(j - i + 1, q)


def alpha_closed(algebra, r, i, q):
    """Closed form of alpha_i.

    For osp_q(1|2) the sign of the [r/2 + shift] term alternates with the
    ladder depth, (-1)^((r-1)/2 - i); this is the resummation of alpha_sum and
    is what the recursion actually produces.
    """
    j = (r - 1) / 2.0
    if algebra == OSPQ12:
        qr = qr_shift(r, q)
        sgn = (-1.0) ** int(round(j - i))
        num = sgn * q_number(r / 2.0 + qr, q) + q_number(i + qr - 0.5, q)
        return num / (np.sqrt(complex(q)) + 1.0 / np.sqrt(complex(q)))
    return q_number(j + 0.5, q) ** 2 - q_number(i - 0.5, q) ** 2


def casimir_value(algebra, r, q):
    """Casimir eigenvalue on the r-dimensional irrep."""
    if algebra == OSPQ12:
        return q_number(r / 2.0 + qr_shift(r, q), q) ** 2
    return q_number(r / 2.0, q) ** 2


def ladder_coefficients(algebra, r, params):
    """Raising and lowering coefficients (beta, gamma) of the r-dimensional
    ladder, E = diag(beta, 1) and F = diag(gamma, -1) highest weight first,
    with beta_{i-1} = (-1)^(j-i) gamma_i (osp) or beta = gamma (sl_q(2)).
    Raises DegenerateParameterError where q is not generic."""
    j = (r - 1) / 2.0
    sign = np.ones(max(r - 1, 0))
    gamma = np.zeros(max(r - 1, 0), dtype=complex)
    for k in range(r - 1):  # gamma_i lowers v_i, beta_{i-1} raises v_{i-1}
        a = alpha_sum(algebra, r, j - k, params.q)
        if abs(a) < 1e-9 and 0 < k:
            raise DegenerateParameterError(
                f"alpha vanished at interior weight i={j - k}; q is not generic"
            )
        if algebra == OSPQ12:
            sign[k] = (-1.0) ** k
        gamma[k] = np.sqrt(a * sign[k] + 0j)
    return sign * gamma, gamma


def build_irrep(algebra, r, params=None):
    """Construct the r-dimensional irrep with the ladder coefficients of
    `ladder_coefficients`."""
    params = params or DeformParams(algebra=algebra)
    q = params.q
    r = int(r)
    if r < 1:
        raise QybeError("irrep dimension must be >= 1")
    j = (r - 1) / 2.0
    if algebra == OSPQ12:
        qr = qr_shift(r, q)
        lam = np.array([(j - k) + qr for k in range(r)])
        parities = tuple(k % 2 for k in range(r))
        spin = (r - 1) / 4.0 + qr / 2.0
    elif algebra == SLQ2:
        lam = np.array([2.0 * (j - k) for k in range(r)], dtype=complex)
        parities = tuple(0 for _ in range(r))
        spin = j
    else:
        raise QybeError(f"unknown algebra {algebra!r}")
    beta, gamma = ladder_coefficients(algebra, r, params)
    return Irrep(
        algebra=algebra,
        r=r,
        j=complex(spin),
        E=np.diag(beta, 1),
        F=np.diag(gamma, -1),
        H=np.diag(lam),
        parities=parities,
        casimir_value=casimir_value(algebra, r, q),
        params=params,
    )


def diag_power(q, H):
    """q**H for diagonal H, principal branch."""
    return np.diag(complex(q) ** np.diag(H))


def _qnum_diag(H, q):
    d = np.diag(H)
    return np.diag((complex(q) ** d - complex(q) ** (-d)) / (complex(q) - 1.0 / complex(q)))


def graded_kron_raw(A, B, pA_dom, pA_cod, pB_dom, pB_cod):
    """Graded Kronecker product of raw matrices with explicit parity vectors."""
    m1, n1 = A.shape
    m2, n2 = B.shape
    out = np.kron(A, B).reshape(m1, m2, n1, n2)
    sign = (-1.0) ** (
        np.asarray(pA_dom)[None, None, :, None]
        * (np.asarray(pB_cod)[None, :, None, None] + np.asarray(pB_dom)[None, None, None, :])
    )
    return (out * sign).reshape(m1 * m2, n1 * n2)


class RepLike:
    """Minimal (E, F, H, parities) bundle of a coproduct or a composite
    block; it and `Irrep` both feed the coproduct and coupling machinery."""

    __slots__ = ("algebra", "E", "F", "H", "parities")

    def __init__(self, algebra, E, F, H, parities):
        self.algebra = algebra
        self.E = np.asarray(E, dtype=complex)
        self.F = np.asarray(F, dtype=complex)
        self.H = np.asarray(H, dtype=complex)
        self.parities = tuple(int(x) for x in parities)

    @property
    def dim(self):
        return len(self.parities)


def coproduct_pair(algebra, A, B, q):
    """Two-fold coproduct matrices (e, f, h) on the graded product of two
    irreps or RepLikes, returned as a RepLike on the pair space."""
    pa, pb = A.parities, B.parities
    gk = lambda X, Y: graded_kron_raw(X, Y, pa, pa, pb, pb)
    IA, IB = np.eye(A.dim), np.eye(B.dim)
    if algebra == OSPQ12:
        e = gk(A.E, diag_power(q, -B.H / 2)) + gk(diag_power(q, A.H / 2), B.E)
        f = gk(A.F, diag_power(q, -B.H / 2)) + gk(diag_power(q, A.H / 2), B.F)
    else:
        e = gk(A.E, IB) + gk(diag_power(q, A.H), B.E)
        f = gk(A.F, diag_power(q, -B.H)) + gk(IA, B.F)
    h = gk(A.H, IB) + gk(IA, B.H)
    pars = (np.add.outer(np.asarray(pa), np.asarray(pb)) % 2).reshape(-1)
    return RepLike(algebra, e, f, h, pars)


def nfold_coproduct(algebra, reps, q):
    """Iterated coproduct over a list of irrep or RepLike factors
    (coassociative, so the left-nested bracketing is as good as any)."""
    cur = reps[0]
    for nxt in reps[1:]:
        cur = coproduct_pair(algebra, cur, nxt, q)
    return cur


def graded_permutation(rep1, rep2):
    """Swap operator P: V1 (x) V2 -> V2 (x) V1 with the Koszul sign
    (-1)^(p_a p_b); P^2 = 1 exactly on matching factors."""
    return perm_matrix([1, 0], [rep1.parities, rep2.parities])


def _signed_perm(sigma, parities):
    """The signed permutation taking target slot t to source slot sigma[t]
    of a product of factors with these parity vectors, as (target flat
    index, +-1 Koszul sign) of every source basis state in flat order.  The
    sign counts the odd pairs whose order sigma inverts."""
    dims = [len(p) for p in parities]
    n = len(dims)
    src = np.indices(dims).reshape(n, -1)
    par = [np.asarray(parities[k], dtype=int)[src[k]] for k in range(n)]
    odd = np.zeros(src.shape[1], dtype=int)
    for t1 in range(n):
        for t2 in range(t1 + 1, n):
            if sigma[t1] > sigma[t2]:
                odd += par[sigma[t1]] * par[sigma[t2]]
    tgt = np.ravel_multi_index([src[k] for k in sigma], [dims[k] for k in sigma])
    return tgt, (-1.0) ** odd


def perm_matrix(sigma, parities):
    """Signed permutation matrix on a product of factors with these parity
    vectors: target slot t holds source slot sigma[t]; Koszul sign counts
    inverted odd pairs.  Complex, like the operators it multiplies, so a
    product casts neither factor."""
    tgt, sign = _signed_perm(sigma, parities)
    out = np.zeros((len(tgt), len(tgt)), dtype=complex)
    out[tgt, np.arange(len(tgt))] = sign
    return out


def embed_at(op, pos, parities):
    """Embed an operator acting on the ordered factor pair/tuple pos into the
    product of factors with these parity vectors, moving factors with graded
    permutations.

    With P the signed permutation bringing pos to the front, this is
    P^T (op (x) 1) P; only its nonzero entries are written, each one a
    Koszul-signed entry of op."""
    op = np.asarray(op)
    pos = tuple(pos)
    rest = [k for k in range(len(parities)) if k not in pos]
    tgt, sign = _signed_perm(list(pos) + rest, parities)
    # src[i, j]: the source state sent to op index i and rest index j
    src = np.argsort(tgt).reshape(int(np.prod([len(parities[k]) for k in pos])), -1)
    s = sign[src]
    out = np.zeros((len(tgt), len(tgt)), dtype=np.result_type(op, float))
    out[src[:, None, :], src[None, :, :]] = (s[:, None, :] * s[None, :, :]) * op[:, :, None]
    return out


def apply_at(op, pos, parities, X):
    """embed_at(op, pos, parities) @ X without forming the embedding,
    for pos a run of consecutive legs in order: the rows of X carry the
    Koszul signs of `_signed_perm` before and after, and op contracts the
    run's legs by a reshape.  X may be a stack of matrices on its last two
    axes and op a stack matched to X's, or either one a single matrix."""
    pos = tuple(pos)
    if pos != tuple(range(pos[0], pos[0] + len(pos))):
        raise QybeError(f"apply_at takes a run of consecutive legs in order, got {pos}")
    rest = [k for k in range(len(parities)) if k not in pos]
    sign = _signed_perm(list(pos) + rest, parities)[1][:, None]
    rows, cols = X.shape[-2:]
    head, dop = int(np.prod([len(p) for p in parities[:pos[0]]])), op.shape[-1]
    Y = op[..., None, :, :] @ (sign * X).reshape(X.shape[:-2] + (head, dop, rows // head // dop * cols))
    Y = Y.reshape(Y.shape[:-3] + (rows, cols))
    Y *= sign
    return Y


def block_index(pos, parities):
    """The blocks of embed_at(op, pos, parities) as gathers from op: a
    function of an index array idx returning (index, sign), with the
    idx x idx block equal to sign * op.ravel()[index].  sign is the Koszul
    sign of `_signed_perm`, and 0 wherever the embedding vanishes (states
    whose other legs differ).  The signs are computed once, for any number
    of blocks."""
    pos = tuple(pos)
    rest = [k for k in range(len(parities)) if k not in pos]
    tgt, sign = _signed_perm(list(pos) + rest, parities)
    dop = int(np.prod([len(parities[k]) for k in pos]))

    def gather(idx):
        a, b = np.divmod(tgt[idx], len(tgt) // dop)  # op index, index on the other legs
        s = sign[idx]
        return a[:, None] * dop + a, np.outer(s, s) * (b[:, None] == b)

    return gather


class Site(NamedTuple("Site", [("parities", tuple), ("weights", tuple)])):
    """One tensor factor: the parity and the ladder weight of each of its
    states, as tuples of Python numbers, so sites compare and hash.  A
    factor's dimension follows from them."""

    __slots__ = ()

    def __new__(cls, parities, weights):
        parities = tuple(int(p) for p in parities)
        weights = tuple(float(w) for w in weights)
        if len(parities) != len(weights):
            raise QybeError(f"{len(weights)} weights for {len(parities)} states")
        return super().__new__(cls, parities, weights)

    @property
    def dim(self):
        return len(self.parities)


def ladder_weights(R):
    """Real ladder weights of the diagonal h (the factor 2 of the sl_q(2)
    convention stripped off).  Even graded irreps shift h by i pi / (2 log q),
    the same constant on every state of a product: the midpoint of the
    symmetric weights.  It is imaginary at real q, where h.real is kept as
    it is, and is subtracted at complex q."""
    h = np.diag(R.H)
    shift = (h.max() + h.min()) / 2
    w = np.real(h - shift) if abs(shift.real) > 1e-9 else np.real(h)
    return w if R.algebra == OSPQ12 else w / 2.0


def casimir_matrix(algebra, R, q):
    """Casimir as a matrix over an irrep or a RepLike (a coproduct)."""
    d = np.diag(R.H)
    qc = complex(q)
    if algebra == OSPQ12:
        A = (qc ** 0.5 + qc ** -0.5) * (R.E @ R.F) - np.diag(
            (qc ** (d - 0.5) - qc ** (-(d - 0.5))) / (qc - 1.0 / qc)
        )
        return A @ A
    g = np.diag(((qc ** ((d - 1) / 2.0) - qc ** (-(d - 1) / 2.0)) / (qc - 1.0 / qc)) ** 2)
    return R.E @ R.F + g


def verify_algebra(rep):
    """Max-abs residuals of the defining relations; keys name the relation."""
    q = rep.params.q
    E, F, H = rep.E, rep.F, rep.H
    out = {}
    if rep.algebra == OSPQ12:
        out["ef+fe-[h]"] = np.abs(E @ F + F @ E - _qnum_diag(H, q)).max()
        out["[h,e]-e"] = np.abs(H @ E - E @ H - E).max()
        out["[h,f]+f"] = np.abs(H @ F - F @ H + F).max()
    else:
        out["[e,f]-[h]"] = np.abs(
            E @ F - F @ E - (diag_power(q, H) - diag_power(q, -H)) / (q - 1.0 / q)
        ).max()
        out["e qh-shift"] = np.abs(E @ diag_power(q, H + 2 * np.eye(rep.r)) - diag_power(q, H) @ E).max()
        out["f qh-shift"] = np.abs(F @ diag_power(q, H) - diag_power(q, H + 2 * np.eye(rep.r)) @ F).max()
    c = casimir_matrix(rep.algebra, rep, q)
    out["casimir-scalar"] = np.abs(c - rep.casimir_value * np.eye(rep.r)).max()
    return out


def invariant_metric(e_mat, f_mat):
    """Diagonal bilinear form M with e^T M = M f, found by propagating the
    ladder relations over the weight graph.  Anchored at the first basis
    state; disconnected components are anchored at 1.  Returns (diagonal,
    consistency residual)."""
    n = e_mat.shape[0]
    d = np.zeros(n, dtype=complex)
    known = np.zeros(n, dtype=bool)
    for seed in range(n):
        if known[seed]:
            continue
        # one free scale per ladder-connected component
        d[seed] = 1.0
        known[seed] = True
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in range(n):
                if known[y]:
                    continue
                if abs(e_mat[x, y]) > 1e-9 and abs(f_mat[y, x]) > 1e-9:
                    d[y] = e_mat[x, y] * d[x] / f_mat[y, x]
                elif abs(e_mat[y, x]) > 1e-9 and abs(f_mat[x, y]) > 1e-9:
                    d[y] = d[x] * f_mat[x, y] / e_mat[y, x]
                else:
                    continue
                known[y] = True
                stack.append(y)
    M = np.diag(d)
    scale = max(1.0, np.abs(e_mat).max() * np.abs(d).max())
    res = np.abs(e_mat.T @ M - M @ f_mat).max() / scale
    return d, res
