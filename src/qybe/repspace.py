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
and the integer sector key of each state; the index kernels take its
parities, and a weight sector of a product is a lookup of summed keys.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qarith import (
    OSPQ12,
    DeformParams,
    DegenerateParameterError,
    QybeError,
    q_number,
    qr_shift,
)


@dataclass(frozen=True)
class Rep:
    """A representation by its generators E, F, H on the states of `site`,
    at the parameters `params`, which also name its algebra: an irrep, a
    coproduct of reps or the compressed generators of a composite space."""

    E: np.ndarray
    F: np.ndarray
    H: np.ndarray
    site: "Site"
    params: DeformParams

    @property
    def algebra(self):
        return self.params.algebra

    @property
    def parities(self):
        return self.site.parities

    @property
    def dim(self):
        return self.site.dim


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


def casimir_value(algebra, r, q):
    """Casimir eigenvalue on the r-dimensional irrep."""
    if algebra == OSPQ12:
        return q_number(r / 2.0 + qr_shift(r, q), q) ** 2
    return q_number(r / 2.0, q) ** 2


@lru_cache(maxsize=256)
def ladder_coefficients(r, params):
    """Raising and lowering coefficients (beta, gamma) of the r-dimensional
    ladder of `params.algebra`, E = diag(beta, 1) and F = diag(gamma, -1)
    highest weight first, with beta_{i-1} = (-1)^(j-i) gamma_i (osp) or
    beta = gamma (sl_q(2)).  Raises DegenerateParameterError where q is not
    generic.

    Summed once per (r, params) while it is among the 256 most
    recent, and shared by `build_irrep` and every `coupling.decompose`
    that lowers a ladder of that dimension, so both arrays are read-only."""
    algebra, j = params.algebra, (r - 1) / 2.0
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
    beta = sign * gamma
    beta.flags.writeable = gamma.flags.writeable = False
    return beta, gamma


def build_irrep(r, params=None):
    """Construct the r-dimensional irrep of `params.algebra` with the ladder
    coefficients of `ladder_coefficients`, on the site of the weights
    j - k."""
    params = params or DeformParams()
    r = int(r)
    if r < 1:
        raise QybeError("irrep dimension must be >= 1")
    weights = (r - 1) / 2.0 - np.arange(r)
    if params.algebra == OSPQ12:
        lam = weights + qr_shift(r, params.q)
        parities = np.arange(r) % 2
    else:
        lam = 2.0 * weights + 0j
        parities = [0] * r
    beta, gamma = ladder_coefficients(r, params)
    return Rep(np.diag(beta, 1), np.diag(gamma, -1), np.diag(lam), Site(parities, weights), params)


def diag_power(q, H):
    """q**H for diagonal H, principal branch."""
    return np.diag(complex(q) ** np.diag(H))


def _qnum_diag(H, q):
    d = np.diag(H)
    return np.diag((complex(q) ** d - complex(q) ** (-d)) / (complex(q) - 1.0 / complex(q)))


def graded_kron_raw(A, B, pA_dom, pB_dom, pB_cod):
    """Graded Kronecker product of raw matrices with explicit parity vectors."""
    m1, n1 = A.shape
    m2, n2 = B.shape
    out = np.kron(A, B).reshape(m1, m2, n1, n2)
    sign = (-1.0) ** (
        np.asarray(pA_dom)[None, None, :, None]
        * (np.asarray(pB_cod)[None, :, None, None] + np.asarray(pB_dom)[None, None, None, :])
    )
    return (out * sign).reshape(m1 * m2, n1 * n2)


def coproduct_pair(A, B):
    """Two-fold coproduct matrices (e, f, h) on the graded product of two
    reps at one set of parameters (and so of one algebra), returned as a
    Rep on the pair space, whose site is `Site.product` of theirs.  Factors
    at different parameters raise QybeError."""
    if B.params != A.params:
        raise QybeError(f"no coproduct of a factor at {A.params} and one at {B.params}")
    pa, pb = A.parities, B.parities
    algebra, q = A.algebra, A.params.q
    gk = lambda X, Y: graded_kron_raw(X, Y, pa, pb, pb)
    IA, IB = np.eye(A.dim), np.eye(B.dim)
    if algebra == OSPQ12:
        e = gk(A.E, diag_power(q, -B.H / 2)) + gk(diag_power(q, A.H / 2), B.E)
        f = gk(A.F, diag_power(q, -B.H / 2)) + gk(diag_power(q, A.H / 2), B.F)
    else:
        e = gk(A.E, IB) + gk(diag_power(q, A.H), B.E)
        f = gk(A.F, diag_power(q, -B.H)) + gk(IA, B.F)
    h = gk(A.H, IB) + gk(IA, B.H)
    return Rep(e, f, h, Site.product(A.site, B.site), A.params)


def nfold_coproduct(reps):
    """Iterated coproduct over a list of reps
    (coassociative, so the left-nested bracketing is as good as any)."""
    cur = reps[0]
    for nxt in reps[1:]:
        cur = coproduct_pair(cur, nxt)
    return cur


def _signed_perm(front, parities):
    """The signed permutation bringing the legs `front`, in order, to the
    front of a product of factors with these parity vectors, the other legs
    following in their order: target slot t holds source slot sigma[t], for
    sigma = front + the rest.  Returned as (target flat index, +-1 Koszul
    sign) of every source basis state in flat order; the sign counts the
    odd pairs whose order sigma inverts."""
    dims = [len(p) for p in parities]
    n = len(dims)
    sigma = list(front) + [k for k in range(n) if k not in front]
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
    tgt, sign = _signed_perm(pos, parities)
    # src[i, j]: the source state sent to op index i and rest index j
    src = np.argsort(tgt).reshape(int(np.prod([len(parities[k]) for k in pos])), -1)
    s = sign[src]
    out = np.zeros((len(tgt), len(tgt)), dtype=np.result_type(op, float))
    out[src[:, None, :], src[None, :, :]] = (s[:, None, :] * s[None, :, :]) * op[:, :, None]
    return out


def apply_at(op, pos, parities, X):
    """embed_at(op, pos, parities) @ X without forming the embedding: the
    rows of X carry the Koszul signs of `_signed_perm` before and after,
    and op contracts the legs pos by a reshape.  A run of consecutive legs
    in order is contracted where it stands; any other legs are first
    gathered to the front by the permutation of `_signed_perm`.  X may be
    a stack of matrices on its last two axes and op a stack matched to
    X's, or either one a single matrix."""
    pos = tuple(pos)
    tgt, sign = _signed_perm(pos, parities)
    sign = sign[:, None]
    rows, cols = X.shape[-2:]
    dop = op.shape[-1]
    run = pos == tuple(range(pos[0], pos[0] + len(pos)))
    head = int(np.prod([len(p) for p in parities[:pos[0]]])) if run else 1
    Y = sign * X
    if not run:
        Y = Y[..., np.argsort(tgt), :]  # rows in the order (pos, rest)
    Y = op[..., None, :, :] @ Y.reshape(Y.shape[:-2] + (head, dop, rows // head // dop * cols))
    Y = Y.reshape(Y.shape[:-3] + (rows, cols))
    if not run:
        Y = Y[..., tgt, :]
    Y *= sign
    return Y


def block_index(pos, parities):
    """The blocks of embed_at(op, pos, parities) as gathers from op: a
    function of an index array idx returning (index, sign), with the
    idx x idx block equal to sign * op.ravel()[index].  sign is the Koszul
    sign of `_signed_perm`, and 0 wherever the embedding vanishes (states
    whose other legs differ).  The signs are computed once, for any number
    of blocks."""
    tgt, sign = _signed_perm(pos, parities)
    dop = int(np.prod([len(parities[k]) for k in pos]))

    def gather(idx):
        a, b = np.divmod(tgt[idx], len(tgt) // dop)  # op index, index on the other legs
        s = sign[idx]
        return a[:, None] * dop + a, np.outer(s, s) * (b[:, None] == b)

    return gather


def weight_sectors(keys):
    """Indices of the states of each integer sector key, keyed by the key,
    in increasing key order.  The states are grouped by one stable argsort,
    so each index array is ascending."""
    keys = np.asarray(keys, dtype=int)
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if keys.size else []
    return {int(keys[g[0]]): g for g in groups}


class Site(NamedTuple("Site", [("parities", tuple), ("keys", tuple)])):
    """One tensor factor: the parity and the sector key (twice the ladder
    weight) of each of its states, as tuples of Python ints, so sites
    compare and hash and states of one weight share a key exactly.  Built
    from the weights, the one place where a weight becomes a key; one more
    than 1e-7 from a half-integer raises QybeError."""

    __slots__ = ()

    def __new__(cls, parities, weights):
        parities = tuple(int(p) for p in parities)
        weights = np.asarray(weights, dtype=float)
        keys = np.round(2 * weights)
        if len(parities) != keys.size:
            raise QybeError(f"{keys.size} weights for {len(parities)} states")
        off = np.abs(weights - keys / 2) > 1e-7
        if off.any():
            raise QybeError(f"the weight {weights[off][0]} is not a half-integer")
        return super().__new__(cls, parities, tuple(keys.astype(int).tolist()))

    @classmethod
    def product(cls, *sites):
        """The product of the sites, its states in flat order: parities
        added mod 2 and keys summed (the coproduct of h is additive).  The
        product of no sites is the one state of key 0."""
        parities, keys = np.zeros(1, dtype=int), np.zeros(1, dtype=int)
        for site in sites:
            parities = np.add.outer(parities, site.parities).ravel() % 2
            keys = np.add.outer(keys, site.keys).ravel()
        return cls._make((tuple(parities.tolist()), tuple(keys.tolist())))

    @property
    def sectors(self):
        """`weight_sectors` of the keys: the ascending indices of the states
        of each key, in increasing key order."""
        return weight_sectors(self.keys)

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


def casimir_matrix(R):
    """Casimir as a matrix over a rep."""
    d = np.diag(R.H)
    qc = complex(R.params.q)
    if R.algebra == OSPQ12:
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
        out["[e,f]-[h]"] = np.abs(E @ F - F @ E - _qnum_diag(H, q)).max()
        out["e qh-shift"] = np.abs(E @ diag_power(q, H + 2 * np.eye(rep.dim)) - diag_power(q, H) @ E).max()
        out["f qh-shift"] = np.abs(F @ diag_power(q, H) - diag_power(q, H + 2 * np.eye(rep.dim)) @ F).max()
    c = casimir_matrix(rep)
    out["casimir-scalar"] = np.abs(c - casimir_value(rep.algebra, rep.dim, q) * np.eye(rep.dim)).max()
    return out


def invariant_metric(e_mat, f_mat):
    """Diagonal bilinear form M with e^T M = M f, found by propagating the
    ladder relations over the weight graph.  Anchored at the first basis
    state; disconnected components are anchored at 1.  Returns (diagonal,
    consistency residual)."""
    n = e_mat.shape[0]
    d = np.zeros(n, dtype=complex)
    # down[x, y]: e lowers y to x and f raises it back; up is the reverse
    down = (np.abs(e_mat) > 1e-9) & (np.abs(f_mat.T) > 1e-9)
    linked = [np.flatnonzero(row).tolist() for row in down | down.T]  # ascending
    known = [False] * n
    for seed in range(n):
        if known[seed]:
            continue
        # one free scale per ladder-connected component
        d[seed] = 1.0
        known[seed] = True
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in linked[x]:
                if known[y]:
                    continue
                if down[x, y]:
                    d[y] = e_mat[x, y] * d[x] / f_mat[y, x]
                else:
                    d[y] = d[x] * f_mat[x, y] / e_mat[y, x]
                known[y] = True
                stack.append(y)
    scale = max(1.0, np.abs(e_mat).max() * np.abs(d).max())
    res = np.abs(e_mat.T * d - d[:, None] * f_mat).max() / scale
    return d, res
