"""Run configuration, operator documents, check reports, and the one table
of named checks behind `verify_all` and every `qybe` subcommand.

Every operator of the library is a plain complex array.  `Space` and
`GradedOperator` describe an operator document: the array with the dims and
parities of its domain and codomain factors and a label.  `cli` builds them
when it writes an artifact, and `deserialize_operator` when it reads one."""

import json
import time
from dataclasses import dataclass

import numpy as np

from .qarith import DeformParams, OSPQ12, SLQ2, QybeError, fits_desk
from .repspace import build_irrep, verify_algebra
from .coupling import (
    casimir_projector,
    cgc_table,
    chi_closed,
    chi_factor,
    projector,
    tensor_decompose,
)
from .rmatrix import (
    PROBES,
    hecke_f,
    hecke_family,
    intertwining_residual,
    mixed_braid_check,
    probed_residual,
    r33_family,
    rel_residual,
    sector_residual,
    universal_r,
    ybe_residual,
)
from . import fusion
from . import spinchain as chains
from . import commutant as cz


class MalformedDocumentError(QybeError):
    """Serialized operator document fails schema validation."""


@dataclass(frozen=True)
class Space:
    """Ordered factors of a tensor product with per-factor parity vectors."""

    dims: tuple
    parities: tuple  # one tuple of 0/1 per factor

    def __post_init__(self):
        if len(self.dims) != len(self.parities):
            raise QybeError("dims and parities must pair up factor by factor")
        for d, p in zip(self.dims, self.parities):
            if d != len(p):
                raise QybeError("parity vector length must match factor dimension")

    @property
    def dim(self):
        out = 1
        for d in self.dims:
            out *= d
        return out

    @staticmethod
    def of(*parities):
        """The product of factors with these parity vectors, in order."""
        return Space(tuple(len(p) for p in parities),
                     tuple(tuple(int(x) for x in p) for p in parities))


@dataclass
class GradedOperator:
    """An operator document: a dense complex matrix with the spaces of its
    domain and codomain and a label.  The matrix shape must match the
    spaces, which checks a document read from outside the program."""

    matrix: np.ndarray
    domain: Space
    codomain: Space
    label: str = ""

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise QybeError(
                f"matrix shape {self.matrix.shape} does not match spaces "
                f"({self.codomain.dim}, {self.domain.dim})"
            )


def _document(op, algebra, q):
    """The document of `serialize_operator` without its entries."""
    q = complex(q)
    return {
        "meta": {
            "algebra": algebra,
            "q": [q.real, q.imag],
            "label": op.label,
            "domain_dims": list(op.domain.dims),
            "codomain_dims": list(op.codomain.dims),
            "parities_domain": [list(p) for p in op.domain.parities],
            "parities_codomain": [list(p) for p in op.codomain.parities],
        },
        "rows": op.matrix.shape[0],
        "cols": op.matrix.shape[1],
    }


def serialize_operator(op, algebra="", q=0j):
    """JSON document for a GradedOperator: meta block plus row-major entries
    as [re, im] pairs.  Floats round-trip exactly through repr."""
    doc = _document(op, algebra, q)
    doc["entries"] = np.ascontiguousarray(op.matrix).view(float).reshape(-1, 2).tolist()
    return doc


# Entries written per row block by `write_operator`, and the text of one
# exact-zero entry between its brackets.
_BLOCK_ENTRIES = 1 << 14
_ZERO_ENTRY = "0.0, 0.0"


def write_operator(fh, op, algebra="", q=0j):
    """Write json.dumps(serialize_operator(op, algebra, q),
    sort_keys=True) to the text file `fh`, byte for byte, one row block at
    a time.

    The entries of a block that are not exact zeros (both parts with all
    bits clear; -0.0 is not one) go through one json encoding, split into
    the texts between their brackets; every exact zero is one shared
    string, and the block is one join of the entry texts.  No per-entry
    list of the whole matrix and no whole text are ever held."""
    m = op.matrix
    rows, cols = m.shape
    head, key, tail = json.dumps(dict(_document(op, algebra, q), entries=[]),
                                 sort_keys=True).partition('"entries": [')
    fh.write(head + key)
    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    for i in range(0, rows if cols else 0, step):
        pairs = np.ascontiguousarray(m[i:i + step]).view(float).reshape(-1, 2)
        bits = pairs.view(np.uint64)
        live = (bits[:, 0] | bits[:, 1]) != 0
        texts = [_ZERO_ENTRY] * len(pairs)
        if live.any():
            # "[[re, im], [re, im], ...]" -> "re, im" per entry (no number
            # text holds a bracket)
            found = json.dumps(pairs[live].tolist())[2:-2].split("], [")
            for k, text in zip(np.flatnonzero(live).tolist(), found):
                texts[k] = text
        fh.write((", [" if i else "[") + "], [".join(texts) + "]")
    fh.write(tail)


def deserialize_operator(doc):
    """Rebuild a GradedOperator from its document.  A document that does not
    follow the schema of `serialize_operator` raises MalformedDocumentError."""
    try:
        meta, rows, cols, entries = doc["meta"], doc["rows"], doc["cols"], doc["entries"]
    except (KeyError, TypeError) as exc:
        raise MalformedDocumentError(f"missing field: {exc}") from exc
    if not _numbers([rows, cols], kinds=(int,)) or min(rows, cols) < 0:
        raise MalformedDocumentError(f"rows {rows!r} and cols {cols!r} are not sizes")
    if type(meta) is not dict:
        raise MalformedDocumentError(f"meta {meta!r} is not an object")
    spaces = []
    for side in ("domain", "codomain"):
        dims, pars = meta.get(f"{side}_dims"), meta.get(f"parities_{side}")
        if not (_numbers(dims, kinds=(int,)) and type(pars) is list
                and all(_numbers(p, kinds=(int,)) and set(p) <= {0, 1} for p in pars)):
            raise MalformedDocumentError(f"meta holds no {side} dims with 0/1 parities")
        spaces.append((tuple(dims), tuple(tuple(p) for p in pars)))
    if type(entries) is not list or len(entries) != rows * cols:
        raise MalformedDocumentError(f"entries are not a list of rows*cols = {rows * cols}")
    for entry in entries:
        if not _numbers(entry, 2):
            raise MalformedDocumentError(f"entry {entry!r} is not a pair of numbers [re, im]")
    m = np.array(entries, dtype=float).reshape(-1, 2).view(complex).reshape(rows, cols)
    try:
        return GradedOperator(m, Space(*spaces[0]), Space(*spaces[1]),
                              label=meta.get("label", ""))
    except QybeError as exc:
        raise MalformedDocumentError(str(exc)) from exc


@dataclass
class RunConfig:
    """Inputs of a verification run."""

    algebra: str = SLQ2
    q: complex = 1.3
    a: complex = 1.0
    r_list: tuple = (2, 3)
    n_list: tuple = (2,)
    seed: int = 42
    outdir: str = "qybe-out"

    def params(self):
        return DeformParams(q=self.q, a=self.a, algebra=self.algebra)

    def to_json(self):
        return {
            "algebra": self.algebra,
            "q": [complex(self.q).real, complex(self.q).imag],
            "a": [complex(self.a).real, complex(self.a).imag],
            "r_list": list(self.r_list),
            "n_list": list(self.n_list),
            "seed": self.seed,
            "outdir": self.outdir,
        }


def _numbers(v, count=None, kinds=(int, float)):
    return type(v) is list and count in (None, len(v)) and all(type(x) in kinds for x in v)


class Report:
    """Ordered check records; deterministic payload with timings kept in a
    separate field so byte-comparison can exclude them."""

    def __init__(self, config):
        self.config = config
        self.checks = []
        self.timings = {}

    def add(self, name, residual, tol, inputs=None, seconds=None, error=None):
        """Record a check; one with an `error` could not be computed."""
        record = {"name": name, "inputs": inputs or {}, "residual": float(residual),
                  "tolerance": float(tol), "passed": error is None and bool(residual < tol)}
        if error is not None:
            record["error"] = str(error)
        self.checks.append(record)
        if seconds is not None:
            self.timings[name] = seconds
        return record["passed"]

    def run(self, name, fn, tol, inputs=None):
        t0, residual, error = time.perf_counter(), float("inf"), None
        try:
            residual = float(fn())
        except QybeError as exc:
            error = exc
        return self.add(name, residual, tol, inputs, time.perf_counter() - t0, error)

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def summary(self):
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in self.checks if c["passed"]),
            "failed": sum(1 for c in self.checks if not c["passed"]),
        }

    def to_json(self, with_timings=True):
        """Payload as strict JSON: a non-finite number (the residual of a
        check that could not be computed, a rejected q) becomes null; finite
        floats survive the round trip through their repr unchanged."""
        doc = {
            "config": self.config.to_json(),
            "checks": self.checks,
            "summary": self.summary(),
        }
        if with_timings:
            doc["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return json.loads(json.dumps(doc), parse_constant=lambda token: None)

    def comparable_json(self):
        """Serialized payload excluding timings, for determinism checks."""
        return json.dumps(self.to_json(with_timings=False), sort_keys=True)


def random_points(rng, count, guards=()):
    """Sample spectral points u in the box |Re u| < 1, |Im u| < 0.2,
    rejecting any within 0.05 of a guard point (poles of the coefficient
    functions)."""
    out = []
    while len(out) < count:
        # one round of the candidates still needed, drawn in the order (and
        # so with the values) of one (Re, Im) draw per candidate: the last
        # round is all kept, so no candidate past the count-th is drawn
        cand = rng.uniform((-1.0, -0.2), (1.0, 0.2), size=(count - len(out), 2))
        u = cand[:, 0] + 1j * cand[:, 1]
        keep = np.all(np.abs(np.subtract.outer(u, guards)) > 0.05, axis=1)
        out += [complex(x, y) for x, y in cand[keep]]
    return out


class Context:
    """One run of checks: configuration, parameters, the report, the random
    stream of the sample points, and the objects that checks and artifacts
    share, each built once per input.  Every object is built from the one of
    the layer below it: irrep -> coupling table -> Hecke family -> composite
    space; chi is built from the table, and the Hecke family from both.  The
    spin-1 fixtures use the sl_q(2) table of V^3 (x) V^3."""

    def __init__(self, config):
        self.config = config
        self.params = config.params()
        self.report = Report(config)
        self.rng = np.random.default_rng(config.seed)
        self._built = {}

    def _once(self, key, build, *args):
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]

    def rep(self, r):
        return self._once(("rep", r), build_irrep, r, self.params)

    def cgc(self, r1, r2):
        return self._once(("cgc", r1, r2), cgc_table, self.rep(r1), self.rep(r2))

    def chi(self, r):
        """The triple-overlap scalar of V^r (x) V^r, which needs no Hecke
        family: it is computable where the family is refused."""
        return self._once(("chi", r), chi_factor, self.cgc(r, r))

    def hecke(self, r):
        return self._once(("hecke", r), hecke_family, self.cgc(r, r), self.chi(r))

    def descendant(self, r):
        return self.composite(r, 2).descendant

    def spin1(self):
        """The sl_q(2) table of V^3 (x) V^3: the run's own in an sl_q(2) run."""
        if self.config.algebra == SLQ2:
            return self.cgc(3, 3)
        return self._once(("spin1",), lambda: cgc_table(
            *[build_irrep(3, self.params.with_algebra(SLQ2))] * 2))

    def fixture(self, kind):
        return self._once(("fixture", kind), r33_family, kind, self.spin1())

    def universal(self):
        """The universal R-matrices of V^2 (x) V^2, both signs."""
        return self._once(("universal",), lambda r2: (
            universal_r(r2, r2, +1), universal_r(r2, r2, -1)), self.rep(2))

    def composite(self, r, n):
        return self._once(("composite", r, n), fusion.composite_space, self.hecke(r), n)

    def chain(self, r, n_sites):
        """The periodic chain of n_sites pair spaces of r."""
        return self._once(("chain", r, n_sites), chains.ChainSpec,
                          self.composite(r, 2).site, n_sites)

    def hamiltonian(self, r, n_sites):
        """The sector blocks of the projector-form Hamiltonian of that chain."""
        return self._once(("hamiltonian", r, n_sites), chains.hamiltonian_projector_form,
                          self.composite(r, 2), self.chain(r, n_sites))

    def commutant(self, r, n):
        """Centralizer bases of U^(x n) by both routes, U the pair space of r."""
        return self._once(("commutant", r, n), lambda U: (
            cz.commutant_nullspace(U, n), cz.constraint_system(U, n)[0]), self.composite(r, 2))

    def check(self, name, **inputs):
        """Run the check `name` of CHECKS at these inputs into the report."""
        tol, residual = CHECKS[name]
        if callable(tol):
            tol = tol(**inputs)
        label = " ".join([name.format(**inputs)] + [
            f"{k}={v}" for k, v in inputs.items() if "{%s}" % k not in name])
        passed = self.report.run(label, lambda: residual(self, self.rng, inputs), tol, inputs)
        if name in PROBED:
            self.report.checks[-1]["probes"] = PROBES
        return passed


# Check bodies: the residual of (ctx, rng, inputs).  The random spectral
# points come from rng, so the order of the draws is part of a report.

def _algebra_relations(ctx, rng, inputs):
    return max(verify_algebra(ctx.rep(inputs["r"])).values())


def _cgc_residual(ctx, rng, inputs):
    """Biorthogonality of the coupling table of V^r (x) V^r2 (r2 = r unless
    given), idempotence and completeness of its block projectors."""
    r1, r2 = inputs["r"], inputs.get("r2", inputs["r"])
    tab = ctx.cgc(r1, r2)
    dec = tab.decomposition
    worst = np.abs(dec.dual @ dec.basis - np.eye(dec.dim)).max()
    total = np.zeros((dec.dim, dec.dim), dtype=complex)
    for r0 in tab.targets:
        P = projector(tab, r0)
        worst = max(worst, np.abs(P @ P - P).max())
        total += P
    return max(worst, np.abs(total - np.eye(dec.dim)).max())


def _projector_routes(ctx, rng, inputs):
    r = inputs["r"]
    return max(rel_residual(projector(ctx.cgc(r, r), r0),
                            casimir_projector(ctx.rep(r), ctx.rep(r), r0))
               for r0 in tensor_decompose(r, r))


def _chi_closed_form(ctx, rng, inputs):
    algebra, r = ctx.config.algebra, inputs["r"]
    return abs(ctx.chi(r) - chi_closed(algebra, r, ctx.params.q))


def _family_ybe(fam, pts, rng):
    # every point as u against each of the first two as w, in one call
    w = pts[:2]
    return ybe_residual(fam, np.repeat(pts, len(w)), np.tile(w, len(pts)), rng=rng)


def _hecke_ybe(ctx, rng, inputs):
    fam = ctx.hecke(inputs["r"])
    return _family_ybe(fam, random_points(rng, 5, guards=fam.guards), rng)


def _eqf_residual(ctx, rng, inputs):
    fam = ctx.hecke(inputs["r"])
    pts = np.array(random_points(rng, 400, guards=fam.guards))
    u, w = pts[0::2], pts[1::2]
    near = np.abs(u + w + fam.u0) < 0.05  # u + w too close to the pole
    u, w = u[~near], w[~near]
    fu, fw, fuw = (hecke_f(x, fam.chi, fam.params.a) for x in (u, w, u + w))
    return np.max(np.abs(fu + fw - fuw + fu * fw + fam.chi * fu * fw * fuw), initial=0.0)


def _fixture_ybe(ctx, rng, inputs):
    pts = random_points(rng, 4)
    return _family_ybe(ctx.fixture(inputs["kind"]), pts, rng)


def _universal_intertwining(ctx, rng, inputs):
    r2 = ctx.rep(2)
    return max(intertwining_residual(R, r2, r2) for R in ctx.universal())


def _universal_braid(ctx, rng, inputs):
    return mixed_braid_check(*ctx.universal(), ctx.rep(2).parities)["max_balanced"]


def _descendant_agreement(ctx, rng, inputs):
    U = ctx.composite(inputs["r"], 2)
    u0 = U.hecke.u0
    pts = random_points(rng, 5, guards=(0.0, -u0, u0))
    return max(rel_residual(fusion.descendant_r_closed(U, u), product)
               for u, product in zip(pts, fusion.descendant_r_product(U, pts)))


def _descendant_regular_point(ctx, rng, inputs):
    dfam = ctx.descendant(inputs["r"])
    return rel_residual(dfam.check_fn(0.0), np.eye(dfam.dim ** 2))


def _lax_dims(ctx, rng, inputs):
    r, n = inputs["r"], inputs["n"]
    return abs(ctx.composite(r, n).dim - fusion.dims_recurrence(r, n))


def _lax_rll(ctx, rng, inputs):
    U = ctx.composite(inputs["r"], inputs["n"])
    fam = U.hecke
    u, w = random_points(rng, 2, guards=fam.guards)
    L13 = fusion.extended_lax(U, u)
    L23 = fusion.extended_lax(U, w)
    Rm = fam.noncheck(u - w)
    return sector_residual([(Rm, (0, 1)), (L13, (0, 2)), (L23, (1, 2))],
                           [(L23, (1, 2)), (L13, (0, 2)), (Rm, (0, 1))],
                           [fam.site, fam.site, U.site], rng)


def _entries(blocks):
    """The entries of a list of sector blocks, as one flat array."""
    return np.concatenate([b.ravel() for b in blocks])


def _transfer_commutation(ctx, rng, inputs):
    """[tau(u), tau(w)] over each pair of four points: tau(u) tau(w) X against
    tau(w) tau(u) X on random columns X of each weight sector."""
    dfam = ctx.descendant(inputs["r"])
    spec = ctx.chain(inputs["r"], inputs["N"])
    pts = random_points(rng, 4, guards=dfam.guards)
    t = [chains.transfer_matrix(spec, dfam.noncheck(u)) for u in pts]
    # per sector, the stack T of the four blocks: T[a] T[b] X against
    # T[b] T[a] X for each of the six pairs a < b (a pair with itself
    # commutes, and (b, a) is the negation of (a, b))
    stacks = [np.stack(blocks) for blocks in zip(*t)]
    pairs = np.triu_indices(len(pts), 1)

    def side(first, second):
        def product(X):
            Y = np.empty((len(first),) + X.shape, dtype=complex)
            for s, T in zip(spec.sectors, stacks):
                TX = T @ X[s]
                for k, (a, b) in enumerate(zip(first, second)):
                    Y[k, s] = T[a] @ TX[b]
            return Y
        return product

    return probed_residual(side(*pairs), side(*pairs[::-1]), spec.sectors, rng)


def _hamiltonian_routes(ctx, rng, inputs):
    """The log-derivative Hamiltonian is an affine function a H + b of the
    projector-form one; relative residual of the least-squares fit on the
    entries of their weight-sector blocks."""
    r, N = inputs["r"], inputs["N"]
    A = _entries(chains.hamiltonian_log_derivative(ctx.chain(r, N), ctx.descendant(r)))
    H = ctx.hamiltonian(r, N)
    X = np.stack([_entries(H), _entries(np.eye(len(h)) for h in H)], axis=1)
    coef, *_ = np.linalg.lstsq(X, A, rcond=None)
    return float(np.abs(X @ coef - A).max() / max(1.0, np.abs(A).max()))


def _commutant_dims(ctx, rng, inputs):
    nb, cb = ctx.commutant(inputs["r"], inputs["n"])
    return abs(nb.dim - cb.dim)


def _commutant_angle(ctx, rng, inputs):
    return float(np.max(cz.principal_angles(*ctx.commutant(inputs["r"], inputs["n"]))))


def _commutant_46(ctx, rng, inputs):
    if any(basis.dim != 46 for basis in ctx.commutant(3, 2)):
        return float("inf")
    return _commutant_angle(ctx, rng, {"r": 3, "n": 2})


# name: (tolerance or a function of the inputs, residual body).  A record
# is named by the name formatted with the inputs, followed by every input
# the name does not show.
CHECKS = {
    "algebra-relations": (1e-12, _algebra_relations),
    "cgc-biorthogonality": (1e-10, _cgc_residual),
    "projector-routes": (1e-9, _projector_routes),
    "chi-closed-form": (1e-10, _chi_closed_form),
    "hecke-ybe": (lambda r: r ** 3 * 1e-12, _hecke_ybe),
    "functional-identity": (1e-10, _eqf_residual),
    "fixture-{kind}-ybe": (1e-9, _fixture_ybe),
    "universal-intertwining": (1e-10, _universal_intertwining),
    "universal-braid-relations": (1e-10, _universal_braid),
    "descendant-closed-vs-product": (1e-9, _descendant_agreement),
    "descendant-regular-point": (1e-10, _descendant_regular_point),
    "lax-dims": (0.5, _lax_dims),
    "lax-rll": (1e-9, _lax_rll),
    "transfer-commutation": (lambda r, N: fusion.dims_recurrence(r, 2) ** N * 1e-12,
                             _transfer_commutation),
    "hamiltonian-routes": (1e-7, _hamiltonian_routes),
    "commutant-dims": (0.5, _commutant_dims),
    "commutant-angle": (1e-8, _commutant_angle),
    "commutant-dimension-46": (1e-8, _commutant_46),
}


# The checks that compare two products on PROBES random columns per weight
# sector (`rmatrix.probed_residual`); their records carry the column count.
PROBED = {"hecke-ybe", "fixture-{kind}-ybe", "lax-rll", "transfer-commutation"}


def battery(config):
    """The (check name, inputs) pairs of `verify_all`, in order."""
    plan = []
    for r in config.r_list:
        plan.append(("algebra-relations", {"r": r}))
        if r >= 2:
            plan += [(name, {"r": r}) for name in (
                "cgc-biorthogonality", "projector-routes", "chi-closed-form",
                "hecke-ybe", "functional-identity")]
    if config.algebra == SLQ2:
        plan += [("fixture-{kind}-ybe", {"kind": kind}) for kind in (1, 2, 3)]
    if config.algebra == OSPQ12:
        plan += [("universal-intertwining", {}), ("universal-braid-relations", {})]
    for r in [r for r in config.r_list if 2 <= r <= 3]:
        plan += [("descendant-closed-vs-product", {"r": r}),
                 ("descendant-regular-point", {"r": r})]
        # the Lax train acts on (V^r)^(x(n+1))
        plan += [("lax-rll", {"r": r, "n": n}) for n in config.n_list
                 if fits_desk(r, n + 1)]
    if 3 in config.r_list and config.algebra == SLQ2:
        plan.append(("commutant-dimension-46", {}))
    return plan


def verify_all(config, ctx=None):
    """Run the bundled verification battery, into `ctx` when one is given."""
    ctx = ctx or Context(config)
    for name, inputs in battery(config):
        ctx.check(name, **inputs)
    return ctx.report


def spectrum_csv(values, clusters):
    """CSV text for a spectrum: eigenvalues then the degeneracy table."""
    lines = ["index,real,imag"]
    for k, v in enumerate(values):
        lines.append(f"{k},{float(v.real)!r},{float(v.imag)!r}")
    lines.append("cluster,level_real,level_imag,degeneracy")
    for k, (lead, count) in enumerate(clusters):
        lines.append(f"{k},{float(lead.real)!r},{float(lead.imag)!r},{count}")
    return "\n".join(lines) + "\n"
