"""Run configuration, operator serialization, check reports, and the one
table of named checks behind `verify_all` and every `qybe` subcommand."""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .qarith import DESK_BOUND, DeformParams, OSPQ12, SLQ2, QybeError
from .repspace import GradedOperator, Space, build_irrep, embed_at, verify_algebra
from .coupling import (
    casimir_projector,
    cgc_table,
    chi_closed,
    chi_factor,
    projector,
    tensor_decompose,
)
from .rmatrix import (
    hecke_f,
    hecke_family,
    intertwining_residual,
    mixed_braid_check,
    r33_family,
    rel_residual,
    u0_point,
    universal_r,
    ybe_residual,
)
from . import fusion
from . import spinchain as chains
from . import commutant as cz


class MalformedDocumentError(QybeError):
    """Serialized operator document fails schema validation."""


def serialize_operator(op, algebra="", q=0j, label=None):
    """JSON document for a GradedOperator: meta block plus row-major entries
    as [re, im] pairs.  Floats round-trip exactly through repr."""
    q = complex(q)
    doc = {
        "meta": {
            "algebra": algebra,
            "q": [q.real, q.imag],
            "label": label if label is not None else op.label,
            "domain_dims": list(op.domain.dims),
            "codomain_dims": list(op.codomain.dims),
            "parities_domain": [list(p) for p in op.domain.parities],
            "parities_codomain": [list(p) for p in op.codomain.parities],
        },
        "rows": op.matrix.shape[0],
        "cols": op.matrix.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in op.matrix.ravel()],
    }
    return doc


def deserialize_operator(doc):
    """Rebuild a GradedOperator from its document, validating the schema."""
    try:
        meta = doc["meta"]
        rows, cols = int(doc["rows"]), int(doc["cols"])
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise MalformedDocumentError(f"missing field: {exc}") from exc
    if len(entries) != rows * cols:
        raise MalformedDocumentError(
            f"entries length {len(entries)} != rows*cols {rows * cols}"
        )
    m = np.array([complex(re, im) for re, im in entries]).reshape(rows, cols)
    dom = Space(tuple(meta["domain_dims"]),
                tuple(tuple(int(x) for x in p) for p in meta["parities_domain"]))
    cod = Space(tuple(meta["codomain_dims"]),
                tuple(tuple(int(x) for x in p) for p in meta["parities_codomain"]))
    return GradedOperator(m, dom, cod, label=meta.get("label", ""))


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
    tolerances: dict = field(default_factory=dict)

    def params(self):
        return DeformParams(q=self.q, a=self.a, algebra=self.algebra)

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))

    def to_json(self):
        return {
            "algebra": self.algebra,
            "q": [complex(self.q).real, complex(self.q).imag],
            "a": [complex(self.a).real, complex(self.a).imag],
            "r_list": list(self.r_list),
            "n_list": list(self.n_list),
            "seed": self.seed,
            "outdir": self.outdir,
            "tolerances": dict(self.tolerances),
        }

    @staticmethod
    def from_json(doc):
        return RunConfig(
            algebra=doc.get("algebra", SLQ2),
            q=complex(*doc.get("q", [1.3, 0.0])),
            a=complex(*doc.get("a", [1.0, 0.0])),
            r_list=tuple(doc.get("r_list", [2, 3])),
            n_list=tuple(doc.get("n_list", [2])),
            seed=int(doc.get("seed", 42)),
            outdir=doc.get("outdir", "qybe-out"),
            tolerances=doc.get("tolerances", {}),
        )


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


def random_points(rng, count, guards=(), box=(-1.0, 1.0, -0.2, 0.2), min_dist=0.05):
    """Sample spectral points u in the configured box, rejecting any within
    min_dist of a guard point (poles of the coefficient functions)."""
    out = []
    while len(out) < count:
        u = complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        if all(abs(u - g) > min_dist for g in guards):
            out.append(u)
    return out


def family_guards(fam):
    """Pole locations of a spectral family within the sampling box."""
    if fam.family == "hecke":
        return (-fam.u0,)
    if fam.family == "fused":
        u0c = u0_point(fam.chi, fam.params.a)
        return (-u0c, -2 * u0c)
    return ()


class Context:
    """One run of checks: configuration, parameters, the report, the random
    stream of the sample points, and the objects that checks and artifacts
    share, each built once per input."""

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
        return self._once(("rep", r), build_irrep, self.config.algebra, r, self.params)

    def cgc(self, r1, r2):
        return self._once(("cgc", r1, r2), cgc_table, self.rep(r1), self.rep(r2), self.params)

    def hecke(self, r):
        return self._once(("hecke", r), hecke_family, self.rep(r), self.params)

    def descendant(self, r):
        return self._once(("descendant", r), fusion.descendant_family, self.rep(r), self.params)

    def fixture(self, kind):
        return self._once(("fixture", kind), lambda: r33_family(
            kind, params=self.params.with_algebra(SLQ2)))

    def universal(self):
        """The universal R-matrices of V^2 (x) V^2, both signs."""
        return self._once(("universal",), lambda r2: (
            universal_r(r2, r2, +1, self.params),
            universal_r(r2, r2, -1, self.params)), self.rep(2))

    def composite(self, r, n):
        return fusion.composite_space(self.rep(r), n=n, params=self.params)

    def hamiltonian(self, r, n_sites):
        return self._once(("hamiltonian", r, n_sites), chains.hamiltonian_projector_form,
                          self.rep(r), n_sites, self.params)

    def commutant(self, r, n):
        """Centralizer bases of U^(x n) by both routes, U the pair space of r."""
        return self._once(("commutant", r, n), lambda U: (
            cz.commutant_nullspace(U, n, self.params),
            cz.constraint_system(U, n, self.params)[0]), self.composite(r, 2))

    def check(self, name, **inputs):
        """Run the check `name` of CHECKS at these inputs into the report."""
        tol_key, default, residual = CHECKS[name]
        tol = default(**inputs) if callable(default) else default
        if tol_key is not None:
            tol = self.config.tol(tol_key, tol)
        label = " ".join([name.format(**inputs)] + [
            f"{k}={v}" for k, v in inputs.items() if "{%s}" % k not in name])
        return self.report.run(label, lambda: residual(self, self.rng, inputs), tol, inputs)


# Check bodies: the residual of (ctx, rng, inputs).  The random spectral
# points come from rng, so the order of the draws is part of a report.

def _algebra_relations(ctx, rng, inputs):
    return max(verify_algebra(ctx.rep(inputs["r"]), ctx.params).values())


def _cgc_residual(ctx, rng, inputs):
    """Biorthogonality of the coupling table of V^r (x) V^r2 (r2 = r unless
    given), idempotence and completeness of its block projectors."""
    r1, r2 = inputs["r"], inputs.get("r2", inputs["r"])
    tab = ctx.cgc(r1, r2)
    dec = tab.decomposition
    worst = np.abs(dec.dual @ dec.basis - np.eye(dec.dim)).max()
    total = np.zeros((dec.dim, dec.dim), dtype=complex)
    for r0 in tab.targets:
        P = projector(ctx.rep(r1), ctx.rep(r2), r0, ctx.params, table=tab).matrix
        worst = max(worst, np.abs(P @ P - P).max())
        total += P
    return max(worst, np.abs(total - np.eye(dec.dim)).max())


def _projector_routes(ctx, rng, inputs):
    rep = ctx.rep(inputs["r"])
    return max(rel_residual(projector(rep, rep, r0, ctx.params,
                                      table=ctx.cgc(rep.r, rep.r)).matrix,
                            casimir_projector(rep, rep, r0, ctx.params).matrix)
               for r0 in tensor_decompose(rep.r, rep.r))


def _chi_closed_form(ctx, rng, inputs):
    algebra, r = ctx.config.algebra, inputs["r"]
    return abs(chi_factor(algebra, r, ctx.params) - chi_closed(algebra, r, ctx.params.q))


def _family_ybe(fam, pts):
    return max(ybe_residual(fam, fam, fam, u, w, form="check")
               for u in pts for w in pts[:2])


def _hecke_ybe(ctx, rng, inputs):
    fam = ctx.hecke(inputs["r"])
    return _family_ybe(fam, random_points(rng, 5, guards=family_guards(fam)))


def _eqf_residual(ctx, rng, inputs, count=200):
    fam = ctx.hecke(inputs["r"])
    pts = random_points(rng, 2 * count, guards=family_guards(fam))
    worst = 0.0
    for k in range(count):
        u, w = pts[2 * k], pts[2 * k + 1]
        if abs(u + w + fam.u0) < 0.05:
            continue
        fu, fw, fuw = (hecke_f(x, fam.chi, fam.params.a) for x in (u, w, u + w))
        worst = max(worst, abs(fu + fw - fuw + fu * fw + fam.chi * fu * fw * fuw))
    return worst


def _fixture_ybe(ctx, rng, inputs):
    pts = random_points(rng, 4)
    return _family_ybe(ctx.fixture(inputs["kind"]), pts)


def _universal_intertwining(ctx, rng, inputs):
    r2 = ctx.rep(2)
    return max(intertwining_residual(R, r2, r2, ctx.params) for R in ctx.universal())


def _universal_braid(ctx, rng, inputs):
    return mixed_braid_check(*ctx.universal(), ctx.rep(2).parities)["max_balanced"]


def _descendant_agreement(ctx, rng, inputs, count=5):
    rep = ctx.rep(inputs["r"])
    u0 = ctx.hecke(rep.r).u0
    return max(rel_residual(fusion.descendant_r_closed(rep, ctx.params, u).matrix,
                            fusion.descendant_r_product(rep, ctx.params, u).matrix)
               for u in random_points(rng, count, guards=(0.0, -u0, u0)))


def _descendant_regular_point(ctx, rng, inputs):
    dfam = ctx.descendant(inputs["r"])
    return rel_residual(dfam.check_fn(dfam.u0), np.eye(dfam.r1 ** 2))


def _lax_dims(ctx, rng, inputs):
    r, n = inputs["r"], inputs["n"]
    return abs(ctx.composite(r, n).dim - fusion.dims_recurrence(r, n))


def _lax_rll(ctx, rng, inputs):
    rep, n = ctx.rep(inputs["r"]), inputs["n"]
    fam = ctx.hecke(rep.r)
    U = ctx.composite(rep.r, n)
    u, w = random_points(rng, 2, guards=(-fam.u0,))
    L13 = fusion.extended_lax(rep, n, ctx.params, u).matrix
    L23 = fusion.extended_lax(rep, n, ctx.params, w).matrix
    Rm = (fam.swap @ fam.check_fn(u - w))
    dims = [rep.r, rep.r, U.dim]
    pars = [rep.parities, rep.parities, U.parities]
    lhs = embed_at(Rm, (0, 1), dims, pars) @ embed_at(L13, (0, 2), dims, pars) \
        @ embed_at(L23, (1, 2), dims, pars)
    rhs = embed_at(L23, (1, 2), dims, pars) @ embed_at(L13, (0, 2), dims, pars) \
        @ embed_at(Rm, (0, 1), dims, pars)
    return rel_residual(lhs, rhs)


def _transfer_commutation(ctx, rng, inputs):
    dfam = ctx.descendant(inputs["r"])
    spec = chains.ChainSpec.from_composite(ctx.composite(inputs["r"], 2), inputs["N"])
    pts = random_points(rng, 4, guards=family_guards(dfam))
    t = [chains.transfer_matrix(spec, dfam, u).matrix for u in pts]
    return max(rel_residual(t[i] @ t[j], t[j] @ t[i])
               for i in range(len(t)) for j in range(i + 1, len(t)))


def _hamiltonian_routes(ctx, rng, inputs):
    """The log-derivative Hamiltonian is an affine function a H + b of the
    projector-form one; relative residual of the least-squares fit."""
    r, N = inputs["r"], inputs["N"]
    spec = chains.ChainSpec.from_composite(ctx.composite(r, 2), N)
    A = chains.hamiltonian_log_derivative(spec, ctx.descendant(r)).matrix
    B = ctx.hamiltonian(r, N).H.matrix
    X = np.stack([B.ravel(), np.eye(B.shape[0]).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, A.ravel(), rcond=None)
    return float(np.abs(X @ coef - A.ravel()).max() / max(1.0, np.abs(A).max()))


def _commutant_dims(ctx, rng, inputs):
    nb, cb = ctx.commutant(inputs["r"], inputs["n"])
    return abs(nb.dim - cb.dim)


def _commutant_angle(ctx, rng, inputs):
    return float(np.max(cz.principal_angles(*ctx.commutant(inputs["r"], inputs["n"]))))


def _commutant_46(ctx, rng, inputs):
    if any(basis.dim != 46 for basis in ctx.commutant(3, 2)):
        return float("inf")
    return _commutant_angle(ctx, rng, {"r": 3, "n": 2})


# name: (tolerance key, default tolerance or a function of the inputs,
# residual body); a config's `tolerances` override a default by its key, and
# a check without a key keeps its default.  A record is named by the name
# formatted with the inputs, followed by every input the name does not show.
CHECKS = {
    "algebra-relations": ("algebra", 1e-12, _algebra_relations),
    "cgc-biorthogonality": ("cgc", 1e-10, _cgc_residual),
    "projector-routes": ("projector", 1e-9, _projector_routes),
    "chi-closed-form": ("chi", 1e-10, _chi_closed_form),
    "hecke-ybe": ("ybe", lambda r: r ** 3 * 1e-12, _hecke_ybe),
    "functional-identity": ("eqf", 1e-10, _eqf_residual),
    "fixture-{kind}-ybe": ("fixture", 1e-9, _fixture_ybe),
    "universal-intertwining": ("universal", 1e-10, _universal_intertwining),
    "universal-braid-relations": ("universal", 1e-10, _universal_braid),
    "descendant-closed-vs-product": ("descendant", 1e-9, _descendant_agreement),
    "descendant-regular-point": ("descendant", 1e-10, _descendant_regular_point),
    "lax-dims": (None, 0.5, _lax_dims),
    "lax-rll": ("lax", 1e-9, _lax_rll),
    "transfer-commutation": (None, lambda r, N: fusion.dims_recurrence(r, 2) ** N * 1e-12,
                             _transfer_commutation),
    "hamiltonian-routes": (None, 1e-7, _hamiltonian_routes),
    "commutant-dims": (None, 0.5, _commutant_dims),
    "commutant-angle": ("commutant", 1e-8, _commutant_angle),
    "commutant-dimension-46": ("commutant", 1e-8, _commutant_46),
}


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
        plan += [("lax-rll", {"r": r, "n": n}) for n in config.n_list
                 if r ** (n + 1) <= DESK_BOUND]
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
