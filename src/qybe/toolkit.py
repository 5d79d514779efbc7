"""Run configuration, operator serialization, check reports and the bundled
verification battery behind the command line."""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .qarith import DeformParams, OSPQ12, SLQ2, QybeError
from .repspace import (
    GradedOperator,
    Space,
    build_irrep,
    verify_algebra,
)
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
    universal_r,
    ybe_residual,
)
from . import fusion
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

    def add(self, name, residual, tol, inputs=None, seconds=None):
        passed = bool(residual < tol)
        self.checks.append({
            "name": name,
            "inputs": inputs or {},
            "residual": float(residual),
            "tolerance": float(tol),
            "passed": passed,
        })
        if seconds is not None:
            self.timings[name] = seconds
        return passed

    def run(self, name, fn, tol, inputs=None):
        t0 = time.perf_counter()
        try:
            residual = float(fn())
        except QybeError as exc:
            return self.fail(name, exc, tol, inputs, time.perf_counter() - t0)
        return self.add(name, residual, tol, inputs, time.perf_counter() - t0)

    def fail(self, name, error, tol, inputs=None, seconds=None):
        """Record a check that could not be computed."""
        self.checks.append({
            "name": name, "inputs": inputs or {}, "residual": float("inf"),
            "tolerance": float(tol), "passed": False, "error": str(error),
        })
        if seconds is not None:
            self.timings[name] = seconds
        return False

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
        doc = {
            "config": self.config.to_json(),
            "checks": self.checks,
            "summary": self.summary(),
        }
        if with_timings:
            doc["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return doc

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
        from .rmatrix import u0_point

        u0c = u0_point(fam.chi, fam.params.a)
        return (-u0c, -2 * u0c)
    return ()


def verify_all(config):
    """Run the bundled verification battery for one configuration."""
    rng = np.random.default_rng(config.seed)
    params = config.params()
    rep_cache = {}

    def rep(r):
        if r not in rep_cache:
            rep_cache[r] = build_irrep(config.algebra, r, params)
        return rep_cache[r]

    report = Report(config)
    for r in config.r_list:
        report.run(f"algebra-relations r={r}",
                   lambda r=r: max(verify_algebra(rep(r), params).values()),
                   config.tol("algebra", 1e-12), {"r": r})
        if r >= 2:
            report.run(f"cgc-biorthogonality r={r}",
                       lambda r=r: _cgc_residual(rep(r), params),
                       config.tol("cgc", 1e-10), {"r": r})
            report.run(f"projector-routes r={r}",
                       lambda r=r: _projector_routes(rep(r), params),
                       config.tol("projector", 1e-9), {"r": r})
            report.run(f"chi-closed-form r={r}",
                       lambda r=r: abs(chi_factor(config.algebra, r, params)
                                       - chi_closed(config.algebra, r, params.q)),
                       config.tol("chi", 1e-10), {"r": r})
            fam = hecke_family(rep(r), params)
            pts = random_points(rng, 5, guards=family_guards(fam))
            report.run(f"hecke-ybe r={r}",
                       lambda fam=fam, pts=pts: max(
                           ybe_residual(fam, fam, fam, u, w, form="check")
                           for u in pts for w in pts[:2]),
                       config.tol("ybe", r ** 3 * 1e-12), {"r": r})
            report.run(f"functional-identity r={r}",
                       lambda fam=fam: _eqf_residual(fam, rng),
                       config.tol("eqf", 1e-10), {"r": r})
    if config.algebra == SLQ2:
        for kind in (1, 2, 3):
            pts = random_points(rng, 4)
            report.run(f"fixture-{kind}-ybe",
                       lambda kind=kind, pts=pts: _fixture_ybe(kind, params, pts),
                       config.tol("fixture", 1e-9), {"kind": kind})
    if config.algebra == OSPQ12:
        r2 = rep(2)
        Rp = universal_r(r2, r2, +1, params)
        Rm = universal_r(r2, r2, -1, params)
        report.run("universal-intertwining",
                   lambda: max(intertwining_residual(Rp, r2, r2, params),
                               intertwining_residual(Rm, r2, r2, params)),
                   config.tol("universal", 1e-10))
        report.run("universal-braid-relations",
                   lambda: mixed_braid_check(Rp, Rm, r2.parities)["max_balanced"],
                   config.tol("universal", 1e-10))
    for r in [r for r in config.r_list if 2 <= r <= 3]:
        report.run(f"descendant-closed-vs-product r={r}",
                   lambda r=r: _descendant_agreement(rep(r), params, rng),
                   config.tol("descendant", 1e-9), {"r": r})
        dfam = fusion.descendant_family(rep(r), params)
        report.run(f"descendant-regular-point r={r}",
                   lambda dfam=dfam: rel_residual(dfam.check_fn(dfam.u0),
                                                  np.eye(dfam.r1 ** 2)),
                   config.tol("descendant", 1e-10), {"r": r})
        for n in config.n_list:
            if rep(r).r ** (n + 1) <= 4096:
                report.run(f"lax-rll r={r} n={n}",
                           lambda r=r, n=n: _lax_rll(rep(r), n, params, rng),
                           config.tol("lax", 1e-9), {"r": r, "n": n})
    if 3 in config.r_list and config.algebra == SLQ2:
        report.run("commutant-dimension-46",
                   lambda: _commutant_crosscheck(rep(3), params),
                   config.tol("commutant", 1e-8))
    return report


def _fixture_ybe(kind, params, pts):
    fam = r33_family(kind, params=params)
    return max(ybe_residual(fam, fam, fam, u, w, form="check")
               for u in pts for w in pts[:2])


def _cgc_residual(rep, params):
    tab = cgc_table(rep, rep, params)
    dec = tab.decomposition
    worst = np.abs(dec.dual @ dec.basis - np.eye(dec.dim)).max()
    total = np.zeros((dec.dim, dec.dim), dtype=complex)
    for r0 in tab.targets:
        P = projector(rep, rep, r0, params, table=tab).matrix
        worst = max(worst, np.abs(P @ P - P).max())
        total += P
    worst = max(worst, np.abs(total - np.eye(dec.dim)).max())
    return worst


def _projector_routes(rep, params):
    worst = 0.0
    for r0 in tensor_decompose(rep.r, rep.r):
        A = projector(rep, rep, r0, params).matrix
        B = casimir_projector(rep, rep, r0, params).matrix
        worst = max(worst, rel_residual(A, B))
    return worst


def _eqf_residual(fam, rng, count=200):
    pts = random_points(rng, 2 * count, guards=family_guards(fam))
    worst = 0.0
    for k in range(count):
        u, w = pts[2 * k], pts[2 * k + 1]
        if abs(u + w + fam.u0) < 0.05:
            continue
        fu, fw, fuw = (hecke_f(x, fam.chi, fam.params.a) for x in (u, w, u + w))
        worst = max(worst, abs(fu + fw - fuw + fu * fw + fam.chi * fu * fw * fuw))
    return worst


def _descendant_agreement(rep, params, rng, count=5):
    fam = hecke_family(rep, params)
    guards = (0.0, -fam.u0, fam.u0)
    pts = random_points(rng, count, guards=guards)
    worst = 0.0
    for u in pts:
        A = fusion.descendant_r_closed(rep, params, u).matrix
        B = fusion.descendant_r_product(rep, params, u).matrix
        worst = max(worst, rel_residual(A, B))
    return worst


def _lax_rll(rep, n, params, rng):
    from .repspace import embed_at

    fam = hecke_family(rep, params)
    U = fusion.composite_space(rep, n=n, params=params)
    u, w = random_points(rng, 2, guards=(-fam.u0,))
    L13 = fusion.extended_lax(rep, n, params, u).matrix
    L23 = fusion.extended_lax(rep, n, params, w).matrix
    Rm = (fam.swap @ fam.check_fn(u - w))
    dims = [rep.r, rep.r, U.dim]
    pars = [rep.parities, rep.parities, U.parities]
    lhs = embed_at(Rm, (0, 1), dims, pars) @ embed_at(L13, (0, 2), dims, pars) \
        @ embed_at(L23, (1, 2), dims, pars)
    rhs = embed_at(L23, (1, 2), dims, pars) @ embed_at(L13, (0, 2), dims, pars) \
        @ embed_at(Rm, (0, 1), dims, pars)
    return rel_residual(lhs, rhs)


def _commutant_crosscheck(rep, params):
    U = fusion.composite_space(rep, n=2, params=params)
    nb = cz.commutant_nullspace(U, 2, params)
    cb, _ = cz.constraint_system(U, 2, params)
    if nb.dim != 46 or cb.dim != 46:
        return float("inf")
    return float(np.max(cz.principal_angles(nb, cb)))


def spectrum_csv(values, clusters):
    """CSV text for a spectrum: eigenvalues then the degeneracy table."""
    lines = ["index,real,imag"]
    for k, v in enumerate(values):
        lines.append(f"{k},{float(v.real)!r},{float(v.imag)!r}")
    lines.append("cluster,level_real,level_imag,degeneracy")
    for k, (lead, count) in enumerate(clusters):
        lines.append(f"{k},{float(lead.real)!r},{float(lead.imag)!r},{count}")
    return "\n".join(lines) + "\n"
