"""Command line entry point: build objects, run verification batteries and
export operators as JSON artifacts.

Exit codes: 0 all checks passed, 1 computation failure or failed checks,
2 usage errors.
"""

import argparse
import json
import os
import sys

import numpy as np

from .qarith import QybeError, SLQ2, OSPQ12
from .repspace import build_irrep, verify_algebra, GradedOperator, Space
from .coupling import cgc_table, projector, tensor_decompose
from .rmatrix import hecke_family, r33_family, ybe_residual, rel_residual
from . import fusion
from . import spinchain as chains
from . import commutant as cz
from .toolkit import (
    Report,
    RunConfig,
    random_points,
    family_guards,
    serialize_operator,
    spectrum_csv,
    verify_all,
)


def _write_json(outdir, name, payload):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return path


def _config_from_args(args):
    q = complex(args.q, args.qi)
    cfg = RunConfig(
        algebra=args.algebra,
        q=q,
        a=complex(args.a),
        r_list=tuple(args.r) if getattr(args, "r", None) else (2, 3),
        n_list=tuple(args.n) if getattr(args, "n", None) else (2,),
        seed=args.seed,
        outdir=args.out,
    )
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_json(json.load(fh))
    if os.environ.get("QYBE_OUT"):
        cfg.outdir = os.environ["QYBE_OUT"]
    return cfg


def cmd_build_rep(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    for r in cfg.r_list:
        rep = build_irrep(cfg.algebra, r, params)
        res = max(verify_algebra(rep, params).values())
        report.add(f"relations r={r}", res, 1e-12, {"r": r})
        for name, m in (("E", rep.E), ("F", rep.F), ("H", rep.H)):
            op = GradedOperator(m, rep.space(), rep.space(), label=f"{name}[r={r}]")
            _write_json(cfg.outdir, f"rep_{cfg.algebra}_r{r}_{name}.json",
                        serialize_operator(op, cfg.algebra, params.q))
    return report


def cmd_cgc(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    r1, r2 = (cfg.r_list + cfg.r_list)[:2]
    t = cgc_table(build_irrep(cfg.algebra, r1, params),
                  build_irrep(cfg.algebra, r2, params), params)
    dec = t.decomposition
    res = np.abs(dec.dual @ dec.basis - np.eye(dec.dim)).max()
    report.add(f"biorthogonality ({r1},{r2})", res, 1e-10)
    op = GradedOperator(dec.basis, Space((dec.dim,), (tuple(int(p) for p in dec.parities),)),
                        Space((r1, r2), (build_irrep(cfg.algebra, r1, params).parities,
                                         build_irrep(cfg.algebra, r2, params).parities)),
                        label=f"cgc[{r1}x{r2}]")
    _write_json(cfg.outdir, f"cgc_{cfg.algebra}_{r1}x{r2}.json",
                serialize_operator(op, cfg.algebra, params.q))
    return report


def cmd_projectors(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    for r in cfg.r_list:
        rep = build_irrep(cfg.algebra, r, params)
        total = np.zeros((r * r, r * r), dtype=complex)
        for r0 in tensor_decompose(r, r):
            P = projector(rep, rep, r0, params)
            report.add(f"idempotent P^{r0} (r={r})",
                       float(np.abs(P.matrix @ P.matrix - P.matrix).max()), 1e-10)
            total += P.matrix
            _write_json(cfg.outdir, f"projector_{cfg.algebra}_r{r}_P{r0}.json",
                        serialize_operator(P, cfg.algebra, params.q))
        report.add(f"completeness (r={r})",
                   float(np.abs(total - np.eye(r * r)).max()), 1e-10)
    return report


def cmd_hecke(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    rng = np.random.default_rng(cfg.seed)
    for r in cfg.r_list:
        fam = hecke_family(build_irrep(cfg.algebra, r, params), params)
        u = complex(args.u, args.ui)
        op = fam.check(u)
        _write_json(cfg.outdir, f"hecke_{cfg.algebra}_r{r}_u{args.u}.json",
                    serialize_operator(op, cfg.algebra, params.q))
        pts = random_points(rng, 3, guards=family_guards(fam))
        res = max(ybe_residual(fam, fam, fam, x, w, form="check")
                  for x in pts for w in pts[:2])
        report.add(f"hecke ybe r={r}", res, r ** 3 * 1e-12, {"u": [u.real, u.imag]})
    return report


def cmd_fixtures(args, cfg):
    params = cfg.params().with_algebra(SLQ2)
    report = Report(cfg)
    rng = np.random.default_rng(cfg.seed)
    for kind in (args.kind,) if args.kind else (1, 2, 3):
        fam = r33_family(kind, params=params)
        pts = random_points(rng, 3)
        res = max(ybe_residual(fam, fam, fam, u, w, form="check")
                  for u in pts for w in pts[:2])
        report.add(f"fixture-{kind} ybe", res, 1e-9)
        _write_json(cfg.outdir, f"fixture_{kind}.json",
                    serialize_operator(fam.check(complex(args.u, args.ui)),
                                       SLQ2, params.q))
    return report


def cmd_fuse(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    rng = np.random.default_rng(cfg.seed)
    for r in [r for r in cfg.r_list if r <= 3]:
        rep = build_irrep(cfg.algebra, r, params)
        fam = hecke_family(rep, params)
        pts = random_points(rng, 3, guards=(0.0, -fam.u0, fam.u0))
        worst = 0.0
        for u in pts:
            A = fusion.descendant_r_closed(rep, params, u).matrix
            B = fusion.descendant_r_product(rep, params, u).matrix
            worst = max(worst, rel_residual(A, B))
        report.add(f"fused closed=product r={r}", worst, 1e-9)
        dfam = fusion.descendant_family(rep, params)
        report.add(f"fused regular point r={r}",
                   rel_residual(dfam.check_fn(dfam.u0), np.eye(dfam.r1 ** 2)), 1e-10)
        _write_json(cfg.outdir, f"fused_{cfg.algebra}_r{r}.json",
                    serialize_operator(dfam.check(complex(args.u, args.ui)),
                                       cfg.algebra, params.q))
    return report


def cmd_lax(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    rng = np.random.default_rng(cfg.seed)
    from .toolkit import _lax_rll

    too_big = [(r, n) for r in cfg.r_list for n in cfg.n_list if r ** (n + 1) > 4096]
    if too_big:
        raise QybeError(f"extended Lax at (r, n) = {too_big} exceeds the desk bound "
                        f"of 4096 dimensions")
    for r in cfg.r_list:
        for n in cfg.n_list:
            rep = build_irrep(cfg.algebra, r, params)
            want = fusion.dims_recurrence(r, n)
            U = fusion.composite_space(rep, n=n, params=params)
            report.add(f"dims r={r} n={n}", abs(U.dim - want), 0.5)
            report.add(f"rll r={r} n={n}", _lax_rll(rep, n, params, rng), 1e-9)
            op = fusion.extended_lax(rep, n, params, complex(args.u, args.ui))
            _write_json(cfg.outdir, f"lax_{cfg.algebra}_r{r}_n{n}.json",
                        serialize_operator(op, cfg.algebra, params.q))
    return report


def cmd_chain(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    rng = np.random.default_rng(cfg.seed)
    N = args.sites
    rs = [r for r in cfg.r_list if r <= 3]
    too_big = [r for r in rs if fusion.dims_recurrence(r, 2) ** N > 4096]
    if too_big:
        raise QybeError(f"chain of {N} sites at r = {too_big} exceeds the desk bound "
                        f"of 4096 dimensions")
    for r in rs:
        rep = build_irrep(cfg.algebra, r, params)
        dfam = fusion.descendant_family(rep, params)
        U = fusion.composite_space(rep, n=2, params=params)
        spec = chains.ChainSpec.from_composite(U, N)
        pts = random_points(rng, 4, guards=family_guards(dfam))
        t = [chains.transfer_matrix(spec, dfam, u).matrix for u in pts]
        res = max(rel_residual(t[i] @ t[j], t[j] @ t[i])
                  for i in range(len(t)) for j in range(i + 1, len(t)))
        report.add(f"commuting transfer matrices r={r} N={N}", res,
                   U.dim ** N * 1e-12)
        bundle = chains.hamiltonian_projector_form(rep, N, params)
        vals, clusters = chains.spectrum(bundle.H)
        path = os.path.join(cfg.outdir, f"spectrum_{cfg.algebra}_r{r}_N{N}.csv")
        os.makedirs(cfg.outdir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(spectrum_csv(vals, clusters))
        Hlog = chains.hamiltonian_log_derivative(spec, dfam)
        res = _affine_match(Hlog.matrix, bundle.H.matrix)
        report.add(f"log-derivative matches projector form r={r} N={N}", res, 1e-7)
    return report


def _affine_match(A, B):
    X = np.stack([B.ravel(), np.eye(B.shape[0]).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(X, A.ravel(), rcond=None)
    return float(np.abs(X @ coef - A.ravel()).max() / max(1.0, np.abs(A).max()))


def cmd_commutant(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    n = cfg.n_list[0] if cfg.n_list else 2
    for r in [r for r in cfg.r_list if r <= 3]:
        rep = build_irrep(cfg.algebra, r, params)
        U = fusion.composite_space(rep, n=2, params=params)
        nb = cz.commutant_nullspace(U, n, params)
        cb, _ = cz.constraint_system(U, n, params)
        report.add(f"commutant dims agree r={r} n={n}",
                   abs(nb.dim - cb.dim), 0.5, {"dim": nb.dim})
        report.add(f"commutant subspaces agree r={r} n={n}",
                   float(np.max(cz.principal_angles(nb, cb))), 1e-8)
    return report


def cmd_verify_all(args, cfg):
    return verify_all(cfg)


def cmd_export(args, cfg):
    params = cfg.params()
    report = Report(cfg)
    r = cfg.r_list[0]
    rep = build_irrep(cfg.algebra, r, params)
    what = args.what
    u = complex(args.u, args.ui)
    if what == "hecke":
        op = hecke_family(rep, params).check(u)
    elif what == "fused":
        op = fusion.descendant_family(rep, params).check(u)
    elif what == "lax":
        op = fusion.extended_lax(rep, cfg.n_list[0], params, u)
    elif what == "projector":
        op = projector(rep, rep, args.target or tensor_decompose(r, r)[-1], params)
    else:
        raise QybeError(f"nothing exportable named {what!r}")
    path = _write_json(cfg.outdir, f"export_{what}_{cfg.algebra}_r{r}.json",
                       serialize_operator(op, cfg.algebra, params.q))
    report.add(f"export {what}", 0.0, 1.0, {"path": path})
    return report


def build_parser():
    p = argparse.ArgumentParser(prog="qybe",
                                description="construct and verify lattice "
                                            "integrable structures")
    p.add_argument("--algebra", choices=[SLQ2, OSPQ12], default=SLQ2)
    p.add_argument("--q", type=float, default=1.3)
    p.add_argument("--qi", type=float, default=0.0, help="imaginary part of q")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="qybe-out")
    p.add_argument("--config", default=None, help="JSON run configuration")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--r", type=int, nargs="*", default=None)
        sp.add_argument("--n", type=int, nargs="*", default=None)
        sp.add_argument("--u", type=float, default=0.3)
        sp.add_argument("--ui", type=float, default=0.0)
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        return sp

    add("build-rep", cmd_build_rep)
    add("cgc", cmd_cgc)
    add("projectors", cmd_projectors)
    add("hecke", cmd_hecke)
    add("fixtures", cmd_fixtures, **{"--kind": {"type": int, "default": None}})
    add("fuse", cmd_fuse)
    add("lax", cmd_lax)
    add("chain", cmd_chain, **{"--sites": {"type": int, "default": 2}})
    add("commutant", cmd_commutant)
    sp = add("verify-all", cmd_verify_all)
    add("export", cmd_export, **{"--what": {"default": "hecke"},
                                 "--target": {"type": int, "default": None}})
    return p


def cli_dispatch(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cfg = None
    try:
        cfg = _config_from_args(args)
        cfg.params()  # validate before any work
        report = args.fn(args, cfg)
    except (QybeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if cfg is not None:
            report = Report(cfg)
            report.fail(args.command, exc, 0.0)
            try:
                _write_json(cfg.outdir, "report.json", report.to_json())
            except OSError as write_exc:
                print(f"error: {write_exc}", file=sys.stderr)
        return 1
    payload = report.to_json()
    _write_json(cfg.outdir, "report.json", payload)
    for c in report.checks:
        status = "ok  " if c["passed"] else "FAIL"
        error = f": {c['error']}" if "error" in c else ""
        print(f"[{status}] {c['name']}: residual {c['residual']:.3e} "
              f"(tol {c['tolerance']:.1e}){error}")
    s = report.summary()
    print(f"{s['passed']}/{s['total']} checks passed")
    return 0 if report.all_passed else 1


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
