"""Command line entry point: build objects, run verification batteries and
export operators as JSON artifacts.

Exit codes: 0 all checks passed, 1 computation failure or failed checks,
2 usage errors.
"""

import argparse
import json
import os
import sys

from .qarith import DESK_BOUND, OSPQ12, SLQ2, QybeError
from .repspace import GradedOperator, Space
from .coupling import projector, tensor_decompose
from . import fusion
from . import spinchain as chains
from .toolkit import Context, Report, RunConfig, serialize_operator, spectrum_csv, verify_all


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_json(outdir, name, payload):
    return _write(outdir, name, json.dumps(payload, sort_keys=True, indent=1))


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


# Each command writes its artifacts, then runs its checks from the table in
# qybe.toolkit.  A QybeError while building an artifact ends the command.

def _write_op(ctx, name, op, algebra=None):
    return _write_json(ctx.config.outdir, name,
                       serialize_operator(op, algebra or ctx.config.algebra, ctx.params.q))


def cmd_build_rep(args, ctx):
    alg = ctx.config.algebra
    for r in ctx.config.r_list:
        rep = ctx.rep(r)
        for name, m in (("E", rep.E), ("F", rep.F), ("H", rep.H)):
            _write_op(ctx, f"rep_{alg}_r{r}_{name}.json",
                      GradedOperator(m, rep.space(), rep.space(), label=f"{name}[r={r}]"))
        ctx.check("algebra-relations", r=r)


def cmd_cgc(args, ctx):
    r1, r2 = (ctx.config.r_list + ctx.config.r_list)[:2]
    dec = ctx.cgc(r1, r2).decomposition
    op = GradedOperator(dec.basis, Space((dec.dim,), (tuple(int(p) for p in dec.parities),)),
                        Space((r1, r2), (ctx.rep(r1).parities, ctx.rep(r2).parities)),
                        label=f"cgc[{r1}x{r2}]")
    _write_op(ctx, f"cgc_{ctx.config.algebra}_{r1}x{r2}.json", op)
    ctx.check("cgc-biorthogonality", r=r1, r2=r2)


def cmd_projectors(args, ctx):
    for r in ctx.config.r_list:
        rep = ctx.rep(r)
        for r0 in tensor_decompose(r, r):
            _write_op(ctx, f"projector_{ctx.config.algebra}_r{r}_P{r0}.json",
                      projector(rep, rep, r0, ctx.params, table=ctx.cgc(r, r)))
        ctx.check("cgc-biorthogonality", r=r)
        ctx.check("projector-routes", r=r)


def cmd_hecke(args, ctx):
    for r in ctx.config.r_list:
        _write_op(ctx, f"hecke_{ctx.config.algebra}_r{r}_u{args.u}.json",
                  ctx.hecke(r).check(complex(args.u, args.ui)))
        ctx.check("hecke-ybe", r=r)


def cmd_fixtures(args, ctx):
    for kind in (args.kind,) if args.kind else (1, 2, 3):
        _write_op(ctx, f"fixture_{kind}.json", ctx.fixture(kind).check(complex(args.u, args.ui)),
                  SLQ2)
        ctx.check("fixture-{kind}-ybe", kind=kind)


def cmd_fuse(args, ctx):
    for r in ctx.config.r_list:
        _write_op(ctx, f"fused_{ctx.config.algebra}_r{r}.json",
                  ctx.descendant(r).check(complex(args.u, args.ui)))
        ctx.check("descendant-closed-vs-product", r=r)
        ctx.check("descendant-regular-point", r=r)


def cmd_lax(args, ctx):
    cfg = ctx.config
    too_big = [(r, n) for r in cfg.r_list for n in cfg.n_list if r ** (n + 1) > DESK_BOUND]
    if too_big:
        raise QybeError(f"extended Lax at (r, n) = {too_big} exceeds the desk bound "
                        f"of {DESK_BOUND} dimensions")
    for r in cfg.r_list:
        for n in cfg.n_list:
            _write_op(ctx, f"lax_{cfg.algebra}_r{r}_n{n}.json",
                      fusion.extended_lax(ctx.rep(r), n, ctx.params, complex(args.u, args.ui)))
            ctx.check("lax-dims", r=r, n=n)
            ctx.check("lax-rll", r=r, n=n)


def cmd_chain(args, ctx):
    cfg, N = ctx.config, args.sites
    too_big = [r for r in cfg.r_list if fusion.dims_recurrence(r, 2) ** N > DESK_BOUND]
    if too_big:
        raise QybeError(f"chain of {N} sites at r = {too_big} exceeds the desk bound "
                        f"of {DESK_BOUND} dimensions")
    for r in cfg.r_list:
        _write(cfg.outdir, f"spectrum_{cfg.algebra}_r{r}_N{N}.csv",
               spectrum_csv(*chains.spectrum(ctx.hamiltonian(r, N).H)))
        ctx.check("transfer-commutation", r=r, N=N)
        ctx.check("hamiltonian-routes", r=r, N=N)


def cmd_commutant(args, ctx):
    n = ctx.config.n_list[0] if ctx.config.n_list else 2
    for r in ctx.config.r_list:
        ctx.commutant(r, n)  # built first: a request the routes refuse ends the command
        ctx.check("commutant-dims", r=r, n=n)
        ctx.check("commutant-angle", r=r, n=n)


def cmd_verify_all(args, ctx):
    verify_all(ctx.config, ctx)


def cmd_export(args, ctx):
    r, what, u = ctx.config.r_list[0], args.what, complex(args.u, args.ui)
    rep = ctx.rep(r)
    if what == "hecke":
        op = ctx.hecke(r).check(u)
    elif what == "fused":
        op = ctx.descendant(r).check(u)
    elif what == "lax":
        op = fusion.extended_lax(rep, ctx.config.n_list[0], ctx.params, u)
    elif what == "projector":
        op = projector(rep, rep, args.target or tensor_decompose(r, r)[-1], ctx.params,
                       table=ctx.cgc(r, r))
    else:
        raise QybeError(f"nothing exportable named {what!r}")
    path = _write_op(ctx, f"export_{what}_{ctx.config.algebra}_r{r}.json", op)
    ctx.report.add(f"export {what}", 0.0, 1.0, {"path": path})


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
        ctx = Context(cfg)  # validates the parameters before any work
        args.fn(args, ctx)
    except (QybeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if cfg is not None:
            report = Report(cfg)
            report.add(args.command, float("inf"), 0.0, error=exc)
            try:
                _write_json(cfg.outdir, "report.json", report.to_json())
            except OSError as write_exc:
                print(f"error: {write_exc}", file=sys.stderr)
        return 1
    report = ctx.report
    _write_json(cfg.outdir, "report.json", report.to_json())
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
