"""Command line entry point: build objects, run verification batteries and
export operators as JSON artifacts.

Exit codes: 0 all checks passed, 1 computation failure or failed checks,
2 usage errors.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

from .qarith import DESK_BOUND, OSPQ12, SLQ2, QybeError
from .coupling import projector, tensor_decompose
from . import fusion
from . import spinchain as chains
from .toolkit import (
    Context,
    GradedOperator,
    Report,
    RunConfig,
    Space,
    spectrum_csv,
    verify_all,
    write_operator,
)


def _open(outdir, name):
    """A new text file outdir/name, the directory made if needed."""
    os.makedirs(outdir, exist_ok=True)
    return open(os.path.join(outdir, name), "w")


def _write(outdir, name, text):
    with _open(outdir, name) as fh:
        fh.write(text)
    return fh.name


def _write_json(outdir, name, payload):
    return _write(outdir, name, json.dumps(payload, sort_keys=True, indent=1))


def _config_from_args(args, base):
    """`base` with each flag given on the command line in place of its field
    (--q and --qi set the real and imaginary part of q one by one); the
    QYBE_OUT environment variable names the output directory over both."""
    q = complex(base.q)
    flags = {
        "algebra": args.algebra,
        "q": complex(q.real if args.q is None else args.q,
                     q.imag if args.qi is None else args.qi),
        "a": complex(base.a if args.a is None else args.a),
        "r_list": tuple(args.r) if args.r else None,
        "n_list": tuple(args.n) if args.n else None,
        "seed": args.seed,
        "outdir": os.environ.get("QYBE_OUT") or args.out,
    }
    return dataclasses.replace(base, **{k: v for k, v in flags.items() if v is not None})


def _config_from_file(args):
    """The --config file's configuration with the flags given in its place.
    A list the file holds is given to the command as if by its flag, so
    `_at_most` refuses it just the same."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise QybeError(f"cannot read the config {args.config}: {exc}") from exc
    base = RunConfig.from_json(doc)
    for flag in ("r", "n"):
        if not getattr(args, flag):
            setattr(args, flag, doc.get(f"{flag}_list"))
    return _config_from_args(args, base)


# Each command writes its artifacts, then runs its checks from the table in
# qybe.toolkit.  A QybeError while building an artifact ends the command.
# The library returns plain arrays; here each one is given the label and the
# factor parities of its document.

def _write_op(ctx, name, matrix, label, factors, codomain=None, algebra=None):
    """The document of `matrix` on the product of `factors` (parity vectors;
    the codomain's are `codomain` when they differ) as one line of JSON,
    streamed to the file."""
    domain = Space.of(*factors)
    op = GradedOperator(matrix, domain, Space.of(*codomain) if codomain else domain, label)
    with _open(ctx.config.outdir, name) as fh:
        write_operator(fh, op, algebra or ctx.config.algebra, ctx.params.q)
    return fh.name


def _write_check(ctx, name, fam, u, algebra=None):
    """The check form of the spectral family `fam` at u."""
    return _write_op(ctx, name, fam.check_fn(u), f"Rcheck[{fam.family}]({u})",
                     [fam.site.parities] * 2, algebra=algebra)


def _write_lax(ctx, name, U, u):
    """The extended Lax operator on V^r (x) U at u."""
    return _write_op(ctx, name, fusion.extended_lax(U, u), f"L[{U.rep.r},{U.n}]({u})",
                     [U.rep.parities, U.site.parities])


def _at_most(args, flag, count):
    """Refuse more than `count` values of the list flag --`flag`, or of its
    list in the --config file, which is all the command reads, before
    anything is written."""
    values = getattr(args, flag)
    if values is not None and len(values) > count:
        raise QybeError(f"{args.command} reads at most {count} --{flag} "
                        f"value{'s' * (count > 1)}, got {values}")


def _write_projector(ctx, name, r, r0):
    """The projector onto the dimension-r0 block of V^r (x) V^r."""
    return _write_op(ctx, name, projector(ctx.cgc(r, r), r0), f"P^{r0}",
                     [ctx.rep(r).parities] * 2)


def cmd_build_rep(args, ctx):
    alg = ctx.config.algebra
    for r in ctx.config.r_list:
        rep = ctx.rep(r)
        for name, m in (("E", rep.E), ("F", rep.F), ("H", rep.H)):
            _write_op(ctx, f"rep_{alg}_r{r}_{name}.json", m, f"{name}[r={r}]", [rep.parities])
        ctx.check("algebra-relations", r=r)


def cmd_cgc(args, ctx):
    _at_most(args, "r", 2)
    r1, r2 = (ctx.config.r_list + ctx.config.r_list)[:2]
    dec = ctx.cgc(r1, r2).decomposition
    _write_op(ctx, f"cgc_{ctx.config.algebra}_{r1}x{r2}.json", dec.basis, f"cgc[{r1}x{r2}]",
              [dec.parities], codomain=[ctx.rep(r1).parities, ctx.rep(r2).parities])
    ctx.check("cgc-biorthogonality", r=r1, r2=r2)


def cmd_projectors(args, ctx):
    for r in ctx.config.r_list:
        for r0 in tensor_decompose(r, r):
            _write_projector(ctx, f"projector_{ctx.config.algebra}_r{r}_P{r0}.json", r, r0)
        ctx.check("cgc-biorthogonality", r=r)
        ctx.check("projector-routes", r=r)


def cmd_hecke(args, ctx):
    for r in ctx.config.r_list:
        _write_check(ctx, f"hecke_{ctx.config.algebra}_r{r}_u{args.u}.json", ctx.hecke(r),
                     complex(args.u, args.ui))
        ctx.check("hecke-ybe", r=r)


def cmd_fixtures(args, ctx):
    for kind in (args.kind,) if args.kind is not None else (1, 2, 3):
        _write_check(ctx, f"fixture_{kind}.json", ctx.fixture(kind), complex(args.u, args.ui),
                     SLQ2)
        ctx.check("fixture-{kind}-ybe", kind=kind)


def cmd_fuse(args, ctx):
    for r in ctx.config.r_list:
        _write_check(ctx, f"fused_{ctx.config.algebra}_r{r}.json", ctx.descendant(r),
                     complex(args.u, args.ui))
        ctx.check("descendant-closed-vs-product", r=r)
        ctx.check("descendant-regular-point", r=r)


def cmd_lax(args, ctx):
    cfg = ctx.config
    too_big = [(r, n) for r in cfg.r_list for n in cfg.n_list if not fusion.lax_fits(r, n)]
    if too_big:
        raise QybeError(f"extended Lax at (r, n) = {too_big} exceeds the desk bound "
                        f"of {DESK_BOUND} dimensions")
    for r in cfg.r_list:
        for n in cfg.n_list:
            _write_lax(ctx, f"lax_{cfg.algebra}_r{r}_n{n}.json", ctx.composite(r, n),
                       complex(args.u, args.ui))
            ctx.check("lax-dims", r=r, n=n)
            ctx.check("lax-rll", r=r, n=n)


def cmd_chain(args, ctx):
    cfg, N = ctx.config, args.sites
    for r in cfg.r_list:
        ctx.chain(r, N)  # every chain first: a chain the spec refuses ends the command
    for r in cfg.r_list:
        _write(cfg.outdir, f"spectrum_{cfg.algebra}_r{r}_N{N}.csv",
               spectrum_csv(*chains.spectrum(ctx.hamiltonian(r, N))))
        ctx.check("transfer-commutation", r=r, N=N)
        ctx.check("hamiltonian-routes", r=r, N=N)


def cmd_commutant(args, ctx):
    pairs = [(r, n) for r in ctx.config.r_list for n in ctx.config.n_list or (2,)]
    for r, n in pairs:
        ctx.commutant(r, n)  # every basis first: a request the routes refuse ends the command
    for r, n in pairs:
        ctx.check("commutant-dims", r=r, n=n)
        ctx.check("commutant-angle", r=r, n=n)


def cmd_verify_all(args, ctx):
    verify_all(ctx.config, ctx)


def cmd_export(args, ctx):
    _at_most(args, "r", 1)
    _at_most(args, "n", 1)
    r, what, u = ctx.config.r_list[0], args.what, complex(args.u, args.ui)
    name = f"export_{what}_{ctx.config.algebra}_r{r}.json"
    if what == "hecke":
        path = _write_check(ctx, name, ctx.hecke(r), u)
    elif what == "fused":
        path = _write_check(ctx, name, ctx.descendant(r), u)
    elif what == "lax":
        path = _write_lax(ctx, name, ctx.composite(r, ctx.config.n_list[0]), u)
    elif what == "projector":
        r0 = args.target if args.target is not None else tensor_decompose(r, r)[-1]
        path = _write_projector(ctx, name, r, r0)
    else:
        raise QybeError(f"nothing exportable named {what!r}")
    ctx.report.add(f"export {what}", 0.0, 1.0, {"path": path})


def build_parser():
    p = argparse.ArgumentParser(prog="qybe",
                                description="construct and verify lattice "
                                            "integrable structures")
    # a flag left out keeps the --config file's field, or RunConfig's default
    p.add_argument("--algebra", choices=[SLQ2, OSPQ12])
    p.add_argument("--q", type=float, help="real part of q")
    p.add_argument("--qi", type=float, help="imaginary part of q")
    p.add_argument("--a", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config", help="JSON run configuration; flags override its fields")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("--r", type=int, nargs="*", default=None)
        sp.add_argument("--n", type=int, nargs="*", default=None)
        sp.add_argument("--u", type=float, default=0.3)
        sp.add_argument("--ui", type=float, default=0.0)
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)

    add("build-rep")
    add("cgc")
    add("projectors")
    add("hecke")
    add("fixtures", **{"--kind": {"type": int, "default": None}})
    add("fuse")
    add("lax")
    add("chain", **{"--sites": {"type": int, "default": 2}})
    add("commutant")
    add("verify-all")
    add("export", **{"--what": {"default": "hecke"},
                     "--target": {"type": int, "default": None}})
    return p


@functools.cache
def _parser():
    """The parser of this process, built at the first dispatch."""
    return build_parser()


def cli_dispatch(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cfg = _config_from_args(args, RunConfig())  # where the report of a bad --config goes
    try:
        if args.config:
            cfg = _config_from_file(args)
        ctx = Context(cfg)  # validates the parameters before any work
        # looked up by name at each dispatch: a replaced cmd_* is the one run
        globals()["cmd_" + args.command.replace("-", "_")](args, ctx)
    except (QybeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
