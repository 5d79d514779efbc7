import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qybe import (
    OSPQ12,
    SLQ2,
    deserialize_operator,
    serialize_operator,
    ybe_residual,
)
from qybe.toolkit import (
    CHECKS,
    Context,
    GradedOperator,
    MalformedDocumentError,
    Report,
    RunConfig,
    Space,
    verify_all,
)
from qybe import cli, commutant, coupling, fusion, qarith, repspace, rmatrix, spinchain, toolkit
from qybe.cli import cli_dispatch
from qybe.repspace import Site, embed_at
from conftest import blockwise_probes, noncheck_ybe, pair_table, params_for, sample_points


def random_op(rng, n=8):
    sp = Space((n,), (tuple([0] * n),))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GradedOperator(m, sp, sp, label="random")


def test_roundtrip_bit_exact(rng):
    op = random_op(rng)
    doc = serialize_operator(op, SLQ2, 1.3)
    text = json.dumps(doc)
    back = deserialize_operator(json.loads(text))
    assert (back.matrix == op.matrix).all()
    assert back.domain == op.domain
    assert back.label == op.label


def _plain_op(m):
    rows, cols = m.shape
    return GradedOperator(m, Space((cols,), ((0,) * cols,)), Space((rows,), ((0,) * rows,)),
                          label="random")


_part = st.one_of(st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
                  st.floats())
_entries_with_zero_runs = st.lists(
    st.one_of(st.just((0.0, 0.0)), st.just((0.0, 0.0)), st.tuples(_part, _part)),  # 2/3 zeros
    min_size=1, max_size=6)


@st.composite
def _sparse_matrices(draw):
    """Complex matrices whose entries come in runs of exact zeros or of
    other pairs, -0.0, nan and +-inf among them."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pairs = []
    while len(pairs) < rows * cols:
        pairs += draw(_entries_with_zero_runs) * draw(st.integers(1, 5))
    return np.array(pairs[:rows * cols], dtype=float).view(complex).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(m=_sparse_matrices(), block=st.integers(1, 90))
@example(m=np.zeros((6, 7), dtype=complex), block=8)
@example(m=np.array([[complex(-0.0, float("nan"))]]), block=1)
@example(m=np.array([[0j]]), block=1)
def test_write_operator_matches_json_dumps(m, block):
    # byte for byte the json text of the document, at every row-block size
    # (blocks of whole rows, at least one)
    op = _plain_op(m)
    q = complex(1.3, -0.0)
    fh = io.StringIO()
    with mock.patch.object(toolkit, "_BLOCK_ENTRIES", block):
        toolkit.write_operator(fh, op, SLQ2, q)
    assert fh.getvalue() == json.dumps(serialize_operator(op, SLQ2, q), sort_keys=True)


def test_write_operator_peak_memory(tmp_path):
    # the document is written one row block at a time: the Lax operator of
    # (r, n) = (5, 3) is 575 x 575 and about 90% exact zeros, and writing
    # it holds no more than twice the length of its text
    U = Context(RunConfig()).composite(5, 3)
    sp = Space.of(U.rep.parities, U.site.parities)
    op = GradedOperator(fusion.extended_lax(U, 0.37), sp, sp)
    path = tmp_path / "lax.json"
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            toolkit.write_operator(fh, op, SLQ2, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_cli_parser_is_built_once_and_finds_handlers_by_name(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert cli_dispatch(["--out", str(tmp_path), "build-rep", "--r", "2"]) == 0
        ran = []
        monkeypatch.setattr(cli, "cmd_build_rep", lambda args, ctx: ran.append(args.r))
        assert cli_dispatch(["--out", str(tmp_path), "build-rep", "--r", "3"]) == 0
    finally:
        cli._parser.cache_clear()
    assert ran == [[3]]
    assert built == [1]


def test_entries_length_schema(rng):
    op = random_op(rng, 5)
    doc = serialize_operator(op, SLQ2, 1.3)
    assert len(doc["entries"]) == doc["rows"] * doc["cols"]


def test_malformed_document(rng):
    op = random_op(rng, 3)
    doc = serialize_operator(op, SLQ2, 1.3)
    bad = dict(doc)
    bad["entries"] = doc["entries"][:-1]
    with pytest.raises(MalformedDocumentError):
        deserialize_operator(bad)
    with pytest.raises(MalformedDocumentError):
        deserialize_operator({"rows": 2})
    for entry in ([0], ["x", 0], None):  # each entry is a pair of numbers
        bad["entries"] = doc["entries"][:-1] + [entry]
        with pytest.raises(MalformedDocumentError):
            deserialize_operator(bad)
    no_dims = {k: v for k, v in doc["meta"].items() if k != "domain_dims"}
    odd_parity = dict(doc["meta"], parities_domain=[["a"] * 3])
    for field, value in (("meta", no_dims), ("meta", 5), ("rows", "x"), ("meta", odd_parity)):
        with pytest.raises(MalformedDocumentError):
            deserialize_operator(dict(doc, **{field: value}))


def test_fixture_roundtrip_preserves_ybe(rng):
    from qybe import r33_family

    p = params_for(SLQ2)
    fam = r33_family(1, pair_table(SLQ2, 3, p))
    u, w = 0.41 + 0.04j, -0.37 + 0.08j
    ops = {}
    for x in (u, u + w, w):
        sp = Space.of(fam.site.parities, fam.site.parities)
        op = GradedOperator(fam.check_fn(x), sp, sp)
        doc = json.loads(json.dumps(serialize_operator(op, SLQ2, p.q)))
        ops[x] = deserialize_operator(doc).matrix
    I3 = np.eye(3)
    lhs = np.kron(ops[u], I3) @ np.kron(I3, ops[u + w]) @ np.kron(ops[w], I3)
    rhs = np.kron(I3, ops[w]) @ np.kron(ops[u + w], I3) @ np.kron(I3, ops[u])
    direct = ybe_residual(fam, u, w)
    reloaded = np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max())
    assert abs(direct - reloaded) < 1e-12


def test_runconfig_to_json_holds_the_run_inputs():
    # the report's config block: every field, complex numbers as [re, im]
    cfg = RunConfig(algebra=SLQ2, q=1.25, r_list=(2, 4), seed=7)
    assert cfg.to_json() == {"algebra": SLQ2, "q": [1.25, 0.0], "a": [1.0, 0.0],
                             "r_list": [2, 4], "n_list": [2], "seed": 7, "outdir": "qybe-out"}


def test_report_records_and_summary():
    cfg = RunConfig()
    rep = Report(cfg)
    assert rep.add("alpha", 1e-12, 1e-9)
    assert not rep.add("beta", 1.0, 1e-9)
    s = rep.summary()
    assert s == {"total": 2, "passed": 1, "failed": 1}
    doc = rep.to_json()
    assert [c["name"] for c in doc["checks"]] == ["alpha", "beta"]


def test_verify_all_deterministic():
    cfg = RunConfig(algebra=SLQ2, r_list=(2,), n_list=(2,), seed=42)
    r1 = verify_all(cfg)
    r2 = verify_all(cfg)
    assert r1.all_passed
    assert r1.comparable_json() == r2.comparable_json()


def test_cli_verify_all(tmp_path):
    code = cli_dispatch([
        "--algebra", "slq2", "--q", "1.3", "--out", str(tmp_path),
        "verify-all", "--r", "2",
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["failed"] == 0


def test_cli_hecke_export_identity(tmp_path):
    code = cli_dispatch([
        "--algebra", "ospq12", "--out", str(tmp_path),
        "hecke", "--r", "4", "--u", "0",
    ])
    assert code == 0
    doc = json.loads((tmp_path / "hecke_ospq12_r4_u0.0.json").read_text())
    op = deserialize_operator(doc)
    assert np.abs(op.matrix - np.eye(16)).max() < 1e-12


def test_cli_unknown_flag_exits_2(tmp_path, capsys):
    code = cli_dispatch(["--no-such-flag", "verify-all"])
    assert code == 2
    assert not os.path.exists("qybe-out/report.json")


def test_cli_unknown_command_exits_2():
    assert cli_dispatch(["frobnicate"]) == 2


def test_cli_has_no_config_file(tmp_path, capsys):
    # the flags are the only run input: --config is a usage error, and
    # nothing is written
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text("{}")
    assert cli_dispatch(["--out", str(out), "--config", str(config), "verify-all"]) == 2
    assert "usage: qybe" in capsys.readouterr().err
    assert not out.exists()


def test_cli_chain_writes_spectrum(tmp_path):
    code = cli_dispatch([
        "--algebra", "slq2", "--out", str(tmp_path),
        "chain", "--r", "2", "--sites", "2",
    ])
    assert code == 0
    lines = (tmp_path / "spectrum_slq2_r2_N2.csv").read_text().splitlines()
    split = lines.index("cluster,level_real,level_imag,degeneracy")
    assert lines[0] == "index,real,imag" and split == 1 + 3 ** 2
    for line in lines[1:split] + lines[split + 1:]:
        [float(x) for x in line.split(",")]


def test_cli_chain_builds_each_chain_once(tmp_path, monkeypatch):
    # the spectrum and both chain checks share one spec per r
    built = []
    post_init = spinchain.ChainSpec.__post_init__

    def counting(spec):
        post_init(spec)
        built.append(spec.site.dim)

    monkeypatch.setattr(spinchain.ChainSpec, "__post_init__", counting)
    assert cli_dispatch(["--out", str(tmp_path), "chain", "--r", "2", "3", "--sites", "2"]) == 0
    assert built == [3, 8]


def test_cli_chain_computes_each_chain_sectors_once(tmp_path, monkeypatch):
    # tau and both Hamiltonians of a chain share its sectors (the 3); the
    # projector-form Hamiltonian first checks its bond over the sectors of
    # the bond's two sites (the first 2), and tau's plan groups the R
    # entries by the sectors of aux (x) site (the second 2)
    calls = []
    product_sectors = spinchain.product_sectors

    def counting(*sites):
        calls.append(len(sites))
        return product_sectors(*sites)

    monkeypatch.setattr(spinchain, "product_sectors", counting)
    assert cli_dispatch(["--out", str(tmp_path), "chain", "--r", "2", "3", "--sites", "3"]) == 0
    assert calls == [2, 3, 2, 2, 3, 2]


def test_cli_commutant(tmp_path):
    code = cli_dispatch([
        "--algebra", "slq2", "--out", str(tmp_path),
        "commutant", "--r", "3", "--n", "2",
    ])
    assert code == 0


def test_cli_computation_failure_exits_1(tmp_path):
    # q at a root of unity is rejected by the parameter validation
    code = cli_dispatch([
        "--q", "-1.0", "--out", str(tmp_path), "verify-all", "--r", "2",
    ])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--q", "nan", "verify-all", "--r", "2"],
    ["--q", "inf", "verify-all", "--r", "2"],
    ["--qi", "inf", "verify-all", "--r", "2"],
    ["--a", "nan", "verify-all", "--r", "2"],
    ["--q", "1e30", "verify-all", "--r", "2"],
    ["--q", "1e9", "chain", "--r", "2", "--sites", "2"],   # u0 is not finite
    ["--a", "1e-12", "chain", "--r", "2", "--sites", "2"],  # the bond slope underflows
    ["chain", "--r", "2", "--sites", "0"],
    ["chain", "--r", "2", "--sites", "1"],
    ["chain", "--r", "3", "--sites", "5"],
    ["chain", "--r", "2", "3", "--sites", "5"],
    ["lax", "--r", "2", "--n", "0"],
    ["lax", "--r", "5", "--n", "5"],
    ["lax", "--r", "2", "5", "--n", "5"],
    ["commutant", "--r", "2", "--n", "0"],
    ["commutant", "--r", "5"],
    ["commutant", "--r", "2", "--n", "2", "0"],
    ["fixtures", "--kind", "0"],
    ["export", "--what", "projector", "--target", "0"],
    # more values than the command reads: refused, not cut to the first ones
    ["cgc", "--r", "2", "3", "4"],
    ["export", "--what", "hecke", "--r", "2", "3"],
    ["export", "--what", "lax", "--n", "3", "4"],
])
def test_cli_bad_input_exits_1(argv, tmp_path, capsys):
    assert cli_dispatch(["--out", str(tmp_path)] + argv) == 1
    assert capsys.readouterr().err.startswith("error: ")

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")

    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert report["checks"][0]["error"]
    # the request is refused before any artifact is written
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_cli_degenerate_q_fails_each_check_with_its_error(tmp_path):
    # at q = 1e-9 the Hecke family has no finite degeneration point: every
    # check that needs it fails with that error, and the report is written
    assert cli_dispatch(["--q", "1e-9", "--out", str(tmp_path), "verify-all", "--r", "2"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed and report["summary"]["failed"] == len(failed)
    assert all(c["error"] and c["residual"] is None for c in failed)
    assert any("degeneration point" in c["error"] for c in failed)
    # chi = chi_closed = 1e-18 needs no Hecke family, so its check passes
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["chi-closed-form r=2"]["passed"]
    assert "degeneration point" in checks["hecke-ybe r=2"]["error"]


def _subcommands():
    """Each subcommand's parser by name."""
    return next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(parser):
    """The option strings of a subcommand's parser, help aside, in order."""
    return [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_cli_subcommands_refuse_the_flags_they_do_not_read(command, tmp_path, capsys):
    # a flag the command does not read is a usage error, as is --r or --n
    # without a value; nothing is written
    own = _flags(_subcommands()[command])
    argvs = [[command, flag, "2"] for flag in ("--r", "--n", "--u", "--ui") if flag not in own]
    argvs += [[command, flag] for flag in ("--r", "--n") if flag in own]
    assert argvs
    for argv in argvs:
        assert cli_dispatch(["--out", str(tmp_path / "out")] + argv) == 2, argv
        assert "usage: qybe" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_subcommand_table_lists_each_parser_flag():
    # the flags column of each row is the subcommand's own option strings
    rows = [line.split("|") for line in _readme_section("Command line").splitlines()
            if line.startswith("| `")]
    table = {cells[1].strip().strip("`"): re.findall(r"--[\w-]+", cells[2]) for cells in rows}
    assert table == {name: _flags(sp) for name, sp in _subcommands().items()}


def test_readme_lists_each_top_level_flag():
    # the README's line of top-level flags is the top-level parser's option
    # strings, in order
    lines = [line for line in _readme_section("Command line").splitlines()
             if line.startswith("Top-level flags")]
    assert len(lines) == 1
    assert re.findall(r"--[\w-]+", lines[0]) == _flags(cli._parser())


def test_cli_flags_set_the_report_config(tmp_path, monkeypatch):
    # each flag given stands in the report's config block and RunConfig's
    # default for each one left out; nothing is written outside --out
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "X"
    argv = ["--out", str(out), "--algebra", "ospq12", "--q", "1.5", "hecke", "--r", "2"]
    assert cli_dispatch(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["X"]
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == {"algebra": "ospq12", "q": [1.5, 0.0], "a": [1.0, 0.0],
                                "r_list": [2], "n_list": [2], "seed": 42, "outdir": str(out)}
    assert [c["name"] for c in report["checks"]] == ["hecke-ybe r=2"]
    assert (out / "hecke_ospq12_r2_u0.3.json").exists()


def test_check_tolerances_come_from_the_table():
    # each check is (tolerance or a function of its inputs, residual body),
    # and its record carries that tolerance: no run input moves it
    assert all(len(entry) == 2 for entry in CHECKS.values())
    ctx = Context(RunConfig())
    ctx.check("lax-dims", r=2, n=2)
    ctx.check("lax-rll", r=2, n=2)
    ctx.check("hecke-ybe", r=3)
    assert [c["tolerance"] for c in ctx.report.checks] == [0.5, 1e-9, 3 ** 3 * 1e-12]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_lax_rll_refuses_a_factor_that_mixes_weights(algebra, monkeypatch):
    # an entry of 1e-6 between two weight sectors of L: the check compares
    # sector blocks only, so it must fail on the check_sectors error rather
    # than pass without seeing the entry
    build = fusion.extended_lax

    def planted(U, u=0.0):
        L = build(U, u)
        keys = Site.product(U.rep.site, U.site).keys
        L[np.argmax(keys), np.argmin(keys)] += 1e-6
        return L

    monkeypatch.setattr(fusion, "extended_lax", planted)
    ctx = Context(RunConfig(algebra=algebra))
    assert not ctx.check("lax-rll", r=2, n=2)
    assert "outside the weight sectors" in ctx.report.checks[-1]["error"]


def test_rel_residual_of_matrices_is_the_scaled_largest_difference(rng):
    # max|A - B| / max(1, max|A|, max|B|) bit for bit, also below and above
    # scale 1, and a NaN entry is not lost
    for size in (1e-3, 1.0, 1e3):
        for k in (1, 4):
            A = size * (rng.normal(size=(k, k + 1)) + 1j * rng.normal(size=(k, k + 1)))
            B = A + 1e-9 * rng.normal(size=A.shape)
            want = float(np.abs(A - B).max() / max(1.0, np.abs(A).max(), np.abs(B).max()))
            assert rmatrix.rel_residual(A, B) == want
    B[1, 0] = np.nan
    assert np.isnan(rmatrix.rel_residual(A, B))


def test_rel_residual_of_stacks_is_the_largest_per_stacked_pair(rng):
    # each stacked pair is reduced against its own scale, not the stack's,
    # and a NaN in one pair is not lost
    A = np.stack([s * rng.normal(size=(3, 2)) for s in (1e-3, 1.0, 1e3)])
    B = A + 1e-9 * rng.normal(size=A.shape)
    per_pair = [rmatrix.rel_residual(a, b) for a, b in zip(A, B)]
    assert rmatrix.rel_residual(A, B) == max(per_pair)
    assert max(per_pair) > np.abs(A - B).max() / np.abs(A).max()
    assert rmatrix.rel_residual(A, B[1]) == max(rmatrix.rel_residual(a, B[1]) for a in A)
    B[2, 0, 1] = np.nan
    assert np.isnan(rmatrix.rel_residual(A, B))


def _guard_cloud(centres, radius):
    """The centres and each point of a grid of spacing 0.05 over the
    sampling box that lies within radius - 0.05 of one: the discs of radius
    0.05 that `random_points` keeps clear of them cover the discs of
    `radius` around the centres."""
    grid = [complex(x / 20, y / 20) for x in range(-20, 21) for y in range(-4, 5)]
    return tuple(centres) + tuple(g for g in grid if any(abs(g - c) < radius - 0.05
                                                          for c in centres))


@pytest.mark.parametrize("count, guards, radius", [
    (5, (), 0.05),
    (400, (-0.3 + 0.1j,), 0.05),
    (7, (0.0, 0.4, -0.4), 0.3),   # rejects about three candidates in five
    (3, (0.2j,), 0.9),            # rejects most candidates, over several rounds
    (0, (0.0,), 0.05),
])
def test_random_points_draws_as_one_candidate_at_a_time(count, guards, radius):
    # the same points as one (Re, Im) draw per candidate, and the generator
    # left in the same state, so every later draw of a report is unchanged
    cloud = _guard_cloud(guards, radius)
    for seed in range(20):
        loop, rounds = np.random.default_rng(seed), np.random.default_rng(seed)
        want = sample_points(loop, count, cloud)
        got = toolkit.random_points(rounds, count, guards=cloud)
        assert got == want and all(type(u) is complex for u in got)
        assert rounds.bit_generator.state == loop.bit_generator.state


def _dense_ybe(fam, u, w, form):
    """The triple-product residual from whole embedded products: the oracle."""
    get, pars = {"check": (fam.check_fn, [(0,) * fam.dim] * 3),
                 "noncheck": (fam.noncheck, [fam.site.parities] * 3)}[form]
    legs = {"check": (((0, 1), (1, 2), (0, 1)), ((1, 2), (0, 1), (1, 2))),
            "noncheck": (((0, 1), (0, 2), (1, 2)), ((1, 2), (0, 2), (0, 1)))}[form]
    A, B, C = get(u), get(u + w), get(w)
    lhs, rhs = ([embed_at(op, at, pars) for op, at in zip(ops, side)]
                for ops, side in (((A, B, C), legs[0]), ((C, B, A), legs[1])))
    return rmatrix.rel_residual(np.linalg.multi_dot(lhs), np.linalg.multi_dot(rhs))


def _rll_factors(U, u, w):
    """The factor lists of the lax-rll check at the points u, w."""
    fam = U.hecke
    L13, L23, Rm = fusion.extended_lax(U, u), fusion.extended_lax(U, w), fam.noncheck(u - w)
    return ([(Rm, (0, 1)), (L13, (0, 2)), (L23, (1, 2))],
            [(L23, (1, 2)), (L13, (0, 2)), (Rm, (0, 1))], [fam.site, fam.site, U.site])


def _dense_rll(lhs, rhs, sites):
    pars = [site.parities for site in sites]
    return rmatrix.rel_residual(*[np.linalg.multi_dot([embed_at(op, at, pars) for op, at in side])
                                  for side in (lhs, rhs)])


def _probe_and_dense(kind, algebra, r, seed):
    """(probe residual, dense residual) of one probed check at seed `seed`;
    the points are drawn from the check's generator as the check draws them."""
    ctx = Context(RunConfig(algebra=algebra, r_list=(r,), seed=seed))
    rng, points = ctx.rng, np.random.default_rng(seed)
    if kind in ("ybe-check", "ybe-noncheck"):
        fam, form = ctx.hecke(r), kind[4:]
        u, w = toolkit.random_points(points, 2, guards=fam.guards)
        probe = ybe_residual(fam, u, w, rng=rng) if form == "check" else noncheck_ybe(fam, u, w, rng)
        return probe, _dense_ybe(fam, u, w, form)
    if kind == "lax-rll":
        U = ctx.composite(r, 2)
        u, w = toolkit.random_points(points, 2, guards=(-U.hecke.u0,))
        return (toolkit._lax_rll(ctx, rng, {"r": r, "n": 2}),
                _dense_rll(*_rll_factors(U, u, w)))
    dfam, spec = ctx.descendant(r), ctx.chain(r, 2)
    pts = toolkit.random_points(points, 4, guards=dfam.guards)
    t = []
    for u in pts:
        tau = np.zeros((sum(map(len, spec.sectors)),) * 2, dtype=complex)
        for s, block in zip(spec.sectors, spinchain.transfer_matrix(spec, dfam.noncheck(u))):
            tau[np.ix_(s, s)] = block  # the whole tau, each block on its states
        t.append(tau)
    dense = max(rmatrix.rel_residual(t[i] @ t[j], t[j] @ t[i])
                for i in range(4) for j in range(i + 1, 4))
    return toolkit._transfer_commutation(ctx, rng, {"r": r, "N": 2}), dense


_PROBED_KINDS = ["ybe-check", "ybe-noncheck", "lax-rll", "transfer-commutation"]


@pytest.mark.parametrize("kind", _PROBED_KINDS)
@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
def test_probe_residual_is_at_most_ten_times_the_dense_one(kind, algebra, r):
    # on working operators both are round-off, and the probe columns see no
    # more of it than the whole products hold
    for seed in (7, 8):
        probe, dense = _probe_and_dense(kind, algebra, r, seed)
        assert 0.0 <= probe <= 10 * dense
        assert dense < 1e-12


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r,n_sites", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_transfer_commutation_equals_the_per_sector_reference(algebra, r, n_sites):
    # each sector's rows of the whole-space columns hold that sector's own
    # probe columns and its blocks' products: bit for bit the residual of
    # the per-sector reference driver on the same stacks and the same child
    ctx = Context(RunConfig(algebra=algebra, seed=7))
    got = toolkit._transfer_commutation(ctx, ctx.rng, {"r": r, "N": n_sites})
    rng = np.random.default_rng(7)
    dfam, spec = ctx.descendant(r), ctx.chain(r, n_sites)
    pts = toolkit.random_points(rng, 4, guards=dfam.guards)
    t = [spinchain.transfer_matrix(spec, dfam.noncheck(u)) for u in pts]
    stacks = (np.stack(blocks) for blocks in zip(*t))
    want = blockwise_probes((([T[:, None], T], [T, T[:, None]]) for T in stacks), rng)
    assert got == want


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_probed_checks_leave_the_run_stream_alone(algebra):
    # the probe columns come from a spawned child: after a probed check the
    # run's generator is where the check's own points left it, so every
    # later check samples the same points; the record carries the column
    # count outside its name
    ctx = Context(RunConfig(algebra=algebra, r_list=(2,)))
    points = np.random.default_rng(ctx.config.seed)
    ctx.check("hecke-ybe", r=2)
    toolkit.random_points(points, 5, guards=ctx.hecke(2).guards)
    ctx.check("lax-rll", r=2, n=2)
    toolkit.random_points(points, 2, guards=(-ctx.hecke(2).u0,))
    ctx.check("lax-dims", r=2, n=2)
    assert ctx.rng.bit_generator.state == points.bit_generator.state
    records = ctx.report.checks
    assert [c["name"] for c in records] == ["hecke-ybe r=2", "lax-rll r=2 n=2", "lax-dims r=2 n=2"]
    assert [c.get("probes") for c in records] == [rmatrix.PROBES, rmatrix.PROBES, None]
    again = Context(RunConfig(algebra=algebra, r_list=(2,)))
    again.check("hecke-ybe", r=2)
    again.check("lax-rll", r=2, n=2)
    assert [c["residual"] for c in again.report.checks] == [c["residual"] for c in records[:2]]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_lax_rll_fails_on_a_lax_operator_off_by_a_random_diagonal(algebra, monkeypatch):
    # L scaled by 1 + 1e-6 (random diagonal) on each build: the check
    # fails at its own tolerance
    build, noise = fusion.extended_lax, np.random.default_rng(3)

    def scaled(U, u=0.0):
        L = build(U, u)
        return (1 + 1e-6 * noise.uniform(-1, 1, len(L)))[:, None] * L

    monkeypatch.setattr(fusion, "extended_lax", scaled)
    ctx = Context(RunConfig(algebra=algebra))
    assert not ctx.check("lax-rll", r=2, n=2)
    record = ctx.report.checks[-1]
    assert "error" not in record and record["residual"] > 10 * record["tolerance"]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
@pytest.mark.parametrize("r", [2, 3])
def test_lax_rll_fails_with_the_r_matrix_at_a_shifted_q(algebra, r):
    # the exchange relation with R taken at q (1 + 1e-6) instead of q is
    # off by far more than the lax-rll tolerance, and the probes see it
    ctx = Context(RunConfig(algebra=algebra))
    U, tol = ctx.composite(r, 2), CHECKS["lax-rll"][0]
    u, w = 0.31 + 0.05j, -0.42 + 0.1j
    lhs, rhs, sites = _rll_factors(U, u, w)
    shifted = Context(RunConfig(algebra=algebra, q=1.3 * (1 + 1e-6))).hecke(r).noncheck(u - w)
    lhs[0], rhs[2] = (shifted, (0, 1)), (shifted, (0, 1))
    probe = rmatrix.sector_residual(lhs, rhs, sites, np.random.default_rng(0))
    assert probe > tol
    assert probe <= 10 * _dense_rll(lhs, rhs, sites)


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_transfer_commutation_fails_with_one_perturbed_tau(algebra, monkeypatch):
    # the first of the four tau built from R(u) times a random diagonal
    # 1 + 1e-6 (noise): it leaves the commuting family, and the check fails
    # at its own tolerance (three sites: on two sites of the ospq12 pair
    # space of r = 2 such a tau still commutes with the others)
    build, noise, calls = spinchain.transfer_matrix, np.random.default_rng(5), []

    def perturbed(spec, R):
        calls.append(1)
        if len(calls) == 1:
            R = R * (1 + 1e-6 * noise.uniform(-1, 1, len(R)))
        return build(spec, R)

    monkeypatch.setattr(spinchain, "transfer_matrix", perturbed)
    ctx = Context(RunConfig(algebra=algebra))
    assert not ctx.check("transfer-commutation", r=2, N=3)
    record = ctx.report.checks[-1]
    assert "error" not in record and record["residual"] > 10 * record["tolerance"]


def test_lax_rll_peak_memory():
    # the sector blocks of the two sides are made and compared one pair at a
    # time: beyond the two Lax operators the check holds less than two
    # sides' worth of blocks (whole sides and their concatenated copies
    # take more than four)
    r, n = 5, 3
    ctx = Context(RunConfig())
    U = ctx.composite(r, n)
    U.lax_sectors
    sectors = coupling.product_sectors(U.rep.site, U.rep.site, U.site)
    side = 16 * sum(len(s) ** 2 for s in sectors)
    lax = 2 * 16 * (r * U.dim) ** 2
    tracemalloc.start()
    try:
        assert ctx.check("lax-rll", r=r, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= lax + 2 * side


def test_verify_all_into_context_builds_shared_objects_once(monkeypatch):
    # each builder, wherever in the package it is called, keyed by what it built
    keys = {
        "build_irrep": lambda rep: rep.dim,
        "cgc_table": lambda table: (table.rep1.dim, table.rep2.dim),
        "hecke_family": lambda fam: fam.dim,
        "composite_space": lambda U: (U.rep.dim, U.n),
    }
    calls = {name: [] for name in keys}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append(keys[name](out))
            return out
        return wrapper

    for name in keys:
        wrapper = counting(name, getattr(toolkit, name, None) or getattr(fusion, name))
        for module in (repspace, coupling, rmatrix, fusion, spinchain, toolkit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    cfg = RunConfig(algebra="ospq12", r_list=(2, 3), n_list=(2, 3))
    ctx = Context(cfg)
    assert verify_all(cfg, ctx) is ctx.report
    # one irrep, one table of V^r (x) V^r and one Hecke family per r, each
    # built from the one below it, and one composite space per (r, n)
    assert sorted(calls["build_irrep"]) == [2, 3]
    assert sorted(calls["cgc_table"]) == [(2, 2), (3, 3)]
    assert sorted(calls["hecke_family"]) == [2, 3]
    assert sorted(calls["composite_space"]) == [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert ctx.report.comparable_json() == verify_all(cfg).comparable_json()
    assert ctx.universal() is ctx.universal()
    assert ctx.fixture(1) is ctx.fixture(1)
    # an sl_q(2) run's fixtures are built on its own table of V^3 (x) V^3
    sl = Context(RunConfig(r_list=(3,)))
    assert sl.fixture(2).table is sl.cgc(3, 3)


@settings(max_examples=30, deadline=None)
@given(algebra=st.sampled_from([SLQ2, OSPQ12]), r=st.integers(2, 5),
       modulus=st.floats(1.2, 2.5), arg=st.floats(-0.6, 0.6))
def test_routes_agree_in_a_generic_annulus(algebra, r, modulus, arg):
    # q anywhere in a generic annulus, the real axis included: the two
    # projector routes, the triple-overlap scalar, the Hecke family and, at
    # the r of the battery's fused checks, the fused family built from it
    # hold at complex q too (even graded irreps shift h off the real axis);
    # at r = 2 so do both chain checks, and at r <= 3 the RLL relation of
    # the extended Lax operators and both commutant routes on the pair
    # space: their weight sectors rely on that shift
    ctx = Context(RunConfig(algebra=algebra, q=modulus * np.exp(1j * arg)))
    names = ["cgc-biorthogonality", "projector-routes", "chi-closed-form", "hecke-ybe"]
    if r <= 3:
        names += ["descendant-closed-vs-product", "descendant-regular-point"]
    checks = [(name, {"r": r}) for name in names]
    if r <= 3:
        checks += [("lax-rll", {"r": r, "n": n}) for n in (2, 3)]
        checks += [(name, {"r": r, "n": 2}) for name in ("commutant-dims", "commutant-angle")]
    if r == 2:
        checks += [(name, {"r": r, "N": N}) for N in (2, 3)
                   for name in ("transfer-commutation", "hamiltonian-routes")]
    for name, inputs in checks:
        assert ctx.check(name, **inputs), ctx.report.checks[-1]


def test_cli_verify_all_records_unbuildable_fixture(tmp_path):
    # the kind-3 fixture needs a real positive q; at q = -1.3 it is one
    # failed check and the rest of the battery still runs
    code = cli_dispatch(["--q", "-1.3", "--out", str(tmp_path), "verify-all", "--r", "2"])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["fixture-3-ybe"]
    assert "real positive q" in failed[0]["error"]
    assert report["summary"]["passed"] == report["summary"]["total"] - 1 > 5


def test_cli_export(tmp_path):
    code = cli_dispatch([
        "--algebra", "slq2", "--out", str(tmp_path),
        "export", "--what", "hecke", "--r", "3", "--u", "0.4",
    ])
    assert code == 0
    assert (tmp_path / "export_hecke_slq2_r3.json").exists()


SUBCOMMANDS = {
    # case: (argv, number of checks, artifacts besides report.json)
    "build-rep": (["build-rep", "--r", "2"], 1,
                  ["rep_slq2_r2_E.json", "rep_slq2_r2_F.json", "rep_slq2_r2_H.json"]),
    "cgc": (["cgc", "--r", "2", "3"], 1, ["cgc_slq2_2x3.json"]),
    "projectors": (["projectors", "--r", "2"], 2,
                   ["projector_slq2_r2_P1.json", "projector_slq2_r2_P3.json"]),
    "hecke": (["hecke", "--r", "3"], 1, ["hecke_slq2_r3_u0.3.json"]),
    "fixtures": (["fixtures", "--kind", "2"], 1, ["fixture_2.json"]),
    "fuse": (["fuse", "--r", "2"], 2, ["fused_slq2_r2.json"]),
    "lax": (["lax", "--r", "2", "--n", "2"], 2, ["lax_slq2_r2_n2.json"]),
    "chain": (["chain", "--r", "2", "--sites", "2"], 2, ["spectrum_slq2_r2_N2.csv"]),
    "chain r=4": (["chain", "--r", "4", "--sites", "2"], 2, ["spectrum_slq2_r4_N2.csv"]),
    "commutant": (["commutant", "--r", "2"], 2, []),
    "commutant n=3 2": (["commutant", "--r", "2", "--n", "3", "2"], 4, []),
    "export": (["export", "--what", "fused", "--r", "2"], 1, ["export_fused_slq2_r2.json"]),
}


def test_cli_lax_artifact_is_zero_off_sector(tmp_path):
    # the Lax artifact holds exact zeros between total-weight sectors
    assert cli_dispatch(["--out", str(tmp_path), "lax", "--r", "3", "--n", "3"]) == 0
    entries = json.loads((tmp_path / "lax_slq2_r3_n3.json").read_text())["entries"]
    U = Context(RunConfig()).composite(3, 3)
    keys = Site.product(U.rep.site, U.site).keys
    off = np.flatnonzero(np.not_equal.outer(keys, keys))
    assert len(entries) == len(keys) ** 2 and len(off) > 0.8 * len(entries)
    assert all(entries[k] == [0.0, 0.0] for k in off)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_cli_subcommand(command, tmp_path, monkeypatch):
    argv, checks, artifacts = SUBCOMMANDS[command]
    dumped = {}  # each operator written, as json.dumps of its document

    def write_operator(fh, op, algebra="", q=0j):
        dumped[os.path.basename(fh.name)] = json.dumps(
            serialize_operator(op, algebra, q), sort_keys=True)
        toolkit.write_operator(fh, op, algebra, q)

    monkeypatch.setattr(cli, "write_operator", write_operator)
    assert cli_dispatch(["--out", str(tmp_path)] + argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"] == {"total": checks, "passed": checks, "failed": 0}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts + ["report.json"])
    assert sorted(dumped) == sorted(name for name in artifacts if name.endswith(".json"))
    for name in artifacts:
        if name.endswith(".json"):
            assert (tmp_path / name).read_text() == dumped[name]
            doc = json.loads((tmp_path / name).read_text())
            op = deserialize_operator(doc)
            meta = doc["meta"]
            assert serialize_operator(op, meta["algebra"], complex(*meta["q"])) == doc


# The parity vectors of the factors the r = 2, n = 2 artifacts live on:
# V^2, V^3, the pair space U of V^2 and the coupled states of V^2 (x) V^3.
_FACTORS = {
    SLQ2: {"V2": [0, 0], "V3": [0, 0, 0], "U": [0, 0, 0], "C23": [0] * 6},
    OSPQ12: {"V2": [0, 1], "V3": [0, 1, 0], "U": [0, 1, 0], "C23": [0, 1, 0, 1, 1, 0]},
}
# (argv, file, algebra written or None for the run's, label, domain factors,
# codomain factors or None for the domain's); {a} is the run's algebra
_ARTIFACT_META = [
    (["build-rep", "--r", "2"], "rep_{a}_r2_E.json", None, "E[r=2]", ["V2"], None),
    (["build-rep", "--r", "2"], "rep_{a}_r2_H.json", None, "H[r=2]", ["V2"], None),
    (["cgc", "--r", "2", "3"], "cgc_{a}_2x3.json", None, "cgc[2x3]", ["C23"], ["V2", "V3"]),
    (["projectors", "--r", "2"], "projector_{a}_r2_P1.json", None, "P^1", ["V2", "V2"], None),
    (["projectors", "--r", "2"], "projector_{a}_r2_P3.json", None, "P^3", ["V2", "V2"], None),
    (["hecke", "--r", "2"], "hecke_{a}_r2_u0.3.json", None, "Rcheck[hecke]((0.3+0j))",
     ["V2", "V2"], None),
    (["fixtures", "--kind", "1"], "fixture_1.json", SLQ2, "Rcheck[r33_1]((0.3+0j))",
     ["V3", "V3"], None),
    (["fuse", "--r", "2"], "fused_{a}_r2.json", None, "Rcheck[fused]((0.3+0j))",
     ["U", "U"], None),
    (["lax", "--r", "2", "--n", "2"], "lax_{a}_r2_n2.json", None, "L[2,2]((0.3+0j))",
     ["V2", "U"], None),
    (["export", "--what", "hecke", "--r", "2"], "export_hecke_{a}_r2.json", None,
     "Rcheck[hecke]((0.3+0j))", ["V2", "V2"], None),
    (["export", "--what", "fused", "--r", "2"], "export_fused_{a}_r2.json", None,
     "Rcheck[fused]((0.3+0j))", ["U", "U"], None),
    (["export", "--what", "lax", "--r", "2", "--n", "2"], "export_lax_{a}_r2.json", None,
     "L[2,2]((0.3+0j))", ["V2", "U"], None),
    (["export", "--what", "projector", "--r", "2"], "export_projector_{a}_r2.json", None,
     "P^3", ["V2", "V2"], None),
]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_cli_artifact_meta(algebra, tmp_path):
    # the label, dims and parities of every kind of artifact, which the
    # command line alone attaches to the arrays it writes
    for argv, name, written, label, domain, codomain in _ARTIFACT_META:
        out = tmp_path / argv[0]
        assert cli_dispatch(["--algebra", algebra, "--out", str(out)] + argv) == 0
        meta = json.loads((out / name.format(a=algebra)).read_text())["meta"]
        pars = _FACTORS[SLQ2 if written == SLQ2 else algebra]
        dom = [pars[f] for f in domain]
        cod = [pars[f] for f in codomain] if codomain else dom
        assert meta == {
            "algebra": written or algebra, "q": [1.3, 0.0], "label": label,
            "domain_dims": [len(p) for p in dom], "codomain_dims": [len(p) for p in cod],
            "parities_domain": dom, "parities_codomain": cod,
        }, name


def test_math_layers_do_not_name_the_document_types():
    # operators are arrays below the command line: only toolkit defines the
    # document types, and no math module imports or names them
    import ast
    import inspect

    for module in (repspace, coupling, rmatrix, fusion, spinchain, commutant):
        tree = ast.parse(inspect.getsource(module))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"GradedOperator", "Space"}, module.__name__


def _defaults_no_call_passes(root):
    """(owner, name) of each defaulted parameter of a def and each valued
    field of a class in src/qybe that no call in src/, tests/ or perfbench/
    passes.  A call matches a definition by the name it calls, and its
    positional arguments count from after a method's `self`.  An argument
    that forwards the caller's own parameter or field of the same name
    (`x=x`, `self.x`) passes the callee's only where the caller's is
    passed, so a default threaded through required parameters is found."""
    import ast

    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    params = {}  # (owner, name) -> (positional index or None, has a default)
    for path, tree in trees.items():
        if path.parent.name != "qybe":
            continue
        for node in ast.walk(tree):  # breadth first: a class before its methods
            if isinstance(node, ast.ClassDef):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                params.update({(node.name, f.target.id): (i, f.value is not None)
                               for i, f in enumerate(fields)})
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.decorator_list:
                        f.shift = 1
            elif isinstance(node, ast.FunctionDef):
                a, shift = node.args, getattr(node, "shift", 0)
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                params.update({(node.name, p.arg): (i - shift, i >= first)
                               for i, p in enumerate(pos) if i >= shift})
                params.update({(node.name, p.arg): (None, d is not None)
                               for p, d in zip(a.kwonlyargs, a.kw_defaults)})
    passed, forwards = set(), []

    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                call(child, scopes)
            visit(child, scopes + [child] if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else scopes)

    def call(node, scopes):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        unpacked = (any(k.arg is None for k in node.keywords)
                    or any(isinstance(a, ast.Starred) for a in node.args))
        named = {k.arg: k.value for k in node.keywords}
        for (owner, name), (index, _) in params.items():
            if owner != callee:
                continue
            arg = named.get(name)
            if arg is None and index is not None and index < len(node.args):
                arg = node.args[index]
            if arg is None and not unpacked:
                continue
            source = None
            if isinstance(arg, ast.Name) and arg.id == name and scopes:
                source = (scopes[-1].name, name)
            elif (isinstance(arg, ast.Attribute) and arg.attr == name
                  and getattr(arg.value, "id", None) == "self"):
                classes = [s for s in scopes if isinstance(s, ast.ClassDef)]
                source = (classes[-1].name, name) if classes else None
            if source in params:
                forwards.append((source, (owner, name)))
            else:
                passed.add((owner, name))

    for tree in trees.values():
        visit(tree, [])
    for _ in forwards:
        passed |= {callee for caller, callee in forwards if caller in passed}
    return sorted(key for key, (_, default) in params.items()
                  if default and key not in passed)


def test_every_default_is_passed_by_some_call():
    # a default that no caller overrides is a constant: the code states the
    # constant instead of a parameter, a field or a fallback branch
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    assert _defaults_no_call_passes(root) == []


def _defs_no_command_reaches(root, kept):
    """Each def of src/qybe, as module.name or module.Class.method, that no
    command reaches.  The walk starts from the cmd_* of cli, the statements
    each module runs at import (the table of checks, `if __name__`) and the
    qualified names `kept`.  It reaches a def by its name, read as a name or
    an attribute in reached code; a method only once its class is reached,
    and a class's dunder methods with the class."""
    import ast

    defs, code = {}, []
    for path in sorted((root / "src" / "qybe").glob("*.py")):
        if path.name == "__init__.py":
            continue  # its re-exports read nothing
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update({f"{path.stem}.{node.name}.{f.name}": f for f in node.body
                                 if isinstance(f, ast.FunctionDef)})
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                code.append(node)
    reached = {name for name in defs if name.startswith("cli.cmd_")} | set(kept)
    while True:
        bodies = list(code)
        for name in reached:
            node = defs[name]
            bodies += ([s for s in node.body if not isinstance(s, ast.FunctionDef)]
                       + node.bases + node.decorator_list
                       if isinstance(node, ast.ClassDef) else [node])
        read = {getattr(n, "id", getattr(n, "attr", None)) for b in bodies for n in ast.walk(b)}
        grown = set(reached)
        for name in defs:
            owner, _, last = name.rpartition(".")
            if owner not in defs and last in read:
                grown.add(name)
            elif owner in reached and (last in read or last.startswith("__")):
                grown.add(name)
        if grown == reached:
            return sorted(set(defs) - reached)
        reached = grown


def test_every_src_name_has_a_program_reader():
    # a def that only tests read is a test oracle (tests/oracles.py) or dead;
    # these four have readers outside the walk
    import pathlib

    kept = (
        "toolkit.serialize_operator",  # perfbench/tracer.py FUNCTIONS
        "toolkit.deserialize_operator",  # perfbench/run.py::_check_operator
        "toolkit.MalformedDocumentError",  # raised to _check_operator by the reader
        "toolkit.Report.comparable_json",  # the determinism contract of report.json
    )
    root = pathlib.Path(__file__).resolve().parents[1]
    assert _defs_no_command_reaches(root, kept) == []


def _fields_src_never_reads(root):
    """Each field of a dataclass, a NamedTuple or a `__slots__` class of
    src/qybe, as Class.field, whose name src/qybe never reads as an
    attribute."""
    import ast

    fields, read = [], set()
    for path in sorted((root / "src" / "qybe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            if (any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    or any(ast.unparse(b) == "NamedTuple" for b in node.bases)):
                names += [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
            for base in node.bases:  # NamedTuple("Name", [("field", type), ...])
                if isinstance(base, ast.Call) and ast.unparse(base.func) == "NamedTuple":
                    names += [f.elts[0].value for f in base.args[1].elts]
            for s in node.body:
                if isinstance(s, ast.Assign) and ast.unparse(s.targets[0]) == "__slots__":
                    names += list(ast.literal_eval(s.value))
            fields += [f"{node.name}.{name}" for name in names]
    return sorted(f for f in fields if f.rpartition(".")[2] not in read)


def test_every_src_field_has_a_program_reader():
    # a field the program never reads is dead state; these have readers
    # outside the scan
    import pathlib

    kept = [
        "CommutantBasis.rank_gap",  # a numerical-health value the report is to carry
        "SystemEntries.col",  # SystemEntries is read by unpacking
        "SystemEntries.row",
        "SystemEntries.val",
    ]
    root = pathlib.Path(__file__).resolve().parents[1]
    assert _fields_src_never_reads(root) == kept


def _src_trees():
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "qybe"
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def test_only_qarith_reads_the_desk_bound():
    # the desk-size rule has one owner: every other module asks
    # qarith.fits_desk or qarith.desk_dim
    import ast

    readers = set()
    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "DESK_BOUND" in names:
                readers.add(module)
    assert readers == {"qarith"}


def test_no_src_branch_on_the_family_name():
    # what a family is (its poles, its regular point) is held on the
    # family, not found by comparing its name
    import ast

    def names_family(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "family" for n in ast.walk(node))

    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            tests = ([node.test] if isinstance(node, (ast.If, ast.IfExp, ast.While))
                     else [node] if isinstance(node, ast.Compare)
                     else [node.subject] if isinstance(node, ast.Match) else [])
            assert not any(names_family(t) for t in tests), (module, ast.unparse(node)[:80])


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_verify_all_builds_the_pair_cells_once_per_pair_space(algebra, monkeypatch):
    built = []
    real = fusion.pair_cells
    monkeypatch.setattr(fusion, "pair_cells", lambda U: built.append((U.rep.dim, U.n)) or real(U))
    cfg = RunConfig(algebra=algebra, r_list=(2, 3))
    ctx = Context(cfg)
    verify_all(cfg, ctx)
    assert ctx.report.all_passed
    assert built == [(2, 2), (3, 2)]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_verify_all_builds_one_fused_family_per_pair_space(algebra, monkeypatch):
    # the closed fused form and the chain checks read the one family that
    # each pair space keeps
    built = []
    real = fusion.descendant_family
    monkeypatch.setattr(fusion, "descendant_family",
                        lambda U: built.append((U.rep.dim, U.n)) or real(U))
    cfg = RunConfig(algebra=algebra, r_list=(2, 3))
    ctx = Context(cfg)
    verify_all(cfg, ctx)
    assert ctx.report.all_passed
    assert built == [(2, 2), (3, 2)]


def test_one_lax_size_rule(tmp_path):
    # the extended Lax at (r, n) acts on (V^r)^(x(n+1)), the chain and the
    # commutant on a power of the pair space, the fused family on U (x) U of
    # (r^2-1)^2 states: each command refuses every
    # request beyond the desk bound before it writes anything, and the
    # battery plans the RLL check exactly where the rule allows it
    assert qarith.fits_desk(8, 4) and qarith.fits_desk(2, 12)
    assert not qarith.fits_desk(8, 5) and not qarith.fits_desk(3, 9)
    for k, (argv, error) in enumerate([
        (["lax", "--r", "2", "8", "--n", "2", "4"], "extended Lax 8^5 exceeds the desk bound 4096"),
        (["chain", "--r", "3", "--sites", "5"], "chain 8^5 exceeds the desk bound 4096"),
        (["commutant", "--r", "2", "--n", "8"], "commutant space 3^8 exceeds the desk bound 4096"),
        (["fuse", "--r", "2", "9"], "fused pair 80^2 exceeds the desk bound 4096"),
        (["export", "--what", "fused", "--r", "9"], "fused pair 80^2 exceeds the desk bound 4096"),
    ]):
        out = tmp_path / str(k)
        assert cli_dispatch(["--out", str(out)] + argv) == 1
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        assert json.loads((out / "report.json").read_text())["checks"][0]["error"] == error
    cfg = RunConfig(r_list=(2, 3), n_list=(2, 6, 11))
    planned = [(i["r"], i["n"]) for name, i in toolkit.battery(cfg) if name == "lax-rll"]
    assert planned == [(2, 2), (2, 6), (2, 11), (3, 2), (3, 6)]


def _readme_section(title):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    # every example of the README's command-line block is a valid command,
    # and every subcommand has a row in its table
    section = _readme_section("Command line")
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qybe ")]
    assert len(lines) >= 10
    for line in lines:
        cli._parser().parse_args(shlex.split(line, comments=True)[1:])
    rows = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    commands = next(a for a in cli._parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) <= rows


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique without return flags imports numpy.ma (13-20 ms a process
    # under numpy 2.4); the sector grouping and the component solver do not
    import qybe

    script = """
import sys
from qybe.cli import cli_dispatch
from qybe.repspace import Site, embed_at
for argv in (["verify-all", "--r", "2"], ["commutant", "--r", "2"],
             ["chain", "--r", "2", "--sites", "2"]):
    assert cli_dispatch(["--out", sys.argv[1]] + argv) == 0
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qybe.__file__)))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
