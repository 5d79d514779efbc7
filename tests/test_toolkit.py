import argparse
import io
import json
import os
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
from qybe import cli, commutant, coupling, fusion, repspace, rmatrix, spinchain, toolkit
from qybe.cli import cli_dispatch
from conftest import params_for, pair_table


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
    direct = ybe_residual(fam, u, w, form="check")
    reloaded = np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max())
    assert abs(direct - reloaded) < 1e-12


def test_runconfig_roundtrip():
    cfg = RunConfig(algebra=SLQ2, q=1.25, r_list=(2, 4), seed=7)
    back = RunConfig.from_json(cfg.to_json())
    assert back.algebra == cfg.algebra
    assert back.q == cfg.q
    assert back.r_list == cfg.r_list


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
    # tau and the log-derivative Hamiltonian of a chain share its sectors
    # (the 3); the projector-form Hamiltonian first checks its bond over the
    # sectors of the bond's two sites (the 2), and `local_product` takes its
    # blocks' sectors from the chain's sites
    calls = []
    product_sectors = spinchain.product_sectors

    def counting(*weights):
        calls.append(len(weights))
        return product_sectors(*weights)

    monkeypatch.setattr(spinchain, "product_sectors", counting)
    assert cli_dispatch(["--out", str(tmp_path), "chain", "--r", "2", "3", "--sites", "3"]) == 0
    assert calls == [2, 3, 2, 3]


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


@pytest.mark.parametrize("command, lists", [
    (["cgc"], {"r_list": [2, 3, 4]}),
    (["export", "--what", "hecke"], {"r_list": [2, 3]}),
    (["export", "--what", "lax"], {"r_list": [2], "n_list": [3, 4]}),
])
def test_cli_refuses_extra_values_from_the_config_file(command, lists, tmp_path, capsys):
    # the config file's list is read like the flag's: more values than the
    # command reads are refused, not cut to the first ones
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps(lists))
    assert cli_dispatch(["--config", str(config), "--out", str(out)] + command) == 1
    assert capsys.readouterr().err.startswith("error: ")
    report = json.loads((out / "report.json").read_text())
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "reads at most" in report["checks"][0]["error"]
    assert [p.name for p in out.iterdir()] == ["report.json"]
    # one value from the file, or none at all, is read as before
    config.write_text(json.dumps({k: v[:1] for k, v in lists.items()}))
    assert cli_dispatch(["--config", str(config), "--out", str(out)] + command) == 0
    config.write_text(json.dumps({}))
    assert cli_dispatch(["--config", str(config), "--out", str(out), "export"]) == 0


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


@pytest.mark.parametrize("text", [
    None,  # no such file
    '{"q": [1.3, 0.0]',
    '{"tolerances": {"ybe": "abc"}}',
    '{"q": 5}',
    '{"r_list": "2"}',
    '[2, 3]',
])
def test_cli_malformed_config_exits_1(text, tmp_path, capsys):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    out = tmp_path / "out"
    argv = ["--out", str(out), "--config", str(config), "verify-all", "--r", "2"]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    report = json.loads((out / "report.json").read_text())
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert report["checks"][0]["error"]
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_cli_flags_override_config(tmp_path, monkeypatch):
    # a flag given on the command line overrides the file's field, and the
    # file's value stands for each flag left out
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text('{"r_list": [2], "q": [1.5, 0.0]}')
    out = tmp_path / "X"
    argv = ["--out", str(out), "--algebra", "ospq12", "--config", str(config), "hecke"]
    assert cli_dispatch(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X", "c.json"]
    report = json.loads((out / "report.json").read_text())
    assert (report["config"]["algebra"], report["config"]["r_list"]) == ("ospq12", [2])
    assert (report["config"]["q"], report["config"]["outdir"]) == ([1.5, 0.0], str(out))
    assert [c["name"] for c in report["checks"]] == ["hecke-ybe r=2"]
    assert (out / "hecke_ospq12_r2_u0.3.json").exists()


def test_keyless_checks_ignore_config_tolerances():
    # dimension counts and the chain checks have fixed tolerances that no
    # config can loosen
    keyless = sorted(name for name, (key, _, _) in CHECKS.items() if key is None)
    assert keyless == ["commutant-dims", "hamiltonian-routes", "lax-dims",
                       "transfer-commutation"]
    ctx = Context(RunConfig(tolerances={"dims": 1e9, "lax": 1e-3}))
    ctx.check("lax-dims", r=2, n=2)
    ctx.check("lax-rll", r=2, n=2)
    assert [c["tolerance"] for c in ctx.report.checks] == [0.5, 1e-3]


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_lax_rll_refuses_a_factor_that_mixes_weights(algebra, monkeypatch):
    # an entry of 1e-6 between two weight sectors of L: the check compares
    # sector blocks only, so it must fail on the check_sectors error rather
    # than pass without seeing the entry
    build = fusion.extended_lax

    def planted(U, u=0.0):
        L = build(U, u)
        w = coupling.product_weights(U.rep.site.weights, U.site.weights)
        L[np.argmax(w), np.argmin(w)] += 1e-6
        return L

    monkeypatch.setattr(fusion, "extended_lax", planted)
    ctx = Context(RunConfig(algebra=algebra))
    assert not ctx.check("lax-rll", r=2, n=2)
    assert "outside the weight sectors" in ctx.report.checks[-1]["error"]


def test_blockwise_residual_equals_rel_residual_of_the_entries(rng):
    # the same maxima as rel_residual on the concatenated entries, also
    # below and above scale 1, and a NaN entry is not lost
    for size in (1e-3, 1.0, 1e3):
        A = [size * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) for k in (1, 4, 2)]
        B = [a + 1e-9 * rng.normal(size=a.shape) for a in A]
        flat = [np.concatenate([x.ravel() for x in side]) for side in (A, B)]
        assert rmatrix.blockwise_residual(zip(A, B)) == rmatrix.rel_residual(*flat)
    B[1][0, 0] = np.nan
    assert np.isnan(rmatrix.blockwise_residual(zip(A, B)))


def test_blockwise_residual_of_stacks_is_the_largest_per_stacked_pair(rng):
    # each stacked pair is reduced against its own scale, not the stack's
    A = [np.stack([s * rng.normal(size=(k, k)) for s in (1e-3, 1.0, 1e3)]) for k in (3, 1, 2)]
    B = [a + 1e-9 * rng.normal(size=a.shape) for a in A]
    per_pair = [rmatrix.blockwise_residual((a[p], b[p]) for a, b in zip(A, B)) for p in range(3)]
    assert rmatrix.blockwise_residual(zip(A, B)) == max(per_pair)


def _random_points_by_loop(rng, count, guards, min_dist):
    # one candidate at a time, as (Re, Im) draws: the oracle of the draws
    out = []
    while len(out) < count:
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2))
        if all(abs(u - g) > min_dist for g in guards):
            out.append(u)
    return out


@pytest.mark.parametrize("count, guards, min_dist", [
    (5, (), 0.05),
    (400, (-0.3 + 0.1j,), 0.05),
    (7, (0.0, 0.4, -0.4), 0.3),   # rejects about two candidates in five
    (3, (0.2j,), 0.9),            # rejects most candidates, over several rounds
    (0, (0.0,), 0.05),
])
def test_random_points_draws_as_one_candidate_at_a_time(count, guards, min_dist):
    # the same points, and the generator left in the same state, so every
    # later draw of a report is unchanged
    for seed in range(20):
        loop, rounds = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _random_points_by_loop(loop, count, guards, min_dist)
        got = toolkit.random_points(rounds, count, guards=guards, min_dist=min_dist)
        assert got == want and all(type(u) is complex for u in got)
        assert rounds.bit_generator.state == loop.bit_generator.state


def test_lax_rll_peak_memory():
    # the sector blocks of the two sides are made and compared one pair at a
    # time: beyond the two Lax operators the check holds less than two
    # sides' worth of blocks (whole sides and their concatenated copies
    # take more than four)
    r, n = 5, 3
    ctx = Context(RunConfig())
    U = ctx.composite(r, n)
    U.lax_sectors
    site = U.rep.site.weights
    sectors = coupling.product_sectors(site, site, U.site.weights)
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
        "build_irrep": lambda rep: rep.r,
        "cgc_table": lambda table: (table.rep1.r, table.rep2.r),
        "hecke_family": lambda fam: fam.dim,
        "composite_space": lambda U: (U.rep.r, U.n),
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


def test_cli_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QYBE_OUT", str(tmp_path / "envdir"))
    code = cli_dispatch(["--algebra", "slq2", "hecke", "--r", "2", "--u", "0"])
    assert code == 0
    assert (tmp_path / "envdir" / "report.json").exists()


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
    w = np.round(2 * coupling.product_weights(U.rep.site.weights, U.site.weights))
    off = np.flatnonzero(np.not_equal.outer(w, w))
    assert len(entries) == w.size ** 2 and len(off) > 0.8 * len(entries)
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


@pytest.mark.parametrize("algebra", [SLQ2, OSPQ12])
def test_verify_all_builds_the_pair_cells_once_per_pair_space(algebra, monkeypatch):
    built = []
    real = fusion.pair_cells
    monkeypatch.setattr(fusion, "pair_cells", lambda U: built.append((U.rep.r, U.n)) or real(U))
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
                        lambda U: built.append((U.rep.r, U.n)) or real(U))
    cfg = RunConfig(algebra=algebra, r_list=(2, 3))
    ctx = Context(cfg)
    verify_all(cfg, ctx)
    assert ctx.report.all_passed
    assert built == [(2, 2), (3, 2)]


def test_one_lax_size_rule(tmp_path):
    # the extended Lax at (r, n) acts on (V^r)^(x(n+1)): the command refuses
    # every pair beyond the desk bound before it writes anything, and the
    # battery plans the RLL check exactly where the rule allows it
    assert fusion.lax_fits(8, 3) and fusion.lax_fits(2, 11)
    assert not fusion.lax_fits(8, 4) and not fusion.lax_fits(3, 8)
    assert cli_dispatch(["--out", str(tmp_path), "lax", "--r", "2", "8", "--n", "2", "4"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    error = json.loads((tmp_path / "report.json").read_text())["checks"][0]["error"]
    assert error == ("extended Lax at (r, n) = [(8, 4)] exceeds the desk bound "
                     "of 4096 dimensions")
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
