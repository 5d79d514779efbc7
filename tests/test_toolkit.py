import json
import os

import numpy as np
import pytest

from qybe import (
    SLQ2,
    deserialize_operator,
    serialize_operator,
    ybe_residual,
)
from qybe.repspace import GradedOperator, Space
from qybe.toolkit import MalformedDocumentError, Report, RunConfig, verify_all
from qybe.cli import cli_dispatch
from conftest import params_for


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


def test_fixture_roundtrip_preserves_ybe(rng):
    from qybe import r33_family

    p = params_for(SLQ2)
    fam = r33_family(1, params=p)
    u, w = 0.41 + 0.04j, -0.37 + 0.08j
    ops = {}
    for x in (u, u + w, w):
        doc = json.loads(json.dumps(serialize_operator(fam.check(x), SLQ2, p.q)))
        ops[x] = deserialize_operator(doc).matrix
    I3 = np.eye(3)
    lhs = np.kron(ops[u], I3) @ np.kron(I3, ops[u + w]) @ np.kron(ops[w], I3)
    rhs = np.kron(I3, ops[w]) @ np.kron(ops[u + w], I3) @ np.kron(I3, ops[u])
    direct = ybe_residual(fam, fam, fam, u, w, form="check")
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
    ["chain", "--r", "2", "--sites", "0"],
    ["chain", "--r", "2", "--sites", "1"],
    ["chain", "--r", "3", "--sites", "5"],
    ["chain", "--r", "2", "3", "--sites", "5"],
    ["lax", "--r", "2", "--n", "0"],
    ["lax", "--r", "5", "--n", "5"],
    ["commutant", "--r", "2", "--n", "0"],
])
def test_cli_bad_input_exits_1(argv, tmp_path, capsys):
    assert cli_dispatch(["--out", str(tmp_path)] + argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert report["checks"][0]["error"]


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
