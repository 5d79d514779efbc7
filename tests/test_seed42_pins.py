"""The outputs of ten `qybe` commands at seed 42, pinned bit for bit: every
check's name, pass flag and residual, and the sha256 of every artifact the
command writes next to its report.  The commands are the benchmark's
(`battery` and `chain_composite` in perfbench/run.py).  A refactor that is
meant to change no number must leave all of them as they are.

Regenerate the pins (one BLAS thread, as the suite runs) with

    PYTHONPATH=src python tests/test_seed42_pins.py
"""

import hashlib
import json
import os
import re
import sys
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import pytest

from qybe.cli import cli_dispatch

PINS = Path(__file__).with_name("seed42_pins.json")
OSP = ["--algebra", "ospq12"]
COMMANDS = [
    ["verify-all", "--r", "2", "3", "4", "5", "--n", "2", "3"],
    OSP + ["verify-all", "--r", "2", "3", "4", "5", "--n", "2", "3"],
    OSP + ["commutant", "--r", "2", "3"],
    ["chain", "--r", "2", "3", "--sites", "3"],
    OSP + ["chain", "--r", "2", "3", "--sites", "2"],
    OSP + ["chain", "--r", "2", "--sites", "3"],
] + [
    alg + ["lax", "--r", r, "--n", n]
    for alg in ([], OSP) for r, n in (("4", "3"), ("3", "4"))
]


def outputs(argv, outdir):
    """The exit code, (name, passed, residual) of each check and the sha256
    of each other file of `argv` run at seed 42 into `outdir`."""
    rc = cli_dispatch(["--seed", "42", "--out", str(outdir)] + argv)
    report = json.loads((outdir / "report.json").read_text())
    return {
        "rc": rc,
        "checks": [[c["name"], c["passed"], c["residual"]] for c in report["checks"]],
        "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(outdir.iterdir()) if p.name != "report.json"},
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_seed42_outputs_are_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("QYBE_OUT", raising=False)
    pins = json.loads(PINS.read_text())
    assert outputs(argv, tmp_path) == pins[" ".join(argv)]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("QYBE_OUT", None)
    pins = {}
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            pins[" ".join(argv)] = outputs(argv, Path(tmp))
    # one check to a line: [name, passed, residual]
    text = re.sub(r'\[\n\s+("[^"\n]*"),\n\s+(\w+),\n\s+(\S+)\n\s+\]', r"[\1, \2, \3]",
                  json.dumps(pins, indent=1))
    PINS.write_text(text + "\n")
    sys.exit(0)
