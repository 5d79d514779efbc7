"""The outputs of ten `qybe` commands at seed 42, pinned bit for bit: every
check's name, pass flag and residual, and the sha256 of every artifact the
command writes next to its report.  The commands are the benchmark's
(`battery` and `chain_composite` in perfbench/run.py).  A refactor that is
meant to change no number must leave all of them as they are.

Regenerate the pins (one BLAS thread, as the suite runs) with

    PYTHONPATH=src python tests/test_seed42_pins.py

which first prints every exit code, pass flag, residual and artifact digest
that moved, old -> new, one to a line (`moved`).
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


def moved(old, new):
    """One line per pinned value that differs between the pin sets `old`
    and `new`, "command: what old -> new", commands in the order of `new`
    and then of `old`: the exit code, each check's pass flag and residual
    (checks matched by name) and each artifact's digest.  A command, check
    or artifact on one side only reads None on the other."""
    lines = []
    for cmd in list(new) + [c for c in old if c not in new]:
        a, b = old.get(cmd, {}), new.get(cmd, {})
        pairs = [("rc", a.get("rc"), b.get("rc"))]
        ca = {name: (passed, res) for name, passed, res in a.get("checks", [])}
        cb = {name: (passed, res) for name, passed, res in b.get("checks", [])}
        for name in list(cb) + [n for n in ca if n not in cb]:
            (pa, ra), (pb, rb) = ca.get(name, (None, None)), cb.get(name, (None, None))
            pairs += [(f"{name} passed", pa, pb), (f"{name} residual", ra, rb)]
        fa, fb = a.get("artifacts", {}), b.get("artifacts", {})
        for name in list(fb) + [n for n in fa if n not in fb]:
            pairs.append((f"{name} sha256", fa.get(name), fb.get(name)))
        lines += [f"{cmd}: {what} {x!r} -> {y!r}" for what, x, y in pairs if x != y]
    return lines


def test_moved_lists_each_changed_value_old_to_new():
    old = {"a": {"rc": 0, "checks": [["x r=2", True, 1e-16], ["y", True, 2e-16]],
                 "artifacts": {"f.csv": "aa", "g.json": "cc"}},
           "gone": {"rc": 0, "checks": [], "artifacts": {}}}
    new = {"a": {"rc": 1, "checks": [["y", True, 2e-16], ["x r=2", False, 3e-16], ["z", True, 0.0]],
                 "artifacts": {"f.csv": "bb", "g.json": "cc"}}}
    assert moved(old, new) == [
        "a: rc 0 -> 1",
        "a: x r=2 passed True -> False",
        "a: x r=2 residual 1e-16 -> 3e-16",
        "a: z passed None -> True",
        "a: z residual None -> 0.0",
        "a: f.csv sha256 'aa' -> 'bb'",
        "gone: rc 0 -> None",
    ]
    assert moved(new, new) == []


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_seed42_outputs_are_pinned(argv, tmp_path):
    pins = json.loads(PINS.read_text())
    assert outputs(argv, tmp_path) == pins[" ".join(argv)]


if __name__ == "__main__":
    import tempfile

    pins = {}
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            pins[" ".join(argv)] = outputs(argv, Path(tmp))
    lines = moved(json.loads(PINS.read_text()) if PINS.exists() else {}, pins)
    print("\n".join(lines) if lines else "no pinned value moved")
    # one check to a line: [name, passed, residual]
    text = re.sub(r'\[\n\s+("[^"\n]*"),\n\s+(\w+),\n\s+(\S+)\n\s+\]', r"[\1, \2, \3]",
                  json.dumps(pins, indent=1))
    PINS.write_text(text + "\n")
    sys.exit(0)
