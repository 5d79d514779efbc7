"""qybe benchmark: fixed lists of `qybe` CLI commands, each repetition in a
fresh single-threaded interpreter.

    python3 perfbench/run.py --workload battery --seed 42 --seconds 60 --trace 0

Run from the root of a qybe source tree; the program is imported from its
`src/`.  The benchmark seed reaches the program only as `--seed`.

--trace 0 reports the end-to-end metrics (median over repetitions).
--trace 1 alternates untraced and traced repetitions and reports per-layer
metrics from the traced ones, after a self-check run in which the tracer's
call counts must equal cProfile's.

Outputs (reports, operator JSON, spectrum CSV) are checked after each
repetition, outside the timed region.  The last stdout line is the result
object; the line before it carries the environment, per-command digests and
sample spreads, which are also written under perfbench-out/ (with the spans
of the last traced repetition).
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from typing import NamedTuple

from child import EXIT_UNPINNED, PINNED, monotonic

for _var in PINNED:  # before anything imports numpy, here or in a child
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = "perfbench-out"

MIN_REPS = 3
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 150.0  # a hung child is killed well inside the 180 s limit


class Command(NamedTuple):
    """One qybe command line with what its outputs must contain.

    `checks` is the number of checks its report held at the baseline; a
    command that raises or writes no report counts that many as failed.
    `artifacts` are the files it must write next to report.json."""

    argv: list
    checks: int
    artifacts: tuple = ()


OSP = ["--algebra", "ospq12"]

WORKLOADS = {
    # The "is everything green" run: rebuilds irreps, CGC tables and families
    # hundreds of times at small sizes; three dense centralizer SVDs dominate.
    "battery": [
        Command(["verify-all", "--r", "2", "3", "4", "5", "--n", "2", "3"], 34),
        Command(OSP + ["verify-all", "--r", "2", "3", "4", "5", "--n", "2", "3"], 36),
        Command(OSP + ["commutant", "--r", "2", "3"], 4),
    ],
    # Transfer matrices on the ungraded tensordot path and the graded dense
    # embedding path, both Hamiltonian routes and 512-dim dense spectra; then
    # composite spaces at n = 3 and 4, extended Lax operators, RLL checks at
    # 495-896 dims and JSON serialization of the Lax operators.  The two share
    # one workload so that each run can measure 60 s: the machine's speed
    # wanders by about 10% over seconds, and only longer runs average it out.
    # `--algebra ospq12 chain --r 3 --sites 3` is left out: its graded
    # transfer matrix takes ~88 s per call (one thread of a 2-vCPU Xeon) and
    # the command makes nine calls.
    "chain_composite": [
        Command(["chain", "--r", "2", "3", "--sites", "3"], 4,
                ("spectrum_slq2_r2_N3.csv", "spectrum_slq2_r3_N3.csv")),
        Command(OSP + ["chain", "--r", "2", "3", "--sites", "2"], 4,
                ("spectrum_ospq12_r2_N2.csv", "spectrum_ospq12_r3_N2.csv")),
        Command(OSP + ["chain", "--r", "2", "--sites", "3"], 2,
                ("spectrum_ospq12_r2_N3.csv",)),
    ] + [
        Command(alg + ["lax", "--r", r, "--n", n], 2, (f"lax_{name}_r{r}_n{n}.json",))
        for alg, name in (([], "slq2"), (OSP, "ospq12"))
        for r, n in (("4", "3"), ("3", "4"))
    ],
}

# Checks that fail at the baseline because of the known log-derivative vs
# projector-form orientation defect (residuals ~0.93 and ~0.083).  They stay
# in the workload and count in checks_failed; any other failing check makes
# the run incorrect.
KNOWN_FAILURES = {
    ("slq2", "log-derivative matches projector form r=3 N=3"),
    ("ospq12", "log-derivative matches projector form r=2 N=3"),
}

# qybe.toolkit.spectrum_csv formats eigenvalues with `!r`, which under numpy 2
# writes "np.float64(0.0)" instead of a number.  Such a file counts as a
# failed check; the values inside are still checked, and any other defect
# makes the run incorrect.
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
NUMPY_REPR_DEFECT = "values written as np.float64(...) reprs, not numbers"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------- children


def _child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("QYBE_OUT", "PYTHONPATH")}
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(mode, workdir, src, commands=()):
    """Run child.py once; returns its result dict plus launch-relative times
    and the child's peak RSS."""
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": src, "mode": mode, "commands": commands,
                   "result": result_path}, fh)
    with open(os.path.join(workdir, "child.log"), "w") as log:
        launched = monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=workdir,
                                env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(workdir, "child.log")) as fh:
            tail = fh.read()[-2000:]
        if proc.returncode == EXIT_UNPINNED:
            raise BenchError(f"child refused to run unpinned:\n{tail}")
        raise BenchError(f"child ({mode}) exited with {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["imported"] - launched
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    if "start" in result:
        result["wall_s"] = result["end"] - result["start"]
    return result


# ----------------------------------------------------------------- outputs


def _report_digest(doc):
    body = {k: v for k, v in doc.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _check_operator(path):
    import numpy as np
    from qybe.toolkit import deserialize_operator

    with open(path) as fh:
        doc = json.load(fh)
    op = deserialize_operator(doc)
    rows, cols = int(doc["rows"]), int(doc["cols"])
    if op.matrix.shape != (rows, cols):
        return f"shape {op.matrix.shape} != recorded ({rows}, {cols})"
    if rows != math.prod(op.codomain.dims) or cols != math.prod(op.domain.dims):
        return f"({rows}, {cols}) does not match spaces {op.codomain.dims} -> {op.domain.dims}"
    if not np.isfinite(op.matrix).all():
        return "non-finite entries"
    return None


def _check_spectrum(path):
    # spectrum_<algebra>_r<r>_N<N>.csv: the chain's sites are the (r^2-1)-dim
    # composite pair states, so it has (r^2-1)^N eigenvalues.
    stem = os.path.basename(path)[:-len(".csv")].split("_")
    r, n_sites = int(stem[2][1:]), int(stem[3][1:])
    want = (r * r - 1) ** n_sites
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["index,real,imag"] or "cluster,level_real,level_imag,degeneracy" not in lines:
        return "missing header"
    split = lines.index("cluster,level_real,level_imag,degeneracy")
    rows = [line.split(",") for line in lines[1:split]]
    if len(rows) != want:
        return f"{len(rows)} eigenvalue rows, expected {want}"
    if [int(row[0]) for row in rows] != list(range(want)):
        return "eigenvalue index column out of order"
    reprs = [NUMPY_REPR.fullmatch(x) for row in rows for x in row[1:]]
    values = [float(m.group(1)) if m else float(x)
              for m, x in zip(reprs, (x for row in rows for x in row[1:]))]
    if not all(math.isfinite(v) for v in values):
        return "non-finite eigenvalue"
    if sum(int(line.split(",")[3]) for line in lines[split + 1:]) != want:
        return "degeneracies do not sum to the eigenvalue count"
    if any(reprs):
        return NUMPY_REPR_DEFECT
    return None


def _check_artifact(path, verified):
    """None if the file is well formed, else the problem.  Files already
    verified (same bytes) are not parsed again."""
    if not os.path.isfile(path):
        return "missing"
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest not in verified:
        try:
            if path.endswith(".csv"):
                verified[digest] = _check_spectrum(path)
            else:
                verified[digest] = _check_operator(path)
        except Exception as exc:  # any parse or schema error: a malformed artifact
            verified[digest] = f"{type(exc).__name__}: {exc}"
    return verified[digest]


def check_outputs(workdir, commands, outcomes, verified):
    """Checks, failures and digests of one repetition's outputs."""
    total = passed = failed_ops = 0
    problems, unknown_failures, known_defects, digests = [], [], [], []
    for k, (cmd, outcome) in enumerate(zip(commands, outcomes)):
        outdir = os.path.join(workdir, f"cmd{k}")
        op_failed = outcome["error"] is not None
        if op_failed:
            problems.append(f"cmd{k} raised {outcome['error']}")
        try:
            with open(os.path.join(outdir, "report.json")) as fh:
                doc = json.load(fh)
            checks = doc["checks"]
            algebra = doc["config"]["algebra"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"cmd{k} report.json: {type(exc).__name__}: {exc}")
            op_failed = True
            total += cmd.checks
            digests.append(None)
        else:
            digests.append(_report_digest(doc))
            total += len(checks)
            for check in checks:
                if check.get("passed") is True:
                    passed += 1
                elif (algebra, check.get("name")) not in KNOWN_FAILURES:
                    unknown_failures.append(f"cmd{k} {algebra}: {check.get('name')}")
        present = set(os.listdir(outdir)) - {"report.json"} if os.path.isdir(outdir) else set()
        for name in sorted(set(cmd.artifacts) | present):
            total += 1
            problem = _check_artifact(os.path.join(outdir, name), verified)
            if problem is None:
                passed += 1
            elif problem == NUMPY_REPR_DEFECT:
                known_defects.append(f"cmd{k} {name}: {problem}")
            else:
                problems.append(f"cmd{k} {name}: {problem}")
                op_failed = True
        failed_ops += op_failed
    return {"checks_total": total, "checks_passed": passed,
            "checks_failed": total - passed, "failed_ops": failed_ops,
            "problems": problems, "unknown_failures": unknown_failures,
            "known_defects": known_defects, "digests": digests}


# --------------------------------------------------------------- measuring


class Run:
    """Repetitions of one workload in one benchmark run."""

    def __init__(self, root, workload, seed, seconds):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.argvs = [["--seed", str(seed), "--out", f"cmd{k}"] + cmd.argv
                      for k, cmd in enumerate(self.commands)]
        self.seconds = seconds
        self.begin = monotonic()
        self.work = os.path.join(root, OUT_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
        self.launches = 0
        self.verified = {}
        self.reps = {}  # mode -> list of repetition records
        self.setup_samples = []

    def _workdir(self):
        self.launches += 1
        return os.path.join(self.work, f"launch{self.launches}")

    def environment(self):
        return launch("env", self._workdir(), self.src)["env"]

    def setup(self, count):
        for _ in range(count):
            self.setup_samples.append(launch("setup", self._workdir(), self.src)["setup_s"])

    def rep(self, mode):
        workdir = self._workdir()
        result = launch(mode, workdir, self.src, self.argvs)
        result.update(check_outputs(workdir, self.commands, result["commands"], self.verified))
        shutil.rmtree(workdir)
        self.setup_samples.append(result["setup_s"])
        self.reps.setdefault(mode, []).append(result)
        return result

    def repeat(self, modes, min_cycles):
        """Cycle through `modes` until the run's time budget is spent, with at
        least `min_cycles` cycles; a cycle starts only if it is expected to
        fit."""
        cycle_s = []
        while True:
            t0 = monotonic()
            for mode in modes:
                self.rep(mode)
            cycle_s.append(monotonic() - t0)
            elapsed = monotonic() - self.begin
            if len(cycle_s) >= min_cycles and elapsed + statistics.median(cycle_s) > self.seconds:
                return


def _spread(values):
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def _source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _host(root):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "commit": commit,
            "src_sha256": _source_digest(os.path.join(root, "src"))}


def _layer_metrics(traced):
    """Median over traced repetitions of every per-layer metric."""
    from tracer import layer_metrics

    per_rep = [layer_metrics(rep["functions"]) for rep in traced]
    return {name: ((statistics.median_low if unit == "count" else statistics.median)(
                m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qybe", "__init__.py")):
        print(f"no qybe sources under {root}/src: run from the root of a qybe tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        env = run.environment()  # also the warm-up launch: byte-compiles qybe
        if args.trace:
            selfcheck = run.rep("selfcheck")
            run.repeat(("run", "trace"), 1)
        else:
            run.setup(SETUP_LAUNCHES)
            run.repeat(("run",), MIN_REPS)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    reps = [rep for group in run.reps.values() for rep in group]
    untraced = run.reps["run"]
    problems = sorted({p for rep in reps for p in rep["problems"]})
    unknown = sorted({u for rep in reps for u in rep["unknown_failures"]})
    digest_sets = [sorted({str(rep["digests"][k]) for rep in reps})
                   for k in range(len(run.commands))]
    nondeterministic = [k for k, ds in enumerate(digest_sets) if len(ds) > 1]
    mismatches = selfcheck["profile_mismatches"] if args.trace else {}
    correct = not (problems or unknown or nondeterministic or mismatches)

    walls = [rep["wall_s"] for rep in untraced]
    if args.trace:
        traced = run.reps["trace"]
        metrics = _layer_metrics(traced)
        # each traced repetition runs right after an untraced one; pairing
        # them keeps slow drift of the machine out of the difference
        metrics["trace_overhead_s"] = (statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(run.setup_samples), "s"),
            "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in untraced), "MB"),
            "checks_total": (statistics.median_low(rep["checks_total"] for rep in untraced), "count"),
            "checks_passed": (statistics.median_low(rep["checks_passed"] for rep in untraced), "count"),
        }

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "host": _host(root),
        "commands": [" ".join(a) for a in run.argvs],
        "report_sha256": [ds[0] if len(ds) == 1 else ds for ds in digest_sets],
        "checks_failed": {"value": statistics.median_low(rep["checks_failed"] for rep in untraced),
                          "unit": "count"},
        "known_failures": sorted(f"{alg}: {name}" for alg, name in KNOWN_FAILURES),
        "known_artifact_defects": sorted({d for rep in reps for d in rep["known_defects"]}),
        "problems": problems, "unexpected_check_failures": unknown,
        "nondeterministic_commands": nondeterministic,
        "wall_s": _spread(walls), "setup_s": _spread(run.setup_samples),
        "command_s": [_spread([rep["commands"][k]["seconds"] for rep in untraced])
                      for k in range(len(run.commands))],
    }
    if args.trace:
        info["tracer_selfcheck"] = {"mismatches": mismatches,
                                    "functions": len(selfcheck["functions"]),
                                    "spans": len(selfcheck["spans"])}
        info["traced_wall_s"] = _spread([rep["wall_s"] for rep in run.reps["trace"]])
        info["unkeyed_calls"] = max(rep["unkeyed"] for rep in run.reps["trace"])
    attempted = len(reps) * len(run.commands)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(rep["failed_ops"] for rep in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    record = os.path.join(root, OUT_DIR,
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
    if args.trace:
        # spans of the last traced repetition: [name, start, end, parent index]
        with open(record[:-len(".json")] + "-spans.json", "w") as fh:
            json.dump(run.reps["trace"][-1]["spans"], fh)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
