"""One benchmark repetition in a fresh interpreter.

    python3 child.py <spec.json>

The spec names the checkout's src directory, the mode and the qybe command
lines to dispatch one after another (each with its own --out directory under
the working directory).  The child refuses to run unless BLAS/OpenMP threads
are pinned to 1, and writes its timings to the spec's result path.

Modes: "env" imports qybe and records the numeric environment; "setup" only
imports qybe; "run" dispatches the commands; "trace" does the same with every
qybe function traced; "selfcheck" also runs cProfile and compares its call
counts with the tracer's.
"""

import json
import os
import sys
import time

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_UNPINNED = 3


def monotonic():
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # launch time from this.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _numeric_env(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ.get(var) for var in PINNED},
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": sys.version.split()[0],
    }


def _dispatch(cli, commands):
    """Run each command line; a raise is recorded and the next one runs.

    `cli.cli_dispatch` is looked up per call, so an installed tracer's
    wrapper is the one called."""
    outcomes = []
    for argv in commands:
        t0 = monotonic()
        try:
            rc = cli.cli_dispatch(list(argv))
            error = None
        except Exception as exc:  # a CLI user would see a traceback here
            rc, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append({"rc": rc, "error": error, "seconds": monotonic() - t0})
    return outcomes


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    bad = {var: os.environ.get(var) for var in PINNED if os.environ.get(var) != "1"}
    if bad:
        print(f"refusing to run: threads not pinned to 1: {bad}", file=sys.stderr)
        return EXIT_UNPINNED
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy as np
    import qybe
    import qybe.cli

    imported = monotonic()
    if os.path.dirname(os.path.abspath(qybe.__file__)) != os.path.join(src, "qybe"):
        print(f"qybe imported from {qybe.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"imported": imported}
    mode = spec["mode"]
    if mode == "env":
        result["env"] = _numeric_env(np)
    if mode in ("run", "trace", "selfcheck"):
        tracer = profiler = None
        if mode != "run":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if mode == "selfcheck":
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        result["start"] = monotonic()
        result["commands"] = _dispatch(qybe.cli, spec["commands"])
        result["end"] = monotonic()
        if profiler is not None:
            import pstats

            from tracer import profile_mismatches

            profiler.disable()
            result["profile_mismatches"] = profile_mismatches(
                tracer, pstats.Stats(profiler).stats)
        if tracer is not None:
            result["functions"] = tracer.summary()
            result["spans"] = tracer.spans()
            result["unkeyed"] = tracer.unkeyed
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
