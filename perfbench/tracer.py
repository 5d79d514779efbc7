"""Outside-in span tracer for the qybe modules.

`Tracer.install` wraps every public module-level function of each qybe layer,
plus any private helper that another qybe module imports, and rebinds every
name in the qybe namespace that refers to the original.  That covers module
attributes, names bound by `from .x import f` (at import time or inside a
function body) and recursive calls, since all of them are global lookups at
call time.  Spans (name, start, end, parent) stay in memory until `summary`.

Time spent in an untraced helper counts toward the nearest traced caller.
Nothing under src/ changes.
"""

import ast
import functools
import inspect
import sys
import time
import types

LAYERS = ("qarith", "repspace", "coupling", "rmatrix", "fusion", "spinchain",
          "commutant", "toolkit", "cli")

# Functions reported one by one; every other traced function still counts
# toward its layer's totals.
FUNCTIONS = {
    "repspace": ("embed_at", "perm_matrix", "graded_kron_raw", "nfold_coproduct",
                 "build_irrep"),
    "coupling": ("decompose", "cgc_table", "projector", "casimir_projector",
                 "chi_factor"),
    "rmatrix": ("hecke_family", "ybe_residual", "universal_r"),
    "fusion": ("composite_space", "adjacent_singlet_kernel", "descendant_r_closed",
               "descendant_r_product", "descendant_family", "extended_lax"),
    "spinchain": ("transfer_matrix", "hamiltonian_log_derivative",
                  "hamiltonian_projector_form", "spectrum"),
    "commutant": ("commutant_nullspace", "constraint_system", "principal_angles"),
    "toolkit": ("verify_all", "serialize_operator"),
}


def _qa(params):
    return complex(params.q), complex(params.a)


def _default_params(algebra):
    from qybe.qarith import DeformParams

    return DeformParams(algebra=algebra)


def _key_build_irrep(algebra, r, params=None):
    return (algebra, int(r)) + _qa(params or _default_params(algebra))


def _key_chi_factor(algebra, r, params=None, return_residual=False):
    return (algebra, int(r)) + _qa(params or _default_params(algebra))


def _key_cgc_table(rep1, rep2, params=None):
    params = params or rep1.params or _default_params(rep1.algebra)
    return (rep1.algebra, rep1.r, rep2.r) + _qa(params)


def _key_hecke_family(rep, params=None, chi=None):
    params = params or rep.params or _default_params(rep.algebra)
    return (rep.algebra, rep.r) + _qa(params)


def _key_composite_space(algebra_or_rep, r=None, n=None, params=None):
    # mirrors the argument resolution at the top of fusion.composite_space
    if isinstance(algebra_or_rep, str):
        params = params or _default_params(algebra_or_rep)
        return (algebra_or_rep, r, n) + _qa(params)
    params = params or algebra_or_rep.params
    if n is None:
        n = r
    return (algebra_or_rep.algebra, algebra_or_rep.r, n) + _qa(params)


# A call is redundant when the process has already seen its
# (algebra, r, [n,] q, a): the object could have been built once.
REDUNDANCY_KEYS = {
    "repspace.build_irrep": _key_build_irrep,
    "coupling.cgc_table": _key_cgc_table,
    "coupling.chi_factor": _key_chi_factor,
    "rmatrix.hecke_family": _key_hecke_family,
    "fusion.composite_space": _key_composite_space,
}


def _cross_module_private():
    """Private names that one qybe module imports from a sibling, anywhere in
    its source (module level or inside a function body)."""
    found = set()
    for layer in LAYERS:
        mod = sys.modules[f"qybe.{layer}"]
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name.startswith("_") and node.module != layer:
                        found.add((node.module, alias.name))
    return found


class Tracer:
    """Wraps qybe functions and records one span per call."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.errored = []
        self.redundant = {}
        self.unkeyed = 0  # calls whose arguments no longer fit a key function
        self.originals = {}  # traced name -> original function
        self._seen = set()
        self._stack = [-1]

    def wrap(self, name, fn):
        names, starts, ends, parents, errored = (
            self.names, self.starts, self.ends, self.parents, self.errored)
        stack, clock = self._stack, time.perf_counter
        key_fn = REDUNDANCY_KEYS.get(name)
        if key_fn is not None:
            self.redundant[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_fn is not None:
                try:
                    key = (name,) + key_fn(*args, **kwargs)
                except (TypeError, AttributeError):
                    self.unkeyed += 1
                else:
                    if key in self._seen:
                        self.redundant[name] += 1
                    self._seen.add(key)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            errored.append(False)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errored[idx] = True
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the layers of the imported qybe package and rebind every
        reference to the originals."""
        private = _cross_module_private()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"qybe.{layer}"]
            for attr, fn in vars(mod).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in private:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "qybe" and not modname.startswith("qybe."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def spans(self):
        """Recorded spans as (name, start, end, parent index) tuples."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def summary(self):
        """Per-function calls, self seconds and errors over all spans."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.originals}
        for i in range(n):
            rec = out[self.names[i]]
            rec["calls"] += 1
            rec["self_s"] += (self.ends[i] - self.starts[i]) - child[i]
            rec["errors"] += self.errored[i]
        for name, count in self.redundant.items():
            out[name]["redundant_calls"] = count
        return out


def layer_metrics(summary):
    """Flatten a `Tracer.summary` into the benchmark's per-layer metric names."""
    metrics = {}
    for layer in LAYERS:
        recs = [rec for name, rec in summary.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in recs), "count")
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in recs), "s")
        metrics[f"{layer}.errors"] = (sum(r["errors"] for r in recs), "count")
    for layer, fns in FUNCTIONS.items():
        for fn in fns:
            rec = summary[f"{layer}.{fn}"]
            metrics[f"{layer}.{fn}.calls"] = (rec["calls"], "count")
            metrics[f"{layer}.{fn}.self_s"] = (rec["self_s"], "s")
    for name in REDUNDANCY_KEYS:
        metrics[f"{name}.redundant_calls"] = (summary[name]["redundant_calls"], "count")
    return metrics


def profile_mismatches(tracer, stats):
    """Compare traced call counts with cProfile's for the same code objects.

    `stats` is `pstats.Stats(...).stats`; returns {name: (traced, profiled)}
    for every function whose counts differ."""
    traced = {name: rec["calls"] for name, rec in tracer.summary().items()}
    bad = {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        profiled = entry[1] if entry else 0
        if profiled != traced[name]:
            bad[name] = (traced[name], profiled)
    return bad
