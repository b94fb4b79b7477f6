"""Per-layer tracing of chainops from outside the library.

`install(tracer, *callers)` wraps the public functions and methods of
each layer module (a chainops module) and rebinds every reference to
them that the chainops modules and the calling benchmark modules hold,
so calls between modules go through the wrappers; `uninstall` puts the
originals back.
Each wrapper counts the call and its self time (its duration minus that
of wrapped calls it made) in memory; `metrics` turns the totals into the
benchmark's per-layer metrics once, at the end of the run.

Generator functions count one call when created and time each resume.
Comparison and hashing dunders are not wrapped: they run inside dict
lookups, where a wrapper would cost more than the work.  `rings` is not
wrapped for the same reason; it is called once per term.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "perms", "elements", "complexes", "procedure", "simplex",
    "maclane", "surjections", "morphisms", "operads", "action",
)
WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}
MEMO_METHODS = {
    "procedure": ("StandardMap.on_basis", "StandardHomotopy.on_basis"),
    "operads": ("TwistedOperadMap.on_basis",),
}


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = {}          # qualified name -> [count]
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.layer_of = {}       # qualified name -> layer
        self.rejects = [0]       # SurjectionComplex.canonical returning None
        self.terms_out = [0]     # terms of Elements returned by the elements layer
        self.bf_args = set()     # distinct (x, m) given to bf_action_terms
        self.bf_distinct = 0     # distinct (x, m) counted in other processes
        self.memo_hits = {layer: [0] for layer in MEMO_METHODS}
        self.restore = []
        self.gens_visited = 0    # set by the workload: generators checked by sweeps

    def to_json(self):
        return {
            "calls": {q: c[0] for q, c in self.calls.items()},
            "layer_of": self.layer_of,
            "self_s": {layer: v[0] for layer, v in self.self_s.items()},
            "rejects": self.rejects[0],
            "terms_out": self.terms_out[0],
            "bf_distinct": len(self.bf_args) + self.bf_distinct,
            "memo_hits": {layer: v[0] for layer, v in self.memo_hits.items()},
        }

    def merge(self, data):
        """Add the totals of another process's tracer (from to_json)."""
        for qual, n in data["calls"].items():
            self.calls.setdefault(qual, [0])[0] += n
            self.layer_of[qual] = data["layer_of"][qual]
        for layer, v in data["self_s"].items():
            self.self_s[layer][0] += v
        self.rejects[0] += data["rejects"]
        self.terms_out[0] += data["terms_out"]
        self.bf_distinct += data["bf_distinct"]
        for layer, v in data["memo_hits"].items():
            self.memo_hits[layer][0] += v

    def count(self, qual):
        return self.calls.get(qual, [0])[0]

    def layer_calls(self, layer):
        return sum(c[0] for q, c in self.calls.items() if self.layer_of[q] == layer)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer, qual, fn):
        stack = self.stack
        clock = time.perf_counter
        count = self.calls.setdefault(qual, [0])
        self.layer_of[qual] = layer
        busy = self.self_s[layer]
        post = self.post_hook(layer, qual)
        pre = self.pre_hook(layer, qual)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                count[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        busy[0] += dt - stack.pop()
                        if stack:
                            stack[-1] += dt
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if pre is not None:
                pre(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                busy[0] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(result)
            return result

        return wrapper

    def pre_hook(self, layer, qual):
        if qual == "action.bf_action_terms":
            seen = self.bf_args

            def record(args):
                seen.add((args[0], args[1]))

            return record
        if qual.split(".", 1)[1] in MEMO_METHODS.get(layer, ()):
            hits = self.memo_hits[layer]

            def memo(args):
                key = args[1] if len(args) == 2 else (args[1], args[2])
                if key in args[0]._memo:
                    hits[0] += 1

            return memo
        return None

    def post_hook(self, layer, qual):
        if qual == "surjections.SurjectionComplex.canonical":
            rejects = self.rejects

            def reject(result):
                if result is None:
                    rejects[0] += 1

            return reject
        if layer == "elements":
            terms = self.terms_out
            element = sys.modules["chainops.elements"].Element

            def count_terms(result):
                if type(result) is element:
                    terms[0] += len(result.terms)

            return count_terms
        return None

    def uninstall(self):
        for obj, name, value in reversed(self.restore):
            setattr(obj, name, value)
        self.restore.clear()


def install(tracer, *callers):
    """Wrap every public function and method of the layer modules, and
    rebind the references held by chainops and by the `callers` modules."""
    for layer in LAYERS:
        importlib.import_module(f"chainops.{layer}")
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "chainops"]
    modules.extend(callers)
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"chainops.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                wrap_class(tracer, layer, obj)
            elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    replaced[id(obj)] = (obj, tracer.wrap(layer, f"{layer}.{name}", obj))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.restore.append((mod, name, obj))
                setattr(mod, name, hit[1])


def wrap_class(tracer, layer, cls):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in WRAPPED_DUNDERS:
            continue
        qual = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, classmethod):
            new = classmethod(tracer.wrap(layer, qual, attr.__func__))
        elif isinstance(attr, staticmethod):
            new = staticmethod(tracer.wrap(layer, qual, attr.__func__))
        elif inspect.isfunction(attr) or isinstance(attr, functools._lru_cache_wrapper):
            new = tracer.wrap(layer, qual, attr)
        else:
            continue
        tracer.restore.append((cls, name, attr))
        setattr(cls, name, new)


def metrics(tracer, factor, cli=None):
    """The per-layer metrics; times are reference-normalised by `factor`."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tracer.layer_calls(layer), "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer][0] * factor, "s")
    out["surjections.canonical_calls"] = (
        tracer.count("surjections.SurjectionComplex.canonical"), "count")
    out["surjections.canonical_rejects"] = (tracer.rejects[0], "count")
    out["perms.perm_inits"] = (tracer.count("perms.Perm.__init__"), "count")
    on_basis = sum(tracer.count(f"procedure.{q}") for q in MEMO_METHODS["procedure"])
    visited = tracer.gens_visited + on_basis
    out["procedure.us_per_gen"] = (
        tracer.self_s["procedure"][0] * factor * 1e6 / visited if visited else 0.0, "us")
    for layer, quals in MEMO_METHODS.items():
        lookups = sum(tracer.count(f"{layer}.{q}") for q in quals)
        ratio = tracer.memo_hits[layer][0] / lookups if lookups else 0.0
        out[f"{layer}.memo_hit_ratio"] = (ratio, "ratio")
    out["elements.add_calls"] = (tracer.count("elements.Element.__add__"), "count")
    out["elements.terms_out"] = (tracer.terms_out[0], "count")
    bf_calls = tracer.count("action.bf_action_terms")
    out["action.bf_action_terms_calls"] = (bf_calls, "count")
    out["action.bf_action_distinct_ratio"] = (
        (len(tracer.bf_args) + tracer.bf_distinct) / bf_calls if bf_calls else 0.0, "ratio")
    cli = cli or {}
    for name in ("interp_ms", "import_ms", "main_ms"):
        out[f"cli.{name}"] = (cli.get(name, 0.0), "ms")
    return out
