"""Spans around the calls into each layer, installed from outside the library.

``Tracer.install`` replaces each traced function wherever it is bound: in the
module that defines it, in every module that imported it by name, and on the
classes whose methods are traced.  Each call then records a span -- name,
start, end, parent span, job id -- in memory.  ``Tracer.metrics`` turns the
spans into per-function and per-layer numbers; ``Tracer.write_spans`` writes
them out once the run is over.

A span's self time is its duration minus the durations of its direct child
spans.  Busy time counts only spans with no open ancestor of the same name,
so a recursive call is not counted twice.
"""

import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "tableaux", "rsk", "oscillating", "bijections", "crystal", "characters")

# Traced functions, by module.  Those in TIMED also report the median and
# the 90th percentile of their per-call latency, by nearest rank.
FUNCTIONS = {
    "cli": ["main"],
    "oscillating": ["enumerate_ssot"],
    "crystal": ["crystal_graph", "ssot_stats", "axiom_violations", "stembridge_violations"],
    "rsk": ["rsk_column", "rsk_column_inverse", "c_index"],
    "bijections": ["psi", "psi_inverse", "phi", "phi_inverse"],
    "characters": ["weyl_character", "king_character", "schur_eval", "decompose_sp",
                   "dual_pieri_count", "conjecture_verify"],
    "tableaux": ["enumerate_king", "tableaux_of_shape"],
}
TIMED = ["oscillating.enumerate_ssot"] + [
    f"{mod}.{fn}" for mod in ("rsk", "bijections", "characters") for fn in FUNCTIONS[mod]
]

# Methods traced under one span name: the operators e and f of every crystal
# model, and character multiplication.
METHODS = {
    "crystal.op": [("crystal", cls, attr)
                   for cls in ("SsotCrystal", "MatrixCrystal", "KingCrystal")
                   for attr in ("e", "f")],
    "characters.mul": [("characters", "LaurentCharacter", "__mul__"),
                       ("characters", "LaurentCharacter", "__rmul__")],
}

# Counted only: called far too often for a span each.
STRIPS = "oscillating.enumerate_strips"


def percentile_us(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when there are no calls."""
    if not sorted_values:
        return 0.0
    return sorted_values[int(q * len(sorted_values))] * 1e6


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in [f"{m}.{f}" for m, fns in FUNCTIONS.items() for f in fns] + list(METHODS):
        units.update({f"{name}.calls": "count/job", f"{name}.busy_s": "s/job",
                      f"{name}.self_s": "s/job"})
    for name in TIMED:
        units.update({f"{name}.p50_us": "us", f"{name}.p90_us": "us"})
    units.update({
        "oscillating.enumerate_ssot.objects": "count/job",
        f"{STRIPS}.calls": "count/job",
        "oscillating.chains_per_strip_call": "ratio",
        "crystal.crystal_graph.vertices": "count/job",
        "crystal.crystal_graph.edges": "count/job",
        "crystal.op.hit_ratio": "ratio",
        "crystal.op.us_per_call": "us",
        "rsk.boxes_per_s": "1/s",
        "characters.weyl_character.cache_hit_ratio": "ratio",
        "trace.overhead_s": "s",
    })
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS + ("harness",)})
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # closed: (name id, start, end, parent index, job id, outermost);
        # still open: (name id,)
        self.spans: list[tuple] = []
        self.calls: list[int] = []
        self.active: list[int] = []
        self.stack: list[int] = []
        self.job = 0
        self.strip_calls = 0
        self.strip_calls_in_ssot = 0
        self.ssot_objects = 0
        self.graph_vertices = 0
        self.graph_edges = 0
        self.op_hits = 0
        self.boxes = 0

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.active.append(0)
        return self.ids[name]

    def _enter(self, nid: int):
        idx = len(self.spans)
        self.spans.append((nid,))
        parent = self.stack[-1] if self.stack else -1
        outer = self.active[nid] == 0
        self.active[nid] += 1
        self.stack.append(idx)
        return idx, parent, outer

    def _exit(self, nid: int, idx: int, parent: int, outer: bool, start: float, end: float):
        self.stack.pop()
        self.active[nid] -= 1
        self.spans[idx] = (nid, start, end, parent, self.job, outer)

    def spanned(self, name: str, fn, observe=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            idx, parent, outer = self._enter(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(nid, idx, parent, outer, start, perf_counter())
            if observe is not None:
                observe(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def spanned_generator(self, name: str, fn):
        """One span per resumption, so work done lazily is still attributed."""
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                idx, parent, outer = self._enter(nid)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(nid, idx, parent, outer, start, perf_counter())
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_strips(self, fn):
        ssot = self._id("oscillating.enumerate_ssot")

        def wrapper(*args, **kwargs):
            self.strip_calls += 1
            if self.stack and self.spans[self.stack[-1]][0] == ssot:
                self.strip_calls_in_ssot += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str):
        def ssot(result):
            self.ssot_objects += len(result)

        def graph(result):
            self.graph_vertices += len(result.vertices)
            self.graph_edges += len(result.edges)

        def op(result):
            self.op_hits += result is not None

        def insertion(result):
            self.boxes += result[0].size

        return {"oscillating.enumerate_ssot": ssot, "crystal.crystal_graph": graph,
                "crystal.op": op, "rsk.rsk_column": insertion}.get(name)

    def install(self, callers=()):
        """Wrap every traced function in the library and in ``callers``."""
        package = sys.modules["sympcrystal"]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "sympcrystal" or k.startswith("sympcrystal.")]
        modules += list(callers)
        replace = {}
        for mod, fns in FUNCTIONS.items():
            for attr in fns:
                fn = getattr(getattr(package, mod), attr)
                name = f"{mod}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = (fn, self.spanned_generator(name, fn))
                else:
                    replace[id(fn)] = (fn, self.spanned(name, fn, self._observe(name)))
        strips = package.oscillating.enumerate_strips
        replace[id(strips)] = (strips, self.counted_strips(strips))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        for name, targets in METHODS.items():
            done = {}
            for mod, cls_name, attr in targets:
                cls = getattr(getattr(package, mod), cls_name)
                fn = cls.__dict__[attr]
                if id(fn) not in done:
                    done[id(fn)] = self.spanned(name, fn, self._observe(name))
                setattr(cls, attr, done[id(fn)])

    def metrics(self, traced_wall_s: float, jobs: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics, and the number of calls behind each latency percentile.

        Counts and times are per job, so that they do not depend on how many
        jobs fitted in the run.
        """
        n = len(self.names)
        busy, own = [0.0] * n, [0.0] * n
        durations: list[list[float]] = [[] for _ in range(n)]
        child = [0.0] * len(self.spans)
        # a parent span always precedes its children, so walk backwards
        for idx in range(len(self.spans) - 1, -1, -1):
            nid, start, end, parent, _job, outer = self.spans[idx]
            d = end - start
            own[nid] += d - child[idx]
            if outer:
                busy[nid] += d
            durations[nid].append(d)
            if parent >= 0:
                child[parent] += d
        out: dict[str, float] = {}
        samples: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid] / jobs
            out[f"{name}.busy_s"] = busy[nid] / jobs
            out[f"{name}.self_s"] = own[nid] / jobs
            if name in TIMED:
                ds = sorted(durations[nid])
                out[f"{name}.p50_us"] = percentile_us(ds, 0.5)
                out[f"{name}.p90_us"] = percentile_us(ds, 0.9)
                samples[name] = len(ds)
        op = self.ids["crystal.op"]
        rsk = self.ids["rsk.rsk_column"]
        out.update({
            "oscillating.enumerate_ssot.objects": self.ssot_objects / jobs,
            f"{STRIPS}.calls": self.strip_calls / jobs,
            "oscillating.chains_per_strip_call":
                self.ssot_objects / self.strip_calls_in_ssot if self.strip_calls_in_ssot else 0.0,
            "crystal.crystal_graph.vertices": self.graph_vertices / jobs,
            "crystal.crystal_graph.edges": self.graph_edges / jobs,
            "crystal.op.hit_ratio": self.op_hits / self.calls[op] if self.calls[op] else 0.0,
            "crystal.op.us_per_call": busy[op] / self.calls[op] * 1e6 if self.calls[op] else 0.0,
            "rsk.boxes_per_s": self.boxes / busy[rsk] if busy[rsk] else 0.0,
        })
        for layer in LAYERS:
            out[f"{layer}.self_share"] = sum(
                own[nid] for nid, name in enumerate(self.names)
                if name.split(".")[0] == layer
            ) / traced_wall_s
        out["harness.self_share"] = 1.0 - sum(out[f"{layer}.self_share"] for layer in LAYERS)
        return out, samples

    def write_spans(self, path):
        """One line per span: name, start and end in seconds, parent index, job."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for nid, start, end, parent, job, _outer in self.spans:
                fh.write(f"{self.names[nid]},{start - origin:.7f},{end - origin:.7f},"
                         f"{parent},{job}\n")
