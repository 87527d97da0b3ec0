"""Per-layer tracing of the quotmotives package from outside it.

:func:`instrument` wraps the public functions and the arithmetic methods
of each package module, patches every wrapper into each module namespace
that imported the name, and records one span per call in a
:class:`SpanRecorder`.  Spans stay in memory (parallel arrays of name,
parent, job id, start and end) and are written once, after the pass.
:func:`self_times` derives each span's self time as its duration minus
the part of it covered by child spans, and :func:`layer_metrics` sums
those into the per-layer metrics listed in :data:`PER_LAYER`.

A layer is a module of the package, except that ``rings`` is split into
``rings.laurent`` (LaurentPoly and the class helpers) and
``rings.rational`` (RationalFn, whose private polynomial gcd helpers are
not wrapped and so count as its self time).  The enumeration kernel
(``count_stable`` of ``_enum_py`` or ``_enum_cy``) belongs to ``oracle``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from types import GeneratorType

# Per-layer metrics: name, unit, better, and the end-to-end metric each
# one should move, on which workload.  BENCHMARK.json lists the same
# names and units; it has no field for the prediction, so it lives here.
PER_LAYER = [
    ("rings.laurent.self_s", "s", "lower",
     "wall_s on closed_forms; nothing on oracle_grid"),
    ("rings.laurent.calls", "count", "lower",
     "wall_s on closed_forms; nothing on oracle_grid"),
    ("rings.laurent.constructed", "count", "lower",
     "wall_s on closed_forms; nothing on oracle_grid"),
    ("rings.rational.self_s", "s", "lower",
     "wall_s and slowest_job_s on partition_sums; nothing on closed_forms"),
    ("rings.rational.calls", "count", "lower",
     "wall_s and slowest_job_s on partition_sums; nothing on closed_forms"),
    ("series.self_s", "s", "lower",
     "wall_s on closed_forms; must not worsen partition_sums"),
    ("series.mul.calls", "count", "lower",
     "wall_s on closed_forms; must not worsen partition_sums"),
    ("series.invert.calls", "count", "lower",
     "wall_s on closed_forms; must not worsen partition_sums"),
    ("series.exp_log.calls", "count", "lower",
     "wall_s on closed_forms; must not worsen partition_sums"),
    ("plethystic.self_s", "s", "lower",
     "wall_s on closed_forms; on partition_sums only through Heine"),
    ("plethystic.exp.calls", "count", "lower",
     "wall_s on closed_forms; on partition_sums only through Heine"),
    ("plethystic.log.calls", "count", "lower",
     "wall_s on closed_forms; on partition_sums only through Heine"),
    ("plethystic.power.calls", "count", "lower",
     "wall_s on closed_forms; on partition_sums only through Heine"),
    ("quot.self_s", "s", "lower", "wall_s and slowest_job_s on closed_forms"),
    ("quot.cross_check_s", "s", "lower",
     "wall_s and slowest_job_s on closed_forms"),
    ("quiver.self_s", "s", "lower", "wall_s and slowest_job_s on partition_sums"),
    ("quiver.collections", "count", "lower",
     "wall_s and slowest_job_s on partition_sums"),
    ("specialize.self_s", "s", "lower", "wall_s on closed_forms (a small share)"),
    ("oracle.self_s", "s", "lower",
     "wall_s and slowest_job_s on oracle_grid; nothing elsewhere"),
    ("oracle.kernel_s", "s", "lower",
     "wall_s and slowest_job_s on oracle_grid; nothing elsewhere"),
    ("oracle.stable_per_s", "1/s", "higher",
     "wall_s and slowest_job_s on oracle_grid; nothing elsewhere"),
    ("cli.self_s", "s", "lower", "wall_s on closed_forms (largest JSON)"),
    ("cli.output_bytes", "bytes", "lower", "wall_s on closed_forms (largest JSON)"),
    ("trace.wall_s", "s", "lower", "traced wall_s; the base of overhead_ratio"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced wall_s / untraced wall_s of the same run"),
]

LAYERS = ("rings.laurent", "rings.rational", "series", "plethystic", "quot",
          "quiver", "specialize", "oracle", "cli")

# Root span the benchmark opens around each job; its self time is the
# harness's own cost (argv handling and stdout capture).
JOB_SPAN = "bench:job"

KERNEL_MODULES = ("quotmotives._enum_py", "quotmotives._enum_cy")
_TRACED_MODULES = {"rings", "series", "plethystic", "quot", "quiver",
                   "specialize", "oracle", "cli"}
_SKIPPED_METHODS = {"__repr__", "__str__", "__format__", "__setattr__",
                    "__delattr__"}


class SpanRecorder:
    """In-memory span store: parallel arrays indexed by span id.

    A span id is assigned when the call enters, so children can name
    their parent before the parent ends.  ``state`` holds the current
    span id (-1 outside any span) and the current job index.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: dict[int, int] = {}
        self.state = [-1, -1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.start)

    def wrap(self, fn, name: str):
        """A wrapper of ``fn`` that records one span per call.  A returned
        generator is wrapped so that its yielded items are counted."""
        nid = self.name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, state = self.start, self.end, self.state
        clock = time.perf_counter
        counted = self._counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent = state[0]
            names.append(nid)
            parents.append(parent)
            jobs.append(state[1])
            ends.append(0.0)
            state[0] = sid
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                state[0] = parent
            if type(result) is GeneratorType:
                return counted(result, nid)
            return result

        return wrapper

    def _counted(self, gen, nid: int):
        items = self.items
        items.setdefault(nid, 0)
        for item in gen:
            items[nid] += 1
            yield item

    def job_span(self, job_index: int, fn, *args):
        """Run ``fn(*args)`` inside a root span for one benchmark job."""
        self.state[1] = job_index
        try:
            return self.wrap(fn, JOB_SPAN)(*args)
        finally:
            self.state[1] = -1

    def write(self, path: str) -> None:
        """Write every span as gzip'd tab-separated text:
        id, name, parent, job, start, end (seconds, perf_counter clock)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tjob\tstart\tend\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{p}\t{j}\t{s!r}\t{e!r}\n"
                for i, (n, p, j, s, e) in enumerate(
                    zip(self.name, self.parent, self.job, self.start, self.end)))


def _layer(module_name: str, qualname: str) -> str:
    short = module_name.rpartition(".")[2]
    if short == "rings":
        return "rings.rational" if qualname.startswith("RationalFn") else "rings.laurent"
    return short


def _public_function(module, name, obj) -> bool:
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_"))


def instrument(recorder: SpanRecorder):
    """Wrap the package's layers; returns a function that undoes it.

    Module-level public functions are wrapped once and the wrapper is
    patched into every ``quotmotives.*`` module that holds the same object,
    so ``from .quiver import verify_heine`` call sites are traced too.
    Class methods (dunder arithmetic, public methods, class methods and
    properties) are patched on the class itself.  Of the kernel modules
    only ``count_stable`` is wrapped: its helpers run per instance.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "quotmotives" or n.startswith("quotmotives."))]
    undo = []
    wrappers = {}  # id(original) -> (original, wrapper)

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module in modules:
        if module.__name__ in KERNEL_MODULES:
            fn = module.count_stable
            wrappers[id(fn)] = fn, recorder.wrap(fn, "oracle:count_stable")
            continue
        if module.__name__.rpartition(".")[2] not in _TRACED_MODULES:
            continue
        for name, obj in list(vars(module).items()):
            if _public_function(module, name, obj):
                layer = _layer(module.__name__, obj.__qualname__)
                wrappers[id(obj)] = obj, recorder.wrap(obj, f"{layer}:{obj.__qualname__}")
            elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                  and not issubclass(obj, BaseException)):
                _instrument_class(recorder, module.__name__, obj, patch)
    for module in modules:
        for name, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                patch(module, name, entry[1])

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
        undo.clear()

    return restore


def _instrument_class(recorder, module_name, cls, patch):
    done = {}
    for attr, member in list(vars(cls).items()):
        dunder = attr.startswith("__") and attr.endswith("__")
        if attr in _SKIPPED_METHODS or (attr.startswith("_") and not dunder):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            fn, kind = member.__func__, type(member)
        elif isinstance(member, property) and member.fget is not None:
            fn, kind = member.fget, property
        elif inspect.isfunction(member):
            fn, kind = member, None
        else:
            continue
        wrapped = done.get(fn)  # e.g. __rmul__ = __mul__ share one span name
        if wrapped is None:
            layer = _layer(module_name, fn.__qualname__)
            wrapped = done[fn] = recorder.wrap(fn, f"{layer}:{fn.__qualname__}")
        patch(cls, attr, kind(wrapped) if kind else wrapped)


def self_times(parent, start, end) -> list:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval.

    ``parent[i]`` is the id of span i's parent, or -1 for a root.
    """
    n = len(start)
    covered = [0.0] * n
    frontier = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], frontier.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > frontier.get(p, start[p]):
            frontier[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer self times and counts of one traced pass.

    Returns every metric of :data:`PER_LAYER` except the ones that need
    inputs from outside the spans (``oracle.stable_per_s``,
    ``cli.output_bytes`` and the ``trace.*`` ratios), plus the self time
    of the benchmark's own job spans under ``bench.self_s``.
    """
    selfs = self_times(rec.parent, rec.start, rec.end)
    names = rec.names
    layer_of = [n.partition(":")[0] for n in names]
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name = [0] * len(names)
    kernel_s = cross_check = 0.0
    quot_series = rec._ids.get("quot:quot_series")
    power = rec._ids.get("plethystic:power_structure")
    kernel = rec._ids.get("oracle:count_stable")
    name, parent, start, end = rec.name, rec.parent, rec.start, rec.end
    for i, nid in enumerate(name):
        layer = layer_of[nid]
        self_s[layer] += selfs[i]
        by_name[nid] += 1
        if layer != "bench":
            calls[layer] += 1
        if nid == kernel:
            kernel_s += end[i] - start[i]
        elif nid == power and parent[i] >= 0 and name[parent[i]] == quot_series:
            cross_check += end[i] - start[i]

    def count(*qualnames):
        return sum(by_name[rec._ids[q]] for q in qualnames if q in rec._ids)

    collections = rec._ids.get("quiver:partition_collections")
    return {
        "rings.laurent.self_s": self_s["rings.laurent"],
        "rings.laurent.calls": calls["rings.laurent"],
        "rings.laurent.constructed": count("rings.laurent:LaurentPoly.__init__"),
        "rings.rational.self_s": self_s["rings.rational"],
        "rings.rational.calls": calls["rings.rational"],
        "series.self_s": self_s["series"],
        "series.mul.calls": count("series:TruncatedSeries.__mul__"),
        "series.invert.calls": count("series:TruncatedSeries.invert"),
        "series.exp_log.calls": count("series:series_exp", "series:series_log"),
        "plethystic.self_s": self_s["plethystic"],
        "plethystic.exp.calls": count("plethystic:exp_pleth",
                                      "plethystic:exp_pleth_product"),
        "plethystic.log.calls": count("plethystic:log_pleth"),
        "plethystic.power.calls": count("plethystic:power_structure"),
        "quot.self_s": self_s["quot"],
        "quot.cross_check_s": cross_check,
        "quiver.self_s": self_s["quiver"],
        "quiver.collections": rec.items.get(collections, 0),
        "specialize.self_s": self_s["specialize"],
        "oracle.self_s": self_s["oracle"],
        "oracle.kernel_s": kernel_s,
        "cli.self_s": self_s["cli"],
        "bench.self_s": self_s["bench"],
    }
