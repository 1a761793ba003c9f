"""Timing spans around the public functions of the gspline modules.

The tracer patches every module namespace that binds a traced function,
so calls through ``from .x import f`` bindings and through call-time
imports are both seen, and restores the original bindings on exit.
Each span records its name, start, end, parent span and thread.  A span
opened on a worker thread with nothing open on that thread takes the
span open on the main thread as its parent, so a ``build_g1`` span owns
the constraint solves of its thread pool.

Self time is a span's duration minus the union of its children's
intervals (children on pool threads may overlap one another).  Hooks
that read arguments or results (digests of constraint systems, sizes)
run inside a ``trace.hook`` span so that their cost is not charged to
the layer that called the traced function.

Small leaf helpers (``bernstein_1d``, ``node_key``, ``shell_metric_det``,
``rotated_params`` and the like) are left unwrapped: they are called
hundreds of thousands of times per pass and their time shows in the
self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
import time

PACKAGE = "gspline"

# module -> traced names; "Class" wraps __init__, "Class.method" a method
TRACED = {
    "mesh": ["load_obj", "save_obj", "CNet", "classify_vertices",
             "extraordinary_vertices", "ring_faces", "ring_vertices",
             "classify_elements", "spoke_edges", "irregular_basis_vertices"],
    "refine": ["refine", "refine_n"],
    "construct_c0": ["c0_stencils", "build_c0", "geometry_continuity_residual"],
    "construct_g1": ["analyze_net", "edge_geometry", "ConstraintProblem",
                     "ConstraintProblem.assemble", "ConstraintProblem.solve",
                     "solve_constrained_ls", "elevate_irregular", "build_g1",
                     "g1_residual"],
    "extraction": ["bernstein_eval", "bernstein_table", "degree_elevate_2",
                   "evaluate_basis", "bezier_points"],
    "evaluate": ["map_point", "frame", "edge_frames", "edge_jumps",
                 "edge_watertightness", "normal_jump", "sample_bezier_mesh"],
    "solve": ["element_tables", "boundary_functions", "assemble_poisson",
              "solve_poisson", "compute_errors", "mean_element_size",
              "build_variant", "convergence_study", "assemble_membrane_eigen",
              "solve_generalized_eigen"],
    "quality": ["is_valid_at_thickness", "element_min_dets",
                "min_invalid_thickness"],
    "archive": ["surface_to_json", "surface_from_json"],
    "cli": ["main", "surface_check", "collocation_singular_values"],
}

class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Installs wrappers on entry and records spans while ``recording``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.counters: dict[str, float] = {}
        self.systems: set[bytes] = set()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for mod_name, names in TRACED.items():
            mod = modules[mod_name]
            for name in names:
                span_name = f"{mod_name}.{name}"
                hook = HOOKS.get(span_name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._patch(getattr(mod, cls_name), meth, span_name, hook)
                elif isinstance(getattr(mod, name), type):
                    self._patch(getattr(mod, name), "__init__", span_name, hook)
                else:
                    original = getattr(mod, name)
                    wrapper = self._wrap(original, span_name, hook)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._patches.append((ns, attr, value))
                                setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        self.recording = False
        for target, attr, value in reversed(self._patches):
            setattr(target, attr, value)
        self._patches.clear()
        return False

    def _patch(self, cls, attr, span_name, hook):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, span_name, hook))

    def _wrap(self, fn, span_name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span, stack = tracer._open(span_name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook_span, stack = tracer._open("trace.hook")
                hook_span.start = time.perf_counter()
                try:
                    hook(tracer, span, args, kwargs, result)
                finally:
                    hook_span.end = time.perf_counter()
                    stack.pop()
            return result

        return traced

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        span = Span(name, parent, tid)
        stack.append(span)
        self.spans.append(span)
        return span, stack

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- results ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[Span, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += (s.end - s.start) - covered(s, children.get(s, ()))
        return out

    def dump(self) -> dict:
        """Spans as columns (parent and thread are indices), plus counters."""
        index = {s: i for i, s in enumerate(self.spans)}
        names = sorted({s.name for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        threads = sorted({s.thread for s in self.spans})
        thread_id = {t: i for i, t in enumerate(threads)}
        t0 = min((s.start for s in self.spans), default=0.0)
        return {
            "names": names,
            "name": [name_id[s.name] for s in self.spans],
            "start": [round(s.start - t0, 7) for s in self.spans],
            "end": [round(s.end - t0, 7) for s in self.spans],
            "parent": [-1 if s.parent is None else index[s.parent]
                       for s in self.spans],
            "thread": [thread_id[s.thread] for s in self.spans],
            "info": {str(i): s.info for i, s in enumerate(self.spans)
                     if s.info is not None},
            "counters": dict(self.counters),
        }


def covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total, reach = 0.0, span.start
    for a, b in sorted((max(k.start, span.start), min(k.end, span.end))
                       for k in kids):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


# -- hooks: counts read from arguments and results ------------------------
#
# Only the solve_constrained_ls hook runs on pool threads, and it only
# adds to a set; the read-modify-write counters are bumped on the main
# thread.


def _system_digest(tracer, span, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    h = hashlib.blake2b(digest_size=16)
    for m in (system.G, system.F):
        h.update(repr(m.shape).encode())
        h.update(m.tobytes())
    tracer.systems.add(h.digest())


def _build_g1(tracer, span, args, kwargs, result):
    threads = args[2] if len(args) > 2 else kwargs.get("threads", 1)
    span.info = {"threads": threads}
    tracer.maximum("construct_g1.build_g1.threads_max", threads)
    if not threads or threads <= 1:
        tracer.count("construct_g1.build_g1.serial_calls")
    tracer.count("construct_g1.unknowns_sum",
                 sum(d["n_unknowns"] for d in result.diagnostics))


def _assemble_poisson(tracer, span, args, kwargs, result):
    tracer.maximum("solve.n_dof_max", len(result.active))
    tracer.maximum("solve.K_nnz_max", result.K.nnz)


def _written(tracer, span, args, kwargs, result):
    tracer.count("archive.bytes_written", len(result.encode()))


def _read(tracer, span, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.count("archive.bytes_read", len(text.encode()))


def _main(tracer, span, args, kwargs, result):
    span.info = {"argv": list(args[0]) if args else None, "exit": result}
    if result != 0:
        tracer.count("cli.main.nonzero_exits")


def _collocation(tracer, span, args, kwargs, result):
    surface = args[0] if args else kwargs["surface"]
    rows = sum((surface.degree(e) + 1) ** 2
               for e in range(surface.cnet.n_faces))
    tracer.maximum("cli.collocation_bytes", rows * surface.cnet.n_vertices * 8)


HOOKS = {
    "construct_g1.solve_constrained_ls": _system_digest,
    "construct_g1.build_g1": _build_g1,
    "solve.assemble_poisson": _assemble_poisson,
    "archive.surface_to_json": _written,
    "archive.surface_from_json": _read,
    "cli.main": _main,
    "cli.collocation_singular_values": _collocation,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span's calls and self time, the hook counters and the
    derived ratios, keyed ``<module>.<function>.<what>``."""
    out: dict[str, float] = {}
    summary = tracer.summary()
    for name, row in summary.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update(tracer.counters)
    solves = summary.get("construct_g1.solve_constrained_ls", {}).get("calls", 0)
    out["construct_g1.distinct_systems"] = len(tracer.systems)
    out["construct_g1.ls_useful_ratio"] = (
        len(tracer.systems) / solves if solves else 0.0)
    out["construct_g1.pool_busy_frac"] = pool_busy_frac(tracer)
    out["trace.spans"] = len(tracer.spans)
    return out


def pool_busy_frac(tracer: Tracer) -> float:
    """Seconds spent in per-function solves (constraint problem set-up and
    solve) over threads x wall seconds of the ``build_g1`` calls."""
    busy = capacity = 0.0
    for s in tracer.spans:
        if s.name == "construct_g1.build_g1":
            threads = (s.info or {}).get("threads") or 1
            capacity += max(1, threads) * (s.end - s.start)
        elif (s.parent is not None and s.parent.name == "construct_g1.build_g1"
              and s.name.startswith("construct_g1.ConstraintProblem")):
            busy += s.end - s.start
    return busy / capacity if capacity else 0.0
