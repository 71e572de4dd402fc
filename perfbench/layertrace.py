"""Layer tracer, installed from outside the package, in two kinds of pass.

A *count pass* (:class:`CountTracer`) wraps every public function and method
of the seven calogero modules, under every name a caller looks it up by
(``calogero.suites.apply_dunkl`` as well as ``calogero.dunkl.apply_dunkl``),
and only counts calls; the result hooks in :data:`HOOKS` add work counters
(suite cases, ODE steps).  Its time is not used.

A *timing pass* (:class:`TimeTracer`) wraps only the layer-boundary entry
points:

* a public module-level function under the names other layers look it up by,
  not under its own module's global, so calls inside its layer stay unwrapped;
* a public method on its class, with a wrapper that calls straight through
  when the caller runs in the same layer;
* the benchmark's entry point ``cli.main`` and the functions named by the
  per-function metrics (:data:`TIMED`), under every name.

It records a span (function, start, end, parent span, job id) at every entry
into a layer from another, except that entries into ``exactalg``, which calls
no other layer, are summed per function (see :class:`TimeTracer`), and it
keeps busy and self time for the functions in :data:`TIMED`.  ``CouplingPoly``, the coefficient ring inside ``MultiPoly``,
is never entered from another layer and is not wrapped.

Both tracers hand back plain data (:meth:`data`) that pickles, so each pass
can run in its own interpreter; :func:`layer_metrics` combines the two.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "suites", "dunkl", "exactalg", "symbolcalc", "transport", "laxdyn")

# operator methods that are part of a class's public surface
_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__",
            "__eq__", "__call__")

# counted although private or constructors: (layer, qualified name)
_EXTRA = {("laxdyn", "PhasePoint.__init__"), ("laxdyn", "_rk4_step")}

# public names left unwrapped: the coefficient ring (see the module docstring)
_SKIP_CLASSES = {("exactalg", "CouplingPoly")}

# layers that call no other layer; the timing pass keeps per-function totals
# for calls into them instead of one span row per call
_LEAF = frozenset({LAYERS.index("exactalg")})

# exactalg entry points are reported in these groups
_SECTION_ADDSUB = {"RationalSection.__add__", "RationalSection.__sub__"}
EXACTALG_GROUPS = ("section_addsub", "section_other", "section_eq", "multipoly",
                   "permutation")


def exactalg_group(qualname: str) -> str:
    if qualname in _SECTION_ADDSUB:
        return "section_addsub"
    if qualname == "RationalSection.__eq__":
        return "section_eq"
    if qualname.startswith("RationalSection."):
        return "section_other"
    if qualname.startswith("Permutation."):
        return "permutation"
    return "multipoly"


def _targets():
    """(layer index, "layer.qualname", owner, attribute, function, descriptor)
    for every public function and method of the seven modules; a function
    bound under several attributes of one class comes once per attribute."""
    for li, lname in enumerate(LAYERS):
        mod = sys.modules[f"calogero.{lname}"]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not name.startswith("_") or (lname, name) in _EXTRA:
                    yield li, f"{lname}.{name}", mod, name, obj, None
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not name.startswith("_") and not issubclass(obj, BaseException)
                  and (lname, name) not in _SKIP_CLASSES):
                for attr, raw in list(vars(obj).items()):
                    qual = f"{name}.{attr}"
                    if (attr.startswith("_") and attr not in _DUNDERS
                            and (lname, qual) not in _EXTRA):
                        continue
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if inspect.isfunction(fn):
                        yield li, f"{lname}.{qual}", obj, attr, fn, kind


class _Tracer:
    """Wraps the package in place; :meth:`uninstall` puts everything back."""

    def __init__(self):
        self.names: list[str] = []        # "layer.qualname" per function id
        self.layer_of: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for li, full, owner, attr, fn, kind in list(_targets()):
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                fid = len(self.names)
                self.names.append(full)
                self.layer_of.append(li)
                wrapper = wrappers[id(fn)] = self._wrap(fid, li, full, fn)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper if kind is None else kind(wrapper))
        # module-level functions: patch the names chosen by _patch_in
        by_id = {id(fn): (full, fn) for _, full, owner, _, fn, _ in _targets()
                 if not inspect.isclass(owner)}
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") if mod is not None else ""
            if not name.startswith("calogero"):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[1] is val and self._patch_in(hit[0], name):
                    self._set(mod, attr, wrappers[id(val)])

    def _patch_in(self, full: str, module: str) -> bool:
        return True

    def _wrap(self, fid, li, full, fn):
        raise NotImplementedError

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class CountTracer(_Tracer):
    """Counts every call of every public function and method."""

    def __init__(self):
        super().__init__()
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}

    def _wrap(self, fid, li, full, fn):
        self.calls.append(0)
        calls = self.calls
        hook = HOOKS.get(full)
        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                result = fn(*args, **kwargs)
                hook(self, args, result)
                return result
        return wrapper

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def data(self) -> dict:
        return {"names": self.names, "layer_of": self.layer_of, "calls": self.calls,
                "counters": self.counters}


class TimeTracer(_Tracer):
    """Spans at layer boundaries, busy and self time of the :data:`TIMED` functions.

    A span's row is appended when the call enters the layer, and its end and
    the time of its child spans are filled in when it returns.  Entries into
    a leaf layer (:data:`_LEAF`), which calls no other layer, are not kept
    as rows: each adds its time to the enclosing span's child time and to
    its function's total and count.  ``symbols`` enters ``exactalg`` about
    half a million times per pass, and a row per entry cost about as much
    again as the work it measured."""

    def __init__(self):
        super().__init__()
        self.busy: dict[int, float] = {}   # outermost-per-function time
        self.fself: dict[int, float] = {}  # time minus timed callees and child spans
        self.leaf: dict[int, list] = {}    # [calls, time] of entries into a leaf layer
        self.sp_fid = array("i")
        self.sp_parent = array("i")
        self.sp_job = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_child = array("d")        # time of the span's child spans
        self.sp_outer = array("b")        # 1 if no span of the same layer encloses it
        self.job = -1
        # [layer running now (-1 = benchmark), innermost open span, time of
        #  child spans inside that span, time of timed callees and child spans
        #  inside the innermost timed call]
        self._now = [-1, -1, 0.0, 0.0]
        self._depth = [0] * len(LAYERS)

    def _patch_in(self, full: str, module: str) -> bool:
        # a module function is an entry point only where another layer looks it up
        return full in TIMED or module != f"calogero.{full.split('.', 1)[0]}"

    def _wrap(self, fid, li, full, fn):
        now, depth_of, clock, tracer = self._now, self._depth, time.perf_counter, self
        fids, parents, jobs, outers = self.sp_fid, self.sp_parent, self.sp_job, self.sp_outer
        starts, ends, childs = self.sp_start, self.sp_end, self.sp_child

        def enter():
            """Open a span row; returns its index and what :func:`leave` restores."""
            span = len(fids)
            fids.append(fid)
            parents.append(now[1])
            jobs.append(tracer.job)
            depth = depth_of[li]
            outers.append(depth == 0)
            depth_of[li] = depth + 1
            saved = (now[0], now[1], now[2], depth)
            now[0], now[1], now[2] = li, span, 0.0
            return span, saved

        def leave(span, saved, elapsed, t1):
            ends[span] = t1
            childs[span] = now[2]
            now[0], now[1] = saved[0], saved[1]
            now[2] = saved[2] + elapsed
            depth_of[li] = saved[3]

        if li in _LEAF and full not in TIMED:
            # a call into a leaf layer has no child spans: keep its time and
            # count per function instead of a row per call
            acc = self.leaf[fid] = [0, 0.0]

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                layer = now[0]
                if layer == li:
                    return fn(*args, **kwargs)
                now[0] = li
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    now[0] = layer
                    now[2] += elapsed
                    now[3] += elapsed
                    acc[0] += 1
                    acc[1] += elapsed
            return leaf

        if full not in TIMED:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if now[0] == li:
                    return fn(*args, **kwargs)
                span, saved = enter()
                outer_callee = now[3]
                t0 = clock()
                starts.append(t0)
                ends.append(t0)
                childs.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    leave(span, saved, t1 - t0, t1)
                    now[3] = outer_callee + (t1 - t0)
            return wrapper

        busy, fself = self.busy, self.fself
        busy[fid] = fself[fid] = 0.0
        active = [0]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            boundary = now[0] != li
            if boundary:
                span, saved = enter()
            outer_callee = now[3]
            now[3] = 0.0
            active[0] += 1
            t0 = clock()
            if boundary:
                starts.append(t0)
                ends.append(t0)
                childs.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                active[0] -= 1
                if active[0] == 0:
                    busy[fid] += elapsed
                fself[fid] += elapsed - now[3]
                now[3] = outer_callee + elapsed
                if boundary:
                    leave(span, saved, elapsed, t1)
        return timed

    def data(self) -> dict:
        return {"names": self.names, "layer_of": self.layer_of,
                "busy": {self.names[f]: v for f, v in self.busy.items()},
                "self": {self.names[f]: v for f, v in self.fself.items()},
                "leaf": {self.names[f]: tuple(v) for f, v in self.leaf.items()},
                "spans": {k: bytes(getattr(self, f"sp_{k}"))
                          for k in ("fid", "parent", "job", "start", "end", "child",
                                    "outer")}}


def span_table(time_data: dict) -> dict:
    """Spans as numpy arrays, with per-span self time: duration minus the
    time of child spans and of calls into leaf layers."""
    import numpy as np

    raw = time_data["spans"]
    col = {k: np.frombuffer(raw[k], dtype=t) for k, t in (
        ("fid", np.int32), ("parent", np.int32), ("job", np.int32), ("start", np.float64),
        ("end", np.float64), ("child", np.float64), ("outer", np.int8))}
    col["outer"] = col["outer"].astype(bool)
    col["dur"] = col["end"] - col["start"]
    col["self"] = col["dur"] - col["child"]
    return col


def save_spans(path: str, time_data: dict) -> None:
    """Write every span of a timing pass, the per-function totals of calls
    into leaf layers and the function-name table as one .npz file."""
    import numpy as np

    table = span_table(time_data)
    leaf = time_data["leaf"]
    np.savez(path, names=np.array(time_data["names"]), layers=np.array(LAYERS),
             layer_of=np.array(time_data["layer_of"], dtype=np.int32),
             leaf_names=np.array(list(leaf), dtype=str),
             leaf_calls=np.array([c for c, _ in leaf.values()], dtype=np.int64),
             leaf_s=np.array([t for _, t in leaf.values()], dtype=np.float64),
             **{k: table[k] for k in ("fid", "parent", "job", "start", "end", "child")})


# -- per-layer metrics ---------------------------------------------------------

def _hooks() -> dict:
    """Count-pass result hooks, keyed "layer.qualname", called as f(tracer, args, result)."""

    def cases(tracer, args, result):
        tracer.add("suites.cases", result["caseCount"])

    def ode(tracer, args, result):
        tracer.add("transport.ode_steps", result.step_stats["steps"])
        tracer.add("transport.ode_rejected", result.step_stats["rejected"])

    def rhs(tracer, args, result):
        tracer.add("transport.rhs_bytes_computed", 16 * args[0].dim ** 2)

    return {"suites.run_suite": cases, "transport.transport_ode": ode,
            "transport.ConnectionMatrix.velocity_matrix": rhs}


HOOKS = _hooks()

# per-function metrics: metric name -> (function, field); field is one of
# "calls" (count pass), "s" (busy time) or "self_s" (time minus the timed
# functions and layer entries it calls), both from the timing pass
_FUNCTION_METRICS = {
    "suites.run_suite.calls": ("suites.run_suite", "calls"),
    **{f"suites.{short}.s": (f"suites.{full}", "s") for short, full in (
        ("zerocurv", "zero_curvature_suite"), ("intertwine", "intertwining_suite"),
        ("sumsq", "sum_squares_suite"), ("permrel", "permutation_relations_suite"),
        ("restriction", "restriction_suite"))},
    "dunkl.apply_dunkl.calls": ("dunkl.apply_dunkl", "calls"),
    "dunkl.sum_of_squares.s": ("dunkl.sum_of_squares", "s"),
    "dunkl.restricted_projection.s": ("dunkl.restricted_projection", "s"),
    "symbolcalc.permutation_series.s": ("symbolcalc.permutation_series", "s"),
    "symbolcalc.quantize_apply.s": ("symbolcalc.quantize_apply", "s"),
    "symbolcalc.apply_shift_word.s": ("symbolcalc.apply_shift_word", "s"),
    "transport.velocity_matrix.calls": ("transport.ConnectionMatrix.velocity_matrix", "calls"),
    "transport.velocity_matrix.s": ("transport.ConnectionMatrix.velocity_matrix", "s"),
    "transport.ode.self_s": ("transport.transport_ode", "self_s"),
    "transport.transport_dyson.s": ("transport.transport_dyson", "s"),
    "transport.verify_flatness.s": ("transport.verify_flatness", "s"),
    "transport.build_local_system.s": ("transport.build_local_system", "s"),
    "laxdyn.integrate.self_s": ("laxdyn.integrate", "self_s"),
    "laxdyn.steps": ("laxdyn._rk4_step", "calls"),
    "laxdyn.trace_integrals.calls": ("laxdyn.trace_integrals", "calls"),
    "laxdyn.trace_integrals.s": ("laxdyn.trace_integrals", "s"),
    "laxdyn.hamiltonian.calls": ("laxdyn.hamiltonian", "calls"),
    "laxdyn.hamiltonian.s": ("laxdyn.hamiltonian", "s"),
    "laxdyn.PhasePoint.calls": ("laxdyn.PhasePoint.__init__", "calls"),
}

# functions the timing pass times under every name: the timed per-function
# metrics, and the entry point the benchmark itself calls
TIMED = frozenset({fname for fname, fld in _FUNCTION_METRICS.values() if fld != "calls"}
                  | {"cli.main"})

_COUNTERS = ("suites.cases", "transport.ode_steps", "transport.ode_rejected",
             "transport.rhs_bytes_computed")


def layer_metrics(time_data: dict, count_data: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit): times and boundary-crossing
    counts from the timing pass, call counts and work counters from the count
    pass.  A layer a workload does not enter reads 0."""
    import numpy as np

    spans = span_table(time_data)
    span_layer = np.array(time_data["layer_of"], dtype=np.int32)[spans["fid"]]
    leaf = {name: (c, t) for name, (c, t) in time_data["leaf"].items() if c}
    calls = dict(zip(count_data["names"], count_data["calls"]))
    out: dict[str, tuple[float, str]] = {}
    for li, lname in enumerate(LAYERS):
        mine = span_layer == li
        leaf_s = sum(t for name, (_, t) in leaf.items() if name.startswith(lname + "."))
        out[f"{lname}.s"] = (float(spans["dur"][mine & spans["outer"]].sum()) + leaf_s, "s")
        out[f"{lname}.self_s"] = (float(spans["self"][mine].sum()) + leaf_s, "s")
        out[f"{lname}.calls"] = (sum(c for n, c in calls.items()
                                     if n.startswith(lname + ".")), "count")
    for group in EXACTALG_GROUPS:
        mine = [(c, t) for name, (c, t) in leaf.items()
                if name.startswith("exactalg.") and exactalg_group(name.split(".", 1)[1]) == group]
        out[f"exactalg.{group}.s"] = (sum(t for _, t in mine), "s")
        out[f"exactalg.{group}.calls"] = (sum(c for c, _ in mine), "count")
    for metric, (fname, fld) in _FUNCTION_METRICS.items():
        if fld == "calls":
            out[metric] = (calls[fname], "count")
        else:
            out[metric] = (time_data["busy" if fld == "s" else "self"][fname], "s")
    for name in _COUNTERS:
        unit = "B" if name.endswith("bytes_computed") else "count"
        out[name] = (count_data["counters"].get(name, 0), unit)
    steps = out["transport.ode_steps"][0]
    tried = steps + out["transport.ode_rejected"][0]
    out["transport.ode_accept_ratio"] = (steps / tried if tried else 0.0, "ratio")
    return out
