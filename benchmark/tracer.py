"""Outside-in tracer for posetcode.

Nothing under src/ knows about it.  install() replaces, from outside,

  * every public module-level function of every posetcode module, and
    every binding of that same function object in other modules (cli
    binds the handlers' callees, distribution binds
    hierarchy.min_weight_ideal_scan, the package re-exports almost
    everything);
  * every public method of every public class, patched on the class, so
    RankProfile.rank, Matrix.echelon, Poset.ideals and the rest are
    traced however they are reached;
  * generator functions (LinearCode.codewords, reduced_echelon_rows) by a
    wrapper that opens one span per resumption, so a stream's time
    leaves out the consumer's work between items;
  * the GF element operations add, sub, mul and inv by bare counters, not
    spans: they run millions of times per query and have no children.

bitset and errors are skipped: they are leaf helpers whose time belongs
to the layer that calls them.

A span is (name, start, end, parent, query).  All calls of one name
under one parent span share a record, which adds up their durations
(busy) and counts them (calls); without that, the half million rank
look-ups of one census query would each need a record.  Records are
kept in in-memory arrays and written out once, by write_spans, when the
run ends.

Self time is computed as spans close: a span's duration minus the
durations of its direct children, which in one thread never overlap, so
it equals the time its child spans cover.  Self time is linear in the
spans, so merging calls into records keeps it exact.  The tracer's own
bookkeeping around each span is measured (overhead) and charged to no
layer, so that a parent with many cheap children does not absorb it;
the part of it that no clock read can see, the calls into and out of
the wrapper, is calibrated once per run (calibrate) and deducted per
call.  The GF counters are not calibrated: their cost, about a tenth
of a microsecond per operation, stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array

clock = time.perf_counter

SKIPPED_MODULES = ("bitset", "errors")
COUNTED_FIELD_OPS = ("add", "sub", "mul", "inv")


def _empty(value):
    return value


def _call_loop(fn, calls: int) -> None:
    if fn is None:
        for i in range(calls):
            pass
    else:
        for i in range(calls):
            fn(i)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        self.self_s: list[float] = []
        self.inclusive_s: list[float] = []
        self.active: list[int] = []
        # span records: all calls of one name under one parent span
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_calls = array("l")
        self.span_busy = array("d")
        self.span_overhead = array("d")
        # frame: [record, time covered by children, child records by name, start, bookkeeping before start]
        self.stack: list[list] = [[-1, 0.0, None, 0.0, 0.0]]
        self.query = -1
        # per-call wrapper costs outside the clock reads, set by calibrate()
        self.caller_cost = 0.0
        self.callee_cost = 0.0
        self.field_ops = {op: [0] for op in COUNTED_FIELD_OPS}
        self.ideal_count = 0
        self.interval_terms = 0
        self.selftest_checks = 0
        self._posets_seen: list[object] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        for column in (self.calls, self.items, self.active):
            column.append(0)
        self.self_s.append(0.0)
        self.inclusive_s.append(0.0)
        return len(self.names) - 1

    def _enter(self, nid: int) -> list:
        before = clock()
        parent = self.stack[-1]
        children = parent[2]
        if children is None:
            children = parent[2] = {}
        rid = children.get(nid)
        if rid is None:
            rid = children[nid] = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent[0])
            self.span_query.append(self.query)
            self.span_calls.append(0)
            for column in (self.span_start, self.span_end, self.span_busy, self.span_overhead):
                column.append(0.0)
        self.active[nid] += 1
        frame = [rid, 0.0, None, 0.0, 0.0]
        self.stack.append(frame)
        start = clock()
        frame[3] = start
        frame[4] = start - before
        return frame

    def _exit(self, frame: list, nid: int) -> None:
        end = clock()
        self.stack.pop()
        rid, covered, _, start, before = frame
        duration = end - start - self.callee_cost
        if not self.span_calls[rid]:
            self.span_start[rid] = start
        self.span_end[rid] = end
        self.span_calls[rid] += 1
        self.span_busy[rid] += duration
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        self.active[nid] -= 1
        if not self.active[nid]:
            self.inclusive_s[nid] += duration
        parent = self.stack[-1]
        # the tracer's own time is charged to no layer
        overhead = before + clock() - end + self.callee_cost + self.caller_cost
        self.span_overhead[rid] += overhead
        parent[1] += duration + overhead

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure the part of a traced call's cost that no clock read sees.

        Calling the wrapper and returning from it lands in the caller's
        self time; the wrapper's own call into the function lands in the
        callee's.  Timing a loop of calls to an empty function bare,
        untraced and traced gives both per call (medians of repeats), and
        _exit deducts them, as the calibration of the profile module does.
        """
        caller, callee = [], []
        for _ in range(repeats):
            scratch = Tracer()
            traced_loop = scratch.wrap(_call_loop, "loop", "calibration")
            traced_empty = scratch.wrap(_empty, "empty", "calibration")
            start = clock()
            _call_loop(None, calls)
            bare = clock() - start
            start = clock()
            _call_loop(_empty, calls)
            plain = clock() - start
            traced_loop(traced_empty, calls)
            caller.append((scratch.self_s[0] - bare) / calls)
            callee.append((scratch.self_s[1] - (plain - bare)) / calls)
        self.caller_cost = max(0.0, statistics.median(caller))
        self.callee_cost = max(0.0, statistics.median(callee))

    def begin_query(self, query: int) -> None:
        self.query = query
        self.stack[0][2] = None
        self._posets_seen.clear()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, on_result=None):
        nid = self._name_id(name, layer)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame, nid)
                        tracer.items[nid] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, nid)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def count(fn, cell: list[int]):
        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    # -- counts read from results ------------------------------------------

    def _on_ideals(self, args, kwargs, result) -> None:
        # |J(P)| once per poset object and query, whoever asks first
        size = args[1] if len(args) > 1 else kwargs.get("size")
        poset = args[0]
        if size is None and not any(p is poset for p in self._posets_seen):
            self._posets_seen.append(poset)
            self.ideal_count += len(result)

    def _on_interval(self, args, kwargs, result) -> None:
        self.interval_terms += len(result)

    def _on_selftest(self, args, kwargs, result) -> None:
        self.selftest_checks += sum(result.counts.values())

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package in place; call once, before the traced queries."""
        hooks = {
            "poset.Poset.ideals": self._on_ideals,
            "poset.Poset.interval": self._on_interval,
            "selftest.run_selftest": self._on_selftest,
        }
        prefix = package.__name__ + "."
        modules = [package] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        replaced: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            layer = mod.__name__[len(prefix) :]
            if layer in SKIPPED_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self.wrap(obj, name, layer, hooks.get(name)))
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer, hooks)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _patch_class(self, cls, layer: str, hooks: dict) -> None:
        if cls.__name__ == "GF":
            for op in COUNTED_FIELD_OPS:
                setattr(cls, op, self.count(cls.__dict__[op], self.field_ops[op]))
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = self.wrap(raw.__func__, name, layer, hooks.get(name))
                setattr(cls, attr, type(raw)(wrapped))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, layer, hooks.get(name)))

    # -- results ---------------------------------------------------------------

    def by_name(self, column: list) -> dict[str, float]:
        return dict(zip(self.names, column))

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, seconds in zip(self.layers, self.self_s):
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write_spans(self, path) -> None:
        """Write the span records as a numpy .npz: name (index into names,
        whose layer is in layers), parent (record index, -1 at the top),
        query, start of the first call, end of the last, calls, busy (their
        summed duration, net of the calibrated wrapper cost) and overhead (the
        tracer's time around them, measured and calibrated)."""
        import numpy as np

        ints = {"name": self.span_name, "parent": self.span_parent, "query": self.span_query, "calls": self.span_calls}
        floats = {"start": self.span_start, "end": self.span_end, "busy": self.span_busy, "overhead": self.span_overhead}
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **{key: np.frombuffer(column, dtype=np.int_) for key, column in ints.items()},
            **{key: np.frombuffer(column, dtype=np.float64) for key, column in floats.items()},
        )


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced query, as name -> (value, unit)."""
    calls = tracer.by_name(tracer.calls)
    items = tracer.by_name(tracer.items)
    own = tracer.by_name(tracer.self_s)
    inclusive = tracer.by_name(tracer.inclusive_s)
    layer_self = tracer.self_by_layer()
    ops = {op: cell[0] for op, cell in tracer.field_ops.items()}
    ideals = tracer.ideal_count

    def per_query(value: float) -> float:
        return value / queries

    def per_ideal(value: float) -> float:
        return value / ideals if ideals else 0.0

    rank_calls = calls.get("matroid.RankProfile.rank", 0)
    dual_rank_calls = calls.get("matroid.RankProfile.dual_rank", 0)
    checks_s = inclusive.get("matroid.check_rank_axioms", 0.0) + inclusive.get(
        "matroid.check_complement_rank_identity", 0.0
    )
    counts = {
        "field.mul_calls": ops["mul"],
        "field.addsub_calls": ops["add"] + ops["sub"],
        "field.inv_calls": ops["inv"],
        "matroid.rank_calls": rank_calls,
        "matroid.dual_rank_calls": dual_rank_calls,
        "hierarchy.scan_calls": calls.get("hierarchy.min_weight_ideal_scan", 0),
        "poset.ideal_count": ideals,
        "poset.interval_terms": tracer.interval_terms,
        "poset.closure_calls": calls.get("poset.Poset.ideal_closure", 0),
        "code.codewords_streamed": items.get("code.LinearCode.codewords", 0),
        "code.shorten_calls": calls.get("code.LinearCode.shorten", 0),
        "matrix.echelon_calls": calls.get("matrix.Matrix.echelon", 0),
        "selftest.checks": tracer.selftest_checks,
    }
    seconds = {
        "matroid.self_s": layer_self.get("matroid", 0.0),
        "matroid.checks_s": checks_s,
        "hierarchy.self_s": layer_self.get("hierarchy", 0.0),
        "hierarchy.bruteforce_s": inclusive.get("hierarchy.min_weight_bruteforce", 0.0),
        "distribution.self_s": layer_self.get("distribution", 0.0),
        "distribution.classify_s": inclusive.get("distribution.classify", 0.0),
        "poset.ideals_s": inclusive.get("poset.Poset.ideals", 0.0),
        "poset.self_s": layer_self.get("poset", 0.0),
        "code.stream_s": own.get("code.LinearCode.codewords", 0.0),
        "code.self_s": layer_self.get("code", 0.0),
        "matrix.self_s": layer_self.get("matrix", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "selftest.self_s": layer_self.get("selftest", 0.0),
    }
    out = {name: (per_query(value), "count/query") for name, value in counts.items()}
    out.update({name: (per_query(value), "s/query") for name, value in seconds.items()})
    out["matroid.calls_per_ideal"] = (per_ideal(rank_calls + dual_rank_calls), "ratio")
    out["poset.interval_terms_per_ideal"] = (per_ideal(tracer.interval_terms), "ratio")
    return out
