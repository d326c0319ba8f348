"""Spans around the calls into each franklbip layer, recorded from outside.

`Tracer.install()` replaces module attributes with timing wrappers and
`uninstall()` puts the originals back; no file of the package is touched.
Spans are kept in memory as tuples and written as JSONL at the end.  The
span stack is per thread; a span opened on a thread with an empty stack (a
sweep worker) takes as parent the innermost span open on the op's thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from time import perf_counter

# span tuple fields
SID, PARENT, NAME, T0, T1, OP, THREAD, COUNT = range(8)

MSS_ENTRY_POINTS = (
    "mss_stats", "count_mss_with_sizes", "stab_at_least_count", "left_avg",
    "conjecture_check", "almost_unstable_vertex", "count_left_at_least",
    "count_left_at_most", "is_maximal_stable",
)
VERIFY_ENTRY_POINTS = (
    "verify_lemma", "sweep", "run_average_campaign", "run_conjecture_campaign",
    "classify_regime",
)
SETFAMILY_ENTRY_POINTS = ("union_closure", "frankl_check", "parse_family")
TRIAL_SPANS = ("verify.verify_lemma", "verify.run_average_campaign",
               "verify.run_conjecture_campaign")


def _trials_arg(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments["trials"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._op_stack = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    # --- recording ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            # a worker thread's first span hangs under the span the op's thread is in
            op_stack = tracer._op_stack
            parent = stack[-1] if stack else (op_stack[-1] if op_stack else None)
            stack.append(sid)
            t0 = perf_counter()
            counted = None
            try:
                result = fn(*args, **kwargs)
                if count:
                    counted = count(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, perf_counter(), tracer.op,
                                     threading.get_ident(), counted))

        return wrapper

    def run_op(self, op_id, fn):
        """Run fn() under a root span named 'op' that carries op id `op_id`."""
        stack = self._stack()
        sid = next(self._ids)
        self.op, self._op_stack = op_id, stack
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, None, "op", t0, t1, op_id, threading.get_ident(), None))
            self.op, self._op_stack = None, None

    # --- wiring ------------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        from franklbip import bounds, cli, graphs, mss, setfamily, verify

        sample = self.wrap("graphs.sample_bipartite", graphs.sample_bipartite)
        # verify and cli bind sample_bipartite and parse_graph by name
        for owner in (graphs, verify, cli):
            self._patch(owner, "sample_bipartite", sample)
        parse = self.wrap("graphs.parse_graph", graphs.parse_graph)
        for owner in (graphs, cli):
            self._patch(owner, "parse_graph", parse)
        impl = mss._impl
        self._patch(impl, "scan_stats", self.wrap(
            "kernel.scan_stats", impl.scan_stats, lambda a, k, r: int(r[0])))
        self._patch(impl, "scan_free_hist", self.wrap(
            "kernel.scan_free_hist", impl.scan_free_hist, lambda a, k, r: int(sum(r))))
        for attr in MSS_ENTRY_POINTS:
            self._patch(mss, attr, self.wrap(f"mss.{attr}", getattr(mss, attr)))
        self._patch(mss.MssStats, "left_average",
                    self.wrap("mss.left_average", mss.MssStats.left_average))
        for attr in VERIFY_ENTRY_POINTS:
            fn = getattr(verify, attr)
            count = _trials_arg(fn) if f"verify.{attr}" in TRIAL_SPANS else None
            self._patch(verify, attr, self.wrap(f"verify.{attr}", fn, count))
        for attr, fn in vars(bounds).items():
            if (inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                    and not attr.startswith("_")):
                self._patch(bounds, attr, self.wrap(f"bounds.{attr}", fn))
        for attr in SETFAMILY_ENTRY_POINTS:
            self._patch(setfamily, attr, self.wrap(f"setfamily.{attr}",
                                                   getattr(setfamily, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_jsonl(self, path):
        """One JSON array per span after a header line naming the fields.

        Times are seconds since the first span; threads are numbered in
        order of appearance.
        """
        origin = min((s[T0] for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "op",
                                            "thread", "count"]}) + "\n")
            for s in self.spans:
                thread = threads.setdefault(s[THREAD], len(threads))
                fh.write(json.dumps([s[SID], s[PARENT], s[NAME], round(s[T0] - origin, 9),
                                     round(s[T1] - origin, 9), s[OP], thread, s[COUNT]],
                                    separators=(",", ":")) + "\n")


# --- analysis ----------------------------------------------------------------------

def layer(name):
    return name.split(".", 1)[0]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the time its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    return {s[SID]: (s[T1] - s[T0]) - _covered(children.get(s[SID], ()), s[T0], s[T1])
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of the given spans (one workload's ops)."""
    by_id = {s[SID]: s for s in spans}
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def busy(group):
        return sum(s[T1] - s[T0] for s in group)

    def entered(prefix):
        """Spans of a layer whose caller is outside that layer."""
        out = []
        for s in spans:
            parent = by_id.get(s[PARENT])
            if layer(s[NAME]) == prefix and (parent is None or layer(parent[NAME]) != prefix):
                out.append(s)
        return out

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    sample = named("graphs.sample_bipartite")
    stats = named("kernel.scan_stats")
    freehist = named("kernel.scan_free_hist")
    bounds_in = entered("bounds")
    out = {
        "graphs.sample.calls": (len(sample), "count"),
        "graphs.sample.busy_s": (busy(sample), "s"),
        "graphs.sample.us_per_graph": (ratio(busy(sample), len(sample), 1e6), "us"),
        "kernel.stats.calls": (len(stats), "count"),
        "kernel.stats.busy_s": (busy(stats), "s"),
        "kernel.stats.mss": (sum(s[COUNT] or 0 for s in stats), "count"),
        "kernel.stats.ns_per_mss": (ratio(busy(stats), sum(s[COUNT] or 0 for s in stats), 1e9), "ns"),
        "kernel.freehist.calls": (len(freehist), "count"),
        "kernel.freehist.busy_s": (busy(freehist), "s"),
        "kernel.freehist.leaves": (sum(s[COUNT] or 0 for s in freehist), "count"),
        "kernel.freehist.ns_per_leaf": (
            ratio(busy(freehist), sum(s[COUNT] or 0 for s in freehist), 1e9), "ns"),
        "mss.reduce.self_s": (sum(selfs[s[SID]] for s in spans if layer(s[NAME]) == "mss"
                                  and s[NAME] != "mss.is_maximal_stable"), "s"),
        "mss.is_maximal.busy_s": (busy(named("mss.is_maximal_stable")), "s"),
        "verify.trials": (sum(s[COUNT] or 0 for s in named(*TRIAL_SPANS)), "count"),
        "verify.campaign.self_s": (
            sum(selfs[s[SID]] for s in spans if layer(s[NAME]) == "verify"), "s"),
        "bounds.calls": (len(bounds_in), "count"),
        "bounds.busy_s": (busy(bounds_in), "s"),
        "setfamily.closure.calls": (len(named("setfamily.union_closure")), "count"),
        "setfamily.closure.busy_s": (busy(named("setfamily.union_closure")), "s"),
    }
    return out, selfs


def sweep_metrics(spans):
    """Parallelism and queueing of the point campaigns inside sweep spans."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s[PARENT], []).append(s)
    wall = busy = wait = 0.0
    for s in spans:
        if s[NAME] != "verify.sweep":
            continue
        points = [c for c in by_parent.get(s[SID], ())
                  if c[NAME] == "verify.run_average_campaign"]
        wall += s[T1] - s[T0]
        busy += sum(c[T1] - c[T0] for c in points)
        wait += sum(c[T0] - s[T0] for c in points)
    return busy / wall if wall else 0.0, wait
