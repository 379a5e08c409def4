"""Span tracer for the traced benchmark run.

``Tracer.install()`` replaces the gmtree callables that each module looks up at
call time (module attributes such as ``gmtree.inner.brentq`` and class
attributes such as ``ChannelContext.repair``) with wrappers that open a span
around the call, and remembers every original; ``uninstall()`` puts them
back. The untraced run never builds a Tracer, so it runs the package as is.
A target that does not exist (a later revision may delete it) is listed in
``absent`` and its metrics read 0; it does not stop the run.

A span has a name, a start, an end, the span that caused it (the one open
when it started) and an op id. Self time is duration minus the time covered
by child spans. Spans are aggregated as they close; the first ``KEEP_SPANS``
are also kept as records so they can be written out at the end.

Search statistics (evaluations, starts, line searches, infeasible
evaluations, spread of per-start optima) are attributed to the module that
called ``multi_start``: ``inner``, ``outer`` or ``lattice``.

``Tracer.metrics()`` gives the per-layer metrics by name; their units are the
ones BENCHMARK.json declares. Counts and self times are means per timed op,
so they do not grow when a faster program fits more ops into the same run.
"""

import math
import statistics
import sys
import time
from collections import defaultdict

clock = time.perf_counter

KEEP_SPANS = 50_000
SEARCH_CALLERS = ("inner", "outer", "lattice")

# (module, attribute, span name); the attribute is replaced in every gmtree
# module that holds the same object, so re-exported names are covered too.
PLAIN = [
    ("gmtree.inner", "build_joint", "inner.oracle"),
    ("gmtree.inner", "rank_f", "inner.oracle"),
    ("gmtree.inner", "tabulate_rank", "inner.oracle"),
    ("gmtree.inner", "polymatroid_audit", "inner.oracle"),
    ("gmtree.outer", "equality_rates", "outer.equality_rates"),
    ("gmtree.gauss", "conditional_cov", "gauss"),
    ("gmtree.gauss", "llse_coefficients", "gauss"),
    ("gmtree.gauss", "mmse", "gauss"),
    ("gmtree.gauss", "gaussian_cmi", "gauss"),
    ("gmtree.trees", "reroot", "trees.reroot"),
    ("gmtree.trees", "binarize", "trees.binarize"),
    ("gmtree.trees", "binary_cov", "trees.binary_cov"),
    ("gmtree.embedding", "markov_graph", "embedding"),
    ("gmtree.embedding", "markov_graph_exact", "embedding"),
    ("gmtree.embedding", "check_embed_conditions", "embedding"),
    ("gmtree.embedding", "embed3", "embedding"),
    ("gmtree.embedding", "converse_witness", "embedding"),
    ("gmtree.lattice", "separation_min_sum_rate", "lattice.separation"),
    ("gmtree.modelio", "load_model", "modelio.load_model"),
    ("gmtree.cli", "main", "cli.main"),
]
# solver entry points: a span plus the leaf and padding counts of the tree
SOLVERS = [
    ("gmtree.inner", "min_weighted_sum", "inner.min_weighted_sum"),
    ("gmtree.inner", "region_slice", "inner.region_slice"),
    ("gmtree.outer", "rd_out_min_weighted", "outer.rd_out_min_weighted"),
    ("gmtree.outer", "rd_out_min_weighted_free", "outer.free"),
]
# Monte Carlo entry points: a span plus the sample count of the result
SAMPLERS = [
    ("gmtree.lattice", "lattice_mc_distortion", "lattice.mc"),
    ("gmtree.lattice", "lattice_tail_prob", "lattice.tail"),
    ("gmtree.worstcase", "llse_equivalence_check", "worstcase"),
]
METHODS = [
    ("__init__", "inner.context"),
    ("distortion", "inner.distortion"),
    ("chain_value", "inner.chain_value"),
    ("rank_fast", "inner.rank_fast"),
]
_MISSING = object()


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, start, child time, span id]
        self.op_id = None
        self.next_id = 0
        self.spans = []  # (span id, name, start, end, parent span id, op id), capped
        self.spans_dropped = 0
        self.agg = {"op": defaultdict(lambda: [0, 0.0, 0.0]),
                    "setup": defaultdict(lambda: [0, 0.0, 0.0])}  # calls, incl, self
        self.count = defaultdict(float)
        self.gaps = []
        self.searches = []  # open multi_start contexts
        self.spreads = defaultdict(list)
        self.op_times = []
        self.op_uncovered = 0.0  # self time of the root op spans
        self.nesting_errors = 0
        self.absent = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _scope(self):
        return "setup" if self.op_id == "setup" else "op"

    def enter(self, name):
        self.stack.append([name, clock(), 0.0, self.next_id])
        self.next_id += 1

    def exit(self, name):
        end = clock()
        frame = self.stack.pop()
        if frame[0] != name:
            self.nesting_errors += 1
        fname, start, child, sid = frame
        dur = end - start
        a = self.agg[self._scope()][fname]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((sid, fname, start, end, parent, self.op_id))
        else:
            self.spans_dropped += 1
        return dur, dur - child

    def begin(self, op_id):
        """Open the root span of op ``op_id`` (or of the set-up, "setup")."""
        self.op_id = op_id
        self.enter("setup" if op_id == "setup" else "op")

    def end(self):
        name = "setup" if self.op_id == "setup" else "op"
        dur, own = self.exit(name)
        if name == "op":
            self.op_times.append(dur)
            self.op_uncovered += own
        self.op_id = None
        return dur

    def _caller(self, prefix):
        for frame in reversed(self.stack):
            if frame[0].startswith(prefix):
                return frame[0]
        return None

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            tr.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.exit(name)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counted_brentq(self, fn, key, span=None):
        tr = self

        def wrapper(f, *args, **kwargs):
            def counted(x, *fargs):
                tr.count[key] += 1
                return f(x, *fargs)

            if span is None:
                return fn(counted, *args, **kwargs)
            caller = tr._caller("outer.")
            tr.count["outer.pin.from_free.calls" if caller == "outer.free"
                     else "outer.pin.from_weighted.calls"] += 1
            tr.enter(span)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tr.exit(span)

        return wrapper

    def _multi_start(self, fn, caller):
        tr = self
        name = f"search.{caller}"

        def wrapper(objective, *args, **kwargs):
            def counted(x):
                v = objective(x)
                tr.count[name + ".evals"] += 1
                if not math.isfinite(v):
                    tr.count[name + ".infeasible"] += 1
                return v

            tr.searches.append((name, []))
            tr.enter(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tr.exit(name)
                _, optima = tr.searches.pop()
                finite = [v for v in optima if math.isfinite(v)]
                if finite:
                    tr.spreads[name].append(max(finite) - min(finite))

        return wrapper

    def _descent(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            x, fx = fn(*args, **kwargs)
            if tr.searches:
                name, optima = tr.searches[-1]
                tr.count[name + ".starts"] += 1
                optima.append(fx)
            return x, fx

        return wrapper

    def _golden(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.searches:
                tr.count[tr.searches[-1][0] + ".line_searches"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_solve(self, args, kwargs, out):
        tree = args[0] if args else kwargs["tree"]
        self.count["trees.solves"] += 1
        self.count["trees.leaves"] += tree.leaf_count
        self.count["trees.padding"] += len(tree.padding)

    def _after_sample(self, name):
        def after(args, kwargs, out):
            self.count[name + ".samples"] += out.samples
        return after

    def _after_matchup(self, args, kwargs, rep):
        self.count["outer.matchup_verify.rows"] += len(rep.rows)
        self.gaps.extend(abs(row[-1]) for row in rep.rows)

    def _after_repair(self, args, kwargs, out):
        if out is None:
            self.count["inner.repair.misses"] += 1

    # -- install / uninstall -----------------------------------------------

    def _patch_everywhere(self, modname, attr, make):
        home = sys.modules.get(modname)
        obj = getattr(home, attr, _MISSING) if home is not None else _MISSING
        if obj is _MISSING:
            self.absent.append(f"{modname}.{attr}")
            return
        wrapper = make(obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gmtree" or name.startswith("gmtree.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is obj:
                    self._saved.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def _patch_one(self, owner, label, attr, wrapper_of):
        obj = owner.__dict__.get(attr, _MISSING) if owner is not None else _MISSING
        if obj is _MISSING:
            self.absent.append(f"{label}.{attr}")
            return
        self._saved.append((owner, attr, obj))
        setattr(owner, attr, wrapper_of(obj))

    def install(self):
        for modname, attr, span in PLAIN:
            self._patch_everywhere(modname, attr, lambda f, s=span: self._span(f, s))
        for modname, attr, span in SOLVERS:
            self._patch_everywhere(
                modname, attr, lambda f, s=span: self._span(f, s, self._after_solve))
        for modname, attr, span in SAMPLERS:
            self._patch_everywhere(
                modname, attr, lambda f, s=span: self._span(f, s, self._after_sample(s)))
        self._patch_everywhere(
            "gmtree.outer", "matchup_verify",
            lambda f: self._span(f, "outer.matchup_verify", self._after_matchup))

        mods = {c: sys.modules.get(f"gmtree.{c}") for c in ("inner", "outer", "lattice", "_search")}
        self._patch_one(mods["inner"], "gmtree.inner", "brentq",
                        lambda f: self._counted_brentq(f, "inner.repair.root_evals"))
        self._patch_one(mods["outer"], "gmtree.outer", "brentq",
                        lambda f: self._counted_brentq(f, "outer.pin.root_evals", "outer.pin"))
        self._patch_one(mods["lattice"], "gmtree.lattice", "brentq",
                        lambda f: self._counted_brentq(f, "lattice.separation.root_evals"))
        for c in SEARCH_CALLERS:
            self._patch_one(mods[c], f"gmtree.{c}", "multi_start",
                            lambda f, c=c: self._multi_start(f, c))
        self._patch_one(mods["_search"], "gmtree._search", "coordinate_descent", self._descent)
        self._patch_one(mods["_search"], "gmtree._search", "golden_min", self._golden)

        ctx = getattr(mods["inner"], "ChannelContext", None)
        for attr, span in METHODS:
            self._patch_one(ctx, "gmtree.inner.ChannelContext", attr,
                            lambda f, s=span: self._span(f, s))
        self._patch_one(ctx, "gmtree.inner.ChannelContext", "repair",
                        lambda f: self._span(f, "inner.repair", self._after_repair))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics of the timed ops, as {name: value}."""
        n = max(len(self.op_times), 1)
        op_total = sum(self.op_times)
        agg, setup = self.agg["op"], self.agg["setup"]
        cnt = self.count
        v = {}

        def span(name, prefix=None):
            calls, incl, own = agg[name] if name in agg else (0, 0.0, 0.0)
            p = prefix or name
            v[p + ".calls"] = calls / n
            v[p + ".self_s"] = own / n
            v[p + ".us_per_call"] = 1e6 * incl / calls if calls else 0.0
            return calls, incl

        for c in SEARCH_CALLERS:
            s = f"search.{c}"
            evals = cnt[s + ".evals"]
            v[s + ".evals"] = evals / n
            v[s + ".starts"] = cnt[s + ".starts"] / n
            v[s + ".line_searches"] = cnt[s + ".line_searches"] / n
            v[s + ".inf_ratio"] = cnt[s + ".infeasible"] / evals if evals else 0.0
            v[s + ".start_spread"] = statistics.fmean(self.spreads[s]) if self.spreads[s] else 0.0
        for name in ("inner.min_weighted_sum", "inner.context", "inner.distortion",
                     "inner.chain_value", "inner.rank_fast", "inner.region_slice",
                     "inner.oracle", "outer.rd_out_min_weighted", "outer.free",
                     "outer.equality_rates", "outer.matchup_verify", "gauss",
                     "trees.binary_cov", "embedding", "lattice.separation",
                     "worstcase", "modelio.load_model", "cli.main"):
            span(name)
        calls, _ = span("inner.repair")
        v["inner.repair.root_evals_per_call"] = cnt["inner.repair.root_evals"] / calls if calls else 0.0
        v["inner.repair.miss_ratio"] = cnt["inner.repair.misses"] / calls if calls else 0.0
        calls, _ = span("outer.pin")
        v["outer.pin.root_evals_per_call"] = cnt["outer.pin.root_evals"] / calls if calls else 0.0
        v["outer.pin.from_weighted.calls"] = cnt["outer.pin.from_weighted.calls"] / n
        v["outer.pin.from_free.calls"] = cnt["outer.pin.from_free.calls"] / n
        v["outer.matchup_verify.rows"] = cnt["outer.matchup_verify.rows"] / n
        v["outer.matchup.gap_max_nats"] = max(self.gaps, default=0.0)
        v["outer.matchup.gap_p50_nats"] = statistics.median(self.gaps) if self.gaps else 0.0
        # reroot and binarize run while models are reduced, in the set-up
        for name in ("trees.reroot", "trees.binarize"):
            v[name + ".self_s"] = setup[name][2] + (agg[name][2] if name in agg else 0.0)
        solves = cnt["trees.solves"]
        v["trees.padding_share"] = cnt["trees.padding"] / cnt["trees.leaves"] if solves else 0.0
        v["trees.leaves_per_solve"] = cnt["trees.leaves"] / solves if solves else 0.0
        lat = cnt["lattice.separation.root_evals"]
        v["lattice.separation.root_evals"] = lat / n
        for name, key in (("lattice.mc", "lattice.mc.samples_per_s"),
                          ("lattice.tail", "lattice.tail.samples_per_s"),
                          ("worstcase", "worstcase.samples_per_s")):
            incl = agg[name][1] if name in agg else 0.0
            v[key] = cnt[name + ".samples"] / incl if incl else 0.0
        for name in ("inner.repair", "inner.chain_value", "outer.pin"):
            incl = agg[name][1] if name in agg else 0.0
            v["share." + name] = incl / op_total if op_total else 0.0
        v["trace.overhead_ratio"] = overhead_ratio
        # share of op time inside no named span: the workload's own code
        v["trace.uncovered_share"] = self.op_uncovered / op_total if op_total else 0.0
        return v
