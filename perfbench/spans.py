"""Spans and counters for the benchmark's traced run.

The tracer wraps devilsmenu functions from the outside: every module
attribute that holds one of the functions below is replaced by a wrapper
that records a span (name, start, end, parent) per call. The spans stay in
memory and are written out when the pass ends. Hot methods of the
equilibrium context get counters instead of spans.

A span's self time is its duration minus the time its child spans cover.
Every "_s" metric below is a self time, so model.parse_s, the layer self
times and trace.unattributed_s (self time of the benchmark's own root
span) add up to trace.wall_s.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

# (module, attribute, span name). A span name's first part is its layer.
SPANNED = (
    ("cli", "parse_scenario_file", "model.parse"),
    ("model", "make_scenario", "model.parse"),
    ("model", "validate_scenario", "model.parse"),
    ("cli", "main", "cli.main"),
    ("cli", "_mc_batch", "cli.mc_loop"),
    ("cli", "_write_csv", "cli.csv"),
    ("cli", "_table", "cli.report"),
    ("cli", "_print_scenario_header", "cli.report"),
    ("cli", "_mc_rows", "cli.report"),
    ("claims", "family_for", "claims.family"),
    ("claims", "check_instance", "claims.check"),
    ("mechanism", "classify", "mechanism.classify"),
    ("mechanism", "select_districts", "mechanism.select"),
    ("mechanism", "payments_for_selection", "mechanism.settle"),
    ("mechanism", "execute", "mechanism.execute"),
    ("mechanism", "budget_bound", "mechanism.bound"),
    ("mechanism", "selection_distribution", "mechanism.draws"),
    ("equilibrium", "_ctx_for", "equilibrium.ctx"),
    ("equilibrium", "enumerate_equilibria", "equilibrium.scan"),
    ("equilibrium", "_is_nash_counts", "equilibrium.nash"),
    ("equilibrium", "expected_expenditure", "equilibrium.expected_spend"),
    ("equilibrium", "verify_sabotage_bound", "equilibrium.sabotage"),
    ("equilibrium", "real_deviation_expenditures", "equilibrium.real_deviation"),
)

# Layers whose self time is summed. The model layer has only parse spans,
# so model.parse_s is its self time.
LAYERS = ("mechanism", "equilibrium", "claims", "cli")

# Every per-layer metric, with its unit, in the order they are reported.
UNITS = {
    "equilibrium.nash_checks": "count",
    "equilibrium.nash_s": "s",
    "equilibrium.scan_s": "s",
    "equilibrium.interim_calls": "count",
    "equilibrium.interim_hit_ratio": "ratio",
    "equilibrium.payoff_hit_ratio": "ratio",
    "equilibrium.equilibria_per_check": "ratio",
    "equilibrium.profiles_reported": "count",
    "equilibrium.interim_entries": "count",
    "equilibrium.ctx_builds": "count",
    "equilibrium.ctx_hits": "count",
    "equilibrium.ctx_s": "s",
    "claims.instances": "count",
    "claims.check_self_s": "s",
    "mechanism.classify_calls": "count",
    "mechanism.classify_s": "s",
    "mechanism.select_calls": "count",
    "mechanism.select_s": "s",
    "mechanism.settle_calls": "count",
    "mechanism.settle_s": "s",
    "cli.mc_loop_self_s": "s",
    "mechanism.bound_calls": "count",
    "mechanism.bound_s": "s",
    "mechanism.bound_subsets": "count",
    "equilibrium.expected_spend_calls": "count",
    "equilibrium.expected_spend_s": "s",
    "equilibrium.draws_enumerated": "count",
    "equilibrium.sabotage_s": "s",
    "model.parse_s": "s",
    "model.setup_parse_s": "s",
    "cli.report_s": "s",
    "cli.csv_s": "s",
    "mechanism.self_s": "s",
    "equilibrium.self_s": "s",
    "claims.self_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans in memory while installed; uninstall restores every attribute."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    # -- recording

    def begin(self, name: str) -> None:
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _spanned(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    # -- installing

    def install(self) -> None:
        modules = {name: importlib.import_module(f"devilsmenu.{name}")
                   for name in ("model", "mechanism", "equilibrium", "claims", "cli", "variants")}
        everywhere = list(modules.values()) + [importlib.import_module("devilsmenu")]
        on_result = {
            "enumerate_equilibria": self._count_scan,
            "budget_bound": self._count_subsets,
            "selection_distribution": self._count_draws,
        }
        for mod_name, attr, span in SPANNED:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            wrapped = self._spanned(span, original, on_result.get(attr))
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, value))
        ctx_class = getattr(modules["equilibrium"], "_Ctx", None)
        if ctx_class is not None:
            self._count_ctx(ctx_class)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # The hooks below read results with defaults, so that a later change to
    # the program's return types costs a count, not the traced run.

    def _count_scan(self, report, args) -> None:
        self.counts["equilibria"] += len(getattr(report, "equilibria", ()))
        self.counts["profiles_reported"] += getattr(report, "profiles_scanned", 0)

    def _count_subsets(self, result, args) -> None:
        s = args[0] if args else None
        if hasattr(s, "num_districts") and hasattr(s, "target_count"):
            self.counts["bound_subsets"] += math.comb(s.num_districts, s.target_count)

    def _count_draws(self, result, args) -> None:
        self.counts["draws"] += len(result)

    def _count_ctx(self, cls) -> None:
        """Count context builds and the interim and payoff cache lookups.

        A lookup is a hit when its key is already in the context's cache;
        a miss adds an entry, so interim misses are the entries built."""
        counts = self.counts
        init, interim, payoff = cls.__init__, getattr(cls, "interim", None), getattr(cls, "payoff", None)

        def counted_init(ctx, *args, **kwargs):
            counts["ctx_builds"] += 1
            init(ctx, *args, **kwargs)

        def counted_interim(ctx, m):
            counts["interim_calls"] += 1
            counts["interim_hits"] += m in getattr(ctx, "_interim", ())
            return interim(ctx, m)

        def counted_payoff(ctx, *key):
            counts["payoff_calls"] += 1
            counts["payoff_hits"] += key in getattr(ctx, "_payoff", ())
            return payoff(ctx, *key)

        for key, original, value in (("__init__", init, counted_init),
                                     ("interim", interim, counted_interim),
                                     ("payoff", payoff, counted_payoff)):
            if original is not None:
                self._undo.append((cls, key, original))
                setattr(cls, key, value)

    # -- reading

    def self_times(self, root_name: str) -> tuple[dict, dict]:
        """Per span name under the root span named root_name: (self time, calls)."""
        n = len(self.spans)
        child_time = [0.0] * n
        root = [0] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if self.spans[root[i]][0] == root_name:
                self_s[name] += end - start - child_time[i]
                calls[name] += 1
        return self_s, calls

    def metrics(self) -> dict:
        """Per-layer metrics of the pass (root span "bench.pass")."""
        self_s, calls = self.self_times("bench.pass")
        setup_s, _ = self.self_times("bench.setup")
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        got = {
            "equilibrium.nash_checks": calls["equilibrium.nash"],
            "equilibrium.nash_s": self_s["equilibrium.nash"],
            "equilibrium.scan_s": self_s["equilibrium.scan"],
            "equilibrium.interim_calls": c["interim_calls"],
            "equilibrium.interim_hit_ratio": ratio("interim_hits", "interim_calls"),
            "equilibrium.payoff_hit_ratio": ratio("payoff_hits", "payoff_calls"),
            "equilibrium.equilibria_per_check": (c["equilibria"] / calls["equilibrium.nash"]
                                                 if calls["equilibrium.nash"] else 0.0),
            "equilibrium.profiles_reported": c["profiles_reported"],
            "equilibrium.interim_entries": c["interim_calls"] - c["interim_hits"],
            "equilibrium.ctx_builds": c["ctx_builds"],
            "equilibrium.ctx_hits": calls["equilibrium.ctx"] - c["ctx_builds"],
            "equilibrium.ctx_s": self_s["equilibrium.ctx"],
            "claims.instances": calls["claims.check"],
            "claims.check_self_s": self_s["claims.check"],
            "mechanism.classify_calls": calls["mechanism.classify"],
            "mechanism.classify_s": self_s["mechanism.classify"],
            "mechanism.select_calls": calls["mechanism.select"],
            "mechanism.select_s": self_s["mechanism.select"],
            "mechanism.settle_calls": calls["mechanism.settle"],
            "mechanism.settle_s": self_s["mechanism.settle"],
            "cli.mc_loop_self_s": self_s["cli.mc_loop"],
            "mechanism.bound_calls": calls["mechanism.bound"],
            "mechanism.bound_s": self_s["mechanism.bound"],
            "mechanism.bound_subsets": c["bound_subsets"],
            "equilibrium.expected_spend_calls": calls["equilibrium.expected_spend"],
            "equilibrium.expected_spend_s": self_s["equilibrium.expected_spend"],
            "equilibrium.draws_enumerated": c["draws"],
            "equilibrium.sabotage_s": self_s["equilibrium.sabotage"],
            "model.parse_s": self_s["model.parse"],
            "model.setup_parse_s": setup_s["model.parse"],
            "cli.report_s": self_s["cli.report"],
            "cli.csv_s": self_s["cli.csv"],
            "trace.unattributed_s": self_s["bench.pass"],
            "trace.spans": sum(calls.values()),
        }
        for layer in LAYERS:
            got[f"{layer}.self_s"] = sum(t for name, t in self_s.items()
                                         if name.split(".")[0] == layer)
        got["trace.wall_s"] = sum(self_s.values())
        return got

    def write_spans(self, path: Path) -> None:
        """One line per span: index, parent, name, start and end in seconds
        from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
