"""Spans and counts around pmean's public functions, installed from outside.

A module that did ``from .swmax import sw_estimate`` holds its own binding of
that name, so each function is replaced in every pmean module (and the package
namespace) that binds it; ``uninstall`` puts the originals back.  Spans stay in
memory and are written out once, when the run ends.  ``value`` is only counted:
it is called hundreds of thousands of times per round and a span each would
cost more than the query.  The exact scan's states are counted where it makes
them: each chunk of labeled partitions that ``swmax._chunk_bundle_masks``
builds is added to the innermost open ``sw_estimate`` or ``p_opt_brute`` span.
An exact engine that does not scan through that function reports 0 states
until it is counted here too.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

NEG_INF = float("-inf")
SCAN_OWNERS = ("swmax.sw_estimate", "oracle.p_opt_brute")

# (defining module, function name, span name); every other pmean module that
# binds the same object is patched too.
SPANNED = (
    ("pmean.valuations", "demand", "valuations.demand"),
    ("pmean.valuations", "restrict", "valuations.restrict"),
    ("pmean.valuations", "value_table", "valuations.value_table"),
    ("pmean.valuations", "load_instance", "valuations.load_instance"),
    ("pmean.means", "p_mean_welfare", "means.p_mean_welfare"),
    ("pmean.swmax", "sw_estimate", "swmax.sw_estimate"),
    ("pmean.allocator", "alg", "allocator.alg"),
    ("pmean.allocator", "alg_low", "allocator.alg_low"),
    ("pmean.oracle", "p_opt_brute", "oracle.p_opt_brute"),
    ("pmean.cli", "main", "cli.main"),
)


def exponent_class(p: float) -> str:
    if p == NEG_INF:
        return "neg_inf"
    if p < 0.0:
        return "neg"
    if p == 0.0:
        return "zero"
    if p < 1.0:
        return "pos"
    return "one"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, attrs)
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str, dict]] = []  # open spans: (id, name, attrs)
        self._request = 0
        self._seen_subinstances: set = set()
        self._patched: list[tuple] = []

    def begin_request(self) -> None:
        """Mark the start of one benchmark operation; its spans share an id."""
        self._request += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPANNED:
            self._patch(module_name, attr, self._spanning(name))
        self._patch("pmean.valuations", "value", self._counting("valuations.value"))
        self._patch("pmean.swmax", "_chunk_bundle_masks", self._scanning)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pmean" and getattr(module, attr, None) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _counting(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _scanning(self, fn):
        def scanned(m, n, start, stop):
            for _, name, attrs in reversed(self._stack):
                if name in SCAN_OWNERS:
                    attrs["states"] += stop - start
                    break
            return fn(m, n, start, stop)

        return scanned

    def _spanning(self, name: str):
        def make(fn):
            def spanned(*args, **kwargs):
                attrs = self._on_call(name, args, kwargs)
                span_id = len(self.spans)
                parent = self._stack[-1][0] if self._stack else None
                self.spans.append(None)  # reserve the id; filled in below
                self._stack.append((span_id, name, attrs))
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[span_id] = (span_id, parent, self._request, name, start, end, attrs)
                if name == "allocator.alg":
                    attrs["singletons"] = result[1].k
                return result

            return spanned

        return make

    def _on_call(self, name: str, args, kwargs) -> dict:
        if name == "allocator.alg":
            self._seen_subinstances = set()
            return {}
        if name == "swmax.sw_estimate":
            inst = args[0]
            backend = args[1] if len(args) > 1 else kwargs.get("backend", "exact")
            key = (inst, backend)
            repeat = key in self._seen_subinstances
            self._seen_subinstances.add(key)
            return {"backend": backend, "repeat": repeat, "states": 0}
        if name == "oracle.p_opt_brute":
            return {"p": exponent_class(args[1]), "states": 0}
        if name == "cli.main":
            argv = args[0] if args else kwargs["argv"]
            return {"command": argv[0]}
        return {}

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far (times in ms)."""
        total = defaultdict(float)
        calls = Counter()
        by_id = {s[0]: s for s in self.spans}

        def inside(span, ancestor_name):
            parent = span[1]
            while parent is not None:
                if by_id[parent][3] == ancestor_name:
                    return True
                parent = by_id[parent][1]
            return False

        sw = Counter()
        oracle_ms = defaultdict(float)
        states = 0
        singletons = 0
        cli_ms = defaultdict(float)
        cli_inner_ms = 0.0
        for span in self.spans:
            _, _, _, name, start, end, attrs = span
            ms = (end - start) * 1000.0
            total[name] += ms
            calls[name] += 1
            if name == "swmax.sw_estimate":
                sw["calls"] += 1
                sw["repeat"] += attrs["repeat"]
                sw["states"] += attrs["states"]
                total["swmax." + attrs["backend"]] += ms
            elif name == "oracle.p_opt_brute":
                oracle_ms[attrs["p"]] += ms
                states += attrs["states"]
            elif name == "allocator.alg":
                singletons += attrs.get("singletons", 0)
            elif name == "cli.main":
                cli_ms[attrs["command"]] += ms
            if name in ("allocator.alg", "oracle.p_opt_brute") and inside(span, "cli.main"):
                cli_inner_ms += ms

        p_opt_total = sum(oracle_ms.values())
        pmw_calls = calls["means.p_mean_welfare"]
        cli_total = sum(cli_ms.values())
        out = {
            "valuations.value_queries": self.counts["valuations.value"],
            "valuations.demand_queries": calls["valuations.demand"],
            "valuations.demand_ms": total["valuations.demand"],
            "valuations.restrict_calls": calls["valuations.restrict"],
            "valuations.restrict_ms": total["valuations.restrict"],
            "valuations.value_table_calls": calls["valuations.value_table"],
            "valuations.value_table_ms": total["valuations.value_table"],
            "valuations.load_instance_ms": total["valuations.load_instance"],
            "means.p_mean_welfare_calls": pmw_calls,
            "means.p_mean_welfare_us": (
                total["means.p_mean_welfare"] * 1000.0 / pmw_calls if pmw_calls else 0.0
            ),
            "swmax.sw_calls": sw["calls"],
            "swmax.sw_repeat_calls": sw["repeat"],
            "swmax.sw_exact_ms": total["swmax.exact"],
            "swmax.sw_greedy_ms": total["swmax.greedy"],
            "swmax.sw_states": sw["states"],
            "allocator.alg_ms": total["allocator.alg"],
            "allocator.phase_one_ms": total["allocator.alg"] - total["allocator.alg_low"],
            "allocator.alg_low_ms": total["allocator.alg_low"],
            "allocator.singletons": singletons,
            "oracle.states": states,
            "oracle.states_per_s": states / (p_opt_total / 1000.0) if p_opt_total else 0.0,
            "cli.solve_ms": cli_ms["solve"],
            "cli.verify_ms": cli_ms["verify"],
            "cli.overhead_ms": cli_total - cli_inner_ms,
        }
        for cls in ("neg_inf", "neg", "zero", "pos", "one"):
            out[f"oracle.p_opt_ms.{cls}"] = oracle_ms[cls]
        return out

    def counts_signature(self) -> tuple:
        """The exact counts, for checking that a repeated pass repeats them."""
        m = self.layer_metrics()
        keys = (
            "valuations.value_queries",
            "valuations.demand_queries",
            "swmax.sw_calls",
            "swmax.sw_repeat_calls",
            "oracle.states",
        )
        return tuple(m[k] for k in keys)

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(fields, span[:6]))
                record.update(span[6])
                fh.write(json.dumps(record) + "\n")
