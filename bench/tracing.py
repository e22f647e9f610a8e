"""Per-layer spans for the traced rounds, installed from outside the program.

Each wrapped callable opens a span: on exit its duration is charged to the
enclosing span as child time, and its self time (duration minus wrapped
children) to its own layer.  Wrappers replace every binding of a function in
the monoidkit modules, including the names that ``from ... import`` copied
into cli, groupwords and the package, so no call escapes its span.  Nothing
under src/ is edited; uninstall() puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the wrapped functions
FUNCTIONS = {
    "presentation.load": [("presentation", "parse_presentation"), ("presentation", "fixture"),
                          ("gmn", "build_gmn")],
    "rewrite.api": [("rewrite", "equal"), ("rewrite", "canonical"),
                    ("rewrite", "equivalence_class"), ("rewrite", "neighbors")],
    "divisibility.divides": [("divisibility", "left_divides"), ("divisibility", "right_divides")],
    "divisibility.mcm": [("divisibility", "mcm_r"), ("divisibility", "cm_r")],
    "garside.fundamental": [("garside", "verify_fundamental")],
    "garside.garside": [("garside", "verify_garside")],
    "cancel.search": [("cancel", "search_failures")],
    "gmn.division_law": [("gmn", "check_division_law")],
    "groupwords.group_equal": [("groupwords", "group_equal")],
    "groupwords.center_scan": [("groupwords", "center_scan")],
    "cli.run": [("cli", "run")],
}
# span name -> method of rewrite.RewriteEngine
METHODS = {
    "rewrite.closure": "closure",
    "rewrite.search": "closure_search",
    "rewrite.partition": "partition",
    "rewrite.canonicals": "canonicals_at",
}

# reported per-layer metrics: name -> (kind, span) where kind is self time,
# total time (outermost spans only) or call count
SPAN_METRICS = {
    "presentation.load_s": ("total", "presentation.load"),
    "rewrite.api_self_s": ("self", "rewrite.api"),
    "rewrite.closure_calls": ("calls", "rewrite.closure"),
    "rewrite.closure_self_s": ("self", "rewrite.closure"),
    "rewrite.search_calls": ("calls", "rewrite.search"),
    "rewrite.search_self_s": ("self", "rewrite.search"),
    "rewrite.partition_calls": ("calls", "rewrite.partition"),
    "rewrite.partition_self_s": ("self", "rewrite.partition"),
    "rewrite.canonicals_self_s": ("self", "rewrite.canonicals"),
    "cancel.search_s": ("total", "cancel.search"),
    "cancel.search_self_s": ("self", "cancel.search"),
    "divisibility.divides_calls": ("calls", "divisibility.divides"),
    "divisibility.divides_self_s": ("self", "divisibility.divides"),
    "divisibility.mcm_self_s": ("self", "divisibility.mcm"),
    "garside.fundamental_self_s": ("self", "garside.fundamental"),
    "garside.garside_self_s": ("self", "garside.garside"),
    "gmn.division_law_self_s": ("self", "gmn.division_law"),
    "groupwords.group_equal_s": ("total", "groupwords.group_equal"),
    "groupwords.center_scan_self_s": ("self", "groupwords.center_scan"),
    "cli.run_calls": ("calls", "cli.run"),
    "cli.overhead_s": ("self", "cli.run"),
}
# counters filled by the hooks below (and cli.report_bytes by the session)
COUNTERS = (
    "rewrite.closure_members",
    "rewrite.closure_reuse",
    "rewrite.partition_words",
    "rewrite.cap_exceeded",
    "gmn.law_instances",
    "groupwords.lift_closure_members",
    "groupwords.lift_longest_word",
    "cli.report_bytes",
)


class Tracer:
    def __init__(self, mk):
        self.cap_error = mk.CapExceededError
        self.restore = []
        self._reset()

    # -- aggregation ------------------------------------------------------

    def take(self) -> dict:
        """The metrics gathered since the last call, then start afresh."""
        tables = {"self": self.self_s, "total": self.total_s, "calls": self.calls}
        out = {name: tables[kind].get(span, 0) for name, (kind, span) in SPAN_METRICS.items()}
        out.update((name, self.counts.get(name, 0)) for name in COUNTERS)
        self._reset()
        return out

    def _reset(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []
        self.returned = {}  # id -> object already handed out this round

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] += amount

    def begin_op(self) -> None:
        self.stack.clear()

    def _fresh(self, obj) -> bool:
        """True the first time this object is returned in the round."""
        seen = self.returned.get(id(obj))
        if seen is obj:
            return False
        self.returned[id(obj)] = obj
        return True

    def _in_group_equal(self) -> bool:
        return any(f[0] == "groupwords.group_equal" for f in self.stack)

    def _after(self, name, args, result, error):
        counts = self.counts
        if name in ("rewrite.closure", "rewrite.search"):
            built = 0
            if error is not None:
                counts["rewrite.cap_exceeded"] += 1
                built = len(getattr(error, "raw_partial", ()))
            elif name == "rewrite.closure":
                if self._fresh(result):
                    built = len(result)
                else:
                    counts["rewrite.closure_reuse"] += 1
            counts["rewrite.closure_members"] += built
            if self._in_group_equal():
                counts["groupwords.lift_closure_members"] += built
                longest = counts["groupwords.lift_longest_word"]
                counts["groupwords.lift_longest_word"] = max(longest, len(args[1]))
        elif name == "rewrite.partition" and error is None and self._fresh(result):
            counts["rewrite.partition_words"] += len(result)
        elif name == "gmn.division_law" and error is None:
            counts["gmn.law_instances"] += result.instances

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            outermost = all(f[0] != name for f in stack)
            frame = [name, 0.0]
            stack.append(frame)
            error = result = None
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except tracer.cap_error as e:
                error = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.self_s[name] += dt - frame[1]
                if outermost:
                    tracer.total_s[name] += dt
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                if returned or error is not None:
                    tracer._after(name, args, result, error)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "monoidkit" or n.startswith("monoidkit.")) and m is not None]
        for name, targets in FUNCTIONS.items():
            for mod, attr in targets:
                original = getattr(sys.modules[f"monoidkit.{mod}"], attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self.restore.append((m, key, original))
                            setattr(m, key, wrapper)
        engine_cls = sys.modules["monoidkit.rewrite"].RewriteEngine
        for name, meth in METHODS.items():
            original = engine_cls.__dict__[meth]
            self.restore.append((engine_cls, meth, original))
            setattr(engine_cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        while self.restore:
            owner, key, original = self.restore.pop()
            setattr(owner, key, original)
