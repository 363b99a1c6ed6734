"""Span tracing of chargechain from outside the program.

The tracer replaces the public functions of each module with timing
wrappers at every module that holds them (the defining module, each module
that imported the name, and the package namespace), and puts the originals
back on ``restore``.  Nothing under ``src/`` is edited.

A span is ``[name, site, chain, start, end, parent]``: ``name`` is
``<defining module>.<function>``, ``site`` is the module whose attribute the
call went through, ``chain`` is the id of the case being processed, and
``parent`` indexes the enclosing span (-1 for a root).  A span's self time
is its duration minus the durations of its direct children.

Two hot leaves are counted instead of spanned, so their time stays in the
caller's self time: ``TransitionKernel.row`` (calls) and the ``FAMeasure``
constructor (calls and total time).  Counts marked "computed" are derived
from argument sizes and call counts, not observed inside the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "chargechain"

SPANNED = {
    "catalog": ("build",),
    "conditions": (
        "build_condition_report",
        "search_doeblin",
        "check_doeblin",
        "check_doeblin_tilde",
        "check_star",
        "check_tilde_star",
        "check_alpha",
        "check_beta",
        "quasicompact_diagnostic",
        "doeblin_truncation_trend",
        "truncate_reflecting",
    ),
    "ergodic": ("projector_finite", "distance_series", "ergodic_run", "rate_fit"),
    "invariants": (
        "invariant_basis",
        "invariant_basis_finite",
        "recurrent_classes",
        "transient_states",
        "stationary_of_class",
        "invariance_residual",
        "detect_pfa_ends",
        "detect_ca_countable",
        "escape_profile",
    ),
    "kernels": (
        "kernel_from_spec",
        "kernel_to_spec",
        "apply_A",
        "kernel_power",
        "cesaro_kernel",
    ),
    "measures": ("measure_from_json",),
    "report": ("run_analysis", "report_json", "verify_report"),
}

# Per-layer metrics: name -> unit.  "*_computed" units label derived counts.
PER_LAYER_UNITS = {
    "conditions.search_doeblin.calls": "count",
    "conditions.search_doeblin.self_s": "s",
    "conditions.small_set.checks": "count",
    "conditions.small_set.subset_sums": "count_computed",
    "conditions.search.witness_ratio": "1",
    "conditions.check_doeblin.calls": "count",
    "conditions.check_doeblin.self_s": "s",
    "conditions.truncation_trend.self_s": "s",
    "kernels.kernel_power.calls": "count",
    "kernels.kernel_power.self_s": "s",
    "kernels.cesaro_kernel.calls": "count",
    "kernels.cesaro_kernel.self_s": "s",
    "kernels.matmuls": "count_computed",
    "kernels.apply_A.calls": "count",
    "kernels.apply_A.self_s": "s",
    "kernels.row.calls": "count",
    "kernels.kernel_from_spec.self_s": "s",
    "invariants.recurrent_classes.calls": "count",
    "invariants.recurrent_classes.self_s": "s",
    "invariants.stationary_of_class.calls": "count",
    "invariants.stationary_of_class.self_s": "s",
    "invariants.invariance_residual.calls": "count",
    "invariants.invariance_residual.self_s": "s",
    "invariants.detect_ca_countable.calls": "count",
    "invariants.detect_ca_countable.self_s": "s",
    "invariants.ca.window_steps": "count_computed",
    "invariants.ca.certified_ratio": "1",
    "invariants.escape_profile.self_s": "s",
    "invariants.escape.window_steps": "count_computed",
    "ergodic.projector_finite.calls": "count",
    "ergodic.projector_finite.self_s": "s",
    "ergodic.distance_series.calls": "count",
    "ergodic.distance_series.self_s": "s",
    "ergodic.matmuls": "count_computed",
    "ergodic.flops": "flop_computed",
    "ergodic.bytes_moved": "B_computed",
    "measures.FAMeasure.constructions": "count",
    "measures.FAMeasure.init_s": "s",
    "measures.to_json.self_s": "s",
    "measures.measure_from_json.self_s": "s",
    "report.run_analysis.self_s": "s",
    "report.report_json.self_s": "s",
    "report.bytes": "B",
    "report.verify_report.self_s": "s",
    "report.verify.checks": "count",
    "report.verify.failed": "count",
    "catalog.build.self_s": "s",
    "analyze.conditions.self_share": "1",
    "invariants.walk_window.analyze_share": "1",
    "kernels.apply_A.verify_share": "1",
    "cli.import_s": "s",
    "trace.overhead_ratio": "1",
}


def _matrix_power_matmuls(k: int) -> int:
    """Multiplies numpy's matrix_power spends on exponent k (binary method)."""
    k = int(k)
    return 0 if k <= 1 else k.bit_length() - 1 + bin(k).count("1") - 1


class Tracer:
    """Records spans and work counts while installed; holds them in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.chain = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg_modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for home, functions in SPANNED.items():
            module = sys.modules[f"{PACKAGE}.{home}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                for holder in pkg_modules:
                    if holder.__dict__.get(fn_name) is original:
                        site = holder.__name__.rpartition(".")[2] if holder.__name__ != PACKAGE else "package"
                        wrapper = self._span_wrapper(f"{home}.{fn_name}", site, original)
                        self._patch(holder, fn_name, wrapper)
        measures = sys.modules[f"{PACKAGE}.measures"]
        kernels = sys.modules[f"{PACKAGE}.kernels"]
        fam = measures.FAMeasure
        self._patch(fam, "to_json", self._span_wrapper("measures.to_json", "measures", fam.to_json))
        self._patch(fam, "__init__", self._timed_counter("measures.FAMeasure", fam.__init__))
        self._patch(kernels.TransitionKernel, "row", self._counter("kernels.row", kernels.TransitionKernel.row))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name: str, site: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, site, tracer.chain, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counts, site, bound.arguments, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_counter(self, name: str, fn):
        counts = self.counts
        clock = time.perf_counter
        calls, seconds = f"{name}.constructions", f"{name}.init_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[calls] += 1
                counts[seconds] += clock() - t0

        return wrapper

    # -- results -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [rec[4] - rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[5] >= 0:
                own[rec[5]] -= rec[4] - rec[3]
        return own

    def span_json(self) -> list[dict]:
        keys = ("name", "site", "chain", "start", "end", "parent")
        return [dict(zip(keys, rec)) for rec in self.spans]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics averaged over ``passes`` traced passes."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        root_of = []
        phase_total: defaultdict = defaultdict(float)
        phase_module: defaultdict = defaultdict(float)
        for i, rec in enumerate(self.spans):
            name = rec[0]
            calls[name] += 1
            self_s[name] += own[i]
            root = i if rec[5] < 0 else root_of[rec[5]]
            root_of.append(root)
            phase = self.spans[root][0]
            if root == i:
                phase_total[phase] += rec[4] - rec[3]
            if name.startswith("conditions."):
                phase_module[(phase, "conditions")] += own[i]
            elif name == "kernels.apply_A":
                phase_module[(phase, "kernels.apply_A")] += own[i]
            elif name in ("invariants.detect_ca_countable", "invariants.escape_profile"):
                phase_module[(phase, "walk_window")] += own[i]
        c = self.counts
        per = 1.0 / max(passes, 1)

        def share(phase: str, part: str) -> float:
            total = phase_total[phase]
            return phase_module[(phase, part)] / total if total > 0 else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for metric in PER_LAYER_UNITS:
            head, _, field = metric.rpartition(".")
            if metric in c:
                out[metric] = c[metric] * per
            elif field == "calls":
                out[metric] = calls[head] * per
            elif field == "self_s":
                out[metric] = self_s[_SPAN_OF.get(head, head)] * per
            else:
                out[metric] = 0.0
        analyze, verify = "report.run_analysis", "report.verify_report"
        out.update(
            {
                "conditions.search.witness_ratio": ratio(
                    c["search.witnesses"], c["conditions.small_set.checks"]
                ),
                "invariants.ca.certified_ratio": ratio(
                    c["ca.certified"], calls["invariants.detect_ca_countable"]
                ),
                "analyze.conditions.self_share": share(analyze, "conditions"),
                "invariants.walk_window.analyze_share": share(analyze, "walk_window"),
                "kernels.apply_A.verify_share": share(verify, "kernels.apply_A"),
            }
        )
        return out


# Metric heads that differ from the span they measure.
_SPAN_OF = {"conditions.truncation_trend": "conditions.doeblin_truncation_trend"}


# -- work counters, keyed by span name: (counts, site, arguments, result) -> None ----

def _observe_power(counts, site, args, result):
    counts["kernels.matmuls"] += _matrix_power_matmuls(args["k"])
    _observe_check(counts, site, args)


def _observe_cesaro(counts, site, args, result):
    counts["kernels.matmuls"] += max(int(args["m"]), 0)
    _observe_check(counts, site, args)


def _observe_check(counts, site, args):
    if site == "conditions":
        n = args["kernel"].size
        counts["conditions.small_set.checks"] += 1
        counts["conditions.small_set.subset_sums"] += (n + 1) * 2**n


def _observe_search(counts, site, args, result):
    if result is not None and not result.vacuous:
        counts["search.witnesses"] += 1


def _observe_ca(counts, site, args, result):
    steps = args["steps"]
    counts["invariants.ca.window_steps"] += 8 * args["window"] + 400 if steps is None else steps
    counts["ca.certified"] += 1 if result else 0


def _observe_escape(counts, site, args, result):
    counts["invariants.escape.window_steps"] += int(args["n_max"])


def _observe_distance(counts, site, args, result):
    n = args["kernel"].size
    steps = int(args["n_max"])
    counts["ergodic.matmuls"] += steps
    counts["ergodic.flops"] += steps * 2 * n**3
    counts["ergodic.bytes_moved"] += steps * 3 * 8 * n * n


def _observe_json(counts, site, args, result):
    counts["report.bytes"] += len(result.encode("utf-8"))


def _observe_verify(counts, site, args, result):
    counts["report.verify.checks"] += len(result)
    counts["report.verify.failed"] += sum(1 for item in result if not item["ok"])


_OBSERVERS = {
    "kernels.kernel_power": _observe_power,
    "kernels.cesaro_kernel": _observe_cesaro,
    "conditions.search_doeblin": _observe_search,
    "invariants.detect_ca_countable": _observe_ca,
    "invariants.escape_profile": _observe_escape,
    "ergodic.distance_series": _observe_distance,
    "report.report_json": _observe_json,
    "report.verify_report": _observe_verify,
}
