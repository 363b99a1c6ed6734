"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps each function its ``SPANNED`` names at every
module that holds it, and its observers bind argument names of some of them
(``kernel``, ``k``, ``m``, ``n_max``, ``window``, ``steps``) and read their
results.  A finite chain and a walk go through ``run_analysis``,
``report_json`` and ``verify_report`` under the tracer: no observer may
raise, every spanned function must leave a span, and ``restore`` must put
every function back.  The test only reads ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from chargechain import kernels, measures, report

ROOT = Path(__file__).resolve().parent.parent
#: spanned functions that no analysis enters; tests/test_reach.py allowlists them too
UNSPANNED = {"invariants.transient_states"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions() -> dict:
    """Every callable the tracer may patch: module attributes of the package, and the patched methods."""
    held = {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "chargechain" or name.startswith("chargechain.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    methods = ((measures.FAMeasure, "to_json"), (measures.FAMeasure, "__init__"), (kernels.TransitionKernel, "row"))
    for cls, attr in methods:
        held[(cls.__name__, attr)] = cls.__dict__[attr]
    return held


def test_traced_analysis_spans_every_function_and_restores_them(monkeypatch):
    tracing = _tracing()
    raised = []

    def guarded(name, observe):
        def wrapper(*args):
            try:
                observe(*args)
            except Exception as exc:
                raised.append(f"{name}: {type(exc).__name__}: {exc}")
                raise

        return wrapper

    for name, observe in list(tracing._OBSERVERS.items()):
        monkeypatch.setitem(tracing._OBSERVERS, name, guarded(name, observe))
    before = _functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("finite_uniform", "drift_walk_N"):
            tracer.chain = name
            text = report.report_json(report.run_analysis(report.AnalysisRequest(catalog=name)))
            assert all(item["ok"] for item in report.verify_report(json.loads(text))), name
    finally:
        tracer.restore()
    assert raised == []
    assert _functions() == before
    spanned = {f"{home}.{fn}" for home, functions in tracing.SPANNED.items() for fn in functions}
    assert spanned - {span[0] for span in tracer.spans} == UNSPANNED
    assert tracer.counts["report.verify.checks"] > 0 and tracer.counts["invariants.escape.window_steps"] > 0
