"""The command line reaches every function of the package.

Under ``sys.setprofile`` the test runs what the command line runs:
``run_analysis``, ``report_json`` and ``verify_report`` on every catalog
entry and every edge chain of ``tools/report_digests.py``; ``cli.main`` on
``analyze --out``, ``--format csv`` on a finite chain and on a walk,
``verify-report`` and ``catalog list``; and ``verify_report`` on a report
whose (beta) set is complemented, and on one whose (beta) index is a
boolean.  Importing the package, as the command line does, counts too: it
builds the readers of the report shapes.  It fails on any function or method
defined in ``src/chargechain`` that none of them enters, apart from those
in ``UNREACHED``, which a file outside the package reads.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import chargechain
from chargechain import catalog, cli
from chargechain.report import AnalysisRequest, report_json, run_analysis, verify_report

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(chargechain.__file__).resolve().parent

#: function -> the file outside the package that reads it
UNREACHED = {
    "invariants.classify_invariant": "perfbench/run.py (the golden classification check)",
    "invariants.transient_states": "perfbench/tracing.py (SPANNED)",
}


def _defined() -> dict[tuple[str, int, str], str]:
    """Every function and method in the package's source, keyed as the profiler sees its code, named module.qualname."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # a class body is no function, and lambdas and comprehensions are parts of one
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        name = getattr(const, "co_qualname", const.co_name)  # Python 3.10 has no co_qualname
                        out[(str(path), const.co_firstlineno, const.co_name)] = f"{path.stem}.{name}"
    return out


def _entered(run) -> set[tuple[str, int, str]]:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


def _entered_on_import() -> set[tuple[str, int, str]]:
    """The functions that importing the package enters, in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "codes = set()\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and codes.add(frame.f_code))\n"
        "import chargechain\n"
        "sys.setprofile(None)\n"
        "print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in codes]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    return {(str(Path(path).resolve()), line, name) for path, line, name in json.loads(out)}


def _edge_chains() -> dict:
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EDGE_CHAINS


def _run_the_program(tmp: Path) -> None:
    requests = [AnalysisRequest(catalog=name) for name in catalog.names()]
    for name, spec in _edge_chains().items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(spec(chargechain)), encoding="utf-8")
        requests.append(AnalysisRequest(chain_path=str(path)))
    for request in requests:
        assert all(item["ok"] for item in verify_report(json.loads(report_json(run_analysis(request)))))

    report = tmp / "two_absorbing.json"
    for argv in (
        ["analyze", "--catalog", "two_absorbing", "--out", str(report)],
        ["verify-report", "--report", str(report)],
        ["analyze", "--catalog", "swap2", "--format", "csv", "--out", str(tmp / "swap2.csv")],
        ["analyze", "--catalog", "drift_walk_N", "--format", "csv", "--out", str(tmp / "drift.csv")],
        ["catalog", "list"],
    ):
        assert cli.main(argv) == 0, argv

    # a complemented set literal: evaluate reads it through its complement
    tampered = json.loads(report.read_text(encoding="utf-8"))
    tampered["conditions"]["beta"]["witnesses"][0]["d1"]["complement"] = True
    failed = [item["check"] for item in verify_report(tampered) if not item["ok"]]
    assert failed == ["beta witness (0,1)"]

    # a value of another JSON type: the section does not read, and its path is named
    tampered["conditions"]["beta"]["witnesses"][0]["i"] = False
    failed = [(item["check"], item["detail"]) for item in verify_report(tampered) if not item["ok"]]
    assert failed == [("conditions format", "ValidationError: conditions.beta.witnesses[0].i: False is not an integer")]


def test_every_function_is_entered(tmp_path, capsys):
    defined = _defined()
    entered = _entered(lambda: _run_the_program(tmp_path)) | _entered_on_import()
    capsys.readouterr()  # what the command line printed
    unreached = sorted(name for key, name in defined.items() if key not in entered)
    assert unreached == sorted(UNREACHED)
