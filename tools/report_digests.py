"""Digest every benchmark and catalog report of a chargechain source tree.

    OPENBLAS_NUM_THREADS=1 python3 tools/report_digests.py SRC OUT --seeds 11 12

SRC is a ``src/`` directory holding the ``chargechain`` package.  For every
catalog entry (default tasks and horizons, then each task that applies to
it on its own), eight edge chains under the default tasks (``EDGE_CHAINS``:
one over the small-set cap, one whose states swap with probability 2^-40,
a walk on Z with an exception row whose tail rows send mass across the
ends both ways, drift_walk_N(0.45), positive recurrent with a slow
geometric law, a walk on N whose tail sends mass to a fixed state past
the largest escape window, and a walk on Z whose rows of 1 and -1 jump 2
toward 0, onto their mirror target, which ``row`` merges with the jump,
and two 5-state chains whose one closed class is the absorbing state 0 and
whose state 4 stays put with probability 1 - 10^-7 or 1 - 10^-11, so that
the projector check meets expected times of about 10^7 and 10^11 steps;
rounding the latter alone leaves residuals past ``TIME_TOL``),
and every case of the three benchmark workloads at each
seed (the workload's own tasks and horizons), the script analyzes the chain, and
writes to OUT, as sorted JSON, the sha256 of the
``report_json`` text and the ``verify_report`` item list.  A case
that raises a package error records the error instead.  Two trees that give
byte-identical OUT files emit the same reports and verify them the same way:

    cmp PARENT.json CHANGE.json

The cases come from ``perfbench/workloads.py`` next to this script, imported
as is; the chain specs are written to a temporary directory and read back
through ``AnalysisRequest.chain_path``, as the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = 2.0**-40
#: name -> a function of the package giving the chain spec
EDGE_CHAINS = {
    "birth_death_23": lambda cc: cc.kernel_to_spec(cc.birth_death(23)),
    "swap_2^-40": lambda cc: {"kind": "finite", "matrix": [[1.0 - SWAP, SWAP], [SWAP, 1.0 - SWAP]]},
    "cross_end_walk": lambda cc: {
        "kind": "walk",
        "support": "Z",
        "exceptions": {"0": {"-2": 0.5, "2": 0.5}},
        "tail_+inf": {"relative": {"-1": 0.25, "1": 0.5}, "to_other_end": {"-inf": 0.25}},
        "tail_-inf": {"relative": {"1": 0.2, "-1": 0.3}, "to_other_end": {"+inf": 0.5}},
    },
    "drift_walk_N_0.45": lambda cc: cc.kernel_to_spec(cc.drift_walk_N(0.45)),
    "walk_to_finite_past_window": lambda cc: {
        "kind": "walk",
        "support": "N",
        "exceptions": {"0": {"1": 1.0}},
        "tail_+inf": {"relative": {"1": 0.8, "-1": 0.1}, "to_finite": {"40": 0.1}},
    },
    "mirror_merge_walk": lambda cc: {
        "kind": "walk",
        "support": "Z",
        "exceptions": {"0": {"-1": 0.5, "1": 0.5}},
        "tail_+inf": {"relative": {"-2": 0.35, "-1": 0.25, "1": 0.1, "2": 0.1}, "to_other_end": {"-inf": 0.2}},
        "tail_-inf": {"relative": {"2": 0.35, "1": 0.25, "-1": 0.1, "-2": 0.1}, "to_other_end": {"+inf": 0.2}},
    },
    "slow_exit_one_class": lambda cc: slow_exit_one_class(1e-7),
    "slow_exit_one_class_1e-11": lambda cc: slow_exit_one_class(1e-11),
}


def slow_exit_one_class(leak: float) -> dict:
    """5 states whose one closed class is the absorbing state 0; state 4 stays put with probability 1 - leak."""
    return {
        "kind": "finite",
        "matrix": [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.25, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.6, 0.4],
            [1 / 3, 2 / 9, 2 / 9, 0.0, 2 / 9],
            [leak * (2 / 9)] * 3 + [leak * (1 / 3), 1.0 - leak],
        ],
    }


def digest(cc, request) -> dict:
    try:
        report = cc.run_analysis(request)
    except cc.ChargeChainError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    text = cc.report_json(report)
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "verify": cc.verify_report(json.loads(text)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the chargechain package")
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    cc = importlib.import_module("chargechain")
    workloads = importlib.import_module("workloads")

    out: dict[str, dict] = {}
    for name in cc.catalog.names():
        out[f"catalog/{name}"] = digest(cc, cc.AnalysisRequest(catalog=name))
        for task in cc.report.applicable_tasks(cc.catalog.build(name), ()):
            out[f"catalog/{name}/{task}"] = digest(cc, cc.AnalysisRequest(catalog=name, tasks=(task,)))
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in EDGE_CHAINS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec(cc), sort_keys=True), encoding="utf-8")
            out[f"edge/{name}"] = digest(cc, cc.AnalysisRequest(chain_path=str(path)))
        for seed in args.seeds:
            for wl_name in workloads.WORKLOADS:
                wl = workloads.build(cc, wl_name, seed)
                for i, case in enumerate(wl.cases):
                    if case.spec is None:
                        source = {"catalog": case.catalog}
                    else:
                        path = Path(tmp) / f"{wl_name}-{seed}-{i:02d}.json"
                        path.write_text(json.dumps(case.spec, sort_keys=True), encoding="utf-8")
                        source = {"chain_path": str(path)}
                    request = cc.AnalysisRequest(tasks=wl.tasks, n_max=wl.n_max, windows=wl.windows, **source)
                    out[f"{wl_name}/seed{seed}/{i:02d}-{case.name}"] = digest(cc, request)
    Path(args.out).write_text(json.dumps(out, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    errors = sum(1 for v in out.values() if "error" in v)
    failed = sum(1 for v in out.values() for item in v.get("verify", []) if not item["ok"])
    print(f"{len(out)} reports, {errors} errors, {failed} failed verify items -> {args.out}")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
