"""Command-line front door: analyze chains, search conditions, verify reports."""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .errors import CapacityError, ChargeChainError, ValidationError
from .report import (
    ALL_TASKS,
    AnalysisRequest,
    read_json,
    report_csv,
    report_json,
    run_analysis,
    verify_report,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
#: each horizon option's default is its ``AnalysisRequest`` field's
_DEFAULT = {name: f.default for name, f in AnalysisRequest.__dataclass_fields__.items()}
#: each analysis subcommand's help and tasks; one without fixed tasks takes ``--tasks``, every task when omitted
SUBCOMMANDS = {
    "analyze": ("run the full analysis pipeline", ()),
    "doeblin": ("small-set witness search and the other ergodicity conditions", ("conditions",)),
    "ergodic": ("operator-distance decay and fitted rates", ("ergodic",)),
    "escape": ("window-mass escape profile of a countable chain", ("escape",)),
}


def _add_chain_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", help="path to a chain-spec JSON file")
    src.add_argument("--catalog", help="name of a catalog entry")


def _add_horizon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, default=_DEFAULT["n_max"], help="iteration horizon")
    p.add_argument("--k-max", type=int, default=_DEFAULT["k_max"], help="largest step order scanned")
    p.add_argument("--eps-grid", default=None, help="comma-separated eps values")
    p.add_argument("--windows", default=",".join(map(str, _DEFAULT["windows"])), help="comma-separated window sizes")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargechain",
        description="invariant-measure and ergodicity diagnostics for Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, tasks) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_chain_args(p)
        _add_horizon_args(p)
        _add_output_args(p)
        if not tasks:
            p.add_argument(
                "--tasks",
                default=None,
                help=f"comma-separated subset of: {', '.join(ALL_TASKS)}",
            )

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=("list",))

    p_ver = sub.add_parser("verify-report", help="re-verify every witness in a report")
    p_ver.add_argument("--report", required=True, help="path to a report JSON file")
    return parser


def _request_from_args(args, tasks: tuple[str, ...]) -> AnalysisRequest:
    eps_grid = _DEFAULT["eps_grid"]
    if args.eps_grid is not None:  # an empty value is refused, not read as the default
        try:
            eps_grid = tuple(float(x) for x in args.eps_grid.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad --eps-grid value: {exc}") from exc
    try:
        windows = tuple(int(x) for x in args.windows.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --windows value: {exc}") from exc
    return AnalysisRequest(
        catalog=args.catalog,
        chain_path=args.chain,
        tasks=tasks,
        n_max=args.n_max,
        k_max=args.k_max,
        eps_grid=eps_grid,
        windows=windows,
    )


def _emit(report: dict, args) -> None:
    text = report_json(report) if args.format == "json" else report_csv(report)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            for name in catalog.names():
                e = catalog.entry(name)
                params = json.dumps(e.params, sort_keys=True)
                print(f"{name} {params}" + (f"  # {e.notes}" if e.notes else ""))
            return EXIT_OK
        if args.command == "verify-report":
            results = verify_report(read_json(args.report, "report"))
            for item in results:
                status = "ok" if item["ok"] else "FAILED"
                detail = f" ({item['detail']})" if item["detail"] else ""
                print(f"{status}: {item['check']}{detail}")
            if all(item["ok"] for item in results):
                print(f"verified {len(results)} checks")
                return EXIT_OK
            return EXIT_VERIFY_FAILED
        _, tasks = SUBCOMMANDS[args.command]
        if not tasks and args.tasks is not None:
            tasks = tuple(t.strip() for t in args.tasks.split(","))
            if "" in tasks:  # an empty value would run every task
                raise ValidationError(f"bad --tasks value {args.tasks!r}: an empty task name")
        request = _request_from_args(args, tasks)
        report = run_analysis(request)
        if args.command == "doeblin" and report["conditions"]["D"]["kind"] == "capacity":
            # the small-set search is all this subcommand asks for
            raise CapacityError(report["conditions"]["D"]["detail"])
        _emit(report, args)
        return EXIT_OK
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ChargeChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
