"""Command-line front end.

Three subcommands tie the library together for batch use:

- ``fmaf check MODEL``: run the consistency rule catalog and report.
- ``fmaf simulate MODEL``: inject a fault chain and run to quiescence.
- ``fmaf export MODEL``: project a viewpoint and emit DOT text.

Exit codes are a stable contract: 0 ok, 1 violations found, 2 usage
error, 3 I/O or parse error, or a model that cannot be loaded for any
other reason. A simulation exits 0 whatever its outcome, a failure or
a fault that never activated among them: the simulator answering "the
SoS fails" is a successful analysis, distinct from tool failure.

Each subcommand imports the layers it needs when it runs, so ``check``
never loads the simulator or the viewpoint projections.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .checker import check, format_report, has_violations, to_records
from .dsl import parse_file
from .model import VIEW_KINDS, SosModel

if TYPE_CHECKING:
    from .simulator import SimTrace

__all__ = ["main"]

OK = 0
VIOLATIONS_FOUND = 1
USAGE_ERROR = 2
IO_OR_PARSE_ERROR = 3


def _fail(message: str) -> None:
    print(f"fmaf: {message}", file=sys.stderr)


def _load_model(path: str) -> SosModel | None:
    try:
        result = parse_file(path)
    except OSError as exc:
        _fail(f"cannot read {path!r}: {exc.strerror or exc}")
        return None
    except UnicodeDecodeError as exc:
        _fail(f"cannot read {path!r}: not UTF-8 text ({exc.reason} at byte {exc.start})")
        return None
    except Exception as exc:
        _fail(f"cannot load {path!r}: {type(exc).__name__}")
        return None
    if result.model is None:
        for diagnostic in result.diagnostics:
            print(diagnostic, file=sys.stderr)
        return None
    return result.model


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if model is None:
        return IO_OR_PARSE_ERROR
    findings = check(model)
    if args.format == "json":
        import json

        print(json.dumps(to_records(findings), indent=2))
    else:
        report = format_report(findings)
        print(report if report else "no findings", end="" if report else "\n")
    return VIOLATIONS_FOUND if has_violations(findings) else OK


def _print_summary(trace: SimTrace, model: SosModel) -> None:
    outcome = trace.outcome
    print(f"outcome: {outcome.kind}")
    if outcome.by is not None:
        print(f"detected-by: {outcome.by}")
    if outcome.recovery is not None:
        spec = model.recoveries.get(outcome.recovery)
        label = outcome.recovery
        if spec is not None and spec.name:
            label = f"{outcome.recovery} ({spec.name})"
        print(f"recovery: {label}")
    steps = [e for e in trace.events if e.kind == "recovery-step"]
    if steps:
        print("steps:")
        for event in steps:
            activity = event.details["activity"]
            name = event.details.get("name")
            print(f"  {activity}: {name}" if name else f"  {activity}")
    if outcome.kind == "failed-at-boundary":
        observed = next(
            (e for e in trace.events if e.kind == "failure-observed"), None
        )
        if observed is not None and observed.details.get("description"):
            print(f"failure: {observed.details['description']}")
    if trace.metrics:
        print("metrics:")
        for metric_id in sorted(trace.metrics):
            value = trace.metrics[metric_id]
            print(f"  {metric_id}: {'none' if value is None else value}")
    print(f"events: {len(trace.events)}")


def _simulation(model: SosModel, **config) -> tuple[SimTrace | None, int]:
    """The trace of one run and exit code 0, or None and the exit code
    after reporting why the run is refused."""
    from .simulator import ModelViolationsError, SimConfig, SimulationError, run

    try:
        return run(model, SimConfig(**config)), OK
    except ModelViolationsError as exc:
        _fail(str(exc))
        return None, VIOLATIONS_FOUND
    except SimulationError as exc:
        _fail(str(exc))
        return None, USAGE_ERROR


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import write_trace

    model = _load_model(args.model)
    if model is None:
        return IO_OR_PARSE_ERROR
    guards: dict[str, str] = {}
    for item in args.guard or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            _fail(f"bad --guard {item!r}; expected NODE=LABEL")
            return USAGE_ERROR
        guards[key] = value
    detectors = None
    if args.detectors is not None:
        detectors = frozenset(
            part.strip() for part in args.detectors.split(",") if part.strip()
        )
    trace, code = _simulation(
        model,
        scenario=args.scenario,
        seed=args.seed,
        horizon=args.horizon,
        enabled_detectors=detectors,
        guard_inputs=guards,
        recovery_enabled=not args.no_recovery,
    )
    if trace is None:
        return code
    if args.trace is not None:
        try:
            write_trace(trace, args.trace)
        except OSError as exc:
            _fail(f"cannot write {args.trace!r}: {exc.strerror or exc}")
            return IO_OR_PARSE_ERROR
    _print_summary(trace, model)
    return OK


def _cmd_export(args: argparse.Namespace) -> int:
    from .viewgen import ViewError, project, to_dot

    model = _load_model(args.model)
    if model is None:
        return IO_OR_PARSE_ERROR
    trace = None
    if args.view == "erroneous-scenario":
        # The view draws one run of the focus chain with simulate's defaults.
        if args.focus is None:
            _fail("view 'erroneous-scenario' needs --focus CHAIN, the chain to simulate")
            return USAGE_ERROR
        trace, code = _simulation(model, scenario=args.focus)
        if trace is None:
            return code
    try:
        graph = project(model, args.view, focus=args.focus, trace=trace)
    except ViewError as exc:
        _fail(str(exc))
        return USAGE_ERROR
    dot = to_dot(graph)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            _fail(f"cannot write {args.out!r}: {exc.strerror or exc}")
            return IO_OR_PARSE_ERROR
    else:
        print(dot, end="")
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmaf",
        description="Model, check, simulate, and project fault behaviour "
        "of a system of systems.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_check = subparsers.add_parser(
        "check", help="run the consistency rule catalog over a model"
    )
    p_check.add_argument("model", help="path to a .fmaf model file")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_check)

    p_sim = subparsers.add_parser(
        "simulate", help="inject a fault chain and run to quiescence"
    )
    p_sim.add_argument("model", help="path to a .fmaf model file")
    p_sim.add_argument(
        "--scenario", default=None, help="chain id to inject (omit for a nominal run)"
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--horizon", type=int, default=200)
    p_sim.add_argument(
        "--detectors", default=None, help="comma-separated detector constituents"
    )
    p_sim.add_argument(
        "--guard",
        action="append",
        metavar="NODE=LABEL",
        help="pick a decision branch (repeatable)",
    )
    p_sim.add_argument(
        "--no-recovery", action="store_true", help="let the error propagate"
    )
    p_sim.add_argument("--trace", default=None, help="write the JSONL trace here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_export = subparsers.add_parser(
        "export", help="project a viewpoint and emit DOT"
    )
    p_export.add_argument("model", help="path to a .fmaf model file")
    p_export.add_argument("--view", choices=VIEW_KINDS, required=True)
    p_export.add_argument("--focus", default=None, help="chain id for focused views")
    p_export.add_argument("--out", default=None, help="output path (default stdout)")
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        return OK if code == 0 else USAGE_ERROR
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
