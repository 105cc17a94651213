"""Command-line pipeline: model file or scenario in, reports out.

Subcommands:

* ``validate``  parse a model and print its numeric validation report;
* ``run``       compute the information quantities, write report.json;
* ``check``     run plus the bound audit, write bounds.csv, gate the exit
  code on every check;
* ``scenario list``  names of the built-in scenarios.

Exit codes: 0 success; 1 the model document is invalid (syntax, shape or
numeric validation); 2 a consistency check or bound fails at tolerance;
3 bad arguments, I/O, enumeration-budget or numeric-range errors. Progress
and diagnostics go to stderr; results go to files in the output directory
only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

from .engine import (
    ConsistencyAccumulator,
    compute_a_priori,
    enumerate_trajectories,
    format_outcomes,
    sample_trajectories,
)
from .entropics import (
    EntropyReportBuilder,
    check_bounds,
    report_to_json_dict,
    write_bounds_csv,
)
from .errors import (
    BudgetExceeded,
    ContmeasError,
    ModelSyntaxError,
    NumericRangeError,
    ShapeError,
)
from .model import (
    SCENARIO_NAMES,
    CheckReport,
    MeasurementModel,
    TimeGrid,
    builtin_scenario,
    is_pure_preserving,
    parse_model,
    validate_model,
)

EXIT_OK = 0
EXIT_INVALID_MODEL = 1
EXIT_VIOLATION = 2
EXIT_IO = 3

_SCENARIO_BLURBS = {
    "identity": "no-op instrument; nothing is ever learned",
    "qubit-projective": "projective qubit readout of a two-state ensemble",
    "qubit-weak": "weak (partial-strength) qubit measurement",
    "pure-preserving-random": "seeded random single-Kraus instrument on pure states",
    "damped-qubit": "amplitude-damping channel with a mixed-state ensemble",
}


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_times(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise _Failure(EXIT_IO, f"bad time list {text!r}: {exc}") from exc


def _load_model(model_path, scenario, horizon, seed) -> MeasurementModel:
    if (model_path is None) == (scenario is None):
        raise _Failure(EXIT_IO, "exactly one of --model and --scenario is required")
    if horizon is not None and horizon < 1:
        raise _Failure(EXIT_IO, f"--horizon must be at least 1, got {horizon}")
    if scenario is not None:
        try:
            return builtin_scenario(
                scenario, horizon=horizon if horizon is not None else 3, seed=seed
            )
        except ContmeasError as exc:
            raise _Failure(EXIT_IO, str(exc)) from exc
    try:
        text = Path(model_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {model_path}: {exc}") from exc
    try:
        model = parse_model(text)
    except (ModelSyntaxError, ShapeError) as exc:
        raise _Failure(EXIT_INVALID_MODEL, f"invalid model document: {exc}") from exc
    if horizon is not None and horizon != model.horizon:
        if not model.homogeneous:
            raise _Failure(
                EXIT_IO, "--horizon can only override models with a single instrument"
            )
        model = MeasurementModel(
            dim=model.dim,
            horizon=horizon,
            ensemble=model.ensemble,
            steps=tuple([model.steps[0]] * horizon),
            homogeneous=True,
        )
    return model


def _validate_or_fail(model: MeasurementModel) -> None:
    report = validate_model(model)
    if not report.passed:
        for check in report.failures():
            _say(f"validation failure: {check}")
        raise _Failure(EXIT_INVALID_MODEL, "model validation failed")
    _say(f"validation: {len(report.checks)} checks passed")


@contextlib.contextmanager
def _output(path: Path):
    """``path`` open for writing; an OSError while opening or writing it is
    an I/O failure."""
    try:
        with path.open("w", encoding="utf-8") as stream:
            yield stream
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc}") from exc


def run_pipeline(args: argparse.Namespace) -> int:
    """validate -> a-priori track -> engine -> consistency -> reports, for
    the parsed command line of ``run`` or ``check``.

    Writes report.json (always), bounds.csv (for ``check``) and
    trajectories.csv (when requested) into the output directory. Returns
    the process exit code.
    """
    try:
        if args.samples < 1:
            raise _Failure(EXIT_IO, f"--samples must be at least 1, got {args.samples}")
        # a negative --tol is allowed: it demands positive margins
        if not math.isfinite(args.tol):
            raise _Failure(EXIT_IO, f"--tol must be finite, got {args.tol!r}")
        times, refs = _parse_times(args.grid), _parse_times(args.refs)
        model = _load_model(args.model, args.scenario, args.horizon, args.seed)
        _validate_or_fail(model)
        try:
            grid = TimeGrid.make(model.horizon, record_times=times, reference_times=refs)
        except ValueError as exc:
            raise _Failure(EXIT_IO, f"bad grid: {exc}") from exc
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot create {out_dir}: {exc}") from exc

        apriori = compute_a_priori(model, grid)
        builder = EntropyReportBuilder(grid, mode=args.mode)
        stats = Counter()
        consistency = None
        if args.mode == "enumerate":
            consistency = ConsistencyAccumulator(model, grid, apriori, tol=args.tol)
            records = enumerate_trajectories(model, grid, apriori=apriori, stats=stats)
        else:
            records = sample_trajectories(
                model, grid, args.samples, seed=args.seed, apriori=apriori, stats=stats
            )
        dump = contextlib.nullcontext()
        if args.dump_trajectories:
            dump = _output(out_dir / "trajectories.csv")
        try:
            with dump as stream:
                writer = csv.writer(stream, lineterminator="\n") if stream else None
                if writer:
                    names = [f"S_{t}" for t in grid.record_times]
                    writer.writerow(["letter", "outcomes", "prob"] + names)
                for rec in records:
                    builder.add(rec)
                    if consistency is not None:
                        consistency.add(rec)
                    if writer:
                        # one row per draw, so a sampled path's rows are adjacent
                        row = [rec.letter, format_outcomes(rec.outcomes), repr(rec.prob)]
                        row += [repr(entropy) for entropy in rec.entropy.values()]
                        writer.writerows([row] * rec.count)
                # the last record holds its block, and so the increment trie
                rec = None
        except BudgetExceeded as exc:
            raise _Failure(EXIT_IO, f"enumeration refused: {exc}") from exc
        except NumericRangeError as exc:
            raise _Failure(EXIT_IO, str(exc)) from exc
        decomposed = "".join(f", {n} {name}" for name, n in stats.items())
        # builder.count counts draws in sample mode
        _say(f"{args.mode}: {builder.count} trajectories{decomposed}")
        if args.dump_trajectories:
            _say(f"wrote trajectories.csv ({builder.count} rows)")

        report = builder.finalize()
        violations = []
        if consistency is not None:
            consistency_report = consistency.finalize()
            if not consistency_report.passed:
                for check in consistency_report.failures():
                    _say(f"consistency failure: {check}")
                violations.append("consistency")
            else:
                worst = consistency_report.worst()
                _say(
                    f"consistency: {len(consistency_report.checks)} checks passed "
                    f"(max residual {-worst.margin:.3e} at {worst.label})"
                )

        doc = {
            "config": {
                "source": args.scenario if args.scenario else args.model,
                "horizon": model.horizon,
                "record_times": list(grid.record_times),
                "reference_times": list(grid.reference_times),
                "mode": args.mode,
                "samples": args.samples if args.mode == "sample" else None,
                "seed": args.seed,
                "tolerance": args.tol,
                "units": args.units,
            },
            **report_to_json_dict(report, units=args.units),
        }
        report_path = out_dir / "report.json"
        with _output(report_path) as stream:
            stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        _say(f"wrote {report_path}")

        if args.command == "check":
            bounds = check_bounds(report, tol=args.tol, pure_preserving=is_pure_preserving(model))
            bounds_path = out_dir / "bounds.csv"
            with _output(bounds_path) as stream:
                write_bounds_csv(bounds, stream, units=args.units)
            _say(f"wrote {bounds_path} ({len(bounds.checks)} bound checks)")
            families = {}
            for check in bounds.checks:
                families.setdefault(check.name, []).append(check)
            for family, checks in families.items():
                worst = CheckReport(tuple(checks)).worst()
                _say(f"bound {family}: smallest margin {worst.margin:.3e} at {worst.label}")
            if not bounds.passed:
                for check in bounds.failures():
                    _say(f"bound failure: {check}")
                violations.append("bounds")

        if violations:
            _say(f"FAIL: {', '.join(violations)}")
            return EXIT_VIOLATION
        return EXIT_OK
    except _Failure as failure:
        _say(f"error: {failure}")
        return failure.code


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model, args.scenario, args.horizon, args.seed)
    except _Failure as failure:
        _say(f"error: {failure}")
        return failure.code
    report = validate_model(model)
    _say(str(report))
    return EXIT_OK if report.passed else EXIT_INVALID_MODEL


def _cmd_scenario_list() -> int:
    for name in SCENARIO_NAMES:
        print(f"{name}: {_SCENARIO_BLURBS[name]}")
    return EXIT_OK


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", metavar="PATH", help="model document (JSON)")
    parser.add_argument(
        "--scenario", metavar="NAME", help=f"built-in scenario: {', '.join(SCENARIO_NAMES)}"
    )
    parser.add_argument("--horizon", type=int, metavar="T", help="number of time steps")
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for sampling and random scenarios"
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_model_arguments(parser)
    parser.add_argument("--grid", metavar="t0,t1,...", help="record times (default: 0..T)")
    parser.add_argument(
        "--refs", metavar="s0,s1,...", help="reference times (default: the grid)"
    )
    parser.add_argument(
        "--mode", choices=("enumerate", "sample"), default="enumerate", help="trajectory source"
    )
    parser.add_argument("--samples", type=int, default=10000, help="sample count (sample mode)")
    parser.add_argument("--tol", type=float, default=1e-9, help="margin tolerance in nats")
    parser.add_argument("--units", choices=("nats", "bits"), default="nats")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument(
        "--dump-trajectories", action="store_true", help="also write trajectories.csv"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contmeas",
        description="Repeated quantum measurements: trajectories, information "
        "quantities, and entropic bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate_cmd = sub.add_parser("validate", help="parse and validate a model")
    _add_model_arguments(validate_cmd)

    run_cmd = sub.add_parser("run", help="compute the information report")
    _add_run_arguments(run_cmd)

    check_cmd = sub.add_parser("check", help="run plus the full bound audit")
    _add_run_arguments(check_cmd)

    scenario_cmd = sub.add_parser("scenario", help="built-in scenario utilities")
    scenario_sub = scenario_cmd.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list scenario names")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scenario":
        return _cmd_scenario_list()
    if args.command == "validate":
        return _cmd_validate(args)
    return run_pipeline(args)


if __name__ == "__main__":
    sys.exit(main())
