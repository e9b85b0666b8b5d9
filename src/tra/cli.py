"""Command line interface.

    tra run <scenario.json> [--seed N] [--fault target@point]... [--report text|structured]
    tra sweep <scenario.json>
    tra validate <manifest.json> <edges.json>

Exit code 0 means every assertion, sweep combination, or layering check
passed; 1 means something failed; 2 means the input could not be used.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TraError
from .faults import FaultSpec
from .harness import crash_sweep, render_report, render_sweep, run_scenario
from .model import load_edges_file, load_manifest_file, validate_layering


def _write(stream, text: str) -> None:
    """Write text that may hold anything a JSON string can, such as a lone
    surrogate from a scenario: what the stream cannot encode is written as a
    backslash escape instead of raising."""
    encoding = stream.encoding or "utf-8"
    stream.write(text.encode(encoding, "backslashreplace").decode(encoding))


def _cmd_run(args) -> int:
    faults = [FaultSpec.parse(f) for f in args.fault]
    report = run_scenario(args.scenario, seed=args.seed, faults=faults)
    _write(sys.stdout, render_report(report, mode=args.report))
    return 0 if report["ok"] else 1


def _cmd_sweep(args) -> int:
    result = crash_sweep(args.scenario)
    _write(sys.stdout, render_sweep(result))
    return 0 if result["ok"] else 1


def _cmd_validate(args) -> int:
    model = load_manifest_file(args.manifest)
    edges = load_edges_file(args.edges)
    violations = validate_layering(model, edges)
    for v in violations:
        _write(sys.stdout, f"{v.rule}: {v.edge} ({v.reason})\n")
    _write(sys.stdout, f"{len(edges)} edge(s) checked, {len(violations)} violation(s)\n")
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tra",
        description="Transactional component runtime harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="TARGET@POINT",
        help="inject a crash (repeatable), e.g. coordinator@after_vote_before_decision",
    )
    run_p.add_argument(
        "--report", choices=("text", "structured"), default="text", help="output format"
    )
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the crash sweep matrix for a scenario")
    sweep_p.add_argument("scenario", help="scenario JSON file")
    sweep_p.set_defaults(func=_cmd_sweep)

    val_p = sub.add_parser("validate", help="check declared call edges against a model")
    val_p.add_argument("manifest", help="component manifest JSON file")
    val_p.add_argument("edges", help="call edge list JSON file")
    val_p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
