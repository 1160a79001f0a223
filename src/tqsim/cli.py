"""Command-line front end.

Subcommands: ``list`` the bundled arrangements, ``validate`` a spec document,
``run`` an arrangement under a strategy, ``abl`` for pre/post-selected
intermediate outcome probabilities.  Exit codes: 0 ok, 1 usage or spec
problems, 2 a run whose consistency audit found violations.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .engine import ResolutionStrategy, StrategyError
from .experiments import BUILTIN_EXPERIMENTS, SpecError, builtin_spec, load_spec, validate_spec
from .montecarlo import RunConfig, histogram_csv, run_experiment, run_payload
from .quantum import Observable, PrePostEnsemble, StateVector, abl_probability, normalize, rebase

_SQ = math.sqrt(0.5)

# Qubit dictionary: everything is written over the two z eigenstates.
_BASE_LABELS = ("up", "down")
_NAMED_STATES = {
    "+z": (1.0 + 0j, 0.0 + 0j),
    "-z": (0.0 + 0j, 1.0 + 0j),
    "+x": (complex(_SQ), complex(_SQ)),
    "-x": (complex(_SQ), complex(-_SQ)),
    "+y": (complex(_SQ), _SQ * 1j),
    "-y": (complex(_SQ), -_SQ * 1j),
}
_OBSERVABLE_BASES = {
    "z": ("+z", "-z"),
    "x": ("+x", "-x"),
    "y": ("+y", "-y"),
}


def _parse_qubit(text: str) -> StateVector:
    """A named state (+z, -x, ...) or two comma-separated amplitudes."""
    if text in _NAMED_STATES:
        return StateVector(_BASE_LABELS, _NAMED_STATES[text])
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"expected a named state or two comma-separated amplitudes, got {text!r}")
    try:
        amps = tuple(complex(p.strip()) for p in parts)
    except ValueError:
        raise SpecError(f"cannot parse amplitudes from {text!r}") from None
    return normalize(StateVector(_BASE_LABELS, amps))


def _observable_basis(name: str) -> dict[str, StateVector]:
    return {
        label: StateVector(_BASE_LABELS, _NAMED_STATES[label])
        for label in _OBSERVABLE_BASES[name]
    }


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in BUILTIN_EXPERIMENTS)
    for name, (_factory, description) in BUILTIN_EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec(Path(args.spec_path).read_bytes(), validate=False)
    problems = validate_spec(spec)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"{spec.name}: ok")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.experiment:
        spec = builtin_spec(args.experiment)
    else:
        spec = load_spec(Path(args.spec).read_bytes())
    config = RunConfig(
        n_trials=args.trials,
        seed=args.seed,
        strategy=args.strategy,
        workers=args.workers,
    )
    table, report = run_experiment(spec, config)
    payload = run_payload(spec, config, table, report)
    payload_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if args.format == "csv":
        if table.histogram is None:
            print("no histogram for this arrangement", file=sys.stderr)
            return 1
        sys.stdout.write(histogram_csv(table.histogram))
    else:
        sys.stdout.write(payload_text)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(payload_text)
        if table.histogram is not None:
            (out / "histogram.csv").write_text(histogram_csv(table.histogram))

    return 0 if report.clean() else 2


def cmd_abl(args: argparse.Namespace) -> int:
    basis = _observable_basis(args.observable)
    pre = rebase(_parse_qubit(args.pre), basis)
    post = rebase(_parse_qubit(args.post), basis)
    if args.outcome not in pre.labels:
        raise SpecError(
            f"outcome {args.outcome!r} is not an outcome of observable {args.observable!r}"
        )
    p = abl_probability(PrePostEnsemble(pre, post), Observable.per_label(pre.labels), args.outcome)
    print(f"{p:.12f}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; code 2 is reserved for failed consistency audits.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list the bundled arrangements")
    p_list.set_defaults(func=cmd_list)

    p_val = sub.add_parser("validate", help="check a spec document")
    p_val.add_argument("spec_path", help="path to a spec JSON document")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run trials of one arrangement")
    which = p_run.add_mutually_exclusive_group(required=True)
    which.add_argument("--experiment", help="bundled arrangement name (see 'sim list')")
    which.add_argument("--spec", help="path to a spec JSON document")
    p_run.add_argument("--trials", type=int, required=True, help="number of trials")
    p_run.add_argument("--seed", type=int, required=True, help="run seed")
    p_run.add_argument(
        "--strategy",
        choices=[s.value for s in ResolutionStrategy],
        default=ResolutionStrategy.SEQUENTIAL.value,
        help="resolution strategy",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads, capped at the chunk and CPU counts (default 1)",
    )
    p_run.add_argument("--out", help="directory for results.json (and histogram.csv)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("abl", help="pre/post-selected outcome probability")
    p_abl.add_argument("--pre", required=True, help="pre-selected state")
    p_abl.add_argument("--post", required=True, help="post-selected state")
    p_abl.add_argument("--observable", choices=sorted(_OBSERVABLE_BASES), required=True)
    p_abl.add_argument("--outcome", required=True, help="outcome label, e.g. +z")
    p_abl.set_defaults(func=cmd_abl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SpecError, StrategyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
