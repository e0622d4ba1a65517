"""Command-line entry points: run, validate, enumerate-workloads, make-surrogate."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import ExperimentConfig, load_schema, run_experiment, validate_config
from .mechanisms import NOISE_MODES
from .queries import enumerate_workloads
from .surrogate import write_surrogate


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _checked_config(path: Path, noise: str | None = None) -> ExperimentConfig | None:
    """The config file at ``path`` (with ``noise`` overriding its noise mode) if
    it loads and passes ``validate_config``, else None after printing why not."""
    try:
        config = ExperimentConfig.from_json(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems = [str(exc)]
    else:
        config.noise = noise or config.noise
        problems = validate_config(config)
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return None if problems else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _checked_config(args.config, args.noise)
    if config is None:
        return 1
    results = run_experiment(config, jobs=args.jobs)
    failed = 0
    for r in results:
        if r["ok"]:
            print(f"ok   {r['algorithm']} eps={r['epsilon']} seed={r['seed']} -> {r['dir']}")
        else:
            failed += 1
            print(
                f"FAIL {r['algorithm']} eps={r['epsilon']} seed={r['seed']}: {r['error']}",
                file=sys.stderr,
            )
    print(f"{len(results) - failed}/{len(results)} runs completed")
    return 0 if failed == 0 else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _checked_config(args.config)
    if config is None:
        return 1
    print(f"config ok: {len(config.triples())} runs over {len(config.algorithms)} algorithms")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        schema, _ = load_schema(args.schema)
        workloads = enumerate_workloads(schema, args.k)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = schema.names
    for i, w in enumerate(workloads):
        cols = ", ".join(names[c] for c in w.columns)
        print(f"{i}\t({cols})\tcells={w.size}")
    print(f"{len(workloads)} workloads of arity {args.k}")
    return 0


def _cmd_surrogate(args: argparse.Namespace) -> int:
    try:
        csv_path, schema_path = write_surrogate(args.out, num_rows=args.rows, seed=args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {csv_path}")
    print(f"wrote {schema_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpstream",
        description="Differentially private synthetic data for evolving tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run.add_argument("--config", required=True, type=Path)
    run.add_argument("--jobs", type=_positive_int, default=1, help="parallel runs (default 1)")
    run.add_argument("--noise", choices=NOISE_MODES, help="override config noise mode")
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="check a config and its files without running")
    validate.add_argument("--config", required=True, type=Path)
    validate.set_defaults(func=_cmd_validate)

    enum = sub.add_parser("enumerate-workloads", help="print the workload list for a schema")
    enum.add_argument("--schema", required=True, type=Path)
    enum.add_argument("--k", type=int, default=2)
    enum.set_defaults(func=_cmd_enumerate)

    surrogate = sub.add_parser("make-surrogate", help="write the bundled census-style dataset")
    surrogate.add_argument("--out", required=True, type=Path)
    surrogate.add_argument("--rows", type=_positive_int, default=10_000)
    surrogate.add_argument("--seed", type=int, default=7)
    surrogate.set_defaults(func=_cmd_surrogate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
