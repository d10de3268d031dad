"""Command line: run configured experiments, verify suites, sweep bound grids."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .acceptance import SUITES, format_line, run_criterion
from .harness import ExperimentConfig, run_experiment

DEFAULT_SWEEP_SPACE = {
    "name": "k_minimizer_space",
    "params": {"num_hypotheses": 100, "num_minimizers": 4, "seed": 0},
}


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if not config.output_path:
        raise ValueError("config must set output_path for CLI runs")
    result = run_experiment(config)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{config.experiment} {verdict} -> {config.output_path}")
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    """Print the suite's verdict lines once every criterion has run; each criterion's wall time goes to stderr."""
    results = []
    for number in SUITES[args.suite]:
        start = time.perf_counter()
        results.append(run_criterion(number))
        print(f"criterion {number:02d} wall {time.perf_counter() - start:.3f}s", file=sys.stderr)
    for result in results:
        print(format_line(result))
    ok = all(r.passed for r in results)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} ({sum(r.passed for r in results)}/{len(results)})")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    space_spec = json.loads(args.space) if args.space else DEFAULT_SWEEP_SPACE
    betas = tuple(float(b) for b in np.linspace(args.beta_min, args.beta_max, args.beta_steps))
    config = ExperimentConfig(
        experiment=args.experiment,
        space_spec=space_spec,
        n=args.n,
        beta_grid=betas,
        delta=args.delta,
        trials=1,
        master_seed=args.seed,
        output_path=args.out,
    )
    result = run_experiment(config)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{config.experiment} sweep {verdict} ({args.beta_steps} betas) -> {args.out}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Exact bound computation and Monte Carlo verification for the Gibbs algorithm",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a JSON config file")
    run_p.add_argument("config", help="path to an ExperimentConfig JSON document")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run a named acceptance suite")
    verify_p.add_argument("suite", choices=sorted(SUITES), help="suite name")
    verify_p.set_defaults(func=_cmd_verify)

    sweep_p = sub.add_parser("sweep", help="sweep a beta grid and write the CSV matrix")
    sweep_p.add_argument("--experiment", required=True, choices=("phase", "zero_temp"))
    sweep_p.add_argument("--beta-min", type=float, required=True)
    sweep_p.add_argument("--beta-max", type=float, required=True)
    sweep_p.add_argument("--beta-steps", type=int, required=True)
    sweep_p.add_argument("--n", type=int, required=True)
    sweep_p.add_argument("--delta", type=float, required=True)
    sweep_p.add_argument("--seed", type=int, required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--space", default=None, help="space generator spec as inline JSON")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command; a bad or unreadable config, grid or space spec is reported on stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gibbslab: error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())
