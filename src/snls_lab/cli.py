"""Command-line entry point.

Subcommands mirror the run kinds: simulate | ensemble | picard | convergence
| validate.  Every subcommand takes --config PATH plus optional --out DIR,
--seed U64 (overrides the config), and --threads N (the ensemble's worker
count, default 1).
"""

from __future__ import annotations

import argparse
import sys

from .harness import RUN_KINDS, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snls-lab",
        description=(
            "Spectral split-step laboratory for stochastic nonlinear "
            "Schrodinger equations with multiplicative martingale noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUN_KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} config")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker count, at most the core count (default: 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = run(args.config, kind=args.command, out_dir=args.out,
               seed=args.seed, threads=args.threads)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
