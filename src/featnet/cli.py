"""Command-line entry point.

Subcommands:
  analyze    run the network pipeline over the selected partitions
  eval       compare hub-feature classification against a PCA baseline
  stability  rerun hub extraction on random row subsets
  export     write correlation / distance / similarity matrices as CSV

Exit codes: 0 success, 1 usage error, 2 data or file error, 3 partial failure
(at least one partition failed during analyze).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .correlation import CORRELATION_MODES
from .errors import FeatnetError
from .evaluation import GBTParams
from .pipeline import (
    PARTITION_ORDER,
    PipelineConfig,
    export_matrices,
    run_eval,
    run_pipeline,
    stability_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="featnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="dataset file (CSV or ARFF)")
        p.add_argument("--format", default="auto", choices=["csv", "arff", "auto"])
        p.add_argument(
            "--partitions",
            default=",".join(PARTITION_ORDER),
            help=f"comma-separated subset of {','.join(PARTITION_ORDER)}",
        )
        p.add_argument("--corr-mode", default="tie_aware", choices=CORRELATION_MODES)
        p.add_argument("--hub-threshold", type=int, default=2)

    analyze = sub.add_parser("analyze", help="run the full network pipeline")
    common(analyze)
    analyze.add_argument("--out", required=True, help="output directory")

    evalp = sub.add_parser("eval", help="hub features vs PCA baseline")
    common(evalp)
    evalp.add_argument(
        "--features",
        default=None,
        help="comma-separated feature names; default derives them from the all-websites tree",
    )
    evalp.add_argument("--pca-components", type=int, default=5)
    evalp.add_argument("--train-fraction", type=float, default=0.8)
    evalp.add_argument("--seed", type=int, default=42)
    evalp.add_argument("--n-seeds", type=int, default=5)
    evalp.add_argument("--rounds", type=int, default=200)
    evalp.add_argument("--learning-rate", type=float, default=0.1)
    evalp.add_argument("--max-depth", type=int, default=4)
    evalp.add_argument("--out", default=None, help="write the comparison JSON here")

    stab = sub.add_parser("stability", help="hub stability across row subsamples")
    common(stab)
    stab.add_argument("--n-subsamples", type=int, default=5)
    stab.add_argument("--fraction", type=float, default=0.8)
    stab.add_argument("--seed", type=int, default=0)
    stab.add_argument("--out", default=None, help="write the stability JSON here")

    export = sub.add_parser("export", help="export the three matrices as CSV")
    common(export)
    export.add_argument("--out", required=True, help="output directory")

    return parser


def _config_from_args(args) -> PipelineConfig:
    partitions = tuple(p.strip() for p in args.partitions.split(",") if p.strip())
    kwargs = dict(
        input_path=args.input,
        fmt=args.format,
        partitions=partitions,
        correlation_mode=args.corr_mode,
        hub_threshold=args.hub_threshold,
        out_dir=getattr(args, "out", None),
    )
    if args.command == "eval":
        kwargs.update(
            eval_features=tuple(f.strip() for f in args.features.split(","))
            if args.features
            else None,
            eval_pca_components=args.pca_components,
            train_fraction=args.train_fraction,
            eval_seed=args.seed,
            eval_n_seeds=args.n_seeds,
            gbt=GBTParams(
                n_rounds=args.rounds,
                learning_rate=args.learning_rate,
                max_depth=args.max_depth,
            ),
        )
    return PipelineConfig(**kwargs)


def _cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    manifest = run_pipeline(cfg)
    for outcome in manifest.partitions:
        print(f"[{outcome.partition}] {outcome.n_rows} rows")
        print(f"  hubs (degree > {args.hub_threshold}):")
        for hub in outcome.hubs:
            print(
                f"    {hub['feature']:32s} degree {hub['degree']}  community {hub['community']}"
            )
        for method, est in outcome.gamma.items():
            if "gamma" in est:
                print(f"  gamma[{method}] = {est['gamma']:.4f}")
            else:
                print(f"  gamma[{method}]: {est['error']}")
        # + 0.0 turns a rounded -0.0 (one community, Q about -1e-16) into 0.0
        print(
            f"  communities: {outcome.communities['count']}  "
            f"modularity {round(outcome.communities['modularity'], 4) + 0.0:.4f}"
        )
    for name, message in manifest.errors.items():
        print(f"[{name}] FAILED: {message}", file=sys.stderr)
    print(f"outputs written to {args.out}")
    return EXIT_PARTIAL if manifest.errors else EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    comparison = run_eval(cfg)
    features = comparison.hub_reports[0].subset.names
    print(f"features: {', '.join(features)}")
    print(
        f"hub features : mean accuracy {comparison.hub_mean:.4f} "
        f"(std {comparison.hub_std:.4f}, {len(comparison.hub_reports)} seeds)"
    )
    print(
        f"pca baseline : mean accuracy {comparison.pca_mean:.4f} "
        f"(std {comparison.pca_std:.4f}, {cfg.eval_pca_components} components)"
    )
    print(f"delta        : {comparison.delta:+.4f}")
    if args.out:
        text = json.dumps(comparison.to_dict(), indent=2) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    cfg = _config_from_args(args)
    report = stability_check(
        cfg, n_subsamples=args.n_subsamples, fraction=args.fraction, seed=args.seed
    )
    for name, entry in report["partitions"].items():
        print(
            f"[{name}] mean Jaccard vs full: {entry['mean_jaccard_vs_full']:.3f}  "
            f"pairwise: {entry['mean_pairwise_jaccard']:.3f}"
        )
    if args.out:
        text = json.dumps(report, indent=2) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    cfg = _config_from_args(args)
    for path in export_matrices(cfg):
        print(path)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "eval": _cmd_eval,
    "stability": _cmd_stability,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (FeatnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
