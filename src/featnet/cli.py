"""Command-line entry point.

Subcommands:
  analyze    run the network pipeline over the selected partitions
  eval       compare hub-feature classification against a PCA baseline
  stability  rerun hub extraction on random row subsets
  export     write correlation / distance / similarity matrices as CSV

Exit codes: 0 success, 1 usage error, 2 data or file error, 3 partial failure
(at least one partition failed during analyze).
"""

import argparse
import os
import sys

from .correlation import CORRELATION_MODES
from .dataset import _write_text
from .errors import FeatnetError
from .pipeline import (
    PARTITION_ORDER,
    GBTParams,
    PipelineConfig,
    _json_text,
    export_matrices,
    run_eval,
    run_pipeline,
    stability_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

# each option's dest names the setting it fills; an option not given keeps its default
_CONFIG_FIELDS = set(PipelineConfig._fields)
_GBT_FIELDS = set(GBTParams._fields)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated list, blank items dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="featnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--input": dict(dest="input_path", metavar="INPUT", required=True,
                        help="dataset file (CSV or ARFF)"),
        "--format": dict(dest="fmt", choices=["csv", "arff", "auto"]),
        "--partitions": dict(type=_names,
                             help=f"comma-separated subset of {','.join(PARTITION_ORDER)}"),
        "--corr-mode": dict(dest="correlation_mode", choices=CORRELATION_MODES),
        "--hub-threshold": dict(type=int),
    }

    def subcommand(name, help, *flags):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    def out(p, help, required=False):
        p.add_argument("--out", dest="out_dir", metavar="OUT", required=required, help=help)

    analyze = subcommand("analyze", "run the full network pipeline", *shared)
    out(analyze, "output directory", required=True)

    evalp = subcommand("eval", "hub features vs PCA baseline",
                       "--input", "--format", "--corr-mode", "--hub-threshold")
    evalp.add_argument(
        "--features", dest="eval_features", metavar="FEATURES", type=_names,
        help="comma-separated feature names; default derives them from the all-websites tree",
    )
    evalp.add_argument("--pca-components", dest="eval_pca_components",
                       metavar="PCA_COMPONENTS", type=int)
    evalp.add_argument("--train-fraction", type=float)
    evalp.add_argument("--seed", dest="eval_seed", metavar="SEED", type=int)
    evalp.add_argument("--n-seeds", dest="eval_n_seeds", metavar="N_SEEDS", type=int)
    evalp.add_argument("--rounds", dest="n_rounds", metavar="ROUNDS", type=int)
    evalp.add_argument("--learning-rate", type=float)
    evalp.add_argument("--max-depth", type=int)
    out(evalp, "write the comparison JSON here")

    stab = subcommand("stability", "hub stability across row subsamples", *shared)
    stab.add_argument("--n-subsamples", type=int)
    stab.add_argument("--fraction", type=float)
    stab.add_argument("--seed", type=int)
    out(stab, "write the stability JSON here")

    export = subcommand("export", "export the three matrices as CSV",
                        "--input", "--format", "--partitions", "--corr-mode")
    out(export, "output directory", required=True)

    return parser


def _config_from_args(args) -> PipelineConfig:
    given = vars(args)
    gbt = GBTParams(**{k: v for k, v in given.items() if k in _GBT_FIELDS})
    return PipelineConfig(**{k: v for k, v in given.items() if k in _CONFIG_FIELDS}, gbt=gbt)


def _check_report(path: str | None) -> None:
    if path is not None and os.path.isdir(path):
        raise ValueError(f"out_dir (--out) {path!r} is a directory, not a report file")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"out_dir (--out) {path!r} is not in an existing directory")


def _write_report(payload: dict, path: str | None) -> None:
    if path is not None:
        _write_text(path, _json_text(payload))
        print(f"report written to {path}")


def _cmd_analyze(cfg: PipelineConfig, args) -> int:
    manifest = run_pipeline(cfg)
    for outcome in manifest.partitions:
        print(f"[{outcome['partition']}] {outcome['n_rows']} rows")
        print(f"  hubs (degree > {cfg.hub_threshold}):")
        for hub in outcome["hubs"]:
            print(
                f"    {hub['feature']:32s} degree {hub['degree']}  community {hub['community']}"
            )
        for method, est in outcome["gamma"].items():
            if "gamma" in est:
                print(f"  gamma[{method}] = {est['gamma']:.4f}")
            else:
                print(f"  gamma[{method}]: {est['error']}")
        # + 0.0 turns a rounded -0.0 (one community, Q about -1e-16) into 0.0
        print(
            f"  communities: {outcome['communities']['count']}  "
            f"modularity {round(outcome['communities']['modularity'], 4) + 0.0:.4f}"
        )
    for name, message in manifest.errors.items():
        print(f"[{name}] FAILED: {message}", file=sys.stderr)
    print(f"outputs written to {cfg.out_dir}")
    return EXIT_PARTIAL if manifest.errors else EXIT_OK


def _cmd_eval(cfg: PipelineConfig, args) -> int:
    _check_report(cfg.out_dir)
    report = run_eval(cfg)
    hub, pca = report["hub"], report["pca"]
    print(f"features: {', '.join(hub['reports'][0]['subset']['features'])}")
    print(
        f"hub features : mean accuracy {hub['mean_accuracy']:.4f} "
        f"(std {hub['std_accuracy']:.4f}, {len(hub['reports'])} seeds)"
    )
    print(
        f"pca baseline : mean accuracy {pca['mean_accuracy']:.4f} "
        f"(std {pca['std_accuracy']:.4f}, {cfg.eval_pca_components} components)"
    )
    print(f"delta        : {report['delta']:+.4f}")
    _write_report(report, cfg.out_dir)
    return EXIT_OK


def _cmd_stability(cfg: PipelineConfig, args) -> int:
    _check_report(cfg.out_dir)
    options = {k: v for k, v in vars(args).items() if k in ("n_subsamples", "fraction", "seed")}
    report = stability_check(cfg, **options)
    for name, entry in report["partitions"].items():
        print(
            f"[{name}] mean Jaccard vs full: {entry['mean_jaccard_vs_full']:.3f}  "
            f"pairwise: {entry['mean_pairwise_jaccard']:.3f}"
        )
    _write_report(report, cfg.out_dir)
    return EXIT_OK


def _cmd_export(cfg: PipelineConfig, args) -> int:
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
    """Run one command and return its exit code.

    Registers ``gc.freeze`` to run at exit, once per process: what is still
    alive then, mostly what the numpy and featnet imports built, moves to the
    permanent generation, which the collections of interpreter shutdown skip.
    """
    import atexit, gc  # here, so that importing featnet.cli loads nothing new
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](_config_from_args(args), args)
    except (FeatnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
