"""The three benchmark workloads: what each runs, and how each is checked.

Every workload builds its inputs from the benchmark seed, hands featnet only
files, and checks the outputs of every invocation (see checks.py).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from checks import (
    NetworkOracle,
    Table,
    check_eval,
    check_network,
    compare,
    read_arff,
    write_csv,
)

DATA = Path("data") / "phishing_websites.arff"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
PARTITIONS = ("all", "legitimate", "phishing")
FRESH_SEED_BASE = 1000
MIN_ACCURACY = 0.85


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


class Analyze:
    """featnet analyze on the shipped ARFF: 3 partitions, all exports."""

    name = "analyze"

    def __init__(self, root: Path, rundir: Path, seed: int, tiny: bool):
        # the shipped table is the input at every seed and size
        self.table = read_arff(root / DATA)
        self.input = DATA
        self.reference = load_reference()["analyze"]
        self._setup(rundir)

    def _setup(self, rundir: Path) -> None:
        self.out = rundir / "out"
        self.oracle = NetworkOracle(self.table, PARTITIONS)
        self.properties = self.table.properties()

    def argv(self, i: int) -> list[str]:
        return ["analyze", "--input", str(self.input), "--out", str(self.out)]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, i: int):
        digest, problems = check_network(self.out, self.oracle, PARTITIONS)
        if digest is not None and self.reference is not None:
            problems += [f"reference {m}" for m in compare(digest, self.reference)]
        return digest, problems

    @staticmethod
    def expected_spans() -> dict[str, int | None]:
        """Span name -> count per invocation (None: present, any count)."""
        p = len(PARTITIONS)
        return {
            "cli.import": 1,
            "cli.main": 1,
            "pipeline.run_pipeline": 1,
            "dataset.load_dataset": 1,
            "dataset.partition": p,
            "pipeline.analyze_partition": p,
            "correlation.spearman_matrix": p,
            "correlation.rank_transform": None,
            "correlation.to_distance": p,
            "correlation.to_similarity": p,
            "graph.build_graph": p,
            "community.louvain": p,
            "graph.maximum_spanning_tree": p,
            "graph.find_hubs": p,
            "graph.write_hubs_csv": p,
            "graph.write_dot": p,
            "graph.write_graphml": p,
            "graph.write_degree_distribution_csv": p,
            "community.write_communities_csv": p,
            "pipeline.RunManifest.to_json": 1,
            "evaluation.evaluate": 0,
        }


class Wide(Analyze):
    """featnet analyze on a generated 300-feature CSV with latent communities."""

    name = "wide"

    def __init__(self, root: Path, rundir: Path, seed: int, tiny: bool):
        k, n, groups = (24, 150, 3) if tiny else (300, 1000, 10)
        self.table = make_wide(seed, k=k, n=n, groups=groups)
        rundir.mkdir(parents=True, exist_ok=True)
        self.input = rundir / "wide.csv"
        write_csv(self.table, self.input)
        # no committed outputs for generated data; the oracle checks them
        self.reference = None
        self._setup(rundir)


def make_wide(seed: int, k: int, n: int, groups: int) -> Table:
    """{-1, 0, 1} codes from a low-rank latent model with ``groups`` factors.

    Each feature loads on one factor, so features sharing a factor form a
    community of the similarity graph.  Cut points differ per feature, so
    code frequencies (and rank ties) differ too.  The label follows two of
    the factors, which gives both classes about half the rows.
    """
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, groups))
    group = rng.permutation(np.arange(k) % groups)
    loading = rng.uniform(0.35, 0.85, k)
    latent = loading * factors[:, group] + np.sqrt(1.0 - loading**2) * rng.standard_normal((n, k))
    low, high = rng.uniform(-1.2, -0.2, k), rng.uniform(0.2, 1.2, k)
    codes = (latent > high).astype(np.int64) - (latent < low).astype(np.int64)
    noise = 0.8 * rng.standard_normal(n)
    labels = np.where(factors[:, 0] + 0.7 * factors[:, 1] + noise > 0, 1, -1)
    return Table(tuple(f"f{j:03d}" for j in range(k)), codes, labels)


class Eval:
    """featnet eval, one split seed per invocation: hub features vs 5-component PCA."""

    name = "eval"

    def __init__(self, root: Path, rundir: Path, seed: int, tiny: bool):
        self.table = read_arff(root / DATA)
        self.seed = seed
        self.tiny = tiny
        self.report = rundir / "eval.json"
        reference = load_reference()
        self.features = reference["readme"]["eval_features"]
        # the five seeds behind the published accuracies
        self.readme_seeds = reference["readme"]["accuracy_seeds"]
        # per-seed outputs are committed for the default settings only
        self.reference = None if tiny else reference["eval"]
        self.properties = self.table.properties()

    def eval_seed(self, i: int) -> int:
        """Split seed of invocation i; both invocations of a pair share it.

        Pairs alternate between one of the published seeds, rotated by the
        benchmark seed and checked against the reference, and a fresh seed
        drawn from the benchmark seed, checked by invariants only.
        """
        pair, n = i // 2, len(self.readme_seeds)
        if pair % 2 == 0:
            return self.readme_seeds[(self.seed + pair // 2) % n]
        return FRESH_SEED_BASE + n * self.seed + (pair // 2) % n

    def argv(self, i: int) -> list[str]:
        args = ["eval", "--input", str(DATA), "--n-seeds", "1", "--seed", str(self.eval_seed(i))]
        if self.tiny:
            args += ["--rounds", "3"]
        return args + ["--out", str(self.report)]

    def reset(self) -> None:
        self.report.unlink(missing_ok=True)

    def check(self, i: int):
        seed = self.eval_seed(i)
        digest, problems = check_eval(
            self.report,
            seed,
            n_rows=len(self.table.labels),
            features=self.features,
            min_accuracy=0.0 if self.tiny else MIN_ACCURACY,
        )
        want = (self.reference or {}).get(str(seed))
        if digest is not None and want is not None:
            problems += [f"reference seed {seed} {m}" for m in compare(digest, want)]
        return digest, problems

    @staticmethod
    def expected_spans() -> dict[str, int | None]:
        return {
            "cli.import": 1,
            "cli.main": 1,
            "pipeline.run_eval": 1,
            "pipeline.run_pipeline": 0,
            "dataset.load_dataset": 1,
            "pipeline.analyze_partition": 1,
            "correlation.spearman_matrix": 1,
            "graph.build_graph": 1,
            "community.louvain": 1,
            "graph.maximum_spanning_tree": 1,
            "pipeline.select_connected_hubs": 1,
            "evaluation.evaluate": 2,
            "evaluation.stratified_split": 2,
            "evaluation.PowerIterationPCA.fit": 1,
            "evaluation.GradientBoostedTrees.fit": 2,
            "evaluation.GradientBoostedTrees.predict": 2,
        }


WORKLOADS = {w.name: w for w in (Analyze, Eval, Wide)}
