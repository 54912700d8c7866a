"""Output checks: canonical digests, invariants and an independent oracle.

A digest keeps only the decisive outputs of one invocation: hub tables,
community assignments, MST edge sets, degree distributions, gamma, total
weight, modularity, and per-seed accuracies with confusion matrices.  Floats
are compared within FLOAT_TOL, because a vectorised Spearman moves rho by
about 2e-16; the smallest gap between two edge weights of the reference
graphs is 2.9e-7, so any change of tree shows in the edge sets.

The oracle recomputes, with numpy and none of featnet's code, the Spearman
similarity of every partition, the weight of a maximum spanning tree (Prim)
and the modularity of the reported communities.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-9
# mst.graphml and mst.dot print edge weights with six decimals
FILE_WEIGHT_TOL = 1e-6
HUB_THRESHOLD = 2
PARTITION_LABELS = {"all": None, "legitimate": 1, "phishing": -1}
GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


@dataclass(frozen=True)
class Table:
    names: tuple[str, ...]
    rows: np.ndarray  # (n, k) codes in {-1, 0, 1}
    labels: np.ndarray  # (n,) in {-1, 1}

    def partition(self, name: str) -> np.ndarray:
        want = PARTITION_LABELS[name]
        return self.rows if want is None else self.rows[self.labels == want]

    def properties(self) -> dict:
        """Input properties a speed-up may depend on."""
        distinct = len(np.unique(self.rows, axis=0))
        return {
            "k": len(self.names),
            "n": int(self.rows.shape[0]),
            "rows_per_partition": {p: int(len(self.partition(p))) for p in PARTITION_LABELS},
            "distinct_rows": distinct,
            "distinct_row_share": distinct / self.rows.shape[0],
        }


def read_arff(path: Path) -> Table:
    names, body, in_data = [], [], False
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if in_data:
            body.append(line)
        elif low.startswith("@attribute"):
            names.append(line[len("@attribute"):].split("{")[0].strip().strip("'\""))
        elif low.startswith("@data"):
            in_data = True
    data = np.array([[int(v) for v in row.split(",")] for row in body], dtype=np.int64)
    return Table(tuple(names[:-1]), data[:, :-1], data[:, -1])


def write_csv(table: Table, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.names + ("Result",)) + "\n")
        np.savetxt(fh, np.column_stack([table.rows, table.labels]), fmt="%d", delimiter=",")


def similarity(rows: np.ndarray) -> np.ndarray:
    """exp(-sqrt(2(1 - rho))) of the tie-aware Spearman rho of every column pair."""
    n, k = rows.shape
    ranks = np.empty((n, k))
    for j in range(k):
        _, inverse, counts = np.unique(rows[:, j], return_inverse=True, return_counts=True)
        ranks[:, j] = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    centered = ranks - ranks.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    constant = norms <= 0
    norms[constant] = 1.0
    rho = (centered.T @ centered) / np.outer(norms, norms)
    rho[constant, :] = 0.0
    rho[:, constant] = 0.0
    np.fill_diagonal(rho, 1.0)
    return np.exp(-np.sqrt(np.maximum(2.0 * (1.0 - np.clip(rho, -1.0, 1.0)), 0.0)))


def max_spanning_weight(sim: np.ndarray) -> float:
    """Total weight of a maximum spanning tree of the complete graph (Prim)."""
    k = len(sim)
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    best = sim[0].copy()
    total = 0.0
    for _ in range(k - 1):
        j = int(np.argmax(np.where(in_tree, -np.inf, best)))
        total += float(best[j])
        in_tree[j] = True
        best = np.maximum(best, sim[j])
    return total


def modularity(sim: np.ndarray, communities: np.ndarray) -> float:
    adj = sim.copy()
    np.fill_diagonal(adj, 0.0)
    strength = adj.sum(axis=1)
    two_m = strength.sum()
    same = communities[:, None] == communities[None, :]
    return float(((adj - np.outer(strength, strength) / two_m) * same).sum() / two_m)


class NetworkOracle:
    """Similarity matrices and maximum spanning tree weights per partition."""

    def __init__(self, table: Table, partitions: tuple[str, ...]):
        self.names = table.names
        self.sim = {p: similarity(table.partition(p)) for p in partitions}
        self.mst_weight = {p: max_spanning_weight(s) for p, s in self.sim.items()}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def compare(got, want, path: str = "") -> list[str]:
    """Structural equality with floats within FLOAT_TOL; returns mismatches."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in compare(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def digest_hash(digest) -> str:
    """sha256 of the digest with floats rounded to 9 decimals (for display)."""

    def rounded(x):
        if isinstance(x, float):
            return round(x, 9) + 0.0
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        if isinstance(x, list):
            return [rounded(v) for v in x]
        return x

    text = json.dumps(rounded(digest), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_tree(path: Path) -> list[tuple[str, str, float]]:
    graph = ET.parse(path).getroot().find(f"{GRAPHML_NS}graph")
    edges = []
    for edge in graph.findall(f"{GRAPHML_NS}edge"):
        weight = float(edge.find(f"{GRAPHML_NS}data").text)
        u, v = sorted((edge.get("source"), edge.get("target")))
        edges.append((u, v, weight))
    return sorted(edges)


def _read_dot_edges(path: Path) -> list[tuple[str, str]]:
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if " -- " in line:
            left, right = line.split(" -- ", 1)
            u, v = left.strip().strip('"'), right.split('"')[1]
            edges.append(tuple(sorted((u, v))))
    return sorted(edges)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _spanning(nodes: tuple[str, ...], edges) -> bool:
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        if u not in parent or v not in parent:
            return False
        parent[find(u)] = find(v)
    return len({find(n) for n in nodes}) == 1


def check_network(out_dir: Path, oracle: NetworkOracle, partitions: tuple[str, ...]):
    """Check an ``analyze`` output directory; returns (digest, problems)."""
    problems: list[str] = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"manifest.json unreadable: {exc}"]
    if manifest.get("errors"):
        problems.append(f"partition errors: {manifest['errors']}")
    outcomes = {p["partition"]: p for p in manifest.get("partitions", [])}
    if tuple(outcomes) != partitions:
        return None, problems + [f"partitions {tuple(outcomes)} != {partitions}"]

    names = oracle.names
    digest = {}
    for name in partitions:
        outcome, part_dir, where = outcomes[name], out_dir / name, f"[{name}]"
        try:
            tree = _read_tree(part_dir / "mst.graphml")
            dot_edges = _read_dot_edges(part_dir / "mst.dot")
            hubs_csv = _read_csv(part_dir / "hubs.csv")
            communities_csv = _read_csv(part_dir / "communities.csv")
            degree_csv = _read_csv(part_dir / "degree_dist.csv")
        except (OSError, ET.ParseError, AttributeError, IndexError, ValueError) as exc:
            problems.append(f"{where} unreadable export: {exc}")
            continue
        sim = oracle.sim[name]
        index = {n: i for i, n in enumerate(names)}

        # tree: k-1 edges spanning every node, real graph weights, maximal
        if len(tree) != len(names) - 1 or not _spanning(names, tree):
            problems.append(f"{where} tree has {len(tree)} edges or does not span all nodes")
            continue
        if dot_edges != [(u, v) for u, v, _ in tree]:
            problems.append(f"{where} mst.dot and mst.graphml edges differ")
        for u, v, w in tree:
            if abs(w - sim[index[u], index[v]]) > FILE_WEIGHT_TOL:
                problems.append(f"{where} edge {u}-{v} weight {w} != similarity")
        total = outcome["tree"]["total_weight"]
        if not close(total, oracle.mst_weight[name]):
            problems.append(f"{where} tree weight {total!r} != maximum {oracle.mst_weight[name]!r}")

        # hubs are exactly the nodes of degree above the threshold
        degree = {n: 0 for n in names}
        for u, v, _ in tree:
            degree[u] += 1
            degree[v] += 1
        assignment = outcome["communities"]["assignment"]
        expected_hubs = sorted(
            ([n, d, assignment.get(n)] for n, d in degree.items() if d > HUB_THRESHOLD),
            key=lambda h: (-h[1], h[0]),
        )
        hubs = [[h["feature"], h["degree"], h["community"]] for h in outcome["hubs"]]
        if hubs != expected_hubs:
            problems.append(f"{where} hubs {hubs} != degree > {HUB_THRESHOLD} nodes {expected_hubs}")
        if hubs_csv != [[str(x) for x in h] for h in hubs]:
            problems.append(f"{where} hubs.csv differs from manifest")

        # communities cover every node with dense ids; modularity recomputed
        ids = [assignment.get(n) for n in names]
        if None in ids or sorted(set(ids)) != list(range(len(set(ids)))):
            problems.append(f"{where} community ids not dense over all nodes")
            continue
        if outcome["communities"]["count"] != len(set(ids)):
            problems.append(f"{where} community count mismatch")
        if communities_csv != [[n, str(assignment[n])] for n in names]:
            problems.append(f"{where} communities.csv differs from manifest")
        q = modularity(sim, np.array(ids))
        if not close(outcome["communities"]["modularity"], q):
            problems.append(f"{where} modularity {outcome['communities']['modularity']!r} != {q!r}")

        # degree distribution is the histogram of tree degrees
        ks, counts = np.unique(list(degree.values()), return_counts=True)
        dist = [[int(k), int(c)] for k, c in zip(ks, counts)]
        if [[k, c] for k, c, _ in outcome["degree_distribution"]] != dist:
            problems.append(f"{where} degree distribution differs from the tree")
        if [[int(r[0]), int(r[1])] for r in degree_csv] != dist:
            problems.append(f"{where} degree_dist.csv differs from the tree")

        digest[name] = {
            "n_rows": outcome["n_rows"],
            "class_counts": outcome["class_counts"],
            "hubs": hubs,
            "communities": {
                "count": outcome["communities"]["count"],
                "levels": outcome["communities"]["levels"],
                "modularity": outcome["communities"]["modularity"],
                "assignment": assignment,
            },
            "tree": {
                "edges": [[u, v] for u, v, _ in tree],
                "total_weight": total,
                "provably_unique": outcome["tree"]["provably_unique"],
            },
            "degree_distribution": dist,
            "gamma": {m: e.get("gamma") for m, e in sorted(outcome["gamma"].items())},
        }
    return digest, problems


def check_eval(report_path: Path, seed: int, n_rows: int, features: list[str], min_accuracy: float):
    """Check one single-seed ``eval`` report; returns (digest, problems)."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"eval report unreadable: {exc}"]
    problems: list[str] = []
    digest = {}
    for side, mode in (("hub", "named_features"), ("pca", "pca_components")):
        reports = report[side]["reports"]
        if len(reports) != 1:
            problems.append(f"[{side}] {len(reports)} reports, expected 1")
            continue
        r = reports[0]
        where = f"[{side}]"
        if r["subset"]["mode"] != mode or r["split"]["seed"] != seed:
            problems.append(f"{where} subset {r['subset']} or seed {r['split']['seed']} wrong")
        if side == "hub" and r["subset"]["features"] != features:
            problems.append(f"{where} features {r['subset']['features']} != {features}")
        confusion = r["confusion_matrix"]
        cells = [confusion[a][f"predicted_{p}"] for a in ("phishing", "legitimate") for p in ("phishing", "legitimate")]
        right = cells[0] + cells[3]
        if r["n_train"] + r["n_test"] != n_rows or sum(cells) != r["n_test"]:
            problems.append(f"{where} row counts do not add up")
        elif not close(r["accuracy"], right / r["n_test"]):
            problems.append(f"{where} accuracy {r['accuracy']} != confusion {right}/{r['n_test']}")
        if r["accuracy"] < min_accuracy:
            problems.append(f"{where} accuracy {r['accuracy']} below {min_accuracy}")
        if not close(report[side]["mean_accuracy"], r["accuracy"]):
            problems.append(f"{where} mean of one seed != its accuracy")
        digest[side] = {
            "accuracy": r["accuracy"],
            "confusion_matrix": confusion,
            "n_train": r["n_train"],
            "n_test": r["n_test"],
        }
    return digest, problems
