"""Run the featnet CLI in this process with a span around each public function.

Usage: python tracer.py SPANS_OUT RUN_ID -- CLI_ARGS...

Every public module-level function defined in a featnet module, plus the
methods listed in METHODS, is replaced by a wrapper that records a span:
name, start, end, parent span and run id.  The wrapper is installed at every
module attribute that holds the function, so a caller that imported it by
name (``from .community import louvain`` in ``pipeline``) calls the wrapper,
and so does a caller that looks it up in its own module
(``rank_transform`` inside ``correlation``).  No featnet file changes.

Spans are kept in memory and written as JSON to SPANS_OUT when the CLI
returns.  Times are seconds since this script started.  The process exits
with the CLI's exit code.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

MODULES = ("dataset", "correlation", "graph", "community", "evaluation", "pipeline", "cli")

# Public methods worth a span; the rest (DisjointSet.find and the like) run
# tens of thousands of times per call and would only measure the wrapper.
METHODS = (
    ("evaluation", "GradientBoostedTrees", "fit"),
    ("evaluation", "GradientBoostedTrees", "predict"),
    ("evaluation", "PowerIterationPCA", "fit"),
    ("evaluation", "PowerIterationPCA", "transform"),
    ("pipeline", "RunManifest", "to_json"),
)


# Counts read off a call's arguments or result, stored on its span.
ATTRS = {
    "dataset.load_dataset": lambda a, kw, r: {"cells": int(r.rows.size + r.labels.size)},
    "correlation.spearman_matrix": lambda a, kw, r: {
        "pairs": len(r.feature_names) * (len(r.feature_names) - 1) // 2
    },
    "graph.build_graph": lambda a, kw, r: {"edges": r.n_edges},
    "graph.maximum_spanning_tree": lambda a, kw, r: {"unique": bool(r.provably_unique)},
    "community.louvain": lambda a, kw, r: {"levels": r.levels},
    "evaluation.evaluate": lambda a, kw, r: {"mode": r.subset.mode},
}

# Counts that cost real work; computed after the CLI returns so that no
# span pays for them.
DEFERRED = {"evaluation.GradientBoostedTrees.fit"}


def _tree_nodes(node) -> int:
    if node[0] == "leaf":
        return 1
    return 1 + _tree_nodes(node[3]) + _tree_nodes(node[4])


def _fit_counts(args, kwargs, model) -> dict:
    import numpy as np

    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"], dtype=np.float64)
    return {
        "nodes": sum(_tree_nodes(t) for t in model.trees_),
        "rows": int(X.shape[0]),
        "distinct_rows": int(np.unique(X, axis=0).shape[0]),
    }


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.deferred: list[tuple[dict, tuple, dict, object]] = []

    def open(self, name: str) -> dict:
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter() - _T0,
            "end": None,
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - _T0
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = ATTRS.get(name)
        deferred = name in DEFERRED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                span["attrs"] = hook(args, kwargs, result)
            if deferred:
                self.deferred.append((span, args, kwargs, result))
            return result

        return traced

    def finish(self) -> None:
        for span, args, kwargs, result in self.deferred:
            span["attrs"] = _fit_counts(args, kwargs, result)
        self.deferred.clear()


def install(tracer: Tracer) -> None:
    """Wrap featnet's public functions wherever a module holds them."""
    package = importlib.import_module("featnet")
    modules = {name: importlib.import_module(f"featnet.{name}") for name in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(f"{short}.{cls_name}.{method}", vars(cls)[method]))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_out, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    span = tracer.open("cli.import")
    import featnet.cli

    tracer.close(span)
    install(tracer)
    code = 1
    try:
        code = featnet.cli.main(cli_args)
    finally:
        tracer.finish()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
