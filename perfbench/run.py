"""featnet benchmark: time the featnet CLI as users run it, and check its outputs.

Usage, from the repository root:

  python3 perfbench/run.py --workload {analyze,eval,wide} --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --smoke

Every invocation is a fresh interpreter running featnet's console-script
entry point on the sources under src/, started one at a time from this
single-threaded script, which pins itself and its children to one CPU.
A run first times set-up (a fresh interpreter that imports featnet.cli and
exits), then invokes the workload until S seconds have passed.  Untraced runs time a fixed calibration workload in this
process between invocations and report times at a fixed machine speed (see
calibrate()).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced invocations with traced ones (see
tracer.py) and reports the per-layer metrics.  Each invocation's outputs are
checked (see checks.py); an invocation fails if it exits non-zero, prints a
traceback or fails the check.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric with its unit, the error
rate and the environment.  Results and spans are also written under
.perfbench_runs/ in the working directory.  --smoke runs every workload once
at tiny size, traced and untraced, and fails if a metric named in
BENCHMARK.json or an expected layer span is missing or duplicated.
"""

import os

# Children get the caller's environment unchanged; this script's own numpy
# (input generation, output checks) stays single-threaded.
_CHILD_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from checks import digest_hash  # noqa: E402
from layers import LAYER_METRICS, invocation_metrics, span_counts  # noqa: E402
from workloads import DATA, WORKLOADS, load_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
RUNS_DIR = Path(".perfbench_runs")
CLI_ENTRY = "import sys; from featnet.cli import main; sys.exit(main())"
MIN_SETUP_SAMPLES = 9
# A child is killed after SPAWN_TIMEOUT_S, and an invocation also once the
# run has lasted RUN_LIMIT_S, so one slow invocation cannot hold a run past
# 180 s.
SPAWN_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# Median time of calibrate() on the 2-vCPU machine the README baselines come
# from; calibrated times are seconds at that machine's typical speed.
CAL_REF_S = 0.010
# CPUs this process may run on when it starts; runs pin to the first of them.
CPUS = sorted(os.sched_getaffinity(0))

BLAS_PROBE = r"""
import ctypes, json, numpy
info = {"numpy": numpy.__version__, "blas": None, "blas_version": None, "blas_threads": None}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
except Exception:
    pass
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.lower() and ".so" in l})
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        try:
            fn = getattr(ctypes.CDLL(lib), sym)
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        info["blas_threads"] = fn()
        break
print(json.dumps(info))
"""


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Spawned:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool


def spawn(argv: list[str], env: dict, log: Path, timeout: float = SPAWN_TIMEOUT_S) -> Spawned:
    """Run one child to completion; wall time runs from spawn to exit."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=timed_out,
    )


CAL_REPS = 9
_CAL_RNG = np.random.default_rng(0)
_CAL_VEC = _CAL_RNG.standard_normal(40_000)
_CAL_MAT = _CAL_RNG.standard_normal((128, 128))
_CAL_TEXT = [str(v) for v in _CAL_RNG.integers(-1, 2, 8_000)]


def _calibration_rep() -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for text in _CAL_TEXT:
        code = int(text)
        counts[code] = counts.get(code, 0) + 1
    total = 0
    for i in range(60_000):
        total += i * i % 7
    order = np.argsort(_CAL_VEC, kind="stable")
    np.cumsum(_CAL_VEC[order])
    _CAL_MAT @ _CAL_MAT
    return time.perf_counter() - start


def calibrate() -> float:
    """Median time this process takes for a fixed mix of interpreter and numpy work.

    The CPU throughput of a shared host drifts by tens of percent over
    seconds to minutes, and a child's wall time drifts with it.  Timing this
    fixed work just before and just after each child gives the machine's
    speed at that moment; a child's calibrated time is its wall time times
    CAL_REF_S / (mean of the two calibration times).  The work mixes what
    featnet spends its time on: parsing and counting in the interpreter,
    sorting, cumulative sums and a small matrix product in numpy.  Its data
    fit in cache and the median of CAL_REPS repetitions is taken, so how
    much cache the child left cold does not move it.
    """
    return statistics.median(_calibration_rep() for _ in range(CAL_REPS))


def pin_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    Unpinned, a child and the calibration next to it may run on different
    vCPUs of a shared host, whose speeds drift apart; pinned, the calibration
    measures the CPU the child ran on.  Children see one CPU, so OpenBLAS
    starts one thread.
    """
    os.sched_setaffinity(0, {CPUS[0]})


def child_env(root: Path) -> dict:
    env = dict(_CHILD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def warm_up(root: Path, env: dict, workdir: Path) -> None:
    """Import featnet.cli once untimed: writes bytecode, checks the import path."""
    warm = spawn(
        [sys.executable, "-c", "import featnet.cli; print(featnet.cli.__file__)"],
        env,
        workdir / "warmup",
    )
    expected = (root / "src" / "featnet" / "cli.py").resolve()
    if warm.code != 0 or Path(warm.stdout.strip()).resolve() != expected:
        raise Fatal(f"featnet.cli does not import from {expected}: {warm.stderr.strip()[-300:]}")


def time_setup(env: dict, log: Path) -> float:
    """Wall time of a fresh interpreter that imports featnet.cli and exits."""
    s = spawn([sys.executable, "-c", "import featnet.cli"], env, log)
    if s.code != 0:
        raise Fatal(f"import featnet.cli failed: {s.stderr.strip()[-300:]}")
    return s.wall_s


def environment(root: Path, env: dict, workdir: Path) -> dict:
    probe = spawn([sys.executable, "-c", BLAS_PROBE], env, workdir / "probe")
    try:
        blas = json.loads(probe.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        blas = {"probe_error": probe.stderr.strip()[-300:]}
    init = root / "src" / "featnet" / "__init__.py"
    exported = None
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "__all__" for t in targets) and isinstance(
            node.value, (ast.List, ast.Tuple)
        ):
            exported = len(node.value.elts)
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **blas,
        "blas_thread_env": {v: _CHILD_ENV.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_featnet_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "featnet").rglob("*.py")
        ),
        "featnet_all_size": exported,
    }


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(p25=q1, p75=q3)
    if n > 10:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def run_tag(name: str, seed: int, trace: int, tiny: bool) -> str:
    return f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"


def invoke(
    workload, i: int, traced: bool, run_id: str, env: dict, workdir: Path, timeout: float
) -> tuple[dict, list]:
    """One CLI invocation and its output check; returns (record, spans)."""
    spans_path = workdir / f"spans{i}.json"
    cli_args = workload.argv(i)
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), run_id, "--", *cli_args]
    else:
        argv = [sys.executable, "-c", CLI_ENTRY, *cli_args]
    workload.reset()
    s = spawn(argv, env, workdir / f"inv{i}", timeout)
    problems = []
    if s.timed_out:
        problems.append(f"timed out after {s.wall_s:.1f} s")
    if s.code != 0:
        problems.append(f"exit code {s.code}: {s.stderr.strip()[-300:]}")
    if "Traceback" in s.stderr:
        problems.append("traceback on stderr")
    digest = None
    if not problems:
        try:
            digest, check_problems = workload.check(i)
            problems += check_problems
        except Exception as exc:  # malformed outputs fail the invocation, not the run
            problems.append(f"output check raised {exc!r}")
    record = {
        "i": i, "traced": traced, "wall_s": s.wall_s, "rss_mb": s.rss_mb, "cpu_s": s.cpu_s,
        "exit": s.code, "args": cli_args, "digest": digest_hash(digest) if digest else None,
    }
    spans = []
    if traced:
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            record["layers"] = invocation_metrics(spans, s.wall_s)
            record["span_counts"] = span_counts(spans)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unusable spans: {exc!r}")
    record["problems"] = problems[:20]
    return record, spans


def run_workload(
    root: Path, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    min_setup_samples: int = MIN_SETUP_SAMPLES,
) -> dict:
    """One benchmark run; returns the full result record (see module doc).

    Untraced runs time one set-up before every invocation, so set-up and
    invocations sample the same machine conditions, and time calibrate()
    before the first set-up and after every invocation.
    """
    tag = run_tag(name, seed, int(trace), tiny)
    workdir = root / RUNS_DIR / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    limit = time.perf_counter() + RUN_LIMIT_S
    try:
        load_before = os.getloadavg()
        warm_up(root, env, workdir)
        workload = WORKLOADS[name](root, workdir, seed, tiny)
        invocations, all_spans, setup = [], [], []
        cal = calibrate() if not trace else None
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or (trace and i < 2) or time.perf_counter() < deadline:
            if not trace:
                setup_s = time_setup(env, workdir / f"setup{i}")
            timeout = min(SPAWN_TIMEOUT_S, max(1.0, limit - time.perf_counter()))
            record, spans = invoke(workload, i, trace and i % 2 == 1, f"{tag}-i{i}", env, workdir, timeout)
            if not trace:
                cal, cal_before = calibrate(), cal
                record["speed"] = (cal_before + cal) / 2 / CAL_REF_S
                record["wall_cal_s"] = record["wall_s"] / record["speed"]
                setup.append((setup_s, setup_s / record["speed"]))
            invocations.append(record)
            all_spans += spans
            i += 1
        while not trace and len(setup) < min_setup_samples:
            setup_s = time_setup(env, workdir / f"setup{len(setup)}")
            cal, cal_before = calibrate(), cal
            setup.append((setup_s, setup_s / ((cal_before + cal) / 2 / CAL_REF_S)))
        load_after = os.getloadavg()
        env_record = environment(root, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in invocations if not r["traced"]]
    traced_runs = [r for r in invocations if r["traced"]]
    stats = {
        "wall_s": quartiles([r["wall_cal_s"] for r in untraced]) if not trace else None,
        "peak_rss_mb": quartiles([r["rss_mb"] for r in untraced]),
        "setup_s": quartiles([c for _, c in setup]) if setup else None,
        "wall_raw_s": quartiles([r["wall_s"] for r in untraced]),
        "setup_raw_s": quartiles([s for s, _ in setup]) if setup else None,
        "speed": quartiles([r["speed"] for r in untraced]) if not trace else None,
        "cpu_s": quartiles([r["cpu_s"] for r in untraced]),
    }
    if trace:
        layers = [r["layers"] for r in traced_runs if "layers" in r]
        measured_outside = {
            "cli.cpu_s": stats["cpu_s"]["median"],
            "trace.overhead_s": statistics.median(r["wall_s"] for r in traced_runs) - stats["wall_raw_s"]["median"],
        }
        metrics = [
            (m, unit, measured_outside[m] if m in measured_outside
             else statistics.median(l[m] for l in layers) if layers else None)
            for m, unit in LAYER_METRICS
        ]
    else:
        metrics = [(m, unit, stats[m]["median"]) for m, unit in END_TO_END]
    failed = sum(1 for r in invocations if r["problems"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "attempted": len(invocations),
        "failed": failed,
        "error_rate": failed / len(invocations),
        "metrics": metrics,
        "stats": stats,
        "input": workload.properties,
        "digests": sorted({r["digest"] for r in invocations if r["digest"]}),
        "loadavg": {"before": load_before, "after": load_after},
        "environment": env_record,
        "invocations": invocations,
        "spans": all_spans,
    }


def save(root: Path, result: dict) -> Path:
    tag = run_tag(result["workload"], result["seed"], result["trace"], result["tiny"])
    out = root / RUNS_DIR / f"{tag}.result.json"
    spans = result.pop("spans")
    if spans:
        (root / RUNS_DIR / f"{tag}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return out


def report_lines(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"invocations {result['attempted']}  failed {result['failed']}  error_rate {result['error_rate']:.4f} ratio",
        f"  input: {json.dumps(result['input'])}",
    ]
    for name, unit, value in result["metrics"]:
        st = result["stats"].get(name)
        extra = "  (" + ", ".join(f"{k} {v:.6g}" for k, v in st.items() if k != "median") + ")" if st else ""
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {name:34s} {shown} {unit}{extra}")
    for name in ("wall_raw_s", "setup_raw_s", "speed"):
        st = result["stats"].get(name)
        if st and not result["trace"]:
            shown = ", ".join(f"{k} {v:.6g}" for k, v in st.items())
            lines.append(f"  {name:34s} ({shown})")
    lines.append(f"  output digests: {', '.join(result['digests']) or 'none'}")
    for r in result["invocations"]:
        for p in r["problems"]:
            lines.append(f"  FAILED invocation {r['i']}: {p}")
    lines.append(f"  loadavg: {result['loadavg']['before']} -> {result['loadavg']['after']}")
    lines.append(f"  environment: {json.dumps(result['environment'])}")
    return lines


def check_root(root: Path) -> None:
    for needed in (root / "src" / "featnet" / "cli.py", root / DATA):
        if not needed.is_file():
            raise Fatal(f"{needed} not found: run from the root of a featnet checkout")


def smoke(root: Path) -> list[str]:
    """Self-check: every declared metric and expected layer span, exactly once."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = reference_failures()
    for entry in bench["workloads"]:
        name = entry["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(root, name, 0, 0.0, trace, tiny=True, min_setup_samples=1)
            where = f"{name} trace {int(trace)}"
            failures += nested_duplicates(result["spans"], where)
            save(root, result)
            declared = {m["name"]: m["unit"] for m in bench[kind]}
            produced = [(m, unit) for m, unit, _ in result["metrics"]]
            names = [m for m, _ in produced]
            failures += [f"{where}: metric {m} reported twice" for m in sorted({m for m in names if names.count(m) > 1})]
            failures += [f"{where}: metric {m} missing" for m in declared if m not in names]
            failures += [f"{where}: metric {m} not in BENCHMARK.json" for m in names if m not in declared]
            failures += [f"{where}: {m} unit {u} != {declared[m]}" for m, u in produced if m in declared and declared[m] != u]
            failures += [f"{where}: {m} has no value" for m, _, v in result["metrics"] if v is None]
            failures += [f"{where}: invocation {r['i']}: {p}" for r in result["invocations"] for p in r["problems"]]
            if not trace:
                continue
            expected = WORKLOADS[name].expected_spans()
            for r in result["invocations"]:
                if not r["traced"]:
                    continue
                counts = r.get("span_counts", {})
                for span, want in expected.items():
                    got = counts.get(span, 0)
                    if (want is None and got == 0) or (want is not None and got != want):
                        failures.append(f"{where}: span {span} seen {got} times, expected {want or 'some'}")
    return failures


def nested_duplicates(spans: list[dict], where: str) -> list[str]:
    """A span directly inside a span of the same name means a double wrapper."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    return sorted({
        f"{where}: span {s['name']} nested in itself"
        for s in spans
        if s["parent"] is not None and by_key[(s["run"], s["parent"])]["name"] == s["name"]
    })


def reference_failures() -> list[str]:
    """The committed reference must reproduce the README's published results."""
    ref = load_reference()
    readme, failures = ref["readme"], []
    for part, table in readme["hubs"].items():
        got = [[f, d] for f, d, _ in ref["analyze"][part]["hubs"]]
        if got != table:
            failures.append(f"reference hubs [{part}] {got} != README {table}")
        gamma = round(ref["analyze"][part]["gamma"]["loglog_ols"], 3)
        if gamma != readme["gamma_loglog_ols"][part]:
            failures.append(f"reference gamma [{part}] {gamma} != README {readme['gamma_loglog_ols'][part]}")
    for side in ("hub", "pca"):
        accs = [ref["eval"][str(s)][side]["accuracy"] for s in readme["accuracy_seeds"]]
        mean = round(sum(accs) / len(accs), 3)
        if mean != readme[f"{side}_accuracy"]:
            failures.append(f"reference {side} accuracy {mean} != README {readme[f'{side}_accuracy']}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        check_root(root)
        pin_one_cpu()
        if args.smoke:
            failures = smoke(root)
            for f in failures:
                print(f"SMOKE FAILED {f}")
            print("smoke ok" if not failures else f"smoke: {len(failures)} failures")
            return 1 if failures else 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = report_lines(result)
    path = save(root, result)
    print("\n".join(lines))
    print(f"  result file: {path.relative_to(root)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": unit} for m, unit, v in result["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
