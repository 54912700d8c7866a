"""Apply each mutant of ``tests/mutants.py`` to a copy of ``src/`` and run the
tests that must kill it.

Usage: python tests/run_mutants.py [NAME ...]

With no names every mutant runs.  For each one, ``src/`` is copied to a
temporary directory, the mutant's line is rewritten there, and
``pytest -x`` runs only the mutant's ``killed_by`` tests with that copy first
on ``PYTHONPATH``.  Prints one line per mutant and exits 1 if any mutant
survives, no longer applies, or ends pytest with anything but a test failure.
Standard library only; pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def apply(src: Path, mutant) -> str | None:
    """Rewrite the mutant's line in the copy at ``src``; a reason if it does not apply."""
    path = src / mutant.file
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if not 0 < mutant.line <= len(lines) or mutant.old not in lines[mutant.line - 1]:
        return f"line {mutant.line} of {mutant.file} does not hold {mutant.old!r}"
    lines[mutant.line - 1] = lines[mutant.line - 1].replace(mutant.old, mutant.new, 1)
    path.write_text("".join(lines), encoding="utf-8")
    return None


def run(mutant) -> str:
    """'killed', 'SURVIVED' or an error, for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        reason = apply(src, mutant)
        if reason:
            return f"DOES NOT APPLY: {reason}"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        imported = subprocess.run(
            [sys.executable, "-c", "import featnet; print(featnet.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not imported.startswith(str(src)):
            return f"ERROR: the tests would import featnet from {imported or 'nowhere'}"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.killed_by],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {result.returncode}\n{result.stdout[-2000:]}{result.stderr[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{mutant.name:40s} {verdict}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{failed} mutant(s) not killed" if failed else "every mutant was killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
