#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and compare the sides.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload write_chain --seeds 201-210

At start each checkout is copied once into a temporary directory, without
`.git`, `perfbench/out` or caches, and every pair runs from those copies:
gate records that an earlier run left in `perfbench/out` cannot fail a run,
and an edit made to a checkout while pairs run reaches none of them. Each
pair runs `perfbench/run.py --workload W --seed S --seconds R --trace 0`
once in each copy, one process at a time, with R the `run_seconds` of the
change's `BENCHMARK.json`; the parent goes first in pairs 1, 3, 5, ... and the
change first in pairs 2, 4, 6, ..., so a drift in the host's speed does not
favour one side. For every end-to-end metric of the change's
`BENCHMARK.json` the script prints each pair's two values, each side's median
and quartiles, and the pairs the change wins (better by the metric's
direction). The claim gate of a speed-up is: at least 9 wins in 10 pairs, and
medians that differ by more than the parent's interquartile spread. Exits 1
if any run fails or reports `"correct": false`.

The copies carry no `__pycache__`, so when `PYTHONDONTWRITEBYTECODE=1` is
set every set-up in a run compiles `src/gradebor` from source, and `setup_s`
follows the size of the source more than the work done at start-up.

On SIGTERM the script stops the running benchmark, together with the probes
it started, and leaves through the `with` block, so both copies are removed;
it exits with status 143 (128 plus the signal number). Ctrl-C does the same.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Left out of a checkout's copy: version control, caches, and the records
# earlier benchmark runs wrote.
_SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def seeds(spec: str) -> list[int]:
    """`201-210` or `201,205,209`."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def copy_checkout(checkout: Path, into: Path) -> Path:
    """A copy of `checkout` at `into`, without `.git`, `perfbench/out` or caches."""
    out = (checkout / "perfbench").resolve()

    def skipped(directory: str, names: list[str]) -> set[str]:
        here = Path(directory).resolve()
        return {n for n in names if n in _SKIPPED or (here == out and n == "out")}

    shutil.copytree(checkout, into, ignore=skipped)
    return into


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run; its end-to-end metric values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # The run leads its own process group, so stopping this script stops the
    # run and the probes it starts.
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            raise
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"bench_pairs: {checkout} seed {seed} failed:\n{stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a range such as 201-210, or a comma-separated list")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {side: {m: [] for m in higher} for side in ("parent", "change")}
    signal.signal(signal.SIGTERM, _terminated)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {side: copy_checkout(getattr(args, side), Path(tmp) / side) for side in values}
        for i, seed in enumerate(seeds(args.seeds)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {side: run(sides[side], args.workload, seed, spec["run_seconds"]) for side in order}
            for side in sides:
                for m in higher:
                    values[side][m].append(got[side][m])
            cells = "  ".join(f"{m} {got['parent'][m]:.6g} -> {got['change'][m]:.6g}" for m in higher)
            print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    for m, up in higher.items():
        parent, change = values["parent"][m], values["change"][m]
        wins = sum((c > a) if up else (c < a) for a, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        print(f"{m} ({'higher' if up else 'lower'} is better): "
              f"parent median {pmed:.6g} [q1 {pq1:.6g}, q3 {pq3:.6g}], "
              f"change median {cmed:.6g} [q1 {cq1:.6g}, q3 {cq3:.6g}], "
              f"change/parent {cmed / pmed:.3f}, change wins {wins} of {len(parent)}, "
              f"median gap {abs(cmed - pmed):.6g} vs parent spread {pq3 - pq1:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
