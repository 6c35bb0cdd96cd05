"""gradebor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload props --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; gradebor is imported from the checkout's
`src/`. With `--trace 0` the run times checked verdicts with tracing off and
prints the end-to-end metrics; with `--trace 1` it records spans around every
call into a layer and prints the per-layer metrics. Either way the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibrate
from tracer import Tracer, growth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PEAK_PROGRAMS = 500          # props has 500 programs, check_source 2013, chains 1
CAL_EVERY_S = 0.1            # work between two calibrations in a timed pass
CAL_UNITS = 5                # kernel units per calibration (about 8% of the work)
SETUP_CAL_UNITS = 10         # kernel units timed before and after each set-up
SETUP_PROBES = 6             # fresh-interpreter set-ups per run, besides the run's own
LAYERS = ("generator", "parser", "typecheck", "machine", "metatheory")


def import_gradebor():
    """Import gradebor from this checkout's sources and nowhere else."""
    if not (SRC / "gradebor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gradebor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradebor

    if not Path(gradebor.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported gradebor from {gradebor.__file__}, not from {SRC}")
    return gradebor


def probe(args, kind: str) -> list[float]:
    """Run `--probe setup` or `--probe peak` in a fresh interpreter.

    A fresh interpreter starts every probe from the same state, with
    gradebor's process-wide fresh-name counter at zero, so a seed's peak does
    not depend on how long the run had been going."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", kind]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: {kind} probe failed: {done.stderr.strip()}")
    return [float(x) for x in done.stdout.split()]


def median(xs) -> float:
    return statistics.median(xs)


# ---------------------------------------------------------------------------
# Timed run (end-to-end metrics)


def run_pass(W, inputs, call, scope=None, clock=time.perf_counter) -> tuple[list, list[float]]:
    """Take every program of the workload to its verdict once, in order, then
    do the pass's once-per-pass work. Returns the outcomes and the seconds
    each program took by `clock`, with the once-per-pass work last."""
    outcomes, times = [], []
    verdict = W.VERDICT[inputs.workload]
    for prog in inputs.programs:
        t = clock()
        with scope("verdict", prog.pid) if scope else contextlib.nullcontext():
            try:
                outcomes.append(verdict(prog, call))
            except Exception as e:  # a crash is a failed verdict, not a failed benchmark
                outcomes.append(W.Outcome(False, detail=f"program {prog.pid}: {type(e).__name__}: {e}"))
        times.append(clock() - t)
    t = clock()
    outcomes += W.pass_extras(inputs, call)
    times.append(clock() - t)
    return outcomes, times


def peak_bytes(W, inputs, fn) -> float:
    """Mean over the first programs of the tracemalloc peak of `fn(program)`."""
    progs = inputs.programs[:PEAK_PROGRAMS]
    peaks = []
    tracemalloc.start()
    try:
        for prog in progs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(prog)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.fmean(peaks)


class Calibrated:
    """A plain call that, after every CAL_EVERY_S of work, runs the reference
    kernel between two layer calls and keeps its time apart from the work's.

    Calibrating inside the pass, not around it, samples the host's speed
    while the work runs, also on the chains, where one pass is one verdict.
    """

    def __init__(self):
        self.work = self.cal = self._since = 0.0
        self.units = 0
        self._mark = time.perf_counter()

    def __call__(self, name, fn, *args, **kw):
        try:
            return fn(*args, **kw)
        finally:
            self.tick()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        self.work += now - self._mark
        self._since += now - self._mark
        if force or self._since >= CAL_EVERY_S:
            self.cal += calibrate.time_units(CAL_UNITS)
            self.units += CAL_UNITS
            self._since = 0.0
        self._mark = time.perf_counter()

    def clock(self) -> float:
        """Seconds of work so far, calibration left out."""
        return self.work + time.perf_counter() - self._mark

    def scale(self) -> float:
        """Factor from this pass's seconds to reference-speed seconds."""
        return self.units * calibrate.UNIT_S / self.cal


def skip_checkers(name, fn, *args, **kw):
    """A plain call, except that the trace checkers are skipped: they only read
    the trace, and under tracemalloc they take 20 s or more on write_chain."""
    return [] if name.startswith("metatheory.") else fn(*args, **kw)


def timed_run(W, args, inputs, own_setup: tuple[float, float], report) -> dict:
    passes: list[tuple[float, float]] = []       # (seconds, reference-speed seconds)
    program_times: list[list[float]] = []        # reference-speed seconds
    outcomes: list = []

    def timed_passes(seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            watch = Calibrated()
            outs, times = run_pass(W, inputs, watch, clock=watch.clock)
            watch.tick(force=True)
            scale = watch.scale()
            outcomes.append(outs)
            passes.append((watch.work, watch.work * scale))
            program_times.append([t * scale for t in times[:-1]])
            if time.perf_counter() >= deadline:
                return

    # The untimed probes sit between thirds of the timed passes, so that both
    # the passes and the set-ups sample the machine over the whole run.
    setup = [own_setup]
    half = SETUP_PROBES // 2
    timed_passes(args.seconds / 3)
    setup += [tuple(probe(args, "setup")) for _ in range(half)]
    peak, = probe(args, "peak")
    timed_passes(args.seconds / 3)
    setup += [tuple(probe(args, "setup")) for _ in range(SETUP_PROBES - half)]
    timed_passes(args.seconds / 3)

    n = len(inputs.programs)
    metrics = {
        "setup_s": (median(ref for _, ref in setup), "s"),
        "verdicts_per_s": (n / median(ref for _, ref in passes), "1/s"),
        "peak_bytes": (peak, "B"),
    }
    middle = sorted(program_times, key=sum)[len(program_times) // 2]
    report(f"verdict_s.p50 {median(middle):.6g} s ({n} samples, median pass, reference speed)")
    if n >= 100:
        report(f"verdict_s.p90 {statistics.quantiles(middle, n=10)[-1]:.6g} s "
               f"({n} samples, median pass, reference speed)")
    report(f"uncalibrated verdicts_per_s {n / median(raw for raw, _ in passes):.6g} 1/s, "
           f"setup_s {median(raw for raw, _ in setup):.6g} s")
    report(f"host slowdown {median(raw / ref for raw, ref in passes):.4g}x the reference speed (median pass)")
    first = outcomes[0]
    steps = sum(o.steps for o in first)
    report(f"samples: {n} programs x {len(passes)} passes; {len(setup)} set-ups")
    if args.workload in ("write_chain", "split_ladder"):
        report(f"trace_bytes_per_step {sum(o.jsonl_bytes for o in first) / steps:.6g} B ({steps} steps)")
    return {"metrics": metrics, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)


def eval_peak(W, inputs, record: bool) -> float:
    """Mean tracemalloc peak of running programs already checked."""
    checked = {p.pid: W.elaborate(p) for p in inputs.programs[:PEAK_PROGRAMS]}
    return peak_bytes(W, inputs, lambda prog: W.evaluate(checked[prog.pid], record))


def cycle_metrics(tracer, spans, untraced: float, traced: float, inputs) -> dict[str, float]:
    extra = {p.pid for p in inputs.extra}
    half = {p.pid for p in inputs.programs + inputs.extra if p.half}
    own = tracer.self_seconds()
    part = [s for s in spans if s.pid not in extra]

    def secs(name, among=part):
        return sum(s.seconds for s in among if s.name == name)

    def layer(prefix):
        return sum(s.seconds for s in part if s.name.startswith(prefix + "."))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in part if s.name == name)

    steps = count("machine.eval_rec", "steps")
    jsonl_bytes = count("machine.to_jsonl", "bytes")
    m = {
        "generator.s": layer("generator"),
        "generator.programs": sum(1 for s in part if s.name == "generator.generate_program"),
        "parser.s": layer("parser"),
        "parser.bytes_per_s": count("parser.parse_program", "bytes") / secs("parser.parse_program"),
        "typecheck.s": layer("typecheck"),
        "typecheck.defs_per_s": count("typecheck.check_program", "defs") / layer("typecheck"),
        "typecheck.rejects": sum(1 for s in part if s.name == "typecheck.check_program" and s.error),
        "machine.eval_s": secs("machine.eval"),
        "machine.eval_rec_s": secs("machine.eval_rec"),
        "machine.us_per_step": secs("machine.eval") / steps * 1e6,
        "machine.steps": steps,
        "machine.jsonl_s": secs("machine.to_jsonl"),
        "machine.jsonl_bytes": jsonl_bytes,
        "machine.jsonl_bytes_per_step": jsonl_bytes / steps,
        "metatheory.preservation_s": secs("metatheory.preservation"),
        "metatheory.borrow_safety_s": secs("metatheory.borrow_safety"),
        "metatheory.progress_s": secs("metatheory.progress"),
        "metatheory.uniqueness_s": secs("metatheory.uniqueness"),
        "metatheory.equational_s": secs("metatheory.equational"),
        "metatheory.algebra_s": secs("metatheory.algebra"),
        "metatheory.violations": sum(s.counts.get("violations", 0) for s in part if s.name.startswith("metatheory.")),
        "trace.overhead_s": traced - untraced,
        "trace.spans": len(spans),
    }
    for name in ("machine.eval", "metatheory.preservation", "metatheory.borrow_safety"):
        m[name + ".growth"] = growth(secs(name), secs(name, [s for s in spans if s.pid in half]))
    for lay in LAYERS:
        m[lay + ".self_s"] = sum(own[s.sid] for s in part if s.name.startswith(lay + "."))
    m["bench.self_s"] = sum(own[s.sid] for s in part if "." not in s.name)
    return m


def traced_run(W, args, report) -> dict:
    tracer = Tracer()
    cycles: list[dict[str, float]] = []
    outcomes: list = []
    deadline = time.perf_counter() + args.seconds
    while True:
        first = len(tracer.spans)
        with tracer.scope("setup"):
            inputs = W.build(args.workload, args.seed, tracer)
        walls = {}
        for traced in (False, True) if len(cycles) % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            if traced:
                with tracer.scope("pass"):
                    outcomes.append(run_pass(W, inputs, tracer, scope=tracer.scope)[0])
            else:
                outcomes.append(run_pass(W, inputs, W.plain_call)[0])
            walls[traced] = time.perf_counter() - t0
        W.probe(inputs, tracer)
        cycles.append(cycle_metrics(tracer, tracer.spans[first:], walls[False], walls[True], inputs))
        if time.perf_counter() >= deadline:
            break

    metrics = {name: (median(c[name] for c in cycles), unit) for name, unit in PER_LAYER_UNITS.items()}
    metrics["machine.peak_rec_bytes"] = (eval_peak(W, inputs, True), "B")
    metrics["machine.peak_bytes"] = (eval_peak(W, inputs, False), "B")
    report(f"samples: {len(cycles)} traced cycles, {len(tracer.spans)} spans")
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", context(args, inputs))
    return {"metrics": metrics, "outcomes": outcomes}


PER_LAYER_UNITS = {
    "generator.s": "s", "generator.programs": "count",
    "parser.s": "s", "parser.bytes_per_s": "B/s",
    "typecheck.s": "s", "typecheck.defs_per_s": "1/s", "typecheck.rejects": "count",
    "machine.eval_s": "s", "machine.eval_rec_s": "s", "machine.us_per_step": "us",
    "machine.steps": "count", "machine.jsonl_s": "s", "machine.jsonl_bytes": "B",
    "machine.jsonl_bytes_per_step": "B",
    "metatheory.preservation_s": "s", "metatheory.borrow_safety_s": "s",
    "metatheory.progress_s": "s", "metatheory.uniqueness_s": "s",
    "metatheory.equational_s": "s", "metatheory.algebra_s": "s", "metatheory.violations": "count",
    "machine.eval.growth": "log2", "metatheory.preservation.growth": "log2",
    "metatheory.borrow_safety.growth": "log2",
    "generator.self_s": "s", "parser.self_s": "s", "typecheck.self_s": "s", "machine.self_s": "s",
    "metatheory.self_s": "s", "bench.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


# ---------------------------------------------------------------------------


def context(args, inputs) -> dict:
    return {"workload": args.workload, "seed": args.seed, "N": inputs.size, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count()}


def check_gate(args, outcomes: list, sentinel: dict) -> list[str]:
    """Deterministic results must repeat exactly.

    Steps, verdicts and violations must agree between the passes of a run.
    Trace bytes depend on gradebor's process-wide fresh-name counter, which
    lengthens variable names as a process runs, so they are compared only
    across runs at the same point: the first pass of every run with the same
    workload, seed and mode in this checkout.
    """
    problems = []
    first = [(o.ok, o.steps, o.violations) for o in outcomes[0]]
    if any([(o.ok, o.steps, o.violations) for o in outs] != first for outs in outcomes[1:]):
        problems.append("steps, verdicts or violations differ between passes")
    record = {"gate": [[o.ok, o.steps, o.jsonl_bytes, o.violations] for o in outcomes[0]], "sentinel": sentinel}
    path = OUT / f"gate-{args.workload}-{args.seed}-trace{args.trace}.json"
    if path.is_file():
        if json.loads(path.read_text(encoding="utf-8")) != record:
            problems.append(f"steps, trace bytes or violations differ from an earlier run ({path.name})")
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record), encoding="utf-8")
        os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("props", "write_chain", "split_ladder", "check_source"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "peak"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # The kernel is timed just before and just after the set-up, so that the
    # set-up is scaled by the host's speed at that moment.
    calibrate.time_units(2)
    cal = calibrate.time_units(SETUP_CAL_UNITS)
    t0 = time.perf_counter()
    import_gradebor()
    import workloads as W

    inputs = W.build(args.workload, args.seed)
    raw_setup = time.perf_counter() - t0
    cal += calibrate.time_units(SETUP_CAL_UNITS)
    own_setup = (raw_setup, raw_setup * 2 * SETUP_CAL_UNITS * calibrate.UNIT_S / cal)
    if args.probe == "setup":
        print(*map(repr, own_setup))
        return 0
    if args.probe == "peak":
        verdict = W.VERDICT[args.workload]
        print(repr(peak_bytes(W, inputs, lambda prog: verdict(prog, skip_checkers))))
        return 0

    ctx = context(args, inputs)
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in ctx.items()))

    def report(line: str) -> None:
        print("# " + line)

    sentinel = W.sentinel_violations(args.seed)
    run = traced_run(W, args, report) if args.trace else timed_run(W, args, inputs, own_setup, report)

    problems = check_gate(args, run["outcomes"], sentinel)
    if not (sentinel["borrow_safety"] and sentinel["uniqueness"]):
        problems.append(f"mutation sentinel not caught: {sentinel}")
    flat = [o for outs in run["outcomes"] for o in outs]
    failed = [o for o in flat if not o.ok]
    for o in failed[:5]:
        problems.append(f"wrong verdict: {o.detail}")
    report(f"failed_share {len(failed) / len(flat):.6g} ({len(failed)} of {len(flat)})")
    report(f"sentinel violations: {sentinel}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = run["metrics"]
    for name, (value, unit) in metrics.items():
        report(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
