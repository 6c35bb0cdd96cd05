"""Workload inputs, reference answers and verdict pipelines.

Every pipeline calls gradebor's public functions in the order the CLI
command it mirrors calls them. Each call goes through `call(name, fn, *args)`:
a plain call in timed runs, a span recorder (tracer.Tracer) in traced runs,
so both kinds of run execute the same code.

Reference answers never come from the code under test: the chain results are
computed here from the seed, and the corpus verdicts come from the `.expect`
files shipped next to each program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from gradebor.generator import constructors_used, generate_program
from gradebor.grades import INTERVAL
from gradebor.machine import EvalError, Heap, Machine
from gradebor.metatheory import (
    check_borrow_safety, check_preservation, check_progress, check_uniqueness,
    readback, run_algebra_suite, run_equational_suite,
)
from gradebor.parser import SyntaxError_, parse_program, print_program, print_type
from gradebor.typecheck import CheckError, check_program

FUEL = 10000                 # the CLI's default GRADEBOR_FUEL
PROPS_CASES = 500            # `gradebor props` default --cases
CHAIN_WRITES = 100           # N; the parser overflows near 250 nested applications
ARRAY_SIZE = 4
LADDER_RUNGS = 20
SENTINEL_RUNGS = 10
GENERATED_SOURCES = 2000
PROBE_SOURCES = 500          # check_source programs also evaluated in traced runs

def plain_call(name, fn, *args, **kw):
    return fn(*args, **kw)


@dataclass
class Program:
    pid: int
    source: object           # SourceProgram for props, .grb text otherwise
    expect: object           # reference verdict or readback value
    half: bool = False       # in the half-size input set used for `*.growth`
    extra: bool = False      # only for growth; not part of the workload


@dataclass
class Outcome:
    ok: bool
    steps: int = 0
    jsonl_bytes: int = 0
    violations: int = 0
    detail: str = ""


@dataclass
class Inputs:
    workload: str
    seed: int
    size: int                # N: cases, chain writes, ladder rungs or sources
    programs: list[Program]
    extra: list[Program] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inputs


def build(workload: str, seed: int, call=plain_call) -> Inputs:
    return {
        "props": build_props,
        "write_chain": build_write_chain,
        "split_ladder": build_split_ladder,
        "check_source": build_check_source,
    }[workload](seed, call)


def props_programs(seed: int, call=plain_call) -> list[Program]:
    """The program stream of `gradebor props --seed S --cases 500`."""
    rng = random.Random(seed)
    return [
        Program(i, call("generator.generate_program", generate_program, rng, 6 if i % 4 else 3), ("accept", None),
                half=i < PROPS_CASES // 2)
        for i in range(PROPS_CASES)
    ]


def build_props(seed: int, call=plain_call) -> Inputs:
    return Inputs("props", seed, PROPS_CASES, props_programs(seed, call))


def chain_text(writes: list[tuple[int, float]]) -> str:
    body = "a"
    for k, v in writes:
        body = f"writeArray ({body}) {k} {v!r}"
    return (
        "#semiring nat-leq\n\n"
        "main : exists i . * (Array i Float);\n"
        f"main = unpack <i, a> = newArray {ARRAY_SIZE} in pack <i, {body}>;\n"
    )


def chain_expect(writes: list[tuple[int, float]]) -> tuple:
    final: dict[int, float] = {}
    for k, v in writes:
        final[k] = v
    return ("pack", ("uniq", "*", ("arr", tuple(sorted(final.items())))))


def build_write_chain(seed: int, call=plain_call) -> Inputs:
    rng = random.Random(seed)
    writes = [(rng.randrange(ARRAY_SIZE), round(rng.uniform(0.0, 9.0), 2)) for _ in range(CHAIN_WRITES)]
    half = writes[: CHAIN_WRITES // 2]
    return Inputs(
        "write_chain", seed, CHAIN_WRITES,
        [Program(0, chain_text(writes), chain_expect(writes))],
        [Program(1, chain_text(half), chain_expect(half), half=True, extra=True)],
    )


def ladder_text(start: float, rungs: list[tuple[bool, bool]]) -> str:
    """A sequential reborrow ladder under one `withBorrow`: each rung rejoins
    the previous rung's two halves, one of them routed through `observe`, and
    splits the result again (the `amethyst` motif, repeated in sequence)."""
    body = "let (x0, y0) = split b in\n"
    for k, (swap, observe_x) in enumerate(rungs, 1):
        x, y = f"x{k - 1}", f"y{k - 1}"
        if observe_x:
            x = f"observe {x}"
        else:
            y = f"observe {y}"
        pair = f"({y}, {x})" if swap else f"({x}, {y})"
        body += f"  let (x{k}, y{k}) = split (join {pair}) in\n"
    body += f"  join (x{len(rungs)}, y{len(rungs)})"
    return (
        "#semiring nat-leq\n\n"
        "observe : forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float);\n"
        "observe = \\w -> w;\n\n"
        "ladder : forall {i : Name} . * (Ref i Float) -o * (Ref i Float);\n"
        f"ladder = \\c -> withBorrow (\\b -> {body}) c;\n\n"
        "main : exists i . * (Ref i Float);\n"
        f"main = unpack <i, c> = newRef {start!r} in pack <i, ladder c>;\n"
    )


def ladder_expect(start: float) -> tuple:
    return ("pack", ("uniq", "*", ("refcell", ("float", start))))


def ladder_choices(rng: random.Random, rungs: int) -> tuple[float, list[tuple[bool, bool]]]:
    start = round(rng.uniform(0.0, 256.0), 2)
    return start, [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(rungs)]


def build_split_ladder(seed: int, call=plain_call) -> Inputs:
    start, rungs = ladder_choices(random.Random(seed), LADDER_RUNGS)
    half = rungs[: LADDER_RUNGS // 2]
    return Inputs(
        "split_ladder", seed, LADDER_RUNGS,
        [Program(0, ladder_text(start, rungs), ladder_expect(start))],
        [Program(1, ladder_text(start, half), ladder_expect(start), half=True, extra=True)],
    )


def corpus_expectations(corpus: Path) -> list[tuple[str, str, tuple]]:
    """(name, source, (verdict, kind)) for every shipped corpus program."""
    out = []
    for grb in sorted(corpus.glob("*.grb")):
        words = grb.with_suffix(".expect").read_text(encoding="utf-8").split()
        out.append((grb.name, grb.read_text(encoding="utf-8"), (words[0], words[1] if len(words) > 1 else None)))
    return out


CORPUS = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"


def build_check_source(seed: int, call=plain_call) -> Inputs:
    rng = random.Random(seed)
    programs = []
    for i in range(GENERATED_SOURCES):
        prog = call("generator.generate_program", generate_program, rng, 6 if i % 4 else 3)
        text = call("parser.print_program", print_program, prog)
        programs.append(Program(i, text, ("accept", None), half=i < PROBE_SOURCES // 2))
    for j, (_, text, expect) in enumerate(corpus_expectations(CORPUS)):
        programs.append(Program(GENERATED_SOURCES + j, text, expect))
    return Inputs("check_source", seed, len(programs), programs)


# ---------------------------------------------------------------------------
# Verdict pipelines (one per CLI command)


def _checkers(call, trace, cp, s) -> int:
    found = call("metatheory.progress", check_progress, trace)
    found += call("metatheory.preservation", check_preservation, trace, cp.main_type, cp.ring, s)
    found += call("metatheory.borrow_safety", check_borrow_safety, trace)
    found += call("metatheory.uniqueness", check_uniqueness, trace, cp.main_type)
    return len(found)


def replay_grades(cp) -> list:
    """Grade 1, plus grade 2 for pure programs outside the interval instance."""
    grades = [cp.ring.one]
    if cp.ring is not INTERVAL and not any(c.startswith("Prim:") for c in constructors_used(cp.main_term)):
        grades.append(cp.ring.literal(2))
    return grades


def props_verdict(prog: Program, call) -> Outcome:
    """One case of `gradebor props`: check, then run and replay each grade."""
    try:
        cp = call("typecheck.check_program", check_program, prog.source)
    except CheckError as e:
        return Outcome(False, detail=f"rejected [{e.kind}] {e.msg}")
    out = Outcome(True)
    for s in replay_grades(cp):
        try:
            _, trace = call("machine.eval_rec", Machine(cp.ring).eval, Heap(), cp.main_term, s, FUEL)
        except EvalError as e:
            return Outcome(False, out.steps, detail=f"evaluation failed at grade {s}: {e}")
        out.steps += len(trace.steps)
        out.violations += _checkers(call, trace, cp, s)
    out.ok = out.violations == 0
    return out


def props_suites(seed: int, call) -> list[Outcome]:
    """The two seed-driven suites `gradebor props` runs after the cases."""
    out = []
    for name, fn, cases in (("metatheory.equational", run_equational_suite, PROPS_CASES // 4),
                            ("metatheory.algebra", run_algebra_suite, PROPS_CASES)):
        failures = call(name, fn, seed, cases).failures
        out.append(Outcome(not failures, violations=len(failures), detail="; ".join(failures[:3])))
    return out


def trace_verdict(prog: Program, call) -> Outcome:
    """`gradebor trace FILE`: parse, check, run recorded, print JSONL, replay."""
    parsed = call("parser.parse_program", parse_program, prog.source, f"p{prog.pid}.grb")
    cp = call("typecheck.check_program", check_program, parsed)
    value, trace = call("machine.eval_rec", Machine(cp.ring).eval, Heap(), cp.main_term, cp.ring.one, FUEL)
    jsonl = call("machine.to_jsonl", trace.to_jsonl)
    violations = _checkers_trace_order(call, trace, cp)
    got = readback(trace.final_heap, value)
    ok = violations == 0 and got == prog.expect
    detail = "" if got == prog.expect else f"final value {got!r}, expected {prog.expect!r}"
    return Outcome(ok, len(trace.steps), len(jsonl.encode("utf-8")) + 1, violations, detail)


def _checkers_trace_order(call, trace, cp) -> int:
    s = cp.ring.one
    found = call("metatheory.preservation", check_preservation, trace, cp.main_type, cp.ring, s)
    found += call("metatheory.borrow_safety", check_borrow_safety, trace)
    found += call("metatheory.progress", check_progress, trace)
    found += call("metatheory.uniqueness", check_uniqueness, trace, cp.main_type)
    return len(found)


def check_verdict(prog: Program, call) -> Outcome:
    """`gradebor check FILE`: parse, check, print each definition's type."""
    try:
        parsed = call("parser.parse_program", parse_program, prog.source, f"p{prog.pid}.grb")
        cp = call("typecheck.check_program", check_program, parsed)
        call("parser.print_type", lambda: [print_type(ty) for ty in cp.def_types.values()])
        got = ("accept", None)
    except SyntaxError_:
        got = ("reject", "SyntaxError")
    except CheckError as e:
        got = ("reject", e.kind)
    verdict, kind = prog.expect
    ok = got[0] == verdict and (verdict == "accept" or got[1] == kind)
    return Outcome(ok, detail="" if ok else f"got {got}, expected {prog.expect}")


VERDICT = {"props": props_verdict, "write_chain": trace_verdict, "split_ladder": trace_verdict,
           "check_source": check_verdict}


def pass_extras(inputs: Inputs, call) -> list[Outcome]:
    """Work a pass does once after its programs."""
    return props_suites(inputs.seed, call) if inputs.workload == "props" else []


# ---------------------------------------------------------------------------
# Probes: layers a workload's verdict does not call, timed in traced runs only


def elaborate(prog: Program):
    """The checked program, through plain calls."""
    return check_program(parse_program(prog.source) if isinstance(prog.source, str) else prog.source)


def evaluate(cp, record: bool):
    """Run a checked program's main at grade 1."""
    return Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one, FUEL, record=record)


def probe(inputs: Inputs, call) -> None:
    """Call every layer the workload's verdict leaves out, on its own inputs.

    `call` is a tracer.Tracer. Supporting calls, such as re-checking a program
    to get its elaborated term, are plain calls, so no layer is counted twice.
    The generator and the two suites take only a seed: workloads whose verdict
    does not call them time them at the props settings of the run's seed.
    """
    {"props": _probe_props, "write_chain": _probe_chain, "split_ladder": _probe_chain,
     "check_source": _probe_check_source}[inputs.workload](inputs, call)


def _probe_props(inputs: Inputs, call) -> None:
    for prog in inputs.programs:
        with call.scope("probe", prog.pid):
            cp = elaborate(prog)
            text = call("parser.print_program", print_program, prog.source)
            call("parser.parse_program", parse_program, text, f"p{prog.pid}.grb")
            for s in replay_grades(cp):
                call("machine.eval", Machine(cp.ring).eval, Heap(), cp.main_term, s, FUEL, record=False)
                _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, s, FUEL)
                call("machine.to_jsonl", trace.to_jsonl)


def _probe_chain(inputs: Inputs, call) -> None:
    with call.scope("probe"):
        props_programs(inputs.seed, call)
        props_suites(inputs.seed, call)
    for prog in inputs.programs + inputs.extra:
        with call.scope("probe", prog.pid):
            if prog.extra:
                trace_verdict(prog, call)
            cp = elaborate(prog)
            call("machine.eval", Machine(cp.ring).eval, Heap(), cp.main_term, cp.ring.one, FUEL, record=False)


def _probe_check_source(inputs: Inputs, call) -> None:
    with call.scope("probe"):
        props_suites(inputs.seed, call)
    for prog in inputs.programs[:PROBE_SOURCES]:
        with call.scope("probe", prog.pid):
            cp = elaborate(prog)
            s = cp.ring.one
            call("machine.eval", Machine(cp.ring).eval, Heap(), cp.main_term, s, FUEL, record=False)
            _, trace = call("machine.eval_rec", Machine(cp.ring).eval, Heap(), cp.main_term, s, FUEL)
            call("machine.to_jsonl", trace.to_jsonl)
            _checkers(call, trace, cp, s)


def sentinel_violations(seed: int) -> dict[str, int]:
    """Violations each checker finds on a small ladder run by a machine whose
    split rule is broken; borrow-safety and uniqueness must both be nonzero."""
    start, rungs = ladder_choices(random.Random(seed), SENTINEL_RUNGS)
    cp = check_program(parse_program(ladder_text(start, rungs), "sentinel.grb"))
    _, trace = Machine(cp.ring, mutate_split=True).eval(Heap(), cp.main_term, cp.ring.one, FUEL)
    return {
        "borrow_safety": len(check_borrow_safety(trace)),
        "uniqueness": len(check_uniqueness(trace, cp.main_type)),
    }
