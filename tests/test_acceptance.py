"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance (all
quantities here are exact: rationals, naturals, structural equality) and
prints one PASS/FAIL line. The generated-program criteria share a single
seed-fixed case set of 500 programs plus every accepted corpus program.
"""

import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from gradebor.generator import generate_program
from gradebor.grades import NAT_LEQ
from gradebor.machine import Heap, Machine, VarCell
from gradebor.metatheory import (
    check_borrow_safety, check_preservation, check_progress, check_uniqueness,
    run_algebra_suite, run_equational_suite,
)
from gradebor.parser import parse_program, print_term
from gradebor.syntax import Abs, App, Pair, Prod, UnitT, UnitVal, Var, alpha_eq
from gradebor.typecheck import CheckError, check_program

CORPUS = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"

GENERATED_CASES = 500
GENERATOR_SEED = 42


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


def check_file(name):
    text = (CORPUS / name).read_text()
    return check_program(parse_program(text, name))


def run_file(name, mutate=False):
    cp = check_file(name)
    machine = Machine(cp.ring, mutate_split=mutate)
    value, trace = machine.eval(Heap(), cp.main_term, cp.ring.one)
    return cp, value, trace


ACCEPT_NAMES = ["persimmon.grb", "indigo.grb", "amethyst.grb", "indigo_seq.grb", "observe.grb", "example_s3.grb"]
REJECT_KINDS = {
    "scarlet.grb": "LinearReuse",
    "viridian.grb": "PermissionNotWritable",
    "cerulean.grb": "StarNotDivisible",
}


@pytest.fixture(scope="session")
def case_set():
    """Traces for every accepted corpus program plus 500 generated programs."""
    cases = []
    for name in ACCEPT_NAMES + ["alloc_promo_ok.grb", "readref_demo.grb", "share_clone.grb"]:
        cases.append((name,) + run_file(name))
    rng = random.Random(GENERATOR_SEED)
    for i in range(GENERATED_CASES):
        prog = generate_program(rng, rng.choice([2, 3, 6, 6, 6, 8]))
        cp = check_program(prog)
        machine = Machine(cp.ring)
        value, trace = machine.eval(Heap(), cp.main_term, cp.ring.one)
        cases.append((f"generated-{i}", cp, value, trace))
    return cases


def test_criterion_1_corpus_verdicts():
    with criterion(1, "corpus verdicts match exactly (9/9)"):
        verdicts = {}
        for name in ACCEPT_NAMES:
            check_file(name)
            verdicts[name] = "accept"
        for name, kind in REJECT_KINDS.items():
            with pytest.raises(CheckError) as e:
                check_file(name)
            assert e.value.kind == kind, f"{name}: expected {kind}, got {e.value.kind}"
            verdicts[name] = f"reject {e.value.kind}"
        assert len(verdicts) == 9


def test_criterion_2_allocator_restriction():
    with criterion(2, "promotion of an allocator rejected; hoisted variant runs"):
        with pytest.raises(CheckError) as e:
            check_file("alloc_promo_bad.grb")
        assert e.value.kind == "PromotionOfAllocator"
        cp, value, trace = run_file("alloc_promo_ok.grb")
        assert alpha_eq(value, UnitVal())
        assert not trace.final_heap.refs and not trace.final_heap.resources


def test_criterion_3_worked_example_replay():
    with criterion(3, "worked example replays step-for-step to ((v,v),v) with residual 0"):
        ring = NAT_LEQ
        v = UnitVal()
        heap = Heap()
        heap.vars["y"] = VarCell(ring.literal(2), v, UnitT())
        t = App(Abs("x", Pair(Var("x"), Var("y")), Prod(UnitT(), UnitT())), Pair(v, Var("y")))
        value, trace = Machine(ring).eval(heap, t, ring.one)

        assert trace.steps == [
            "appL/congPairR/var",
            "beta",
            "congPairL/var",
            "congPairR/var",
        ]
        # the three configurations of the printed sequence, under the
        # residual-grade convention (each var use consumes one unit)
        configs = trace.configurations()
        terms = [print_term(term) for term, _ in configs[1:]]
        assert terms[0] == r"(\x : (Unit * Unit) -> (x, y)) ((), ())"
        assert terms[1].startswith("(x") and terms[1].endswith(", y)")
        assert terms[2].startswith("(((), ()), y")
        assert configs[1][1].vars["y"].grade == ring.literal(1)
        bound = [x for x in configs[2][1].vars if x != "y"]
        assert len(bound) == 1 and configs[2][1].vars[bound[0]].grade == ring.one

        assert alpha_eq(value, Pair(Pair(v, v), v))
        assert trace.final_heap.vars["y"].grade == ring.zero

        # the same sequence is reachable from the shipped program after
        # its initial unboxing step
        _, _, prog_trace = run_file("example_s3.grb")
        assert prog_trace.steps == [
            "betaBox",
            "appL/congPairR/var",
            "beta",
            "congPairL/var",
            "congPairR/var",
        ]


def test_criterion_4_borrow_safety_suite(case_set):
    with criterion(4, f"borrow safety: zero violations over corpus + {GENERATED_CASES} generated programs"):
        violations = []
        for name, cp, value, trace in case_set:
            found = check_borrow_safety(trace)
            violations.extend(f"{name}: {v}" for v in found)
        assert violations == [], violations[:5]


def test_criterion_5_uniqueness_suite(case_set):
    with criterion(5, "uniqueness: owned results end at exactly one whole reference"):
        violations = []
        applicable = 0
        from gradebor.metatheory import uniqueness_applicable

        for name, cp, value, trace in case_set:
            if uniqueness_applicable(cp.main_type):
                applicable += 1
            found = check_uniqueness(trace, cp.main_type)
            violations.extend(f"{name}: {v}" for v in found)
        assert applicable > 100  # the criterion is not vacuous
        assert violations == [], violations[:5]


def test_criterion_6_preservation_and_progress(case_set):
    with criterion(6, "preservation and progress: types stable, heaps compatible, nothing stuck"):
        violations = []
        for name, cp, value, trace in case_set:
            found = check_preservation(trace, cp.main_type, cp.ring, cp.ring.one)
            found += check_progress(trace)
            violations.extend(f"{name}: {v}" for v in found)
        assert violations == [], violations[:5]


def test_criterion_7_equational_laws():
    with criterion(7, "equational laws hold on 100+ seeded instances, round trips exact"):
        suite = run_equational_suite(seed=GENERATOR_SEED, cases=100)
        assert suite.cases == 400  # 100 instances of each of the four laws
        assert suite.failures == [], suite.failures[:5]


def test_criterion_8_algebra_laws():
    with criterion(8, "semiring and permission laws over 1000+ random elements"):
        suite = run_algebra_suite(seed=GENERATOR_SEED, cases=1000)
        assert suite.cases >= 4000
        assert suite.failures == [], suite.failures[:5]


def test_criterion_9_mutation_check():
    with criterion(9, "disabling split halving makes the borrow-safety suite fail"):
        _, _, trace = run_file("persimmon.grb", mutate=True)
        found = check_borrow_safety(trace)
        assert found != [], "the mutated interpreter went undetected"
        assert any("permission total" in str(v) for v in found)
