import dataclasses
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradebor.grades import INTERVAL, NAT_LEQ, STAR, frac_perm
from gradebor.machine import (
    ArrRes, EvalError, FuelExhausted, GradeUnderflow, Heap, Machine,
    MissingResource, RefCell, RefRes, StuckTerm, Trace, VarCell,
    arr_read, arr_write, heap_copy,
)
from gradebor.parser import SyntaxError_, parse_program, parse_term, print_term
from gradebor.syntax import (
    Abs, App, Clone, FloatLit, LetBox, LetPair, NatLit, Pack, Pair, Prim,
    Promote, RefVal, Share, Split, Term, Unborrow, Uniq, UnitVal, Unpack, Var,
    Prod, UnitT, FloatT, NatT, alpha_eq,
)
from gradebor.typecheck import check_program

RING = NAT_LEQ


def machine():
    return Machine(RING)


def one():
    return RING.one


def seeded_heap(perm=Fraction(1)):
    heap = Heap()
    heap.resources["id1"] = ArrRes({0: 1.0})
    heap.refs["ref1"] = RefCell(perm, "id1")
    heap.counter = 1
    return heap


# -- single rules ---------------------------------------------------------------


def test_values_do_not_step():
    heap = Heap()
    assert machine().step(heap, UnitVal(), one()) is None
    assert machine().step(heap, Uniq(RefVal("r")), one()) is None
    assert machine().step(heap, App(Prim("readArray"), RefVal("r")), one()) is None


def test_new_array_rule():
    heap = Heap()
    t2, rule = machine().step(heap, App(Prim("newArray"), NatLit(1)), one())
    assert rule == "newArray"
    assert isinstance(t2, Pack)
    assert isinstance(t2.body, Uniq) and isinstance(t2.body.body, RefVal)
    ref = t2.body.body.ref
    assert heap.refs[ref].perm == 1
    assert heap.resources[heap.refs[ref].ident].is_array


def test_share_zeroes_the_reference():
    heap = seeded_heap()
    t2, rule = machine().step(heap, Share(Uniq(RefVal("ref1"), STAR), RING.literal(2)), one())
    assert rule == "share"
    assert alpha_eq(t2, Promote(RefVal("ref1"), RING.literal(2)))
    assert heap.refs["ref1"].perm == 0
    assert "id1" in heap.resources  # the resource itself is preserved


def test_split_halves_and_removes_the_original():
    heap = seeded_heap()
    t2, rule = machine().step(heap, Split(Uniq(RefVal("ref1"), frac_perm(1))), one())
    assert rule == "splitRef"
    assert "ref1" not in heap.refs
    perms = sorted(c.perm for c in heap.refs.values())
    assert perms == [Fraction(1, 2), Fraction(1, 2)]
    assert all(c.ident == "id1" for c in heap.refs.values())
    assert isinstance(t2, Pair)
    assert t2.left.perm == frac_perm(1, 2) and t2.right.perm == frac_perm(1, 2)


def test_unborrow_restores_ownership():
    heap = Heap()
    t2, rule = machine().step(heap, Unborrow(Uniq(UnitVal(), frac_perm(1))), one())
    assert rule == "unborrowBorrow"
    assert alpha_eq(t2, Uniq(UnitVal(), STAR))
    assert not heap.vars and not heap.refs


def test_var_rule_decrements():
    from gradebor.machine import VarCell

    heap = Heap()
    heap.vars["y"] = VarCell(RING.literal(2), UnitVal(), UnitT())
    t2, rule = machine().step(heap, Var("y"), one())
    assert rule == "var" and alpha_eq(t2, UnitVal())
    assert heap.vars["y"].grade == RING.literal(1)


def test_grade_underflow():
    from gradebor.machine import VarCell

    heap = Heap()
    heap.vars["y"] = VarCell(RING.literal(1), UnitVal(), UnitT())
    with pytest.raises(GradeUnderflow):
        machine().step(heap, Var("y"), RING.literal(2))


def test_missing_resource():
    heap = Heap()
    heap.refs["ref1"] = RefCell(Fraction(1), "gone")
    with pytest.raises(MissingResource):
        machine().step(heap, App(App(Prim("readArray"), Uniq(RefVal("ref1"))), NatLit(0)), one())


# -- the worked example -----------------------------------------------------------


def test_worked_example_replay():
    from gradebor.machine import VarCell

    heap = Heap()
    heap.vars["y"] = VarCell(RING.literal(2), UnitVal(), UnitT())
    t = App(Abs("x", Pair(Var("x"), Var("y")), Prod(UnitT(), UnitT())), Pair(UnitVal(), Var("y")))
    v, trace = machine().eval(heap, t, one())
    assert trace.steps == [
        "appL/congPairR/var",
        "beta",
        "congPairL/var",
        "congPairR/var",
    ]
    assert alpha_eq(v, Pair(Pair(UnitVal(), UnitVal()), UnitVal()))
    assert trace.final_heap.vars["y"].grade == RING.zero


def test_eval_of_value_is_a_zero_length_trace():
    v, trace = machine().eval(Heap(), UnitVal(), one())
    assert alpha_eq(v, UnitVal())
    assert trace.steps == []


def test_fuel_exhaustion():
    heap = Heap()
    t = parse_term(r"(\u -> u) ()")
    with pytest.raises(FuelExhausted):
        machine().eval(heap, t, one(), fuel=1)


def test_determinism():
    src = Path("src/gradebor/corpus/persimmon.grb").read_text(encoding="utf-8")
    cp = check_program(parse_program(src))
    v1, t1 = machine().eval(Heap(), cp.main_term, one())
    v2, t2 = machine().eval(Heap(), cp.main_term, one())
    assert alpha_eq(v1, v2)
    assert t1.steps == t2.steps


def test_freshness_of_introduced_names():
    src = Path("src/gradebor/corpus/amethyst.grb").read_text(encoding="utf-8")
    cp = check_program(parse_program(src))
    _, trace = machine().eval(Heap(), cp.main_term, one())
    configs = trace.configurations()
    for (_, pre_heap), (_, post_heap) in zip(configs, configs[1:]):
        pre = pre_heap.names()
        introduced = post_heap.names() - pre
        assert introduced.isdisjoint(pre)


def test_configuration_invariant_refs_in_heap():
    from gradebor.syntax import free_vars, refs_of

    src = Path("src/gradebor/corpus/indigo_seq.grb").read_text(encoding="utf-8")
    cp = check_program(parse_program(src))
    _, trace = machine().eval(Heap(), cp.main_term, one())
    for post_term, post_heap in trace.configurations()[1:]:
        assert refs_of(post_term) <= set(post_heap.refs)
        # free term variables and name identifiers both resolve in the heap
        dom = set(post_heap.vars) | set(post_heap.resources)
        assert free_vars(post_term) <= dom


# -- heap operations ----------------------------------------------------------------


def test_heap_copy_is_deep():
    sub = Heap()
    sub.resources["id1"] = ArrRes({0: 1.0})
    sub.refs["ref1"] = RefCell(Fraction(0), "id1")
    sub.counter = 1
    fragment, theta, new_ids = heap_copy(sub)
    assert set(theta) == {"ref1"}
    new_ref = theta["ref1"]
    assert fragment.refs[new_ref].perm == 1
    assert len(new_ids) == 1
    # mutating the original leaves the copy unchanged
    sub.resources["id1"].items[0] = 99.0
    assert fragment.resources[new_ids[0]].items[0] == 1.0


def test_heap_copy_nested_refs():
    sub = Heap()
    sub.resources["id1"] = ArrRes({1: 2.0})
    sub.refs["ref1"] = RefCell(Fraction(1), "id1")
    sub.resources["id2"] = RefRes(Uniq(RefVal("ref1"), STAR), None)
    sub.refs["ref2"] = RefCell(Fraction(0), "id2")
    sub.counter = 2
    fragment, theta, new_ids = heap_copy(sub)
    assert set(theta) == {"ref1", "ref2"}
    inner = fragment.resources[theta and fragment.refs[theta["ref2"]].ident]
    assert alpha_eq(inner.value, Uniq(RefVal(theta["ref1"]), STAR))


def test_heap_copy_empty():
    fragment, theta, new_ids = heap_copy(Heap())
    assert not fragment.refs and not theta and not new_ids


def test_array_ops():
    a = ArrRes()
    assert arr_read(a, 3) == 0.0
    arr_write(a, 0, 1.0)
    assert arr_read(a, 0) == 1.0
    arr_write(a, 0, 2.0)
    assert arr_read(a, 0) == 2.0
    assert list(a.items) == [0]


def test_read_write_delete_array_steps():
    cp = check_program(parse_program(
        "main : Unit;\n"
        "main = unpack <i, a> = newArray 2 in\n"
        "       let (v, a2) = readArray (writeArray a 0 4.5) 0 in deleteArray a2;"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    assert alpha_eq(v, UnitVal())
    rules = [rule.split("/")[-1] for rule in trace.steps]
    assert "newArray" in rules and "writeArray" in rules and "readArray" in rules and "deleteArray" in rules
    assert not trace.final_heap.refs and not trace.final_heap.resources


def test_swap_and_delete_ref():
    cp = check_program(parse_program(
        "main : Float;\n"
        "main = unpack <i, r> = newRef 1.5 in\n"
        "       let (old, r2) = swapRef r 2.5 in deleteRef r2;"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    assert alpha_eq(v, FloatLit(2.5))


def test_trace_jsonl_schema():
    import json

    cp = check_program(parse_program(Path("src/gradebor/corpus/persimmon.grb").read_text(encoding="utf-8")))
    _, trace = machine().eval(Heap(), cp.main_term, one())
    lines = trace.to_jsonl().splitlines()
    for line in lines[:-1]:
        rec = json.loads(line)
        assert set(rec) == {"step", "rule", "grade", "term", "heap"}
        for entry in rec["heap"]:
            assert entry["sort"] in ("var", "ref", "res")
    final = json.loads(lines[-1])
    assert "value" in final and "heap" in final


def jsonl_oracle(trace):
    """Every trace line as `json.dumps` of the whole record, nothing reused."""
    import json

    lines = [
        json.dumps({"step": k, "rule": rule, "grade": str(trace.grade),
                    "term": print_term(term), "heap": heap.to_json()})
        for k, (rule, (term, heap)) in enumerate(zip(trace.steps, trace.configurations()[1:]))
    ]
    lines.append(json.dumps({"step": len(trace.steps), "value": print_term(trace.final_term),
                             "heap": trace.final_heap.to_json()}))
    return lines


def _trace_agrees(cp, s):
    """A recorded run's configurations print the terms that a `Machine.step`
    loop from the same program reaches, its rule paths are the loop's, and
    its JSONL is the oracle's."""
    m = Machine(cp.ring)
    _, trace = m.eval(Heap(), cp.main_term, s)
    heap, t, terms, rules = Heap(), cp.main_term, [print_term(cp.main_term)], []
    while (stepped := m.step(heap, t, s)) is not None:
        t, rule = stepped
        terms.append(print_term(t))
        rules.append(rule)
    assert [print_term(term) for term, _ in trace.configurations()] == terms
    assert trace.steps == rules
    assert trace.to_jsonl().split("\n") == jsonl_oracle(trace)


def test_trace_matches_a_step_loop_on_the_corpus():
    import glob

    from gradebor.typecheck import CheckError

    checked = 0
    for path in sorted(glob.glob("src/gradebor/corpus/*.grb")):
        try:
            cp = check_program(parse_program(Path(path).read_text(encoding="utf-8"), path))
        except (SyntaxError_, CheckError):
            continue
        _trace_agrees(cp, cp.ring.one)
        checked += 1
    assert checked >= 9


def test_trace_matches_a_step_loop_on_generated_programs():
    import random

    from gradebor.generator import constructors_used, generate_program

    rng = random.Random(61)
    for i in range(300):
        cp = check_program(generate_program(rng, 6 if i % 4 else 3))
        grades = [cp.ring.one]
        if cp.ring is not INTERVAL and not any(c.startswith("Prim:") for c in constructors_used(cp.main_term)):
            grades.append(cp.ring.literal(2))
        for s in grades:
            _trace_agrees(cp, s)


def test_trace_matches_a_step_loop_on_the_chain_and_the_ladder():
    golden = _golden()
    for source in (golden.chain_source(100), golden.ladder_source(20)):
        cp = check_program(parse_program(source))
        _trace_agrees(cp, cp.ring.one)


def test_frame_lines_equal_the_plugged_terms_at_every_position():
    import json

    from gradebor.machine import _CONGRUENCES, Config, Frame, _rule, plug
    from gradebor.parser import print_around
    from gradebor.syntax import Join, LetUnit, Pull, Push, WithBorrow

    w = App(Var("f"), Var("a"))
    nodes = [
        App(w, w), Pair(w, w), LetPair("x", "y", w, w), LetUnit(w, w), Promote(w), LetBox("x", w, w),
        Pack("i", w), Unpack("i", "x", w, w), WithBorrow(w, w), Unborrow(w), Share(w),
        Clone("x", ("i",), w, w), Split(w), Join(w), Push(w), Pull(w),
    ]
    assert {type(node) for node in nodes} == set(_CONGRUENCES)
    # never parenthesized; parenthesized at atom precedence; at application
    # precedence and above
    holes = [Var("h"), App(Var("g"), Var("h")), LetUnit(Var("u"), Var("h"))]
    # a context that prints its hole at atom precedence
    outer = Frame(App(Var("k"), w), 1, one(), None)
    configs = [Config(None, UnitVal(), Heap())]
    for node in nodes:
        for pos, (hole, _) in enumerate(_CONGRUENCES[type(node)]):
            _, _, prec = print_around(node, hole, 0)
            assert any(print_term(t, prec) != print_term(t) for t in holes) == (prec > 0)
            for parent in (None, outer):
                frame = Frame(node, pos, one(), parent)
                configs += [Config(frame, t, Heap()) for t in holes]
    leaves = [f"leaf{k}" for k in range(len(configs) - 1)]
    trace = Trace(one(), leaves, configs, len(leaves))
    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    for k, (leaf, c) in enumerate(zip(leaves, configs[1:])):
        assert lines[k]["term"] == print_term(plug(c.frame, c.hole))
        assert lines[k]["rule"] == trace.steps[k] == _rule(c.frame, leaf)
    assert lines[-1]["value"] == print_term(trace.final_term)


def test_recorded_bytes_per_step_do_not_grow_on_the_chain():
    import gc
    import tracemalloc

    per_step = {}
    for writes in (50, 200):
        cp = check_program(parse_program(_golden().chain_source(writes)))
        # a full collection empties the interpreter's free lists, whose
        # objects tracemalloc would not see allocated
        gc.collect()
        tracemalloc.start()
        try:
            _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
            gc.collect()
            per_step[writes] = tracemalloc.get_traced_memory()[0] / trace.step_count
        finally:
            tracemalloc.stop()
    assert per_step[200] <= 1.1 * per_step[50]


def test_a_recorded_run_keeps_leaf_rules_and_reads_paths_from_the_frames():
    cp = check_program(parse_program(_golden().chain_source(3)))
    _, trace = machine().eval(Heap(), cp.main_term, one())
    assert trace.leaves == ["newArray", "existentialBeta", "var", "writeArray", "writeArray", "writeArray"]
    assert len(trace.steps) == trace.step_count == 6
    assert trace.steps[-2:] == ["congPack/appR/appR/appL/writeArray", "congPack/writeArray"]
    assert trace.steps[-1] == trace.steps[5] == "congPack/writeArray"
    with pytest.raises(IndexError):
        trace.steps[6]


def hand_trace(heaps, term=UnitVal()):
    """A trace whose printed configurations hold `term` and the given heaps
    in turn: one step into each heap, the last of which is also the final one."""
    configs = [(term, Heap())] + [(term, heap) for heap in heaps]
    return Trace(one(), ["var"] * len(heaps), configs, len(heaps))


def test_trace_jsonl_rereads_a_grade_that_changes_under_the_same_value():
    import json

    value, ty = FloatLit(1.5), FloatT()
    heaps = [Heap({"x": VarCell(RING.literal(g), value, ty)}) for g in (2, 1, 0)]
    trace = hand_trace(heaps)
    lines = trace.to_jsonl().split("\n")
    assert lines == jsonl_oracle(trace)
    assert [json.loads(line)["heap"][0]["grade"] for line in lines] == ["2", "1", "0", "0"]


def test_trace_jsonl_rereads_swapped_values_and_resources():
    import json

    first, same, other = FloatLit(1.5), FloatLit(1.5), FloatLit(2.5)
    ty, again = FloatT(), FloatT()
    heaps = [
        Heap({"x": VarCell(one(), value, vty), "y": VarCell(one(), first, yty)},
             {"ref1": RefCell(perm, "id1")}, {"id1": ArrRes(items), "id2": RefRes(value, vty)})
        for value, vty, yty, perm, items in (
            (first, ty, ty, Fraction(1), {0: 1.0}),
            (same, ty, ty, Fraction(1), {0: 1.0}),
            (same, again, again, Fraction(1, 2), {0: 2.0}),
            (other, again, NatT(), Fraction(1, 2), {0: 2.0, 1: 3.0}),
        )
    ]
    trace = hand_trace(heaps)
    lines = trace.to_jsonl().split("\n")
    assert lines == jsonl_oracle(trace)
    records = [json.loads(line)["heap"] for line in lines]
    assert [r[0]["value"] for r in records] == ["1.5", "1.5", "1.5", "2.5", "2.5"]
    assert [r[1]["type"] for r in records] == ["Float", "Float", "Float", "Nat", "Nat"]
    assert [r[2]["perm"] for r in records] == ["1", "1", "1/2", "1/2", "1/2"]
    assert [r[3]["value"] for r in records] == [
        "init[0]=1.0", "init[0]=1.0", "init[0]=2.0", "init[0]=2.0[1]=3.0", "init[0]=2.0[1]=3.0"
    ]
    assert [r[4]["value"] for r in records] == ["|- 1.5 : Float"] * 3 + ["|- 2.5 : Float"] * 2


RULE_NAMES = {
    "var", "beta", "appL", "appR", "congPairL", "congPairR", "pairBeta",
    "congPairElim", "congUnitElim", "unitBeta", "congPromotion",
    "congBoxElim", "betaBox", "congPack", "congUnpack", "existentialBeta",
    "congWithBorrowL", "congWithBorrowR", "withBorrowBeta", "congUnborrow",
    "unborrowBorrow", "congShare", "share", "congClone", "copyBeta",
    "congSplit", "splitRef", "splitPair", "congJoin", "joinRef", "joinPair",
    "congPush", "pushUnique", "pushBorrow", "congPull", "pullUnique",
    "pullBorrow", "newArray", "readArray", "writeArray", "deleteArray",
    "newRef", "readRef", "swapRef", "deleteRef",
}


def test_rule_names_are_from_the_closed_set():
    import glob

    for path in glob.glob("src/gradebor/corpus/*.grb"):
        src = Path(path).read_text(encoding="utf-8")
        try:
            cp = check_program(parse_program(src))
        except Exception:
            continue
        _, trace = machine().eval(Heap(), cp.main_term, one())
        for rule in trace.steps:
            for part in rule.split("/"):
                assert part in RULE_NAMES, f"{path}: unknown rule {part}"


def test_values_never_step_on_generated_results():
    import random

    from gradebor.generator import generate_program

    rng = random.Random(3)
    for _ in range(40):
        prog = generate_program(rng, rng.choice([3, 6]))
        cp = check_program(prog)
        heap = Heap()
        m = Machine(cp.ring)
        v, _ = m.eval(heap, cp.main_term, cp.ring.one)
        from gradebor.syntax import is_value

        assert is_value(v)
        assert m.step(heap, v, cp.ring.one) is None


def test_multi_identifier_clone():
    cp = check_program(parse_program(
        "main : Float * Float;\n"
        "main = unpack <i, r> = newRef 1.0 in\n"
        "       unpack <j, g> = newRef 2.0 in\n"
        "       (\\bx : (((Ref i Float) * (Ref j Float)) [1]) ->\n"
        "          let *c = clone bx as <a, b> in\n"
        "          let (x, y) = push c in\n"
        "          (deleteRef x, deleteRef y)) (share (pull (r, g)));"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    assert alpha_eq(v, Pair(FloatLit(1.0), FloatLit(2.0)))
    rules = {r for rule in trace.steps for r in rule.split("/")}
    assert "copyBeta" in rules
    # the shared originals remain at permission zero, the copies were consumed
    assert all(c.perm == 0 for c in trace.final_heap.refs.values())


def test_split_and_join_at_pair_granularity():
    cp = check_program(parse_program(
        "main : exists i . exists j . * ((Ref i Float) * (Ref j Float));\n"
        "main = unpack <i, r> = newRef 1.0 in\n"
        "       unpack <j, g> = newRef 2.0 in\n"
        "       pack <i, pack <j, withBorrow (\\p -> join (split p)) (pull (r, g))>>;"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    leaf_rules = [rule.split("/")[-1] for rule in trace.steps]
    assert "splitPair" in leaf_rules and "joinPair" in leaf_rules
    # both resources end uniquely referenced
    per_ident = {}
    for c in trace.final_heap.refs.values():
        per_ident.setdefault(c.ident, []).append(c.perm)
    assert all(perms == [Fraction(1)] for perms in per_ident.values())


def test_push_pull_on_borrowed_products():
    cp = check_program(parse_program(
        "main : exists i . exists j . * ((Ref i Float) * (Ref j Float));\n"
        "main = unpack <i, r> = newRef 1.0 in\n"
        "       unpack <j, g> = newRef 2.0 in\n"
        "       pack <i, pack <j, withBorrow (\\p -> let (x, y) = push p in\n"
        "                                            pull (x, join (split y))) (pull (r, g))>>;"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    leaf_rules = [rule.split("/")[-1] for rule in trace.steps]
    assert "pushBorrow" in leaf_rules and "pullBorrow" in leaf_rules


def test_with_borrow_may_change_the_payload_type():
    cp = check_program(parse_program(
        "main : exists i . * (Ref i (Float [1]));\n"
        "main = (\\rp : (exists i . * (Ref i (Float [2]))) ->\n"
        "          unpack <i, r> = rp in\n"
        "          pack <i, withBorrow (\\b -> let (v, b2) = readRef b in b2) r>)\n"
        "       (newRef [3.5]);"
    ))
    v, trace = machine().eval(Heap(), cp.main_term, one())
    from gradebor.metatheory import check_preservation

    assert check_preservation(trace, cp.main_type, cp.ring, one()) == []


def test_split_join_heap_duality():
    heap = seeded_heap(Fraction(3, 4))
    m = machine()
    t = parse_term("join (split b)")
    from gradebor.syntax import Join, Split

    t = Join(Split(Uniq(RefVal("ref1"), frac_perm(3, 4))))
    v, trace = m.eval(heap, t, one())
    # a single binding remains, at the original permission, fresh name aside
    assert len(trace.final_heap.refs) == 1
    ((ref, cell),) = trace.final_heap.refs.items()
    assert cell.perm == Fraction(3, 4) and cell.ident == "id1"
    assert ref != "ref1"


# -- refocusing: recorded and unrecorded runs agree ----------------------------------


def _runs_agree(cp):
    """Run main recorded and unrecorded."""
    import json

    from gradebor.parser import print_term

    outcomes = []
    for record in (True, False):
        v, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one, record=record)
        assert len(trace.steps) == (trace.step_count if record else 0)
        outcomes.append((print_term(v), json.dumps(trace.final_heap.to_json()), trace.step_count))
    assert outcomes[0] == outcomes[1]


def test_recorded_and_unrecorded_runs_agree_on_the_corpus():
    import glob

    from gradebor.typecheck import CheckError

    for path in sorted(glob.glob("src/gradebor/corpus/*.grb")):
        try:
            cp = check_program(parse_program(Path(path).read_text(encoding="utf-8"), path))
        except (SyntaxError_, CheckError):
            continue
        _runs_agree(cp)


def test_recorded_and_unrecorded_runs_agree_on_generated_programs():
    from gradebor.generator import generate_programs

    for prog in generate_programs(11, count=300):
        _runs_agree(check_program(prog))


def test_write_chain_rule_paths():
    cp = check_program(parse_program(
        "main : exists i . * (Array i Float);\n"
        "main = unpack <i, a> = newArray 4 in\n"
        "       pack <i, writeArray (writeArray (writeArray a 0 1.5) 1 2.5) 0 3.5>;"
    ))
    _, trace = machine().eval(Heap(), cp.main_term, one())
    assert trace.steps == [
        "congUnpack/newArray",
        "existentialBeta",
        "congPack/appR/appR/appL/appR/appR/appL/appR/appR/appL/var",
        "congPack/appR/appR/appL/appR/appR/appL/writeArray",
        "congPack/appR/appR/appL/writeArray",
        "congPack/writeArray",
    ]
    assert trace.final_heap.resources["id1"].items == {0: 3.5, 1: 2.5}


def test_deep_write_chain_runs_without_recursion():
    # the redex sits 2000 contexts deep, twice the default recursion limit
    t = Uniq(RefVal("ref1"), STAR)
    for k in range(2000):
        t = App(App(App(Prim("writeArray"), t), NatLit(k % 4)), FloatLit(float(k)))
    heap = seeded_heap()
    v, trace = machine().eval(heap, t, one(), record=False)
    assert alpha_eq(v, Uniq(RefVal("ref1"), STAR))
    assert trace.step_count == 2000
    assert heap.resources["id1"].items == {0: 1996.0, 1: 1997.0, 2: 1998.0, 3: 1999.0}


# -- dropping unreachable grade-0 variables ------------------------------------------

# The term-variable binder fields of each binding form; each scopes over `body`.
_VAR_BINDERS = {Abs: ("param",), LetPair: ("left", "right"), LetBox: ("binder",), Unpack: ("binder",), Clone: ("binder",)}


def _walk_vars(t):
    """The free term variables of t, by a walk of its own over the whole term."""
    if isinstance(t, Var):
        return {t.name}
    out = set()
    for f in dataclasses.fields(t):
        child = getattr(t, f.name)
        if isinstance(child, Term):
            sub = _walk_vars(child)
            if f.name == "body":
                sub -= {getattr(t, b) for b in _VAR_BINDERS.get(type(t), ())}
            out |= sub
    return out


def _unreachable_zeros(term, heap, zero):
    """The variables of heap of grade zero that neither the term nor a stored
    reference value reaches through the heap."""
    todo = list(_walk_vars(term))
    for res in heap.resources.values():
        if not res.is_array:
            todo.extend(_walk_vars(res.value))
    reached = set()
    while todo:
        x = todo.pop()
        if x in heap.vars and x not in reached:
            reached.add(x)
            todo.extend(_walk_vars(heap.vars[x].value))
    return {x for x, c in heap.vars.items() if c.grade == zero and x not in reached}


def _without(heap, dead):
    return Heap({x: c for x, c in heap.vars.items() if x not in dead}, heap.refs, heap.resources, heap.counter)


def _collection_oracle(ring, term, s, monkeypatch, mutate=False):
    """Run term from an empty heap, so that the run binds every variable,
    with collection and with `_collect` a no-op, and check each collected
    heap against the oracle. Returns the collected and uncollected traces,
    or None when all three runs failed with the same error."""
    import json

    from gradebor import machine as M

    collect = M._collect
    runs = {}
    for mode, record in (("collected", True), ("uncollected", True), ("unrecorded", False)):
        monkeypatch.setattr(M, "_collect", (lambda *_: None) if mode == "uncollected" else collect)
        try:
            runs[mode] = Machine(ring, mutate_split=mutate).eval(Heap(), term, s, record=record)[1]
        except EvalError as e:
            runs[mode] = str(e)
    if isinstance(runs["collected"], str):
        assert runs["collected"] == runs["uncollected"] == runs["unrecorded"]
        return None
    kept, full = runs["collected"], runs["uncollected"]
    assert kept.steps == full.steps
    assert [print_term(t) for t, _ in kept.configurations()] == [print_term(t) for t, _ in full.configurations()]
    assert print_term(kept.final_term) == print_term(full.final_term)
    for (t, heap), (_, whole) in zip(kept.configurations(), full.configurations(), strict=True):
        dead = _unreachable_zeros(t, whole, ring.zero)
        assert heap.to_json() == _without(whole, dead).to_json()
    assert json.dumps(kept.final_heap.to_json()) == json.dumps(runs["unrecorded"].final_heap.to_json())
    return kept, full


def _collection_agrees(cp, s, mutate, monkeypatch):
    from gradebor.metatheory import check_trace

    traces = _collection_oracle(cp.ring, cp.main_term, s, monkeypatch, mutate)
    if traces is not None:
        kept, full = traces
        assert check_trace(kept, cp.main_type, cp.ring, s) == check_trace(full, cp.main_type, cp.ring, s)


@pytest.mark.parametrize("mutate", [False, True])
def test_collection_drops_exactly_the_unreachable_zeros_on_the_corpus(mutate, monkeypatch):
    import glob

    from gradebor.typecheck import CheckError

    checked = 0
    for path in sorted(glob.glob("src/gradebor/corpus/*.grb")):
        try:
            cp = check_program(parse_program(Path(path).read_text(encoding="utf-8"), path))
        except (SyntaxError_, CheckError):
            continue
        _collection_agrees(cp, cp.ring.one, mutate, monkeypatch)
        checked += 1
    assert checked >= 9


@pytest.mark.parametrize("mutate", [False, True])
def test_collection_drops_exactly_the_unreachable_zeros_on_generated_programs(mutate, monkeypatch):
    from gradebor.generator import constructors_used, generate_programs

    for prog in generate_programs(23, count=300):
        cp = check_program(prog)
        grades = [cp.ring.one]
        if cp.ring is not INTERVAL and not any(c.startswith("Prim:") for c in constructors_used(cp.main_term)):
            grades.append(cp.ring.literal(2))
        for s in grades:
            _collection_agrees(cp, s, mutate, monkeypatch)


@pytest.mark.parametrize("term", [
    # x is reached only through the frame (hole, x) while u is bound
    App(Abs("x", Pair(App(Abs("u", Var("u")), UnitVal()), Var("x"))), UnitVal()),
    # b is reached only through the value of a
    App(Abs("b", App(Abs("a", Pair(App(Abs("u", Var("u")), UnitVal()), Var("a"))), Abs("z", Var("b")))), UnitVal()),
    # b is reached only through the stored value of a reference
    App(Abs("b", App(Abs("r", Pair(App(Abs("u", Var("u")), UnitVal()), Var("r"))),
                     App(Prim("newRef"), Promote(Abs("z", Var("b")))))), UnitVal()),
    # the frame's let binds the name the step gives u, so nothing reaches u
    LetPair("u.1", "q", Pair(App(Abs("u", UnitVal()), UnitVal()), UnitVal()), Var("u.1")),
])
def test_collection_keeps_zeros_reached_only_through_frames_values_and_references(term, monkeypatch):
    # at grade 0 every variable is bound at grade 0; a run names its first
    # variable u.1
    assert _collection_oracle(RING, term, RING.zero, monkeypatch) is not None


def _golden():
    spec = importlib.util.spec_from_file_location("golden", Path(__file__).resolve().parent.parent / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_heap_stays_the_same_size_as_the_ladder_grows():
    largest = []
    ladder_source = _golden().ladder_source
    for rungs in (10, 20, 40):
        cp = check_program(parse_program(ladder_source(rungs)))
        heap = Heap()
        heap.vars["w"] = VarCell(cp.ring.zero, UnitVal(), UnitT())  # the caller's: kept
        _, trace = Machine(cp.ring).eval(heap, cp.main_term, cp.ring.one)
        configs = trace.configurations()
        assert len(configs) > 4 * rungs
        assert all(h.vars["w"].grade == cp.ring.zero for _, h in configs)
        largest.append(max(len(h.vars) - 1 for _, h in configs))
    assert largest[0] == largest[1] == largest[2] <= 2


def test_starting_heap_variables_survive_at_grade_zero():
    heap = Heap()
    heap.vars["y"] = VarCell(RING.literal(2), UnitVal(), UnitT())
    t = App(Abs("x", Pair(Var("x"), Var("y")), Prod(UnitT(), UnitT())), Pair(UnitVal(), Var("y")))
    for record in (True, False):
        h = heap.snapshot()
        _, trace = machine().eval(h, t, one(), record=record)
        # the run's x is read once and dropped; y is the caller's
        assert list(trace.final_heap.vars) == ["y"]
        assert trace.final_heap.vars["y"].grade == RING.zero


def test_step_does_not_collect():
    t = App(Abs("x", UnitVal(), UnitT()), UnitVal())
    heap = Heap()
    t2, rule = machine().step(heap, t, RING.zero)
    assert alpha_eq(t2, UnitVal()) and rule == "beta"
    assert [c.grade for c in heap.vars.values()] == [RING.zero]
    heap = Heap()
    machine().eval(heap, t, RING.zero, record=False)
    assert heap.vars == {}


# -- stored reference types come from elaboration ------------------------------------

READ_SWAP = (
    "#semiring nat-leq\n\n"
    "main : Float * (Float * (Float [1]));\n"
    "main = (\\rp : (exists i . * (Ref i (Float [2]))) ->\n"
    "          unpack <i, r0> = rp in\n"
    "          let (v1, r1) = readRef r0 in\n"
    "          let (old, r2) = (\\b : (Float [1]) -> swapRef r1 b) [2.5] in\n"
    "          let (v2, r3) = readRef r2 in\n"
    "          let [z] = deleteRef r3 in (v1, (v2, old)))\n"
    "       (newRef [1.5]);\n"
)


def test_read_then_swap_returns_the_box_at_its_lowered_grade():
    from gradebor.metatheory import check_trace

    cp = check_program(parse_program(READ_SWAP))
    v, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    assert alpha_eq(v, Pair(FloatLit(1.5), Pair(FloatLit(2.5), Promote(FloatLit(1.5), cp.ring.one))))
    assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == []


def _checked_programs():
    """The corpus programs that check, the read/swap program and 300
    generated ones, each with its elaborated program."""
    import glob

    from gradebor.generator import generate_programs
    from gradebor.typecheck import CheckError

    for path in sorted(glob.glob("src/gradebor/corpus/*.grb")):
        try:
            yield path, check_program(parse_program(Path(path).read_text(encoding="utf-8"), path))
        except (SyntaxError_, CheckError):
            continue
    yield "read_swap", check_program(parse_program(READ_SWAP))
    for i, prog in enumerate(generate_programs(31, count=300)):
        yield f"generated {i}", check_program(prog)


def test_stored_reference_types_are_the_types_of_the_stored_values():
    from gradebor.typecheck import CheckError, Checker, runtime_ctx

    compared = set()
    for label, cp in _checked_programs():
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        for k, (_, heap) in enumerate(trace.configurations()):
            for ident, res in heap.resources.items():
                if res.is_array:
                    continue
                try:
                    ty = Checker(cp.ring).synth(runtime_ctx(heap, cp.ring), res.value)[0]
                except CheckError:
                    continue
                assert res.ty == ty, (label, k, ident, res.ty, ty)
                compared.add(label)
    assert "src/gradebor/corpus/readref_demo.grb" in compared and "read_swap" in compared
    assert len(compared) > 50


def test_only_new_ref_heads_carry_a_payload_type_after_elaboration():
    from gradebor.syntax import children

    heads = 0
    for label, cp in _checked_programs():
        todo = [cp.main_term]
        while todo:
            t = todo.pop()
            if isinstance(t, Prim):
                assert (t.ann is not None) == (t.name == "newRef"), (label, t.name)
                heads += t.name == "newRef"
            todo.extend(children(t))
    assert heads > 50


def test_the_machine_does_not_import_the_typechecker():
    import ast

    from gradebor import machine as M

    with open(M.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            assert not any("typecheck" in n for n in names), ast.dump(node)


def test_each_plug_fills_its_position_and_keeps_every_other_field():
    from gradebor import machine as M

    checked = set()
    for cls, positions in M._CONGRUENCES.items():
        names = [f.name for f in dataclasses.fields(cls)]
        for i, position in enumerate(positions):
            hole = position[0]
            # every field a distinct object, so a field the plug dropped or
            # moved cannot pass for another one
            node = cls(*[object() for _ in names])
            child = object()
            out = M.Frame(node, i, one(), None).plug(child)
            assert type(out) is cls and getattr(out, hole) is child, (cls.__name__, hole)
            for n in names:
                if n != hole:
                    assert getattr(out, n) is getattr(node, n), (cls.__name__, hole, n)
                    checked.add(n)
    assert {"loc", "old_idents", "lann", "rann", "bann", "ann"} <= checked


def test_a_program_traced_twice_in_one_process_gives_the_same_bytes():
    source = _golden().ladder_source(20)
    traces = []
    for _ in range(2):
        cp = check_program(parse_program(source))
        traces.append(Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)[1].to_jsonl())
    assert traces[0] == traces[1]


def test_a_run_renames_a_binder_that_elaboration_named_like_a_heap_variable():
    # elaboration renames the inner x to x.1, the name the run gives the outer x
    from gradebor.metatheory import check_trace

    cp = check_program(parse_program("main : Nat * Nat;\nmain = let (x, y) = (1, 2) in let (x, z) = (y, x) in (x, z);\n"))
    assert cp.main_term.body.left == "x.1"
    v, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    assert print_term(v) == "(2, 1)"
    assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == []


@pytest.mark.parametrize("name", ["id2", "id3", "id4", "id5"])
def test_a_clone_renames_no_name_under_a_binder_spelled_like_its_copy(name):
    # the clone's copy of id1 is named id3 by the heap, and the clone renames
    # j to it under the unpack's binder, which must not capture it
    from gradebor.metatheory import check_trace

    cp = check_program(parse_program(
        "main : Float * Float;\n"
        "main = unpack <i, r> = newRef 7.25 in\n"
        "       (\\bx : ((Ref i Float) [1]) ->\n"
        "          let *c = clone bx as <j> in\n"
        f"          unpack <{name}, d> = newRef 1.0 in\n"
        "          ((\\z : * (Ref j Float) -> deleteRef z) c, deleteRef d)) (share r);\n"
    ))
    v, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    assert print_term(v) == "(7.25, 1.0)"
    assert any("id3" in heap.resources for _, heap in trace.configurations())
    assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == []
