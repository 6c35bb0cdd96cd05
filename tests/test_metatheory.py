import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradebor.grades import NAT, NAT_LEQ, STAR, frac_perm, grade_add, grade_mul, grade_residual
from gradebor.machine import ArrRes, EvalError, Heap, Machine, RefCell, VarCell
from gradebor.metatheory import (
    _MemoChecker, check_borrow_safety, check_borrow_safety_step, check_equational,
    check_preservation, check_progress, check_uniqueness, close_value,
    heap_compat, reachable_refs, readback, run_algebra_suite,
    run_equational_suite, runtime_ctx, uniqueness_applicable,
)
from gradebor.parser import parse_program, parse_term, parse_type
from gradebor.syntax import (
    Abs, App, Box, Clone, FloatT, Join, LetBox, LetPair, LetUnit, NatLit, NatT, Pack, Pair,
    Prim, Prod, Promote, RefVal, Share, Split, Uniq, UnitT, UnitVal, Var, FloatLit, WithBorrow, alpha_eq,
)
from gradebor.typecheck import CheckError, Checker, Ctx, GradedEntry, RefEntry

RING = NAT_LEQ

CORPUS = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"


def load(name):
    from gradebor.typecheck import check_program

    return check_program(parse_program((CORPUS / name).read_text(), str(name)))


def run(name, mutate=False):
    cp = load(name)
    m = Machine(cp.ring, mutate_split=mutate)
    v, trace = m.eval(Heap(), cp.main_term, cp.ring.one)
    return cp, v, trace


ACCEPTED = [
    "persimmon.grb", "amethyst.grb", "indigo.grb", "indigo_seq.grb",
    "observe.grb", "example_s3.grb", "alloc_promo_ok.grb",
    "readref_demo.grb", "share_clone.grb",
]


# -- heap compatibility --------------------------------------------------------


def demand_ctx(vars_):
    return Ctx(RING, {x: GradedEntry(ty, g) for x, (ty, g) in vars_.items()}, lenient_names=True)


def test_compat_paper_example():
    # x held at 7 covers one direct use plus two uses of a value that
    # consumes x three times each
    b_ty = Prod(UnitT(), Prod(UnitT(), UnitT()))
    v2 = Pair(Var("x"), Pair(Var("x"), Var("x")))
    heap = Heap()
    heap.vars["x"] = VarCell(RING.literal(7), UnitVal(), UnitT())
    heap.vars["y"] = VarCell(RING.literal(2), v2, b_ty)
    ctx = demand_ctx({"x": (UnitT(), RING.literal(1)), "y": (b_ty, RING.literal(2))})
    judgment = heap_compat(heap, ctx, RING)
    assert judgment.accepted, judgment.failure


def test_compat_empty():
    assert heap_compat(Heap(), Ctx(RING), RING).accepted


def test_compat_rejects_underfunded_grade():
    heap = Heap()
    heap.vars["x"] = VarCell(NAT.literal(1), UnitVal(), UnitT())
    ctx = Ctx(NAT, {"x": GradedEntry(UnitT(), NAT.literal(3))})
    judgment = heap_compat(heap, ctx, NAT)
    assert not judgment.accepted


def test_compat_rejects_leaked_whole_reference():
    heap = Heap()
    heap.resources["id1"] = ArrRes()
    heap.refs["ref1"] = RefCell(Fraction(1), "id1")
    judgment = heap_compat(heap, Ctx(RING), RING)
    assert not judgment.accepted


def test_compat_collects_shared_reference():
    heap = Heap()
    heap.resources["id1"] = ArrRes()
    heap.refs["ref1"] = RefCell(Fraction(0), "id1")
    judgment = heap_compat(heap, Ctx(RING), RING)
    assert judgment.accepted


# An independent brute-force derivation search over the compatibility rules,
# used to cross-check the deterministic decision procedure on small cases.


def compat_oracle(heap: Heap, ctx: Ctx, ring) -> bool:
    checker = Checker(ring)
    rt = runtime_ctx(heap, ring)

    def search(vars_, refs, resources, demands, ref_demands):
        if not vars_ and not refs and not resources:
            return not demands and not ref_demands
        # try discharging a variable
        for x in list(vars_):
            grade, value = vars_[x]
            s_x = demands.get(x, ring.zero)
            if grade_residual(grade, s_x) is None:
                continue
            rest_vars = {k: v for k, v in vars_.items() if k != x}
            rest_demands = {k: v for k, v in demands.items() if k != x}
            if s_x == ring.zero:
                if search(rest_vars, refs, resources, rest_demands, ref_demands):
                    return True
                continue
            try:
                _, usage, _ = checker.synth(rt, value)
            except Exception:
                continue
            new_demands = dict(rest_demands)
            for y, gy in usage.graded.items():
                scaled = grade_mul(s_x, gy)
                new_demands[y] = grade_add(new_demands[y], scaled) if y in new_demands else scaled
            if search(rest_vars, refs, resources, new_demands, ref_demands | usage.refs):
                return True
        # discharge a demanded reference whose resource is still present
        for r in list(refs):
            perm, ident = refs[r]
            rest_refs = {k: v for k, v in refs.items() if k != r}
            if r in ref_demands and ident in resources:
                if search(vars_, rest_refs, resources, demands, ref_demands - {r}):
                    return True
            if r not in ref_demands and perm == 0:
                if search(vars_, rest_refs, resources, demands, ref_demands):
                    return True
        # garbage collect a resource
        for ident in list(resources):
            rest = {k: v for k, v in resources.items() if k != ident}
            if search(vars_, refs, rest, demands, ref_demands):
                return True
        return False

    vars_ = {x: (c.grade, c.value) for x, c in heap.vars.items()}
    refs = {r: (c.perm, c.ident) for r, c in heap.refs.items()}
    resources = dict(heap.resources)
    demands = {}
    for x, entry in ctx.vars.items():
        demands[x] = entry.grade if isinstance(entry, GradedEntry) else ring.one
    return search(vars_, refs, resources, demands, set(ctx.refs))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_compat_agrees_with_bruteforce(seed):
    rng = random.Random(seed)
    heap = Heap()
    ctx_vars = {}
    n_entries = rng.randrange(0, 5)
    prev = []
    for k in range(n_entries):
        kind = rng.choice(["var", "var", "res"])
        if kind == "var":
            x = f"v{k}"
            if prev and rng.random() < 0.4:
                value = Var(rng.choice(prev))
            else:
                value = UnitVal()
            heap.vars[x] = VarCell(RING.literal(rng.randrange(0, 4)), value, UnitT())
            prev.append(x)
            if rng.random() < 0.7:
                ctx_vars[x] = GradedEntry(UnitT(), RING.literal(rng.randrange(0, 4)))
        else:
            ident = f"id{k}"
            heap.resources[ident] = ArrRes()
            heap.refs[f"ref{k}"] = RefCell(Fraction(rng.choice([0, 1, 1])), ident)
    ctx = Ctx(RING, ctx_vars, lenient_names=True)
    mine = heap_compat(heap, ctx, RING).accepted
    brute = compat_oracle(heap, ctx, RING)
    assert mine == brute


# -- trace suites over the corpus ------------------------------------------------


@pytest.mark.parametrize("name", ACCEPTED)
def test_corpus_preservation(name):
    cp, _, trace = run(name)
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []


@pytest.mark.parametrize("name", ACCEPTED)
def test_corpus_borrow_safety_and_progress(name):
    cp, _, trace = run(name)
    assert check_borrow_safety(trace) == []
    assert check_progress(trace) == []
    assert check_uniqueness(trace, cp.main_type) == []


def test_borrow_safety_split_step():
    heap = Heap()
    heap.resources["id1"] = ArrRes()
    heap.refs["ref1"] = RefCell(Fraction(1), "id1")
    heap.counter = 1
    m = Machine(RING)
    t = Split(Uniq(RefVal("ref1"), frac_perm(1)))
    pre = heap.snapshot()
    t2, _ = m.step(heap, t, RING.one)
    assert check_borrow_safety_step(t, pre, t2, heap) == []
    post_total = sum(c.perm for c in heap.refs.values())
    assert post_total == 1


def test_borrow_safety_share_step_drops_to_zero():
    heap = Heap()
    heap.resources["id1"] = ArrRes()
    heap.refs["ref1"] = RefCell(Fraction(1), "id1")
    m = Machine(RING)
    t = parse_term("share b")  # placeholder shape
    from gradebor.syntax import Share

    t = Share(Uniq(RefVal("ref1"), STAR), RING.one)
    pre = heap.snapshot()
    t2, _ = m.step(heap, t, RING.one)
    assert check_borrow_safety_step(t, pre, t2, heap) == []
    assert heap.refs["ref1"].perm == 0


def test_borrow_safety_new_array_sum_one():
    heap = Heap()
    m = Machine(RING)
    t = App(Prim("newArray"), NatLit(1))
    pre = heap.snapshot()
    t2, _ = m.step(heap, t, RING.one)
    assert check_borrow_safety_step(t, pre, t2, heap) == []


def test_uniqueness_not_applicable_for_boxed_results():
    cp, _, trace = run("share_clone.grb")
    assert not uniqueness_applicable(parse_type("Float"))
    assert not uniqueness_applicable(parse_type("(Ref i Float) [2]"))
    assert uniqueness_applicable(parse_type("exists i . * (Ref i Float)"))


@pytest.mark.parametrize("final_refs, message", [
    ({"ref1": (1, "id1")}, None),
    ({"ref1": (Fraction(1, 2), "id1"), "ref2": (Fraction(1, 2), "id1")}, "found 0"),
    ({"ref1": (1, "id1"), "ref2": (1, "id1")}, "found 2"),
    ({}, None),  # the run deleted the resource, which then owes no reference
], ids=["kept", "halved", "doubled", "deleted"])
def test_uniqueness_keeps_a_whole_reference_of_the_start_heap_whole(final_refs, message):
    # the run starts with a whole reference to id1, which its term reaches;
    # at the end, id1 must be held by exactly one whole reference
    from gradebor.machine import Trace

    start = Heap()
    start.resources["id1"] = ArrRes()
    start.refs["ref1"] = RefCell(Fraction(1), "id1")
    final = Heap()
    if final_refs:
        final.resources["id1"] = ArrRes()
    final.refs.update({r: RefCell(Fraction(p), ident) for r, (p, ident) in final_refs.items()})
    trace = Trace(RING.one, ["none"], [(RefVal("ref1"), start), (RefVal("ref1"), final)], 1)
    found = check_uniqueness(trace, parse_type("exists i . * (Array i Float)"))
    if message is None:
        assert found == []
    else:
        assert [(v.prop, v.step, v.message) for v in found] == [
            ("uniqueness", None, f"resource id1: expected exactly one whole reference at the end, {message}")
        ]


def test_mutated_split_is_detected():
    cp, _, trace = run("persimmon.grb", mutate=True)
    assert check_borrow_safety(trace) != []


def naive_reachable_refs(term, heap):
    """The reference answer: walk the whole term and every reachable heap value."""
    from gradebor.syntax import free_vars, refs_of

    out = set(refs_of(term))
    seen = set()
    todo = list(free_vars(term))
    while todo:
        x = todo.pop()
        if x in seen or x not in heap.vars:
            continue
        seen.add(x)
        out |= refs_of(heap.vars[x].value)
        todo.extend(free_vars(heap.vars[x].value))
    return out


def naive_borrow_safety(trace):
    """The reference answer: both configurations of every step from scratch."""
    from gradebor.metatheory import Violation

    def sums(term, heap):
        out = {}
        for ref in naive_reachable_refs(term, heap):
            if ref in heap.refs:
                cell = heap.refs[ref]
                out[cell.ident] = out.get(cell.ident, Fraction(0)) + cell.perm
        return out

    found = []
    configs = trace.configurations()
    for k, ((pre_term, pre_heap), (post_term, post_heap)) in enumerate(zip(configs, configs[1:])):
        pre, post = sums(pre_term, pre_heap), sums(post_term, post_heap)
        for ident in pre_heap.resources:
            after = post.get(ident, Fraction(0))
            if pre.get(ident) == 1 and after not in (0, 1):
                found.append(Violation("borrow-safety", k, f"resource {ident}: permission total went from 1 to {after}"))
        reach = naive_reachable_refs(post_term, post_heap)
        for ident in post_heap.resources:
            touching = [r for r in reach if r in post_heap.refs and post_heap.refs[r].ident == ident]
            total = sum(post_heap.refs[r].perm for r in touching)
            if ident not in pre_heap.resources and touching and total != 1:
                found.append(Violation(
                    "borrow-safety", k,
                    f"fresh resource {ident}: referenced at total permission {total}, expected 1",
                ))
    return found


@pytest.mark.parametrize("mutate", [False, True])
def test_borrow_safety_agrees_with_naive_oracle(mutate):
    from gradebor.generator import generate_programs
    from gradebor.metatheory import _uses_resources
    from gradebor.grades import INTERVAL
    from gradebor.typecheck import check_program

    cases = [(load(name), None) for name in ACCEPTED]
    cases += [(checked(GOLDEN.chain_source(30)), None), (checked(GOLDEN.ladder_source(10)), None)]
    for prog in generate_programs(13, count=150):
        cp = check_program(prog)
        cases.append((cp, None))
        if cp.ring is not INTERVAL and not _uses_resources(cp.main_term):
            cases.append((cp, cp.ring.literal(2)))
    flagged = 0
    for cp, s in cases:
        _, trace = Machine(cp.ring, mutate_split=mutate).eval(Heap(), cp.main_term, s or cp.ring.one)
        found = check_borrow_safety(trace)
        assert found == naive_borrow_safety(trace)
        flagged += bool(found)
    assert (flagged > 0) == mutate


def _one_step_trace(pre_term, post_term, post_vars, post_refs, post_arrays=()):
    """A hand-built trace of one step: array id1 is held whole through ref1
    before it, and the step adds the heap bindings, references and arrays
    given."""
    from gradebor.machine import Trace

    heaps = []
    for extra_vars, extra_refs, extra_arrays in (({}, {}, ()), (post_vars, post_refs, post_arrays)):
        heap = Heap()
        heap.resources["id1"] = ArrRes()
        heap.resources.update((ident, ArrRes()) for ident in extra_arrays)
        heap.refs["ref1"] = RefCell(Fraction(1), "id1")
        heap.refs.update(extra_refs)
        heap.vars.update(extra_vars)
        heaps.append(heap)
    return Trace(RING.one, ["none"], [(pre_term, heaps[0]), (post_term, heaps[1])], 1)


# Each step replaces one subtree whose references or free variables change,
# or sits below a node whose data changes, so the previous root's sets must
# not be kept: the half-permission reference ref2 on id1 becomes reachable
# only through the new sets, and makes the total 3/2.
@pytest.mark.parametrize(
    "case",
    ["new free variable, same references", "new reference, same free variables", "new pack name"],
)
def test_borrow_safety_recomputes_the_sets_a_step_changed(case):
    half = {"ref2": RefCell(Fraction(1, 2), "id1")}
    held = Uniq(RefVal("ref2"), frac_perm(1, 2))
    if case == "new free variable, same references":
        pre = Pair(Uniq(RefVal("ref1"), STAR), UnitVal())
        post = Pair(pre.left, Var("y"))
        trace = _one_step_trace(pre, post, {"y": VarCell(RING.one, held, None)}, half)
    elif case == "new reference, same free variables":
        pre = Pair(Uniq(RefVal("ref1"), STAR), UnitVal())
        post = Pair(pre.left, held)
        trace = _one_step_trace(pre, post, {}, half)
    else:
        # the two pack bodies are distinct nodes with equal (empty) sets
        pre = Pair(Uniq(RefVal("ref1"), STAR), Pack("i", UnitVal()))
        post = Pair(pre.left, Pack("j", UnitVal()))
        trace = _one_step_trace(pre, post, {"j": VarCell(RING.one, held, None)}, half)
    found = check_borrow_safety(trace)
    assert [str(v) for v in found] == ["borrow-safety at step 0: resource id1: permission total went from 1 to 3/2"]
    assert found == naive_borrow_safety(trace)


@pytest.mark.parametrize("total", [Fraction(1, 2), Fraction(1)])
def test_borrow_safety_flags_a_fresh_resource_reachable_at_a_total_other_than_one(total):
    # the step allocates array id2, which the term reaches through ref2 alone
    pre = Uniq(RefVal("ref1"), STAR)
    post = Pair(pre, Uniq(RefVal("ref2"), STAR))
    trace = _one_step_trace(pre, post, {}, {"ref2": RefCell(total, "id2")}, ["id2"])
    found = check_borrow_safety(trace)
    flagged = ["borrow-safety at step 0: fresh resource id2: referenced at total permission 1/2, expected 1"]
    assert [str(v) for v in found] == ([] if total == 1 else flagged)
    assert found == naive_borrow_safety(trace)


def test_reachable_refs_follows_heap_variables():
    heap = Heap()
    heap.resources["id1"] = ArrRes()
    heap.refs["ref1"] = RefCell(Fraction(1), "id1")
    heap.vars["x"] = VarCell(RING.one, Uniq(RefVal("ref1")), None)
    assert reachable_refs(Var("x"), heap) == {"ref1"}
    assert reachable_refs(UnitVal(), heap) == set()


# -- equational laws ----------------------------------------------------------------


def seeded(perm=Fraction(1), items=None):
    heap = Heap()
    heap.resources["id1"] = ArrRes(dict(items or {0: 2.0}))
    heap.refs["ref1"] = RefCell(perm, "id1")
    heap.counter = 1
    return heap


def test_unit_law():
    owner = Uniq(RefVal("ref1"), STAR)
    rep = check_equational(WithBorrow(Abs("x", Var("x")), owner), owner, seeded(), RING)
    assert rep.equal


def test_composition_law():
    def write(idx, val):
        return Abs("w", App(App(App(Prim("writeArray"), Var("w")), NatLit(idx)), FloatLit(val)))

    owner = Uniq(RefVal("ref1"), STAR)
    f, g = write(0, 3.0), write(1, 4.0)
    lhs = WithBorrow(Abs("x", App(f, App(g, Var("x")))), owner)
    rhs = WithBorrow(f, WithBorrow(g, owner))
    rep = check_equational(lhs, rhs, seeded(), RING)
    assert rep.equal


def test_split_join_isomorphism():
    borrow = Uniq(RefVal("ref1"), frac_perm(1, 2))
    lhs = LetPair("x", "y", Split(borrow), Join(Pair(Var("x"), Var("y"))))
    rep = check_equational(lhs, borrow, seeded(Fraction(1, 2)), RING)
    assert rep.equal


def test_join_split_isomorphism():
    heap = seeded(Fraction(1, 4))
    heap.refs["ref2"] = RefCell(Fraction(1, 4), "id1")
    heap.counter = 2
    u1, u2 = Uniq(RefVal("ref1"), frac_perm(1, 4)), Uniq(RefVal("ref2"), frac_perm(1, 4))
    rep = check_equational(Split(Join(Pair(u1, u2))), Pair(u1, u2), heap, RING)
    assert rep.equal


def test_equational_distinguishes_different_writes():
    def write(idx, val):
        return Abs("w", App(App(App(Prim("writeArray"), Var("w")), NatLit(idx)), FloatLit(val)))

    owner = Uniq(RefVal("ref1"), STAR)
    rep = check_equational(WithBorrow(write(0, 1.0), owner), WithBorrow(write(0, 2.0), owner), seeded(), RING)
    assert not rep.equal


def test_readback_limits_heap_dereferences_not_tree_depth():
    deep = UnitVal()
    for _ in range(100):
        deep = Pair(deep, NatLit(1))
    assert readback(Heap(), deep)[0] == "pair"
    kind, fn = readback(Heap(), Abs("x", deep))
    assert kind == "fun" and alpha_eq(fn, Abs("x", deep))
    heap = Heap()
    heap.vars["x0"] = VarCell(RING.one, deep, None)
    for k in range(1, 70):
        heap.vars[f"x{k}"] = VarCell(RING.one, Var(f"x{k - 1}"), None)
    # 64 dereferences reach the value, 65 are one too many
    assert readback(heap, Var("x63"))[0] == "pair"
    assert close_value(heap, Var("x63")) is deep
    with pytest.raises(EvalError, match="readback recursion exceeded"):
        readback(heap, Var("x64"))
    with pytest.raises(EvalError, match="value closure recursion exceeded"):
        close_value(heap, Var("x64"))


def test_equational_suite_clean():
    suite = run_equational_suite(11, 25)
    assert suite.failures == []
    assert suite.cases == 100


def test_algebra_suite_clean():
    suite = run_algebra_suite(13, 200)
    assert suite.failures == []


def test_generated_suites_replay_pure_programs_at_grade_two():
    from gradebor.metatheory import run_generated_suites

    suites = run_generated_suites(seed=9, cases=30, size=3)
    by_name = {s.prop: s for s in suites}
    assert all(not s.failures for s in suites), [s.failures for s in suites if s.failures]
    # pure nat-instance programs run at grades 1 and 2, so the trace suites
    # see more cases than programs
    assert by_name["preservation"].cases > 30


def test_preservation_on_the_worked_example_trace():
    from gradebor.machine import VarCell
    from gradebor.syntax import Abs, App, UnitVal

    heap = Heap()
    heap.vars["y"] = VarCell(RING.literal(2), UnitVal(), UnitT())
    t = App(
        Abs("x", Pair(Var("x"), Var("y")), Prod(UnitT(), UnitT())),
        Pair(UnitVal(), Var("y")),
    )
    main_ty = Prod(Prod(UnitT(), UnitT()), UnitT())
    _, trace = Machine(RING).eval(heap, t, RING.one)
    assert check_preservation(trace, main_ty, RING, RING.one) == []
    assert check_progress(trace) == []


def test_interval_semiring_resource_program_end_to_end():
    from gradebor.typecheck import check_program

    src = (
        "#semiring interval\n"
        "main : exists i . * (Ref i (Float [0..1]));\n"
        "main = (\\rp : (exists i . * (Ref i (Float [0..2]))) ->\n"
        "          unpack <i, r0> = rp in\n"
        "          let (v1, r1) = readRef r0 in\n"
        "          pack <i, withBorrow (\\b -> let (x, y) = split b in join (x, y)) r1>\n"
        "       ) (newRef [2.25]);"
    )
    cp = check_program(parse_program(src))
    m = Machine(cp.ring)
    _, trace = m.eval(Heap(), cp.main_term, cp.ring.one)
    found = check_preservation(trace, cp.main_type, cp.ring, cp.ring.one)
    found += check_borrow_safety(trace) + check_uniqueness(trace, cp.main_type) + check_progress(trace)
    assert found == []


def test_discrete_semiring_accepts_the_exact_usage_corpus():
    from gradebor.grades import NAT
    from gradebor.typecheck import check_program

    for name in ("persimmon.grb", "amethyst.grb", "example_s3.grb", "readref_demo.grb"):
        text = (CORPUS / name).read_text()
        check_program(parse_program(text, name, NAT))


# -- the preservation typing memo ------------------------------------------------------


def oracle_preservation(trace, main_type, ring, s):
    """The reference answer: a fresh Checker, and no memo, for every configuration."""
    from gradebor.metatheory import Violation, _demand_ctx
    from gradebor.typecheck import CheckError

    found = []
    for k, (term, heap) in enumerate(trace.configurations()):
        rt = runtime_ctx(heap, ring)
        try:
            _, usage, _ = Checker(ring).synth(rt, term, main_type)
        except CheckError as e:
            found.append(Violation("preservation", k, f"re-inference failed: [{e.kind}] {e.msg}"))
            continue
        judgment = heap_compat(heap, _demand_ctx(rt, usage, s), ring)
        if not judgment.accepted:
            found.append(Violation("preservation", k, f"heap compatibility failed: {judgment.failure}"))
    return found


def preservation_against_oracle(trace, main_type, ring, s):
    """The violations of both checkers."""
    return [check(trace, main_type, ring, s) for check in (check_preservation, oracle_preservation)]


def _golden():
    import importlib.util

    spec = importlib.util.spec_from_file_location("golden", Path(__file__).resolve().parent.parent / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _golden()


def checked(source):
    from gradebor.typecheck import check_program

    return check_program(parse_program(source, "generated.grb"))


@pytest.mark.parametrize("mutate", [False, True])
def test_memoized_preservation_agrees_with_fresh_checkers(mutate):
    from gradebor.generator import generate_programs
    from gradebor.metatheory import _uses_resources
    from gradebor.grades import INTERVAL
    from gradebor.typecheck import check_program

    cases = [(load(name), None) for name in ACCEPTED]
    cases += [(checked(GOLDEN.chain_source(100)), None)]
    cases += [(checked(GOLDEN.ladder_source(rungs)), None) for rungs in (20, 40)]
    cases += [(checked(source), None) for name, (_, source) in STEPS_INSIDE.items() if name != "box"]
    for prog in generate_programs(17, count=300):
        cp = check_program(prog)
        cases.append((cp, None))
        if not mutate and cp.ring is not INTERVAL and not _uses_resources(cp.main_term):
            cases.append((cp, cp.ring.literal(2)))
    traces = []
    for cp, s in cases:
        s = s or cp.ring.one
        _, trace = Machine(cp.ring, mutate_split=mutate).eval(Heap(), cp.main_term, s)
        traces.append((trace, cp, s))
    for trace, cp, s in traces:
        memoized, oracle = preservation_against_oracle(trace, cp.main_type, cp.ring, s)
        assert memoized == oracle
    # traces that fail preservation at one write, in the term and in the heap
    for corrupt in (_corrupt_off_path_literal, _corrupt_stored_reference_type):
        cp = checked(WRITES_BESIDE_A_CELL)
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        corrupt(trace, 8)
        memoized, oracle = preservation_against_oracle(trace, cp.main_type, cp.ring, cp.ring.one)
        assert memoized == oracle and oracle


def test_memo_draws_the_fresh_names_the_oracle_draws():
    # the inner let binds y, which the heap also binds, so every
    # configuration before the let reduces renames it
    heap = Heap()
    heap.vars["y"] = VarCell(RING.one, UnitVal(), UnitT())
    inner = LetPair("a", "y", Pair(UnitVal(), UnitVal()), LetUnit(Var("a"), Var("y")), UnitT(), UnitT())
    _, trace = Machine(RING).eval(heap, LetUnit(Var("y"), inner), RING.one)
    memoized, oracle = preservation_against_oracle(trace, UnitT(), RING, RING.one)
    assert memoized == oracle == []


def test_preservation_checked_twice_on_one_trace_finds_the_same_violations():
    # the inner let's binder is renamed in every configuration before it reduces
    heap = Heap()
    heap.vars["y"] = VarCell(RING.one, UnitVal(), UnitT())
    inner = LetPair("a", "y", Pair(UnitVal(), UnitVal()), LetUnit(Var("a"), Var("y")), UnitT(), UnitT())
    _, trace = Machine(RING).eval(heap, LetUnit(Var("y"), inner), RING.one)
    for main_type in (UnitT(), NatT()):
        first = check_preservation(trace, main_type, RING, RING.one)
        assert check_preservation(trace, main_type, RING, RING.one) == first
        assert bool(first) == (main_type == NatT())


def test_memo_renames_a_binder_that_clashes_with_a_later_context():
    # stored under a context without y, then looked up under one that binds y
    t = LetPair("a", "y", Pair(UnitVal(), UnitVal()), LetUnit(Var("a"), Var("y")), UnitT(), UnitT())
    checker = _MemoChecker(RING)
    _, _, elab = checker.synth(Ctx(RING, lenient_names=True), t, UnitT())
    assert elab.right == "y"
    clash = Ctx(RING, {"y": GradedEntry(UnitT(), RING.one)}, lenient_names=True)
    _, _, elab = checker.synth(clash, t, UnitT())
    assert elab.right == "y.1"


def test_memo_tells_contexts_apart_by_free_variable_entries():
    # the same node, with x's box grade 2 and then 1: z is used twice
    t = LetBox("z", Var("x"), Pair(Var("z"), Var("z")))
    checker = _MemoChecker(RING)
    for grade, ok in ((2, True), (1, False), (2, True)):
        ctx = Ctx(RING, {"x": GradedEntry(Box(RING.literal(grade), UnitT()), RING.one)}, lenient_names=True)
        if ok:
            checker.synth(ctx, t)
        else:
            with pytest.raises(CheckError, match="GradeExceeded|declared grade"):
                checker.synth(ctx, t)


def test_memo_tells_contexts_apart_by_reference_entries():
    # the same node, with ref1 an array and then a ref cell
    t = LetUnit(UnitVal(), App(Prim("deleteArray"), Uniq(RefVal("ref1"), STAR)))
    checker = _MemoChecker(RING)
    for kind, ok in (("Array", True), ("Ref", False)):
        ctx = Ctx(RING, refs={"ref1": RefEntry(kind, "id1", FloatT())}, lenient_names=True)
        if ok:
            checker.synth(ctx, t, UnitT())
        else:
            with pytest.raises(CheckError, match="expects an array reference"):
                checker.synth(ctx, t, UnitT())


def test_memo_answers_a_check_from_the_stored_inference(monkeypatch):
    # checking a term against the type it infers agrees with inferring it
    # (tests/test_checked_random.py), so a stored inference at A answers a
    # check against A; against B != A the rule runs and fails as a fresh
    # checker does
    from gradebor import typecheck

    rule, runs = typecheck._BINDING_RULES[LetPair], []

    def counted_rule(self, ctx, t, expected):
        runs.append(expected)
        return rule(self, ctx, t, expected)

    monkeypatch.setitem(typecheck._BINDING_RULES, LetPair, counted_rule)
    t = LetPair("a", "b", Pair(UnitVal(), NatLit(1)), Pair(Var("b"), Var("a")))
    ctx = Ctx(RING, lenient_names=True)
    checker = _MemoChecker(RING)
    a, used, _ = checker.synth(ctx, t)
    assert a == Prod(NatT(), UnitT()) and runs == [None]
    assert checker.synth(ctx, t, Prod(NatT(), UnitT()))[:2] == (a, used)
    assert runs == [None]
    b = Prod(UnitT(), NatT())
    with pytest.raises(CheckError) as memoized:
        checker.synth(ctx, t, b)
    assert runs == [None, b]
    with pytest.raises(CheckError) as fresh:
        Checker(RING).synth(ctx, t, b)
    assert (memoized.value.kind, memoized.value.msg) == (fresh.value.kind, fresh.value.msg)
    # a stored check never answers an inference
    t2 = LetPair("a", "b", Pair(UnitVal(), NatLit(1)), Pair(Var("b"), Var("a")))
    checker.synth(ctx, t2, a)
    assert checker.synth(ctx, t2)[0] == a
    assert runs[-2:] == [a, None]


def test_preservation_tells_heaps_apart_by_a_variable_grade():
    # two configurations share one term; the second heap holds x at grade 0
    from gradebor.machine import Trace

    t = LetUnit(Var("x"), UnitVal())
    heaps = []
    for grade in (1, 0):
        heap = Heap()
        heap.vars["x"] = VarCell(RING.literal(grade), UnitVal(), UnitT())
        heaps.append(heap)
    trace = Trace(RING.one, ["none"], [(t, heaps[0]), (t, heaps[1])], 1)
    found = check_preservation(trace, UnitT(), RING, RING.one)
    assert [(v.step, v.message) for v in found] == [
        (1, "heap compatibility failed: variable 'x': demand 1 exceeds heap grade 0")
    ]


def test_preservation_retypes_a_hole_whose_usage_changed():
    # two configurations share the frame of a pair's right component, and
    # the second's hole reads y, which the heap holds at grade 0: the first
    # configuration's root usage does not demand y
    from gradebor.machine import Config, Frame, Trace

    heaps = []
    for _ in range(2):
        heap = Heap()
        heap.vars["y"] = VarCell(RING.zero, UnitVal(), UnitT())
        heaps.append(heap)
    frame = Frame(Pair(UnitVal(), LetUnit(UnitVal(), UnitVal())), 1, RING.one, None)
    trace = Trace(RING.one, ["none"], [Config(frame, UnitVal(), heaps[0]), Config(frame, Var("y"), heaps[1])], 1)
    found = check_preservation(trace, Prod(UnitT(), UnitT()), RING, RING.one)
    assert [(v.step, v.message) for v in found] == [
        (1, "heap compatibility failed: variable 'y': demand 1 exceeds heap grade 0")
    ]


def _corrupt_stored_grade(cell):
    return cell._replace(grade=RING.zero)


def _corrupt_stored_value(cell):
    return cell._replace(value=NatLit(3))


def _corrupt_stored_type(cell):
    return cell._replace(ty=NatT())


@pytest.mark.parametrize(
    "corrupt, failure",
    [
        (_corrupt_stored_grade, "heap compatibility failed: variable '{x}': demand 1 exceeds heap grade 0"),
        (_corrupt_stored_value, "heap compatibility failed: stored value of '{x}' has type Nat, context expects Float"),
        (_corrupt_stored_type, "re-inference failed: [Mismatch] "),
    ],
)
def test_preservation_reports_exactly_the_corrupted_step(corrupt, failure):
    # In readref_demo the let [x] node that uses the float v1 is the same
    # object in configurations 8 and 9, so a stale memo hit would skip
    # re-typing it. Corrupt v1 in configuration 9 only.
    from gradebor.syntax import free_vars

    cp, _, trace = run("readref_demo.grb")
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    k = 9
    (prev, _), (term, heap) = trace.configurations()[k - 1 : k + 1]
    assert isinstance(term.body, LetBox) and term.body is prev.body
    x = min(free_vars(term) & set(heap.vars))
    assert isinstance(heap.vars[x].ty, FloatT)
    heap.vars[x] = corrupt(heap.vars[x])
    found = check_preservation(trace, cp.main_type, cp.ring, cp.ring.one)
    assert [v.step for v in found] == [k]
    assert found[0].message.startswith(failure.format(x=x))


def test_a_200_let_chain_checks_runs_and_replays_under_a_recursion_limit_of_700():
    # the checker spends three frames per let (`synth`, `_recalled` and
    # `_let_unit`), so the chain fits with room to spare; the limit is
    # restored however the test ends
    import sys

    from gradebor.metatheory import check_trace
    from gradebor.typecheck import check_program

    prog = parse_program("main : Unit;\nmain = " + "let () = () in " * 200 + "();\n", "lets.grb")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(700)
    try:
        cp = check_program(prog)
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        found = check_trace(trace, cp.main_type, cp.ring, cp.ring.one)
    finally:
        sys.setrecursionlimit(limit)
    assert found == [] and trace.step_count == 200


# -- preservation types only the subtree a step replaced ---------------------------


def chain_trace(writes):
    cp = checked(GOLDEN.chain_source(writes))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    return cp, trace


# Four writes on an array next to a reference cell the term already holds.
WRITES_BESIDE_A_CELL = """#semiring nat-leq

main : (exists j . * (Ref j Float)) * (exists i . * (Array i Float));
main = unpack <j, r> = newRef 1.5 in
       unpack <i, a> = newArray 4 in
       (pack <j, r>, pack <i, writeArray (writeArray (writeArray (writeArray a 0 1.0) 1 2.0) 2 3.0) 3 4.0>);
"""


def _frame_of(frame, cls):
    """The innermost frame, from `frame` up, whose node is of class cls."""
    while frame is not None and type(frame.node) is not cls:
        frame = frame.parent
    return frame


def _corrupt_off_path_literal(trace, k):
    # the outermost write stores a Nat: configuration k gets a frame of its
    # own for that write, and new frames below it, while configurations
    # k - 1 and k + 1 keep the frame they share
    from gradebor.machine import Config, Frame

    frame, hole, heap = trace.configs[k]
    below = []
    while type(frame.parent.node) is not Pack:
        below.append(frame)
        frame = frame.parent
    outer = Frame(App(frame.node.fn, NatLit(3)), frame.pos, frame.grade, frame.parent)
    for f in reversed(below):
        outer = Frame(f.node, f.pos, f.grade, outer)
    trace.configs[k] = Config(outer, hole, heap)


def _corrupt_stored_reference_type(trace, k):
    # the cell the left component holds now stores a Nat: only the runtime
    # context tells configuration k apart from k - 1 there
    from gradebor.machine import RefRes

    heap = trace.configs[k].heap
    (ident,) = [i for i, res in heap.resources.items() if not res.is_array]
    heap.resources[ident] = RefRes(NatLit(3), NatT())


@pytest.mark.parametrize(
    "corrupt, failure",
    [
        (_corrupt_off_path_literal, "re-inference failed: [Mismatch] writeArray value must be a Float, got Nat"),
        (_corrupt_stored_reference_type, "re-inference failed: [Mismatch] "),
    ],
)
def test_preservation_reports_exactly_the_corrupted_step_of_a_write(corrupt, failure):
    cp = checked(WRITES_BESIDE_A_CELL)
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    k = 8
    # configurations k - 1 to k + 1 are writes below one frame, the pack's,
    # so uncorrupted, k and k + 1 reuse the judgments of the one before
    assert trace.steps[k - 2 : k + 1] == [f"congPairR/congPack/{'appR/appR/appL/' * n}writeArray" for n in (3, 2, 1)]
    packs = [_frame_of(c.frame, Pack) for c in trace.configs[k - 1 : k + 2]]
    assert packs[0] is not None and packs[0] is packs[1] is packs[2]
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    corrupt(trace, k)
    found = check_preservation(trace, cp.main_type, cp.ring, cp.ring.one)
    assert [v.step for v in found] == [k]
    assert found[0].message.startswith(failure)


# A chain of three unit lets steps inside a box, a share, a clone's
# scrutinee and a withBorrow's argument: each enclosing rule reads the
# chain only through its judgment.
UNIT_LETS = "let () = () in let () = () in let () = () in "
STEPS_INSIDE = {
    "box": (Promote, "main : Float [2];\nmain = [%s1.5];" % UNIT_LETS),
    "share": (Share, """#semiring nat-leq
main : Float;
main = unpack <i, r> = newRef 7.25 in
       (\\bx : ((Ref i Float) [1]) -> let *c = clone bx as <j> in deleteRef c) (share (%sr));
""" % UNIT_LETS),
    "clone": (Clone, """#semiring nat-leq
main : Float;
main = unpack <i, r> = newRef 7.25 in
       (\\bx : ((Ref i Float) [1]) -> let *c = clone (%sbx) as <j> in deleteRef c) (share r);
""" % UNIT_LETS),
    "withBorrow": (WithBorrow, """#semiring nat-leq
main : exists i . * (Ref i Float);
main = unpack <i, c> = newRef 2.5 in
       pack <i, withBorrow (\\b -> b) (%sc)>;
""" % UNIT_LETS),
}


@pytest.mark.parametrize("case", STEPS_INSIDE)
def test_preservation_reuses_the_judgment_of_a_box_whose_body_steps(case, monkeypatch):
    # the configurations the second and third unit-let steps produce keep
    # the enclosing node's judgment: no node of its class is typed there
    from gradebor import metatheory

    cls, source = STEPS_INSIDE[case]
    cp = checked(source)
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    lets = [k for k, step in enumerate(trace.steps) if step.endswith("unitBeta")]
    assert len(lets) == 3
    typed = [0]  # per configuration, counted until its heap check
    synth, compat = Checker.synth, metatheory.heap_compat

    def counted_synth(self, ctx, t, expected=None):
        typed[-1] += type(t) is cls
        return synth(self, ctx, t, expected)

    def counted_compat(*args):
        judgment = compat(*args)
        typed.append(0)
        return judgment

    monkeypatch.setattr(Checker, "synth", counted_synth)
    monkeypatch.setattr(metatheory, "heap_compat", counted_compat)
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    monkeypatch.undo()
    assert len(typed) == len(trace.configs) + 1
    assert typed[0] >= 1, typed  # the first configuration is typed in full
    assert [typed[k + 1] for k in lets[1:]] == [0, 0], typed
    memoized, oracle = preservation_against_oracle(trace, cp.main_type, cp.ring, cp.ring.one)
    assert memoized == oracle == []


def test_preservation_retypes_a_beta_redex_whose_function_stepped_to_an_abstraction():
    # two configurations share the frame of an application's function; the
    # first holds a let around an abstraction, which the generic rule types
    # as Unit -o Unit [1], a fit for Unit [2]; the second holds the
    # abstraction itself, whose beta rule checks the box at grade 2, more
    # than the heap's x
    from gradebor.machine import Config, Frame, Trace

    heaps = []
    for _ in range(2):
        heap = Heap()
        heap.vars["x"] = VarCell(RING.one, UnitVal(), UnitT())
        heaps.append(heap)
    fn = Abs("w", LetUnit(Var("w"), Promote(Var("x"), RING.one)), UnitT())
    hole = LetUnit(UnitVal(), fn)
    frame = Frame(App(hole, UnitVal()), 0, RING.one, None)
    trace = Trace(RING.one, ["none"], [Config(frame, hole, heaps[0]), Config(frame, fn, heaps[1])], 1)
    found = check_preservation(trace, Box(RING.literal(2), UnitT()), RING, RING.one)
    assert [(v.step, v.message) for v in found] == [
        (1, "heap compatibility failed: variable 'x': demand 2 exceeds heap grade 1")
    ]


@pytest.mark.parametrize("gone", ["ref", "var"])
def test_preservation_checks_a_context_that_reads_a_name_the_step_freed(gone):
    # two configurations share the frame of a pair's left component; its
    # right component reads ref1 (or x), which the second heap no longer
    # holds, as a machine that freed a resource or dropped a binding too
    # early would leave it
    from gradebor.machine import Config, Frame, Trace
    from gradebor.syntax import ResT

    heaps = []
    for keep in (True, False):
        heap = Heap()
        if keep and gone == "ref":
            heap.resources["id1"] = ArrRes()
            heap.refs["ref1"] = RefCell(Fraction(1), "id1")
        if keep and gone == "var":
            heap.vars["x"] = VarCell(RING.one, UnitVal(), UnitT())
        heaps.append(heap)
    right, right_type = (RefVal("ref1"), ResT("Array", "id1", FloatT())) if gone == "ref" else (Var("x"), UnitT())
    hole = LetUnit(UnitVal(), UnitVal())
    frame = Frame(Pair(hole, right), 0, RING.one, None)
    trace = Trace(RING.one, ["none"], [Config(frame, hole, heaps[0]), Config(frame, UnitVal(), heaps[1])], 1)
    memoized, oracle = preservation_against_oracle(trace, Prod(UnitT(), right_type), RING, RING.one)
    assert memoized == oracle
    assert [v.step for v in oracle] == [1] and "re-inference failed" in oracle[0].message


def test_preservation_work_on_a_write_chain_grows_linearly(monkeypatch):
    # counted calls, not time: how many configurations are typed from their
    # root, how many primitive applications are typed in all, and how many
    # links are tested for transparency
    from gradebor import metatheory

    counts = {}
    for writes in (50, 100):
        cp, trace = chain_trace(writes)
        calls = {"root": 0, "prim": 0, "transparent": 0}
        synth, prim_app, transparent = Checker.synth, Checker._prim_app, metatheory.transparent_child
        depth = [0]

        def counted_synth(self, ctx, t, expected=None):
            # a check of a whole configuration is the outermost one, against
            # the main type
            calls["root"] += depth[0] == 0 and expected is cp.main_type
            depth[0] += 1
            try:
                return synth(self, ctx, t, expected)
            finally:
                depth[0] -= 1

        def counted_prim_app(self, *args):
            calls["prim"] += 1
            return prim_app(self, *args)

        def counted_transparent(*args):
            calls["transparent"] += 1
            return transparent(*args)

        with monkeypatch.context() as m:
            m.setattr(Checker, "synth", counted_synth)
            m.setattr(Checker, "_prim_app", counted_prim_app)
            m.setattr(metatheory, "transparent_child", counted_transparent)
            assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
        counts[writes] = calls
    assert 1 <= counts[50]["root"] <= 4 and 1 <= counts[100]["root"] <= 4, counts
    assert counts[100]["prim"] <= 2.2 * counts[50]["prim"], counts
    assert counts[100]["transparent"] <= 2.2 * counts[50]["transparent"], counts


def test_preservation_work_on_a_split_ladder_grows_linearly(monkeypatch):
    # counted calls, not time: how many configurations or top frames are
    # typed from their root, and how many nodes are typed in all
    counts = {}
    for rungs in (20, 40):
        cp = checked(GOLDEN.ladder_source(rungs))
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        calls = {"root": 0, "typed": 0}
        synth = Checker.synth
        depth = [0]

        def counted_synth(self, ctx, t, expected=None):
            calls["root"] += depth[0] == 0 and expected is cp.main_type
            calls["typed"] += 1
            depth[0] += 1
            try:
                return synth(self, ctx, t, expected)
            finally:
                depth[0] -= 1

        with monkeypatch.context() as m:
            m.setattr(Checker, "synth", counted_synth)
            assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
        counts[rungs] = calls
    assert 1 <= counts[20]["root"] <= 4 and 1 <= counts[40]["root"] <= 4, counts
    assert counts[40]["typed"] <= 2.2 * counts[20]["typed"], counts


def test_preservation_judges_the_frames_a_search_pushed_where_it_pushed_them(monkeypatch):
    # configuration k judges the frames that the search for step k's redex
    # pushed into its hole, so configuration k + 1, which holds them, types
    # only its contractum. Split where the last contractum was put instead,
    # an N-write chain makes 3N + 1 primitive typings and the 20-rung ladder
    # 1360 `synth` calls
    prims = {}
    for writes in (50, 100):
        cp, trace = chain_trace(writes)
        calls = [0]
        prim_app = Checker._prim_app

        def counted_prim_app(self, *args):
            calls[0] += 1
            return prim_app(self, *args)

        with monkeypatch.context() as m:
            m.setattr(Checker, "_prim_app", counted_prim_app)
            assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
        prims[writes] = calls[0]
    assert all(prims[n] <= 2 * n + 1 for n in prims), prims
    cp = checked(GOLDEN.ladder_source(20))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    typed = [0]
    synth = Checker.synth

    def counted_synth(self, ctx, t, expected=None):
        typed[0] += 1
        return synth(self, ctx, t, expected)

    monkeypatch.setattr(Checker, "synth", counted_synth)
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    assert typed[0] <= 1200, typed


def test_preservation_splits_a_configuration_only_on_its_own_term():
    # configuration 1's frame describes a well-typed pair, but its node is
    # not the object in configuration 0's hole, whose pair holds a Nat: the
    # frame must not stand in for configuration 0's own term
    from gradebor.machine import Config, Frame, Trace

    ill = Pair(LetUnit(UnitVal(), UnitVal()), NatLit(3))
    top = Frame(Pair(ill, UnitVal()), 0, RING.one, None)
    pushed = Frame(Pair(LetUnit(UnitVal(), UnitVal()), UnitVal()), 0, RING.one, top)
    assert pushed.node is not ill
    trace = Trace(RING.one, ["unitBeta"], [Config(top, ill, Heap()), Config(pushed, UnitVal(), Heap())], 1)
    memoized, oracle = preservation_against_oracle(trace, Prod(Prod(UnitT(), UnitT()), UnitT()), RING, RING.one)
    assert memoized == oracle
    assert [v.step for v in oracle] == [0] and oracle[0].message.startswith("re-inference failed: [Mismatch]")


def test_preservation_checks_the_ladder_body_from_its_inference(monkeypatch):
    # the ladder infers its body at existentialBeta and checks it against
    # that type after withBorrowBeta: the stored inference answers the
    # check, so that configuration types only a few nodes, not the body
    from gradebor import metatheory

    cp = checked(GOLDEN.ladder_source(20))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    k = trace.leaves.index("withBorrowBeta") + 1
    calls = []  # synth calls per configuration, each of which gets one runtime context
    runtime_ctx, synth = metatheory.runtime_ctx, Checker.synth

    def counted_runtime_ctx(heap, ring):
        calls.append(0)
        return runtime_ctx(heap, ring)

    def counted_synth(self, ctx, t, expected=None):
        calls[-1] += 1
        return synth(self, ctx, t, expected)

    monkeypatch.setattr(metatheory, "runtime_ctx", counted_runtime_ctx)
    monkeypatch.setattr(Checker, "synth", counted_synth)
    assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    assert len(calls) == len(trace.configs)
    assert calls[k] <= 20, calls[:k + 1]


def test_preservation_infers_each_judged_hole_once(monkeypatch):
    # a frame judgment that infers the term in its hole hands that inference
    # to the configuration's usage, which would otherwise infer it again
    from gradebor import metatheory

    cp = checked(GOLDEN.ladder_source(20))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    judge, root_usage, synth = metatheory._judge, metatheory._root_usage, Checker.synth
    holes, inferences = [], []  # the hole judged in this configuration; its inferences per judgment

    def recorded_judge(checker, judged, frame, hole, rt):
        holes.append(hole)
        return judge(checker, judged, frame, hole, rt)

    def recorded_root_usage(checker, judged, config, rt):
        holes.clear()
        inferences.append(0)
        try:
            return root_usage(checker, judged, config, rt)
        finally:
            if not holes:
                inferences.pop()

    def counted_synth(self, ctx, t, expected=None):
        if holes and t is holes[0] and expected is None:
            inferences[-1] += 1
        return synth(self, ctx, t, expected)

    with monkeypatch.context() as m:
        m.setattr(metatheory, "_judge", recorded_judge)
        m.setattr(metatheory, "_root_usage", recorded_root_usage)
        m.setattr(Checker, "synth", counted_synth)
        assert check_preservation(trace, cp.main_type, cp.ring, cp.ring.one) == []
    assert len(inferences) >= 20 and max(inferences) == 1, inferences


def test_a_heap_variable_keeps_the_type_it_was_bound_at():
    # preservation keeps a frame's judgment while the variables it reads
    # keep their types
    from gradebor.generator import generate_programs
    from gradebor.typecheck import check_program

    programs = [load(name) for name in ACCEPTED]
    programs += [checked(GOLDEN.chain_source(100)), checked(GOLDEN.ladder_source(20))]
    programs += [check_program(prog) for prog in generate_programs(17, count=300)]
    bound = 0
    for cp in programs:
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        types = {}
        for config in trace.configs:
            for x, cell in config.heap.vars.items():
                assert types.setdefault(x, cell.ty) == cell.ty, (x, types[x], cell.ty)
        bound += len(types)
    assert bound > 1000


def test_preservation_types_a_primitive_spine_by_its_own_rule():
    # swapRef's spine needs the new value at the payload's type exactly; a
    # generic application would accept the box at a smaller grade
    from gradebor.machine import RefRes

    heap = Heap()
    payload = Box(RING.literal(2), FloatT())
    heap.resources["id1"] = RefRes(Promote(FloatLit(1.5), RING.literal(2)), payload)
    heap.refs["ref1"] = RefCell(Fraction(1), "id1")
    heap.counter = 1
    ref = LetUnit(UnitVal(), Uniq(RefVal("ref1"), STAR))
    term = App(App(Prim("swapRef"), ref), Promote(FloatLit(2.5), RING.one))
    _, trace = Machine(RING).eval(heap, term, RING.one)
    main_type = Prod(payload, parse_type("* (Ref id1 (Float [2]))"))
    memoized, oracle = preservation_against_oracle(trace, main_type, RING, RING.one)
    assert memoized == oracle
    assert oracle[0].step == 0 and "swapRef value must have type" in oracle[0].message


def test_borrow_safety_work_on_a_write_chain_grows_linearly(monkeypatch):
    # counted calls, not time, of the two set walks, recursive calls
    # included; at most 100 writes, as the counting wrapper doubles the
    # walks' stack frames
    from gradebor import syntax

    counts = {}
    for writes in (50, 100):
        _, trace = chain_trace(writes)
        calls = [0]

        def counted(walk):
            def walk_counted(t):
                calls[0] += 1
                return walk(t)

            return walk_counted

        with monkeypatch.context() as m:
            m.setattr(syntax, "refs_of", counted(syntax.refs_of))
            m.setattr(syntax, "free_vars", counted(syntax.free_vars))
            assert check_borrow_safety(trace) == []
        counts[writes] = calls[0]
    assert counts[100] <= 2.2 * counts[50], counts
