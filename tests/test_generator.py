import hashlib
import random

import pytest

from gradebor import generator
from gradebor.generator import constructors_used, generate_program, generate_programs
from gradebor.grades import SEMIRINGS
from gradebor.machine import Heap, Machine
from gradebor.parser import Parser, parse_type, print_program, print_type
from gradebor.typecheck import check_program

EXPECTED_TAGS = {
    "Var", "Abs", "App", "Pair", "LetPair", "UnitVal", "LetUnit", "Promote",
    "LetBox", "Pack", "Unpack", "WithBorrow", "Split", "Join", "Push", "Pull",
    "Share", "Clone", "NatLit", "FloatLit",
    "Prim:newArray", "Prim:readArray", "Prim:writeArray", "Prim:deleteArray",
    "Prim:newRef", "Prim:readRef", "Prim:swapRef", "Prim:deleteRef",
}


def test_small_sizes_are_pure():
    for seed in range(30):
        prog = generate_program(random.Random(seed), 3)
        tags = set()
        for d in prog.definitions:
            tags |= constructors_used(d.body)
        assert not any(t.startswith("Prim:") for t in tags)


def test_every_generated_program_typechecks():
    rng = random.Random(2024)
    for _ in range(400):
        prog = generate_program(rng, rng.choice([2, 3, 6, 6, 8]))
        check_program(prog)  # raises on rejection


def test_every_generated_program_runs_to_a_value():
    rng = random.Random(7)
    for _ in range(150):
        prog = generate_program(rng, 6)
        cp = check_program(prog)
        v, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        from gradebor.syntax import is_value

        assert is_value(v)


def test_constructor_coverage_over_1000_programs():
    seen = set()
    for prog in generate_programs(seed=0, size=7, count=1000):
        for d in prog.definitions:
            seen |= constructors_used(d.body)
    missing = EXPECTED_TAGS - seen
    assert not missing, f"constructors never generated: {sorted(missing)}"


def test_stream_is_deterministic_per_seed():
    a = [p for p in generate_programs(seed=5, size=6, count=10)]
    b = [p for p in generate_programs(seed=5, size=6, count=10)]
    for pa, pb in zip(a, b):
        assert [d.name for d in pa.definitions] == [d.name for d in pb.definitions]
        assert print_program(pa) == print_program(pb)
        assert pa.semiring is pb.semiring


def test_generation_parses_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generator parsed a source text")

    monkeypatch.setattr(Parser, "__init__", refuse)
    rng = random.Random(11)
    for size in (6, 3):
        for _ in range(300):
            generate_program(rng, size)


@pytest.mark.parametrize("name", sorted(n for n in vars(generator) if n.endswith("_SIG")))
def test_each_shared_signature_parses_alike_in_every_ring(name):
    sig = getattr(generator, name)
    for ring in SEMIRINGS.values():
        assert parse_type(print_type(sig), ring) == sig


def test_generated_stream_is_pinned():
    """Any change to the random draws, or to what a template builds from
    them, changes this digest."""
    rng = random.Random(42)
    digest = hashlib.sha256()
    for i in range(500):
        digest.update(print_program(generate_program(rng, 6 if i % 4 else 3)).encode())
    assert digest.hexdigest() == "31f3ef32edf4ee766b26f93dc6045db7d9e9afed04999725ab39b1881596668d"
