import copy
import pickle
import random
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradebor.grades import INTERVAL, NAT, NAT_LEQ, STAR, frac_perm
from gradebor.parser import (
    KEYWORDS, SYMBOLS, Parser, SyntaxError_, _read_pragma, parse_program, parse_term,
    parse_type, print_program, print_term, print_type,
)
from gradebor import syntax
from gradebor.syntax import (
    Abs, Amp, App, Box, Clone, ExistsT, FloatLit, FloatT, Forall, Fun, Join,
    LetBox, LetPair, LetUnit, NameT, NatLit, NatT, Loc, Pack, Pair, PermVar,
    PRIMITIVES, Prim, Prod, Promote, Pull, Push, RefVal, ResT, Share, Split,
    Term, Type, Unborrow, Uniq, UnitT, UnitVal, Unpack, Var, WithBorrow, alpha_eq,
)

from test_syntax import random_user_term


def test_minimal_program():
    prog = parse_program("main : Unit -o Unit; main = \\u -> u;")
    assert prog.main.name == "main"
    assert prog.main.signature == Fun(UnitT(), UnitT())


def test_persimmon_listing_parses_to_borrow_forms():
    body = parse_term(r"\c -> withBorrow (\b -> let (x, y) = split b in join (observe x, y)) c")
    assert isinstance(body, Abs)
    wb = body.body
    assert isinstance(wb, WithBorrow)
    inner = wb.fn.body
    assert isinstance(inner, LetPair)
    assert isinstance(inner.rhs, Split)
    assert isinstance(inner.body, Join)


def test_unclosed_bracket_is_a_syntax_error():
    with pytest.raises(SyntaxError_) as exc:
        parse_term("let [x = t")
    assert exc.value.loc is not None


def test_pragma_selects_semiring():
    assert parse_program("#semiring nat\nmain : Unit; main = ();").semiring is NAT
    assert parse_program("#semiring interval\nmain : Unit; main = ();").semiring is INTERVAL
    assert parse_program("main : Unit; main = ();").semiring is NAT_LEQ
    with pytest.raises(SyntaxError_):
        parse_program("#semiring lattice\nmain : Unit; main = ();")
    # after blank, indented and comment lines, itself indented
    source = "\n   \n-- header\n  -- indented comment\n\t#semiring  interval \nmain : Unit; main = ();"
    assert parse_program(source).semiring is INTERVAL


def test_a_comment_after_the_semiring_name_is_a_comment():
    prog = parse_program("#semiring nat -- exact counting\nmain : Unit; main = ();")
    assert prog.semiring is NAT
    assert parse_program("#semiring interval--bounds\nmain : Unit; main = ();").semiring is INTERVAL


def test_pragma_with_crlf_line_ends():
    source = "-- header\r\n#semiring nat\r\nmain : Unit;\r\nmain = ();\r\n"
    prog = parse_program(source)
    assert prog.semiring is NAT
    assert prog.main.loc == Loc(3, 1) and prog.main.body.loc == Loc(4, 8)


def test_unknown_semiring_is_reported_at_its_line():
    with pytest.raises(SyntaxError_) as exc:
        parse_program("-- header\n\n  #semiring lattice -- none such\nmain : Unit; main = ();")
    assert str(exc.value) == "3:1: unknown semiring 'lattice'"


def test_a_pragma_after_a_definition_is_a_stray_character():
    with pytest.raises(SyntaxError_) as exc:
        parse_program("main : Unit;\nmain = ();\n  #semiring nat\n")
    assert str(exc.value) == "3:3: unexpected character '#'"


def test_a_form_feed_before_the_pragma_line_is_a_stray_character():
    # the pragma's own line is not lexed, but the lines before it are
    assert parse_program("\x0c#semiring nat\nmain : Unit; main = ();").semiring is NAT
    with pytest.raises(SyntaxError_) as exc:
        parse_program("-- c\n \x0c\n#semiring nat\nmain : Unit; main = ();")
    assert str(exc.value) == "2:2: unexpected character '\\x0c'"


def test_tokens_after_the_pragma_keep_their_lines_and_columns():
    body = "main : Unit;\n  main = -- c\n (x, 2.5);\n"
    source = "-- c\n#semiring nat -- c\n" + body
    ring, start = _read_pragma(source)
    without = parsed_tokens("-- c\n\n" + body)
    assert ring is NAT and parsed_tokens(source, start) == without
    assert without[:3] == [("ident", "main", 3, 1), ("symbol", ":", 3, 6), ("keyword", "Unit", 3, 8)]
    assert without[-2:] == [("symbol", ";", 5, 10), ("eof", "", 6, 1)]
    prog = parse_program("-- c\n#semiring nat -- c\n" + body.replace("(x, 2.5)", "()"))
    assert prog.main.loc == Loc(3, 1) and prog.main.body.loc == Loc(5, 2)


def test_a_lexical_error_is_reported_before_a_parse_error():
    with pytest.raises(SyntaxError_) as exc:
        parse_program("main : Unit;\nmain = ( ;\n#\n")
    assert str(exc.value) == "3:1: unexpected character '#'"
    with pytest.raises(SyntaxError_) as exc:
        parse_program("main : Unit;\nmain = ( ; -- # is commented out\n")
    assert str(exc.value) == "2:10: expected a term, found ';'"


def test_locations_are_immutable_values():
    loc = Loc(3, 7)
    assert loc == Loc(3, 7) and hash(loc) == hash(Loc(3, 7)) and loc != Loc(7, 3)
    assert loc != (3, 7) and len({loc, Loc(3, 7), Loc(3, 8)}) == 2
    assert str(loc) == "3:7" and repr(loc) == "Loc(line=3, col=7)"
    with pytest.raises(FrozenInstanceError):
        loc.line = 4
    with pytest.raises(AttributeError):
        loc.file = "x.grb"
    assert copy.deepcopy(loc) == loc and pickle.loads(pickle.dumps(loc)) == loc


def test_type_syntax():
    assert parse_type("Unit [2]") == Box(NAT_LEQ.literal(2), UnitT())
    assert parse_type("& 1/2 Nat") == Amp(frac_perm(1, 2), NatT())
    assert parse_type("* Float") == Amp(STAR, FloatT())
    assert parse_type("Array i Float") == ResT("Array", "i", FloatT())
    assert parse_type("exists i . * (Ref i Float)") == ExistsT("i", Amp(STAR, ResT("Ref", "i", FloatT())))
    assert parse_type("A -o B * C") == Fun(parse_type("A"), Prod(parse_type("B"), parse_type("C")))
    got = parse_type("forall {p : Permission} . & p Nat -o & p Nat")
    assert isinstance(got, Forall) and got.binders == (("p", "Permission"),)
    assert got.body == Fun(Amp(PermVar("p"), NatT()), Amp(PermVar("p"), NatT()))


@pytest.mark.parametrize("src, col", [
    ("f : forall {i : Name} . forall {p : Permission} . & p Unit; f = ();", 25),
    ("f : Unit -o forall {i : Name} . Unit; f = ();", 13),
    ("f : (forall {i : Name} . Unit) [2]; f = ();", 6),
    ("f : Unit -o Unit; f = \\x : (forall {i : Name} . Unit) -> x;", 29),
    ("f : Unit; f = let [x] : forall {i : Name} . Unit [1] = [()] in x;", 25),
])
def test_a_quantifier_only_begins_a_signature(src, col):
    with pytest.raises(SyntaxError_) as exc:
        parse_program(src + "\nmain : Unit; main = ();")
    assert (exc.value.msg, exc.value.loc.line, exc.value.loc.col) == (
        "a quantifier may only begin a definition's signature", 1, col,
    )


def test_interval_grades_parse():
    assert parse_type("Unit [0..1]", INTERVAL) == Box(INTERVAL.literal(0, 1), UnitT())
    with pytest.raises(Exception):
        parse_type("Unit [0..1]", NAT_LEQ)


def test_print_examples():
    assert print_term(Promote(UnitVal())) == "[()]"
    assert print_type(Amp(frac_perm(1, 2), NatT())) == "& 1/2 Nat"
    assert print_type(Amp(STAR, parse_type("A"))) == "* A"
    assert print_term(Uniq(Var("t"))) == "*t"
    assert print_term(Unborrow(Var("t"))) == "unborrow t"
    assert print_term(RefVal("ref3")) == "#ref3"


# ---------------------------------------------------------------------------
# Exact printer output: each node class, in a context that parenthesizes it
# and in one that does not

F, A = Var("f"), Var("a")
FA = App(F, A)
NAT_ARROW = Fun(NatT(), NatT())
REF = ResT("Ref", "i", FloatT())

TYPE_CASES = [
    (Fun(NatT(), Fun(UnitT(), FloatT())), 0, "Nat -o Unit -o Float"),
    (Fun(NAT_ARROW, NatT()), 1, "((Nat -o Nat) -o Nat)"),
    (Prod(Prod(NatT(), UnitT()), NatT()), 1, "(Nat * Unit) * Nat"),
    (Prod(NatT(), NatT()), 2, "(Nat * Nat)"),
    (UnitT(), 3, "Unit"),
    (NatT(), 3, "Nat"),
    (FloatT(), 3, "Float"),
    (Box(NAT_LEQ.literal(2), NAT_ARROW), 2, "(Nat -o Nat) [2]"),
    (Box(INTERVAL.literal(1, 3), NatT()), 3, "(Nat [1..3])"),
    (Amp(STAR, REF), 2, "* Ref i Float"),
    (Amp(frac_perm(1, 2), NatT()), 3, "(& 1/2 Nat)"),
    (Amp(PermVar("p"), Prod(NatT(), NatT())), 2, "& p (Nat * Nat)"),
    (ExistsT("i", Amp(STAR, ResT("Array", "i", FloatT()))), 2, "exists i . * Array i Float"),
    (ExistsT("i", NatT()), 3, "(exists i . Nat)"),
    (ResT("Ref", "i", NAT_ARROW), 2, "Ref i (Nat -o Nat)"),
    (REF, 3, "(Ref i Float)"),
    (NameT("i"), 3, "i"),
    (Forall((("p", "Permission"), ("i", "Name")), Fun(Amp(PermVar("p"), REF), NatT())), 0,
     "forall {p : Permission, i : Name} . & p Ref i Float -o Nat"),
    (Forall((("i", "Name"),), Fun(NatT(), NatT())), 0, "forall {i : Name} . Nat -o Nat"),
]

TERM_CASES = [
    (Var("x"), 2, "x"),
    (Prim("writeArray"), 2, "writeArray"),
    (NatLit(3), 2, "3"),
    (FloatLit(2.0), 2, "2.0"),
    (FloatLit(1e-05), 2, "1e-05"),
    (FloatLit(1.5), 2, "1.5"),
    (UnitVal(), 2, "()"),
    (RefVal("ref3"), 2, "#ref3"),
    (Abs("x", FA), 0, "\\x -> f a"),
    (Abs("x", Var("x"), NAT_ARROW), 1, "(\\x : (Nat -o Nat) -> x)"),
    (Abs("x", Var("x"), Amp(STAR, NatT())), 0, "\\x : * Nat -> x"),
    (App(FA, FA), 1, "f a (f a)"),
    (App(Abs("x", Var("x")), A), 2, "((\\x -> x) a)"),
    (Pair(FA, Abs("x", Var("x"))), 2, "(f a, \\x -> x)"),
    (LetPair("x", "y", FA, Pair(Var("y"), Var("x"))), 0, "let (x, y) = f a in (y, x)"),
    (LetPair("x", "y", Abs("z", Var("z")), Var("x")), 1, "(let (x, y) = (\\z -> z) in x)"),
    (LetUnit(FA, UnitVal()), 0, "let () = f a in ()"),
    (LetUnit(Var("u"), UnitVal()), 1, "(let () = u in ())"),
    (Promote(FA), 2, "[f a]"),
    (LetBox("x", FA, Var("x"), Box(NAT_LEQ.literal(2), NatT())), 0, "let [x] : (Nat [2]) = f a in x"),
    (LetBox("x", Var("b"), Var("x")), 1, "(let [x] = b in x)"),
    (Pack("i", FA), 1, "pack <i, f a>"),
    (Pack("i", A), 2, "(pack <i, a>)"),
    (Unpack("i", "x", App(Prim("newArray"), NatLit(4)), Var("x")), 0, "unpack <i, x> = newArray 4 in x"),
    (Unpack("i", "x", Var("r"), Var("x")), 1, "(unpack <i, x> = r in x)"),
    (WithBorrow(Abs("b", Var("b")), Var("c")), 1, "withBorrow (\\b -> b) c"),
    (WithBorrow(F, FA), 2, "(withBorrow f (f a))"),
    (Split(Var("b")), 1, "split b"),
    (Split(FA), 2, "(split (f a))"),
    (Join(Pair(Var("x"), Var("y"))), 1, "join (x, y)"),
    (Join(Var("p")), 2, "(join p)"),
    (Push(FA), 1, "push (f a)"),
    (Push(A), 2, "(push a)"),
    (Pull(A), 1, "pull a"),
    (Pull(FA), 2, "(pull (f a))"),
    (Share(A), 1, "share a"),
    (Share(Uniq(A)), 2, "(share (*a))"),
    (Clone("x", ("id1", "id2"), FA, Var("x")), 0, "let *x = clone (f a) as <id1, id2> in x"),
    (Clone("x", ("id1",), A, Var("x")), 1, "(let *x = clone a as <id1> in x)"),
    (Uniq(RefVal("ref1")), 1, "*#ref1"),
    (Uniq(FA), 2, "(*(f a))"),
    (Unborrow(Var("t")), 1, "unborrow t"),
    (Unborrow(FA), 2, "(unborrow (f a))"),
]


@pytest.mark.parametrize("ty, prec, expected", TYPE_CASES)
def test_print_type_exact(ty, prec, expected):
    assert print_type(ty, prec) == expected


@pytest.mark.parametrize("t, prec, expected", TERM_CASES)
def test_print_term_exact(t, prec, expected):
    assert print_term(t, prec) == expected


def test_exact_cases_cover_every_node_class():
    def node_classes(base):
        return {c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, base) and c is not base}

    assert {type(ty) for ty, _, _ in TYPE_CASES} == node_classes(Type) and len(node_classes(Type)) == 11
    assert {type(t) for t, _, _ in TERM_CASES} == node_classes(Term) and len(node_classes(Term)) == 24


def test_printers_take_one_frame_per_level():
    # 800 levels under the default recursion limit of 1000
    depth = 800
    spine = F
    for _ in range(depth):
        spine = App(spine, A)
    assert print_term(spine) == "f" + " a" * depth
    nest = RefVal("r")
    for _ in range(depth):
        nest = Uniq(nest)
    assert print_term(nest) == "*(" * (depth - 1) + "*#r" + ")" * (depth - 1)
    chain = NatT()
    for _ in range(depth):
        chain = Fun(UnitT(), chain)
    assert print_type(chain) == "Unit -o " * depth + "Nat"


def test_unknown_node_classes_are_unprintable():
    class Hole(Term):
        loc = None

    class Blank(Type):
        pass

    with pytest.raises(ValueError, match="^unprintable term Hole$"):
        print_term(Hole())
    with pytest.raises(ValueError, match="^unprintable type Blank$"):
        print_type(Blank())


def test_parser_never_produces_runtime_forms():
    with pytest.raises(SyntaxError_):
        parse_term("#ref1")
    # `unborrow` is not surface syntax: it reads as an ordinary variable
    t = parse_term("unborrow t")
    assert alpha_eq(t, App(Var("unborrow"), Var("t")))
    assert not isinstance(t, Unborrow)


def test_comments_and_whitespace():
    prog = parse_program("-- a comment\nmain : Unit; -- trailing\nmain = ();\n")
    assert alpha_eq(prog.main.body, UnitVal())


@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_random_terms(seed):
    rng = random.Random(seed)
    t = random_user_term(rng, 4)
    assert alpha_eq(parse_term(print_term(t)), t)


def test_roundtrip_annotated_forms():
    src = r"let [x] : (Unit [2]) = [()] in (x, x)"
    assert alpha_eq(parse_term(print_term(parse_term(src))), parse_term(src))
    src = r"\x : & 1 (Ref i Float) -> x"
    assert alpha_eq(parse_term(print_term(parse_term(src))), parse_term(src))
    src = r"let *c = clone b as <j, k> in (c, c)"
    assert alpha_eq(parse_term(print_term(parse_term(src))), parse_term(src))


def test_program_print_roundtrip():
    src = """#semiring nat
observe : forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float);
observe = \\x -> x;
main : Unit;
main = let () = () in ();
"""
    prog = parse_program(src)
    again = parse_program(print_program(prog))
    assert again.semiring is prog.semiring
    assert [d.name for d in again.definitions] == [d.name for d in prog.definitions]
    for a, b in zip(again.definitions, prog.definitions):
        assert a.signature == b.signature
        assert alpha_eq(a.body, b.body)


def parsed_tokens(source, start=0):
    """The tokens the parser reads from `source` from offset `start`, up to
    its first eof, as (kind, text, line, col) tuples; the parser can step
    past that eof to a second one at the same place."""
    p = Parser(source, NAT_LEQ, start)
    end = p.kinds.index("eof") + 1
    assert p.kinds[end:] == ["eof"] and p.texts[end:] == [""] and p.loc(end) == p.loc(end - 1)
    return [(p.kinds[i], p.texts[i], p.loc(i).line, p.loc(i).col) for i in range(end)]


def test_eof_after_a_trailing_comment_is_past_it():
    assert parsed_tokens("x -- note")[-1] == ("eof", "", 1, 10)
    with pytest.raises(SyntaxError_) as exc:
        parse_term("(x -- note")
    assert str(exc.value) == "1:11: expected ')', found ''"


def test_numerals_are_decimal_digits_of_any_script():
    assert alpha_eq(parse_term("٣٤"), parse_term("34"))
    with pytest.raises(SyntaxError_) as exc:
        parse_term("f 1²")
    assert str(exc.value) == "1:4: unexpected character '²'"


def test_out_of_range_literals_are_syntax_errors():
    for source, ring, message in (
        ("& 1/0 Nat", NAT_LEQ, "1:3: permission 1/0 is not a fraction in (0, 1]"),
        ("& 3/2 Nat", NAT_LEQ, "1:3: permission 3/2 is not a fraction in (0, 1]"),
        ("Unit [2..1]", INTERVAL, "1:7: malformed interval 2..1"),
        ("Unit [0..1]", NAT_LEQ, "1:7: interval literal 0..1 not valid in semiring nat-leq"),
    ):
        with pytest.raises(SyntaxError_) as exc:
            parse_type(source, ring)
        assert str(exc.value) == message


_INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not _INT_MAX_STR_DIGITS, reason="this interpreter converts numerals of any length"
)
def test_numeral_over_the_int_digit_limit_is_a_syntax_error():
    digits = _INT_MAX_STR_DIGITS + 1
    with pytest.raises(SyntaxError_) as exc:
        parse_type("Unit [" + "9" * digits + "]", NAT_LEQ)
    assert str(exc.value) == f"1:7: numeral too long ({digits} digits)"


def test_nesting_depth_is_a_syntax_error():
    deep = "(" * 1000 + "()" + ")" * 1000
    for parse in (parse_term, lambda text: parse_type(text.replace("()", "Unit"))):
        with pytest.raises(SyntaxError_) as exc:
            parse(deep)
        assert exc.value.msg == "expression nested too deeply"
        assert exc.value.loc.line == 1 and 1 < exc.value.loc.col < 1000
    with pytest.raises(SyntaxError_, match="nested too deeply"):
        parse_program(f"main : Unit;\nmain = {deep};\n")


def test_a_200_write_chain_parses():
    body = "a"
    for k in range(200):
        body = f"writeArray ({body}) {k % 4} 1.5"
    prog = parse_program(
        f"main : exists i . * (Array i Float);\nmain = unpack <i, a> = newArray 4 in pack <i, {body}>;\n"
    )
    t, writes = prog.main.body.body.body, 0
    while isinstance(t, App):
        t, writes = t.fn.fn.arg, writes + 1
    assert writes == 200 and alpha_eq(t, Var("a"))


# ---------------------------------------------------------------------------
# The lexer against the character-at-a-time lexer it replaced


def oracle_lex(source):
    """The former lexer, returning (kind, text, line, col) tuples and the
    error it raised, if any, after the tokens it had read."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = (line, col)
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                k = j + 1
                while k < n and source[k].isdigit():
                    k += 1
                toks.append(("float", source[i:k], *start))
                col += k - i
                i = k
            else:
                toks.append(("nat", source[i:j], *start))
                col += j - i
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            if text in PRIMITIVES:
                kind = "prim"
            elif text in KEYWORDS:
                kind = "keyword"
            else:
                kind = "ident"
            toks.append((kind, text, *start))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                toks.append(("symbol", sym, *start))
                col += len(sym)
                i += len(sym)
                break
        else:
            return toks, SyntaxError_(f"unexpected character {c!r}", Loc(*start))
    toks.append(("eof", "", line, col))
    return toks, None


def expected_lex(source):
    """The oracle's tokens, or its error message, with the two intended changes:
    a numeral is decimal digits only, so the first other digit in one (which
    the former lexer took in) is an unexpected character; and eof sits past a
    comment that ends the input rather than at its start."""
    toks, error = oracle_lex(source)
    for kind, text, line, col in toks:
        if kind in ("nat", "float"):
            for k, c in enumerate(text):
                if c != "." and not c.isdecimal():
                    return str(SyntaxError_(f"unexpected character {c!r}", Loc(line, col + k)))
    if error is not None:
        return str(error)
    last_line = source[source.rfind("\n") + 1:]
    eof = ("eof", "", source.count("\n") + 1, len(last_line) + 1)
    if "--" not in last_line:
        assert toks[-1] == eof
    return toks[:-1] + [eof]


FRAGMENTS = (
    ["let", "in", "pack", "Unit", "Permission", "newArray", "writeArray", "x", "y'", "_z", "a1", "x_y"]
    + ["0", "7", "12", "3.5", "1.", ".5", "1..2", "-", "#", "$", "--", "-- c", "--x\n"]
    + SYMBOLS
    + [" ", "\t", "\r", "\n"]
    + ["é", "ǅ", "٣", "²", "½", "Ⅻ", "\xa0"]
)


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_lexer_matches_the_former_lexer(source):
    expected = expected_lex(source)
    try:
        toks = parsed_tokens(source)
    except SyntaxError_ as e:
        assert str(e) == expected
        return
    assert toks == expected
    p = Parser(source, NAT_LEQ)
    assert all(p.loc(i) == Loc(line, col) for i, (_, _, line, col) in enumerate(toks))
