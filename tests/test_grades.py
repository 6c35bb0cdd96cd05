from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradebor import grades as G
from gradebor.grades import (
    INTERVAL, NAT, NAT_LEQ, Grade, Permission, STAR, frac_perm, grade_add,
    grade_leq, grade_mul, grade_residual, perm_add, perm_half, perm_is_writable,
)

nats = st.integers(min_value=0, max_value=40)


def nat(n, ring=NAT_LEQ):
    return Grade(ring, n)


def ival(lo, hi):
    return Grade(INTERVAL, (lo, hi))


intervals = st.tuples(nats, nats).map(lambda p: ival(min(p), max(p)))


def test_grade_add_examples():
    assert grade_add(nat(1, NAT), nat(1, NAT)) == nat(2, NAT)
    assert grade_add(nat(0), nat(5)) == nat(5)
    assert grade_add(ival(0, 1), ival(1, 2)) == ival(1, 3)


def test_grade_mul_examples():
    assert grade_mul(nat(2), nat(3)) == nat(6)
    assert grade_mul(nat(1), nat(7)) == nat(7)
    assert grade_mul(ival(0, 1), ival(2, 2)) == ival(0, 2)


def test_grade_leq_examples():
    assert grade_leq(nat(2, NAT), nat(2, NAT))
    assert not grade_leq(nat(2, NAT), nat(3, NAT))
    assert grade_leq(nat(1), nat(3))
    assert grade_leq(ival(1, 1), ival(0, 1))
    assert not grade_leq(ival(0, 1), ival(1, 1))


def test_instance_mixing_is_an_error():
    with pytest.raises(G.InstanceMismatch):
        grade_add(nat(1, NAT), nat(1, NAT_LEQ))
    with pytest.raises(G.InstanceMismatch):
        grade_leq(nat(1), ival(1, 1))


def test_residual():
    assert grade_residual(nat(2), nat(1)) == nat(1)
    assert grade_residual(nat(1), nat(2)) is None
    assert grade_residual(ival(1, 3), ival(1, 1)) == ival(0, 2)
    assert grade_residual(ival(1, 1), ival(2, 2)) is None


@given(nats, nats, nats)
def test_nat_semiring_axioms(a, b, c):
    for ring in (NAT, NAT_LEQ):
        ga, gb, gc = nat(a, ring), nat(b, ring), nat(c, ring)
        assert grade_add(ga, grade_add(gb, gc)) == grade_add(grade_add(ga, gb), gc)
        assert grade_add(ga, gb) == grade_add(gb, ga)
        assert grade_mul(ga, grade_add(gb, gc)) == grade_add(grade_mul(ga, gb), grade_mul(ga, gc))
        assert grade_mul(ga, ring.zero) == ring.zero
        assert grade_add(ga, ring.zero) == ga
        assert grade_mul(ga, ring.one) == ga


@given(intervals, intervals, intervals)
def test_interval_semiring_axioms(a, b, c):
    assert grade_add(a, grade_add(b, c)) == grade_add(grade_add(a, b), c)
    assert grade_add(a, b) == grade_add(b, a)
    assert grade_mul(a, grade_add(b, c)) == grade_add(grade_mul(a, b), grade_mul(a, c))
    assert grade_mul(a, INTERVAL.zero) == INTERVAL.zero


@given(intervals, intervals, intervals, intervals)
def test_interval_monotonicity(a, b, c, d):
    if grade_leq(a, b) and grade_leq(c, d):
        assert grade_leq(grade_add(a, c), grade_add(b, d))
        assert grade_leq(grade_mul(a, c), grade_mul(b, d))


@given(intervals, intervals, intervals)
def test_interval_preorder(a, b, c):
    assert grade_leq(a, a)
    if grade_leq(a, b) and grade_leq(b, c):
        assert grade_leq(a, c)


def test_permission_constructor_rejects_out_of_range():
    with pytest.raises(G.BadPermission):
        Permission(Fraction(0))
    with pytest.raises(G.BadPermission):
        Permission(Fraction(3, 2))
    with pytest.raises(G.BadPermission):
        Permission(Fraction(-1, 2))


def test_permission_canonical():
    p = frac_perm(2, 4)
    assert p.frac.numerator == 1 and p.frac.denominator == 2
    assert str(p) == "1/2"
    assert str(frac_perm(1)) == "1"
    assert str(STAR) == "*"


def test_perm_half_examples():
    assert perm_half(frac_perm(1)) == frac_perm(1, 2)
    assert perm_half(frac_perm(1, 2)) == frac_perm(1, 4)
    with pytest.raises(G.StarNotDivisible):
        perm_half(STAR)


def test_perm_add_examples():
    assert perm_add(frac_perm(1, 2), frac_perm(1, 2)) == frac_perm(1)
    assert perm_add(frac_perm(1, 2), frac_perm(1, 4)) == frac_perm(3, 4)
    with pytest.raises(G.PermissionOverflow):
        perm_add(frac_perm(3, 4), frac_perm(1, 2))
    with pytest.raises(G.StarNotAddable):
        perm_add(STAR, frac_perm(1, 2))


def test_perm_is_writable():
    assert perm_is_writable(STAR)
    assert perm_is_writable(frac_perm(1))
    assert not perm_is_writable(frac_perm(1, 2))


@given(st.integers(min_value=1, max_value=512), st.integers(min_value=1, max_value=512))
def test_half_add_roundtrip_exact(num, den):
    if num > den:
        num, den = den, num
    f = Permission(Fraction(num, den))
    assert perm_add(perm_half(f), perm_half(f)) == f
    h = perm_half(f)
    assert 0 < h.frac <= 1


# The permission kernel: one object per value, with its arithmetic kept.

# (n, d) with 1 <= n <= d, so n/d is in (0, 1]; not reduced, as a source may write it
num_dens = st.tuples(st.integers(min_value=1, max_value=512), st.integers(min_value=1, max_value=512)).map(
    lambda nd: (min(nd), max(nd))
)
unit_fractions = num_dens.map(lambda nd: Fraction(*nd))


@given(unit_fractions, unit_fractions)
def test_half_and_add_equal_fraction_arithmetic_on_every_call(f, g):
    p, q = Permission(f), Permission(g)
    for _ in range(3):
        half = perm_half(p)
        assert type(half.frac) is Fraction and half.frac == f / 2
        if f + g <= 1:
            total = perm_add(p, q)
            assert type(total.frac) is Fraction and total.frac == f + g
        else:
            with pytest.raises(G.PermissionOverflow):
                perm_add(p, q)
        assert perm_is_writable(p) == (f == 1)


@given(num_dens)
def test_parsed_and_computed_permissions_are_one_object(nd):
    from gradebor.parser import parse_type
    from gradebor.syntax import Amp, UnitT, type_alpha_eq

    f = Fraction(*nd)
    parsed = parse_type(f"& {nd[0]}/{nd[1]} Unit")
    half = perm_half(Permission(f))
    computed = perm_add(half, half)
    assert parsed.perm is computed
    assert parsed.perm == computed and hash(parsed.perm) == hash(computed) and str(parsed.perm) == str(computed)
    assert type_alpha_eq(parsed, Amp(computed, UnitT())) and parsed == Amp(computed, UnitT())
    assert type_alpha_eq(parse_type(f"& {half} Unit"), Amp(half, UnitT()))


def test_equal_fractions_give_one_permission():
    assert Permission(Fraction(1, 2)) == Permission(Fraction(2, 4))
    assert Permission(Fraction(1, 2)) is Permission(Fraction(2, 4)) is frac_perm(3, 6)
    assert Permission(None) is STAR and Permission(1) is G.WHOLE


@given(unit_fractions)
def test_errors_are_raised_on_every_call(f):
    p = Permission(f)
    over = Permission(1 - f / 2) if f < 1 else p
    for _ in range(3):
        with pytest.raises(G.StarNotDivisible):
            perm_half(STAR)
        with pytest.raises(G.StarNotAddable):
            perm_add(STAR, p)
        with pytest.raises(G.StarNotAddable):
            perm_add(p, STAR)
        if f < 1:
            assert perm_add(p, Permission(1 - f)) is G.WHOLE  # kept with p
        with pytest.raises(G.PermissionOverflow):
            perm_add(p, over)
        with pytest.raises(G.BadPermission):
            Permission(1 + f)


def test_the_intern_table_keeps_no_dead_permission():
    import gc

    p = Permission(Fraction(1, 999983))
    assert G._INTERNED.get(Fraction(1, 999983)) is p
    del p
    gc.collect()
    assert Fraction(1, 999983) not in G._INTERNED


def test_permissions_are_immutable_and_copy_as_themselves():
    import copy
    import pickle

    p = frac_perm(1, 4)
    with pytest.raises(AttributeError):
        p.frac = Fraction(1, 2)
    assert copy.deepcopy(p) is p and pickle.loads(pickle.dumps(p)) is p
