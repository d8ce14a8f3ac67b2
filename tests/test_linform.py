from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from orthoweyl.errors import DimensionError
from orthoweyl.linform import LinearForm, parse_rational


def lf(const=0, coeffs=None, k=3):
    return LinearForm.make(k, const, coeffs or {})


def test_add_examples():
    assert lf(1, {1: 1}) + lf(0, {2: 1}) == lf(1, {1: 1, 2: 1})
    f = lf(Q(2, 3), {1: 5, 3: Q(-1, 2)})
    assert f + lf() == f
    assert lf(0, {1: 1}) + lf(0, {1: -1}) == lf()
    assert (lf(0, {1: 1}) + lf(0, {1: -1})).coeffs == ()


def test_add_dimension_mismatch():
    with pytest.raises(DimensionError):
        lf(k=3) + lf(k=4)


def test_scale_examples():
    assert lf(0, {3: 1}).scale(Q(1, 2)) == lf(0, {3: Q(1, 2)})
    assert lf(7, {1: 2, 2: -3}).scale(0) == lf()
    # (1/n)·(2λ1+n) at n=5
    assert lf(5, {1: 2}).scale(Q(1, 5)) == lf(1, {1: Q(2, 5)})


def test_eval_examples():
    assert lf(1, {1: 1, 2: 1}).evaluate([1, 1, 1]) == 3
    assert lf(Q(9, 7)).evaluate([5, -2, 0]) == Q(9, 7)
    f = lf(5, {1: 2, 2: 2, 3: 1}).scale(Q(-1, 5))
    assert f.evaluate([1, 1, 1]) == -2
    with pytest.raises(DimensionError):
        lf().evaluate([1, 2])


def test_render_contract():
    assert lf(1, {1: 1, 2: 1}).render() == "λ1+λ2+1"
    assert lf(-1, {1: Q(-2, 5)}).render() == "-(2/5)λ1-1"
    assert lf().render() == "0"
    assert lf(0, {2: -1}).render() == "-λ2"
    assert lf(Q(1, 2), {1: 2, 3: Q(7, 3)}).render() == "2λ1+(7/3)λ3+1/2"


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-4/6") == Q(-2, 3)
    with pytest.raises(ValueError):
        parse_rational("x")


rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 8))


@st.composite
def forms(draw, k=3):
    const = draw(rationals)
    coeffs = {i: draw(rationals) for i in draw(st.sets(st.integers(1, k)))}
    return LinearForm.make(k, const, coeffs)


@given(forms(), forms(), forms())
def test_add_associative_commutative(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)


@given(rationals, forms(), forms())
def test_scale_distributes(c, f, g):
    assert (f + g).scale(c) == f.scale(c) + g.scale(c)


@given(forms(), forms(), st.lists(rationals, min_size=3, max_size=3))
def test_eval_is_additive(f, g, a):
    assert (f + g).evaluate(a) == f.evaluate(a) + g.evaluate(a)


@given(forms())
def test_render_parse_roundtrip(f):
    assert LinearForm.parse(f.render(), f.nvars) == f


def test_parse_examples():
    assert LinearForm.parse("λ1+λ2+1", 3) == lf(1, {1: 1, 2: 1})
    assert LinearForm.parse("-(2/5)λ1-1", 3) == lf(-1, {1: Q(-2, 5)})
    assert LinearForm.parse("0", 3) == lf()
    with pytest.raises(ValueError):
        LinearForm.parse("λ1++1", 3)


def test_parse_rational_rejects_zero_denominator():
    assert parse_rational(" -6 / 4 ") == Q(-3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
