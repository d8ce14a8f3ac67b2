from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from orthoweyl.errors import DimensionError
from orthoweyl.linform import LinearForm, parse_rational, render_form
from reference import reference_render


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


# --- arithmetic keeps the canonical shape without going through make ---


def _assert_canonical(f):
    indices = [i for i, _ in f.coeffs]
    assert indices == sorted(set(indices))
    assert all(1 <= i <= f.nvars for i in indices)
    assert all(type(c) is Q and c != 0 for _, c in f.coeffs)
    assert type(f.constant) is Q


@st.composite
def form_pairs(draw, k=3):
    """Two forms, where b may cancel any of a's terms, or all of a."""
    a = draw(forms(k))
    if draw(st.booleans()):
        return a, -a
    coeffs = {}
    for i in draw(st.sets(st.integers(1, k))):
        coeffs[i] = draw(st.one_of(rationals, st.just(-a.coefficient(i))))
    return a, LinearForm.make(k, draw(st.one_of(rationals, st.just(-a.constant))), coeffs)


def _dict_sum(a, b, sign=1):
    coeffs = dict(a.coeffs)
    for i, c in b.coeffs:
        coeffs[i] = coeffs.get(i, 0) + sign * c
    return LinearForm.make(a.nvars, a.constant + sign * b.constant, coeffs)


@given(form_pairs(), st.one_of(st.just(Q(0)), st.just(0), rationals, st.integers(-5, 5)))
def test_arithmetic_fast_path_equals_make(pair, q):
    a, b = pair
    scaled = LinearForm.make(a.nvars, a.constant * q, {i: c * q for i, c in a.coeffs})
    cases = [
        (a + b, _dict_sum(a, b)),
        (a - b, _dict_sum(a, b, -1)),
        (-a, LinearForm.make(a.nvars, -a.constant, {i: -c for i, c in a.coeffs})),
        (a.scale(q), scaled),
        (q * a, scaled),
    ]
    if q:
        divided = LinearForm.make(a.nvars, a.constant / q, {i: c / q for i, c in a.coeffs})
        cases.append((a / q, divided))
    for got, want in cases:
        _assert_canonical(got)
        assert got == want
        assert hash(got) == hash(want)


@given(forms(k=3), forms(k=4))
def test_arithmetic_refuses_mixed_universes(a, b):
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(DimensionError):
            op(a, b)
        with pytest.raises(DimensionError):
            op(b, a)


# --- the integer renderer against the Fraction renderer it replaced ---


numerators = st.one_of(st.integers(-1000, 1000), st.sampled_from([0, 1, -1]))


@st.composite
def integer_forms(draw):
    """(nvars, constant, terms, den): numerators in ±1000 (zeros and units often) over 1..60."""
    nvars = draw(st.integers(1, 8))
    den = draw(st.integers(1, 60))
    if draw(st.booleans()):  # unit coefficients ±1 after reduction
        pick = st.sampled_from([den, -den])
    else:
        pick = numerators
    terms = [(i, x) for i in range(1, nvars + 1) if (x := draw(pick))]
    return nvars, draw(numerators), terms, den


@given(integer_forms())
def test_integer_renderer_equals_fraction_renderer(case):
    nvars, constant, terms, den = case
    form = LinearForm(nvars, Q(constant, den), tuple((i, Q(x, den)) for i, x in terms))
    text = render_form(constant, terms, den)
    assert text == reference_render(form) == form.render()
    assert LinearForm.parse(text, nvars) == form


def test_integer_renderer_examples():
    assert render_form(0, [], 7) == "0"
    assert render_form(2, [(1, 2), (2, 2)], 2) == "λ1+λ2+1"
    assert render_form(-5, [(1, -2)], 5) == "-(2/5)λ1-1"
    assert render_form(-3, [(2, -4), (3, 6)], 6) == "-(2/3)λ2+λ3-1/2"
    assert render_form(0, [(1, 0), (2, -1)]) == "-λ2"
