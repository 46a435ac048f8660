"""Property tests: random groups of order <= 400, random elements and pairs."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkl.bruhat import iter_bits, le_masks
from bruhatkl.coxeter import build_group, parse_element, parse_group_spec, word_of
from bruhatkl.klr import check_r_rtilde_link, r_poly

SPECS = "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D2 D3 D4 G2".split()  # orders <= 400

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@lru_cache(maxsize=None)
def group(spec):
    return build_group(parse_group_spec(spec))


@st.composite
def elements(draw):
    ctx = group(draw(st.sampled_from(SPECS)))
    return ctx.elements[draw(st.integers(0, ctx.order - 1))]


@st.composite
def comparable_pairs(draw):
    """(u, w) with u <= w: w uniform in the group, u uniform below w."""
    w = draw(elements())
    ctx = w.ctx
    below = list(iter_bits(le_masks(ctx)[w.index]))
    return ctx.elements[draw(st.sampled_from(below))], w


@PROPERTY_SETTINGS
@given(elements())
def test_word_round_trip(g):
    word = word_of(g)
    h = parse_element(g.ctx, word)
    assert h == g
    assert word_of(h) == word


@PROPERTY_SETTINGS
@given(comparable_pairs())
def test_r_rtilde_link_and_r_reversal(pair):
    u, w = pair
    ell = w.length - u.length
    coeffs = r_poly(u, w).coeffs
    # q^l R_uw(1/q) = (-1)^l R_uw(q)
    assert len(coeffs) == ell + 1
    assert coeffs[::-1] == tuple((-1) ** ell * c for c in coeffs)
    if u != w:
        assert check_r_rtilde_link(u, w)
