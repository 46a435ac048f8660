"""Property tests: random groups of order <= 400, random elements and pairs."""

import sys
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkl.bruhat import iter_bits, le_masks
from bruhatkl.coxeter import build_group, parse_element, parse_group_spec, word_of
from bruhatkl.klr import check_r_rtilde_link, kl_poly, r_poly

sys.path.insert(0, str(Path(__file__).parent))
from kl_oracle import oracle_kl_pair, oracle_r_table  # noqa: E402

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


@lru_cache(maxsize=None)
def oracle_r(spec):
    return oracle_r_table(group(spec))


@PROPERTY_SETTINGS
@given(comparable_pairs())
def test_one_shot_kl_poly_matches_oracle(pair):
    u, w = pair
    spec = u.ctx.name
    fresh = build_group(parse_group_spec(spec))  # no staged or certified column
    p = kl_poly(fresh.elements[u.index], fresh.elements[w.index])
    assert p.coeffs == oracle_kl_pair(u.ctx, u.index, w.index, oracle_r(spec))
