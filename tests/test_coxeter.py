"""Tests for group construction, element arithmetic, and word I/O."""

import ast
import doctest
import gc
import importlib
import io
import pkgutil
import re
import sys
import tokenize
import weakref
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from kl_oracle import right_descents  # noqa: E402
from reference_matrices import (  # noqa: E402
    apply,
    is_positive,
    mat_mul,
    matrix_of,
    reference_tables,
)

import bruhatkl.coxeter  # noqa: E402
from bruhatkl.bruhat import bruhat_le, neighborhood  # noqa: E402
from bruhatkl.coxeter import (  # noqa: E402
    _mul,
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import fill_tables  # noqa: E402

README = Path(__file__).parents[1] / "README.md"


# one group per family: simply laced (A, D) and with two root lengths
FAMILIES = ("A4", "B3", "C3", "D4", "G2", "F4")
# every accepted group of order at most 1152; B and C (transposed Cartan
# matrices) tell a row from a column, which A and D cannot
UP_TO_F4 = "A1 A2 A3 A4 A5 B2 B3 B4 C2 C3 C4 D2 D3 D4 F4 G2".split()


def ctx_for(spec, guard=10000):
    return build_group(parse_group_spec(spec), guard)


def test_doctests():
    failures, _ = doctest.testmod(bruhatkl.coxeter)
    assert failures == 0


def test_package_doctest():
    import bruhatkl

    failures, _ = doctest.testmod(bruhatkl)
    assert failures == 0


def _names_used(source):
    """Identifiers a module's code and doctest lines use, less the name a
    def or class line defines and the names of import statements."""
    used = set()
    prev, in_import, line_start = "", False, True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            if line_start and tok.string in ("from", "import"):
                in_import = True
            elif not in_import and prev not in ("def", "class"):
                used.add(tok.string)
            prev = tok.string
        elif tok.type == tokenize.STRING:
            for line in tok.string.splitlines():
                if re.match(r"\s*(>>>|\.\.\.) (?!from |import )", line):
                    used.update(re.findall(r"[A-Za-z_]\w*", line.strip()[4:]))
        if tok.type == tokenize.NEWLINE:
            in_import = False
        line_start = tok.type in (
            tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT
        ) or (line_start and tok.type == tokenize.COMMENT)
    return used


def test_every_exported_name_resolves():
    # and has a user: library code or a doctest beyond its own def/class
    # line and its __all__ entry, or README
    import bruhatkl

    modules = [bruhatkl] + [
        importlib.import_module(f"bruhatkl.{m.name}")
        for m in pkgutil.iter_modules(bruhatkl.__path__)
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) == 6  # every module but the cli
    for mod in exporting:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], (mod.__name__, missing)
    used = set()
    for path in Path(bruhatkl.__file__).parent.glob("*.py"):
        used |= _names_used(path.read_text())
    readme = README.read_text()
    unused = [
        (mod.__name__, name)
        for mod in exporting
        for name in mod.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_readme_library_example():
    # runs the Library block of README and checks what its comments state
    block = README.read_text().split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    env, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, env))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), env)
    kl, r_shifted, fh, passed = values
    assert str(kl) == "q + 1"
    assert str(r_shifted) == "(q-1)^4 + (q-1)^3 + (q-1)^2"
    assert (fh.a, fh.d, fh.f, fh.h) == (2, 2, (1, 1, 1), (1, -1, 1))
    assert passed == [True] * 23


@pytest.mark.parametrize(
    "spec,order,num_refl",
    [("A2", 6, 3), ("A3", 24, 6), ("B2", 8, 4), ("G2", 12, 6), ("F4", 1152, 24)],
)
def test_build_counts(spec, order, num_refl):
    ctx = ctx_for(spec)
    assert ctx.order == order
    assert len(ctx.reflections) == num_refl
    assert len(ctx.pos_roots) == num_refl
    # every simple reflection is a reflection
    assert all(s in ctx.reflection_ids for s in ctx.rmult[0])


def test_parse_group_spec_errors():
    with pytest.raises(ValueError):
        parse_group_spec("H3")
    with pytest.raises(ValueError):
        parse_group_spec("A9")
    with pytest.raises(ValueError):
        parse_group_spec("G3")
    with pytest.raises(ValueError):
        parse_group_spec("42")
    # only ASCII digits: others are neither read as a rank nor left to int();
    # Arabic-Indic 3, superscript 2, fullwidth 3
    for spec in ("A\u0663", "A\u00b2", "A\uff13"):
        with pytest.raises(ValueError, match="bad rank"):
            parse_group_spec(spec)
    assert parse_group_spec("b2") == parse_group_spec("B2")


# the packed weight vectors of D5, B5 and A6 are wider than 30 bits, one
# CPython int digit, which those of every smaller group fit in
@pytest.mark.parametrize("spec", UP_TO_F4 + ["D5", "B5", "A6"])
def test_build_matches_matrix_reference(spec):
    # the weight-vector build gives the same ids, tables, root order and
    # reflections as a breadth-first enumeration of matrices
    ctx = ctx_for(spec)
    ref = reference_tables(ctx.datum.cartan)
    assert ctx.rmult == ref["rmult"]
    assert ctx.inv == ref["inv"]
    assert ctx.lengths == ref["lengths"]
    assert ctx.srd == ref["srd"]
    assert ctx.pos_roots == ref["pos_roots"]
    assert [t.index for t in ctx.reflections] == ref["reflections"]


def test_e6_builds_above_the_default_guard():
    ctx = build_group(parse_group_spec("E6"), 51840)
    assert ctx.order == 51840
    assert len(ctx.pos_roots) == 36 and len(ctx.reflections) == 36
    assert ctx.lengths.count(36) == 1 and max(ctx.lengths) == 36
    w0 = ctx.elements[-1]
    assert w0.length == 36
    for w in (w0, *ctx.reflections, *ctx.elements[::997]):
        assert parse_element(ctx, word_of(w)) == w


def test_e6_tables_are_consistent():
    # the largest group the tests build: a wrong tail recurrence breaks inv,
    # an overflowing digit breaks rmult or srd
    ctx = build_group(parse_group_spec("E6"), 51840)
    rmult, inv, lengths, srd = ctx.rmult, ctx.inv, ctx.lengths, ctx.srd
    assert ctx.ids == list(range(ctx.order))
    assert all(inv[inv[x]] == x and lengths[inv[x]] == lengths[x] for x in ctx.ids)
    assert all(_mul(ctx, x, inv[x]) == 0 for x in ctx.ids)
    for x, row in enumerate(rmult):
        assert all(rmult[xs][s] == x for s, xs in enumerate(row))
        descents = [s for s, xs in enumerate(row) if lengths[xs] < lengths[x]]
        assert srd[x] == min(descents, default=-1)


def test_order_guard():
    with pytest.raises(ValueError):
        build_group(parse_group_spec("E6"))  # order 51840 > default guard
    with pytest.raises(ValueError):
        build_group(parse_group_spec("A4"), max_order_guard=100)


def test_b_and_c_are_transposed():
    b, c = parse_group_spec("B3"), parse_group_spec("C3")
    assert b.cartan == tuple(zip(*c.cartan))
    assert ctx_for("B3").order == ctx_for("C3").order == 48


def test_multiply_and_inverse():
    ctx = ctx_for("A2")
    s1, s2 = ctx.rmult[0]
    inv = ctx.inv
    a = _mul(ctx, s1, s2)
    assert _mul(ctx, a, 0) == a
    assert _mul(ctx, s1, s1) == 0
    assert _mul(ctx, a, s1) == _mul(ctx, _mul(ctx, s2, s1), s2)
    assert inv[0] == 0
    assert inv[a] == _mul(ctx, s2, s1)
    for t in ctx.reflection_ids:
        assert inv[t] == t
        assert _mul(ctx, t, t) == 0


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
def test_multiply_matches_matrix_product(spec):
    # reference: the product of the geometric-representation matrices
    ctx = ctx_for(spec)
    by_matrix = {matrix_of(g): g for g in ctx.elements}
    for a in ctx.elements:
        for b in ctx.elements:
            ab = by_matrix[mat_mul(matrix_of(a), matrix_of(b))]
            assert _mul(ctx, a.index, b.index) == ab.index


def test_context_mismatch():
    a2, b2 = ctx_for("A2"), ctx_for("B2")
    with pytest.raises(ValueError, match="context mismatch"):
        bruhat_le(a2.identity, b2.identity)


def test_context_is_freed_by_reference_counting():
    # the context stores ids, not elements, so no reference cycle keeps a
    # dropped context (and its tables) alive until the cyclic collector runs
    def use(ctx):
        fill_tables(ctx)
        up = neighborhood(ctx.identity, ctx.elements[-1])  # e -> t, t <= w0
        assert sorted(x.index for x in up) == sorted(ctx.reflection_ids)
        assert [word_of(x) for x in ctx.elements[:3]] == ["e", "1", "2"]

    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = ctx_for("D4")
        use(ctx)
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_descents():
    ctx = ctx_for("A2")
    assert right_descents(ctx.identity) == []
    assert right_descents(ctx.elements[-1]) == [0, 1]
    assert right_descents(parse_element(ctx, "2 1")) == [0]
    for spec in ("A3", "B3", "G2"):
        ctx = ctx_for(spec)
        assert ctx.srd == [min(right_descents(w), default=-1) for w in ctx.elements]


@pytest.mark.parametrize("spec", FAMILIES)
def test_right_descents_match_column_signs(spec):
    # reference: s is a right descent of w iff w sends the simple root a_s
    # (column s of its matrix) to a negative root
    ctx = ctx_for(spec)
    for w in ctx.elements:
        columns = zip(*matrix_of(w))
        negative = [s for s, col in enumerate(columns) if not is_positive(col)]
        assert right_descents(w) == negative


def test_reflection_between():
    # w = ut for the element t = u^-1 w, a Bruhat-graph edge when t is a
    # reflection
    ctx = ctx_for("A2")
    s1, s2 = ctx.rmult[0]
    assert _mul(ctx, ctx.inv[s2], _mul(ctx, s2, s1)) == s1
    assert _mul(ctx, ctx.inv[0], _mul(ctx, s1, s2)) not in ctx.reflection_ids
    t = _mul(ctx, ctx.inv[0], ctx.order - 1)
    assert t in ctx.reflection_ids and ctx.lengths[t] == 3


def test_word_round_trip():
    ctx = ctx_for("B3")
    for w in ctx.elements:
        word = word_of(w)
        assert parse_element(ctx, word) == w
        if w.length == 0:
            assert word == "e"
        else:
            assert len(word.split()) == w.length


def test_word_examples():
    ctx = ctx_for("A2")
    assert word_of(ctx.identity) == "e"
    assert word_of(ctx.elements[ctx.rmult[0][0]]) == "1"
    assert word_of(ctx.elements[-1]) == "1 2 1"


def test_word_is_lex_smallest_reduced():
    # brute-force all reduced words for a few elements of A3
    ctx = ctx_for("A3")

    def reduced_words(w):
        if w.length == 0:
            return [[]]
        out = []
        for s in right_descents(w):
            ws = ctx.elements[ctx.rmult[w.index][s]]
            out.extend(word + [s + 1] for word in reduced_words(ws))
        return out

    for w in ctx.elements:
        expected = min(reduced_words(w)) if w.length else []
        got = [] if word_of(w) == "e" else [int(t) for t in word_of(w).split()]
        assert got == expected


def test_parse_element_errors():
    ctx = ctx_for("A2")
    with pytest.raises(ValueError):
        parse_element(ctx, "1 5")
    with pytest.raises(ValueError):
        parse_element(ctx, "x")
    for text in ("\u0661 2", "1 \u00b2"):  # Arabic-Indic 1, superscript 2
        with pytest.raises(ValueError, match="bad generator token"):
            parse_element(ctx, text)
    # non-reduced words still multiply out
    assert parse_element(ctx, "1 1") == ctx.identity


def test_length_invariants():
    for spec in ("A3", "B2", "G2"):
        ctx = ctx_for(spec)
        npos = len(ctx.pos_roots)
        for w in ctx.elements:
            assert w.length == ctx.lengths[ctx.inv[w.index]]
            for s in range(ctx.rank):
                ws = ctx.elements[ctx.rmult[w.index][s]]
                assert abs(ws.length - w.length) == 1
        counts = Counter(w.length for w in ctx.elements)
        assert [counts[k] for k in range(npos + 1)] == [
            counts[npos - k] for k in range(npos + 1)
        ]
        assert sum(1 for w in ctx.elements if w.length == npos) == 1
        # ids are assigned by length: adjacency rows sorted by id are in
        # (length, id) order, and le_masks fills in id order
        assert ctx.lengths == [w.length for w in ctx.elements]
        assert ctx.lengths == sorted(ctx.lengths)


def test_length_equals_root_inversions():
    for spec in ("B2",) + FAMILIES:
        ctx = ctx_for(spec)
        for w in ctx.elements:
            inversions = sum(
                1
                for beta in ctx.pos_roots
                if not is_positive(apply(matrix_of(w), beta))
            )
            assert inversions == w.length
