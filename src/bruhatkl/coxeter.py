"""Finite crystallographic Coxeter (Weyl) groups, enumerated by weight vectors.

The integer Cartan matrix is in the row convention cartan[i][j] =
2(a_i, a_j)/(a_i, a_i); nothing is ever approximated.  ``build_group``
identifies each element w by the integer vector lam = w^-1(rho) in
fundamental-weight coordinates, rho = (1, ..., 1) (Bjorner-Brenti,
Combinatorics of Coxeter Groups, 4.3): (ws)^-1(rho) = lam - lam[s] * a_s,
the simple root a_s in weight coordinates being column s of the
Cartan matrix, and s is a right descent of w iff lam[s] < 0, as
l(ws) < l(w) iff w(a_s) < 0 (Humphreys, Reflection Groups and Coxeter
Groups, 5.4).  Roots are in simple-root coordinates, where s_i sets only
y[i] = x[i] - sum_j cartan[i][j] * x[j].

The build holds lam as one int of n digits of k bits, coordinate j as the
digit lam[j] + off at bit j * k, with off = 2^(k-1) and k =
bit_length(2N + 1) + 1 for N positive roots.  The digits cannot overflow:
lam[s] = <w^-1 rho, a_s^v> = <rho, w(a_s^v)>, and w(a_s^v) is a coroot, so
lam[s] is plus or minus the height of a positive coroot (<rho, a_i^v> =
1).  A positive coroot of height h > 1 less some simple coroot is a
positive coroot of height h - 1 (Humphreys, Introduction to Lie Algebras
and Representation Theory, 10.2), so the coroots, a root system with N
positive roots, hold a positive coroot of each height 1, ..., h, and h <=
N.  So |lam[j]| <= N < 2N + 1 < 2^(k-1) = off, and every digit lies in
[off - N, off + N], inside [1, 2^k - 1].  Hence packed ints are equal iff
their vectors are; the step x -> xs is lam - c * col_s, where c =
digit_s(lam) - off = lam[s] and col_s is column s of the Cartan matrix
packed, sum_j cartan[j][s] * 2^(jk), since the result is sum_j (lam[j] - c
* cartan[j][s] + off) * 2^(jk), whose coefficients are the digits of
(ws)^-1(rho), each in range; and lam[j] < 0 iff the top bit of digit j is
clear, so the smallest right descent is the lowest clear top bit.

Elements get stable integer ids breadth-first by length.  Writing w = s_1
... s_l along its chain of parents, w = first * tail with first = s_1 and
tail = s_2 ... s_l, whose id is that of its parent's tail times the last
letter; then w^-1 = tail^-1 s_1 is one ``rmult`` lookup from the inverse
of tail, which has the smaller id.  After that, group operations are
lookups in id tables (``rmult``, ``inv``, ``lengths``, ``srd``), and the
lazily filled tables in ``GroupContext.tables`` key on ids.  The reference
matrices of the geometric representation live in the tests
(``tests/reference_matrices.py``), which check the tables against them.

Group spec strings are parsed case-insensitively: "A3", "b2", "G2", "F4".
Elements are read and printed as whitespace-separated reduced words over
1-based generator indices ("1 2 1"), with "e" for the identity.

>>> ctx = build_group(parse_group_spec("A2"))
>>> len(ctx.elements), len(ctx.reflections)
(6, 3)
>>> word_of(ctx.elements[-1])  # the longest element
'1 2 1'
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator

__all__ = [
    "CoxeterDatum",
    "GroupContext",
    "GroupElement",
    "Tables",
    "parse_group_spec",
    "build_group",
    "word_of",
    "parse_element",
    "DEFAULT_ORDER_GUARD",
]

DEFAULT_ORDER_GUARD = 10000

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]

# rank ranges accepted per family
_RANK_RANGES = {
    "A": (1, 7),
    "B": (2, 5),
    "C": (2, 5),
    "D": (2, 5),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class CoxeterDatum:
    """Named finite type with its integer Cartan matrix."""

    family: str
    rank: int
    cartan: Matrix

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def order(self) -> int:
        """Group order, from the classical closed forms."""
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        if self.family in ("B", "C"):
            return 2**n * factorial(n)
        if self.family == "D":
            return 2 ** (n - 1) * factorial(n)
        if self.family == "E":
            return {6: 51840, 7: 2903040, 8: 696729600}[n]
        if self.family == "F":
            return 1152
        return 12  # G2

    def num_positive_roots(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family in ("B", "C"):
            return n * n
        if self.family == "D":
            return n * (n - 1)
        if self.family == "E":
            return {6: 36, 7: 63, 8: 120}[n]
        if self.family == "F":
            return 24
        return 6  # G2


def _cartan_matrix(family: str, n: int) -> Matrix:
    """Cartan matrix for the named family, row convention as above."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        a[i][j] = cij
        a[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            bond(n - 2, n - 1, -1, -2)  # last simple root short
        if family == "C" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # last simple root long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 1)
    elif family == "E":
        # chain 0-2-3-4-... with node 1 attached to node 3 (0-based)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in a)


def parse_group_spec(spec: str) -> CoxeterDatum:
    """Parse a group spec string such as "A3", "b2", "F4" (case-insensitive)."""
    s = spec.strip().upper()
    if len(s) < 2 or not s[0].isalpha():
        raise ValueError(f"bad group spec {spec!r}: expected a letter then a rank")
    family, digits = s[0], s[1:]
    if family not in _RANK_RANGES:
        raise ValueError(f"unknown family {family!r} in group spec {spec!r}")
    # ASCII 0-9 only: isdigit alone also takes other scripts' digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad rank {digits!r} in group spec {spec!r}")
    rank = int(digits)
    lo, hi = _RANK_RANGES[family]
    if not lo <= rank <= hi:
        raise ValueError(
            f"rank {rank} out of supported range [{lo}, {hi}] for family {family}"
        )
    return CoxeterDatum(family, rank, _cartan_matrix(family, rank))


def _is_positive_vec(v: Vector) -> bool:
    """Sign of a nonzero root vector (all coordinates share a sign)."""
    for c in v:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


class GroupElement:
    """Element of one GroupContext: its stable id and its length.  Built on
    access (``GroupContext.elements``); equal to every element of the same
    context and id."""

    __slots__ = ("ctx", "index", "length")

    def __init__(self, ctx: "GroupContext", index: int, length: int):
        self.ctx = ctx
        self.index = index
        self.length = length

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx is other.ctx and self.index == other.index

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.index))

    def __repr__(self) -> str:
        return f"<{self.ctx.name}: {word_of(self)}>"


class _Elements(Sequence):
    """The elements of a context with the given ids, in their order, each
    built on access, so that the context holds no GroupElement (see
    ``GroupContext``)."""

    __slots__ = ("_ctx", "_ids")

    def __init__(self, ctx: "GroupContext", ids: Sequence[int]):
        self._ctx, self._ids = ctx, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Elements(self._ctx, self._ids[i])
        xi = self._ids[i]
        return GroupElement(self._ctx, xi, self._ctx.lengths[xi])

    def __iter__(self) -> Iterator[GroupElement]:
        ctx, lengths = self._ctx, self._ctx.lengths
        for xi in self._ids:
            yield GroupElement(ctx, xi, lengths[xi])


Pair = tuple[int, int]
Coeffs = tuple[int, ...]
# a pair table: {w: {x: value}}, one column dict per top w, keyed by x
Columns = dict[int, dict[int, Coeffs]]


@dataclass(repr=False, eq=False)
class Symmetries:
    """The orbits of the ids under a group H of permutations of W that
    preserve the Bruhat order and length, given by generators that are
    involutions (``klr._orbits``).

    ``maps`` are the generators as id permutations; ``rep`` by id w is the
    least id of the H-orbit of w, and ``word`` by id w the indices of the
    generators that, applied in turn, take w to rep[w].  A word is a few
    letters long, and one tuple serves every w with that word, so the
    orbits cost two lists of the group's order, not a permutation per w.
    """

    maps: list[list[int]]
    rep: list[int]
    word: list[tuple[int, ...]]

    def image(self, word: tuple[int, ...], xs: Iterable[int]) -> Iterable[int]:
        """The ids xs moved by the generators of word in turn, lazily."""
        for g in word:
            xs = map(self.maps[g].__getitem__, xs)
        return xs

    def column(self, table: Columns, w: int, xs: list[int]) -> dict:
        """{x: T_{h x, r}} for the xs <= w: the column w of an H-invariant
        table T read from the column of r = rep[w], h the word of w."""
        images = self.image(self.word[w], xs)
        return dict(zip(xs, map(table[self.rep[w]].__getitem__, images)))


@dataclass(repr=False, eq=False)
class Tables:
    """Lazily filled tables of one group, keyed by element ids.

    Each field is filled by one function, named in its comment.  ``None``
    marks a whole-group table not built yet.  Lengths and
    descents are group data (``GroupContext.lengths``, ``.srd``).  The
    lower-cone masks ``le`` and the Bruhat-graph rows ``rows`` are per
    element and may be partly built: a mask 0 (every cone contains e, so
    no built mask is 0) or a row None is not built yet.  The row of x
    holds all its neighbors xt, t a reflection: the ids above x are its
    out-neighbors, those below it its in-neighbors.
    ``up_mask`` holds the out-neighbors of every element as one bitmask
    each, read by whole-group sweeps only and built whole on first use: a
    mask is as wide as the group's order, too wide to build per element
    for one-shot queries on large groups (51,840 bits on E6).
    The R, Rt and KL tables are ``Columns``: one dict per top w,
    {w: {x: value}}, so an entry costs one slot of its column's dict and
    no (x, w) key tuple (38-54 bytes per R entry on B3, A4 and D4, 83-93
    with pair keys).  They hold comparable pairs only (incomparable probes
    are answered by the order test, not stored), and a column is made with
    its first entry.  KL holds every P_xw the recursion computed, and
    ``pending`` marks, per column, the ones ``klr._certify`` has not yet
    passed: those are read by the recursion and the check but served by no
    reader (``klr._kl``).  These tables hold few
    distinct values (37 R polynomials over D4's 9,817 comparable pairs, 436
    over F4's 396,809), so every value they are filled with is the one
    tuple of ``pool`` equal to it, and the one memo of arithmetic on
    values, the R/Rt recursion step in ``steps``, is keyed by value, never
    by pair.  So a step is looked up by the entries as they are now, and
    an entry changed after a fill gets its own result.  ``symmetries``
    holds the orbits of the ids under inversion and the diagram
    automorphisms, which the whole-group sweeps of ``klr`` reduce by:
    two lists of the group's order, made on the first whole-group use,
    never by ``build_group``.  R's
    (q-1)-expansion is not memoized: its readers take it once per value
    class or once per one-pair call.
    Tables can hold hundreds of thousands of entries, so they compare by
    identity and have no field-by-field repr.  What a sweep can derive a
    top w at a time is not stored: the list of comparable pairs is read
    off ``le``, the defects off ``up_mask`` and ``le`` (``klr._Column``), and
    the absolute lengths a(., w) by one BFS from w
    (``bruhat.abs_len_table``).
    """

    le: list[int] | None = None  # bruhat._lower; 0 = not built yet
    rows: list[tuple[int, ...] | None] | None = None  # bruhat._row; all xt
    up_mask: list[int] | None = None  # bruhat._up_masks; out-neighbors
    R: Columns = field(default_factory=dict)  # klr._r, kind "R"; R[w][x] = R_xw
    Rt: Columns = field(default_factory=dict)  # klr._r, kind "Rt"
    KL: Columns = field(default_factory=dict)  # klr._stage; KL[w][x] = P_xw
    # by top id w: the mask of the x whose P_xw klr._stage put into KL[w]
    # and klr._certify has not yet passed; no key w when there are none.
    # A column staged whole holds its lower-cone mask itself, le[w]
    pending: dict[int, int] = field(default_factory=dict)  # klr._stage
    # mu-list by top id w: (x, mu(x, w)) for each x < w with mu(x, w) != 0;
    # a key w present means the column of w has been staged
    mu: dict[int, list[tuple[int, int]]] = field(default_factory=dict)  # klr._stage
    # one canonical tuple per distinct value filled into R, Rt or KL
    pool: dict[Coeffs, Coeffs] = field(default_factory=dict)  # klr._intern
    # (kind, a, b) -> top * a + side * b, the kind's recursion step
    steps: dict[tuple[str, Coeffs, Coeffs], Coeffs] = field(
        default_factory=dict
    )  # klr._step
    # the orbits of the ids under inversion and the diagram automorphisms
    symmetries: Symmetries | None = None  # klr._symmetries


class GroupContext:
    """A fully enumerated finite Weyl group.

    ``build_group`` builds it from the weight vectors w^-1(rho), s being a
    right descent where coordinate s is negative (the reference matrices of
    the geometric representation are in the tests).  Every operation reads the
    id tables ``rmult``, ``inv``, ``lengths`` and ``srd``.  The group data
    is fixed once ``build_group`` returns.  The only later mutation is lazy,
    single-threaded filling of ``tables`` (and of the word memo behind
    ``word_of``).  The context holds ids only: ``elements``, ``identity``
    and ``reflections`` build each GroupElement on access, so a context
    is freed as soon as nothing refers to it.
    """

    def __init__(self, datum: CoxeterDatum):
        self.datum = datum
        self.name = datum.name
        self.rank = datum.rank
        self.pos_roots: list[Vector] = []
        # ids of the reflections, in the order of pos_roots
        self.reflection_ids: tuple[int, ...] = ()
        self.rmult: list[tuple[int, ...]] = []  # id of ws by id of w, s
        self.lengths: list[int] = []  # l(w) by id
        self.srd: list[int] = []  # smallest right descent by id, -1 for e
        self.inv: list[int] = []  # id of w^-1 by id
        # range(order), the int objects rmult holds, one per id: the keys of
        # the R, Rt and KL columns, so an id above 256 is not a new int in
        # every column
        self.ids: list[int] = []
        self._words: dict[int, str] = {}
        self.tables = Tables()

    # populated by build_group
    @property
    def order(self) -> int:
        return len(self.lengths)

    @property
    def elements(self) -> Sequence[GroupElement]:
        """Every element, by id."""
        return _Elements(self, range(self.order))

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0, 0)

    @property
    def reflections(self) -> Sequence[GroupElement]:
        """The reflections, in the order of ``pos_roots``."""
        return _Elements(self, self.reflection_ids)

    def __repr__(self) -> str:
        return f"<GroupContext {self.name}, order {self.order}>"


def build_group(
    datum: CoxeterDatum, max_order_guard: int = DEFAULT_ORDER_GUARD
) -> GroupContext:
    """Enumerate the whole group breadth-first and identify reflections.

    One pass over the packed weight vectors w^-1(rho), ascents in
    increasing s, fills ``rmult``, ``lengths`` and ``srd`` at a constant
    number of int operations per step (the digits and their width are in
    the module docstring), and records the first letter and the tail id of
    each new element.  A second pass, after the vectors are dropped, fills
    ``inv`` from them, w^-1 = tail^-1 s_1, one lookup per element.
    Reflection ids come from conjugating ids.  The tests check these
    tables against the reference matrices.

    Raises ValueError if the expected group order exceeds the guard, and
    RuntimeError if any structural count disagrees with the closed forms.
    """
    expected_order = datum.order()
    if expected_order > max_order_guard:
        raise ValueError(
            f"group {datum.name} has order {expected_order}, above the guard "
            f"{max_order_guard}; raise the guard to build it anyway"
        )
    ctx = GroupContext(datum)
    n = datum.rank
    cartan = datum.cartan
    npos = datum.num_positive_roots()
    # lam packed k bits per coordinate, each offset by off (module docstring)
    k = (2 * npos + 1).bit_length() + 1
    off, digit = 1 << (k - 1), (1 << k) - 1
    highs = sum(off << (j * k) for j in range(n))  # the top bit of each digit
    # (s, shift of digit s, a_s in weight coordinates: column s, packed)
    cols = [
        (s, s * k, sum(cartan[j][s] << (j * k) for j in range(n))) for s in range(n)
    ]

    # breadth-first by length; x = s_1 ... s_l by its parent chain,
    # first[x] = s_1 and tail[x] the id of s_2 ... s_l
    rho = highs + sum(1 << (j * k) for j in range(n))
    index: dict[int, int] = {rho: 0}
    weights = [rho]
    first, tail, lengths = [-1], [0], [0]
    rmult, srd = ctx.rmult, ctx.srd
    for wi, lam in enumerate(weights):  # weights grows while it is read
        row = []
        for s, shift, col in cols:
            key = lam - (((lam >> shift) & digit) - off) * col
            xi = index.get(key)
            if xi is None:  # an ascent reaching a new element
                xi = index[key] = len(weights)
                weights.append(key)
                first.append(first[wi] if wi else s)
                tail.append(rmult[tail[wi]][s] if wi else 0)
                lengths.append(lengths[wi] + 1)
            row.append(xi)
        rmult.append(tuple(row))
        low = ~lam & highs  # the top bits of the negative coordinates
        srd.append(((low & -low).bit_length() - 1) // k if low else -1)
    order = len(weights)
    if order != expected_order:
        raise RuntimeError(
            f"enumerated {order} elements of {datum.name}, "
            f"expected {expected_order}"
        )
    if lengths[-1] != npos or lengths.count(npos) != 1:
        raise RuntimeError(
            f"{datum.name} has no unique longest element of length {npos} "
            f"at the last id"
        )
    ctx.lengths = lengths
    ctx.ids = list(index.values())  # the id objects rmult holds
    del index, weights

    # w^-1 = (s_1 tail)^-1 = tail^-1 s_1, and tail has the smaller id
    inv = ctx.inv = [0] * order
    for wi in range(1, order):
        inv[wi] = rmult[inv[tail[wi]]][first[wi]]
    del first, tail

    def reflect(s: int, beta: Vector) -> Vector:
        img = list(beta)
        img[s] -= sum(a * b for a, b in zip(cartan[s], beta))
        return tuple(img)

    # positive-root closure, simple roots first, discovery order after
    unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
    roots: list[Vector] = [unit(i) for i in range(n)]
    seen = set(roots)
    for beta in roots:  # roots grows while it is read
        for s in range(n):
            img = reflect(s, beta)
            if _is_positive_vec(img) and img not in seen:
                seen.add(img)
                roots.append(img)
    ctx.pos_roots = roots
    if len(roots) != npos:
        raise RuntimeError(
            f"found {len(roots)} positive roots of {datum.name}, expected {npos}"
        )

    # reflections: close {s_i} under conjugation, tracking the root;
    # the root of s t s is s(root of t), normalized to the positive side
    root_to_id: dict[Vector, int] = {unit(i): rmult[0][i] for i in range(n)}
    queue = list(root_to_id)
    while queue:
        beta = queue.pop()
        t = root_to_id[beta]
        for s in range(n):
            img = reflect(s, beta)
            if not _is_positive_vec(img):
                img = tuple(-c for c in img)
            conj = inv[rmult[inv[rmult[t][s]]][s]]  # s t s
            if img in root_to_id:
                if root_to_id[img] != conj:
                    raise RuntimeError("reflection closure is inconsistent")
            else:
                root_to_id[img] = conj
                queue.append(img)
    ctx.reflection_ids = tuple(root_to_id[beta] for beta in roots)
    if len(set(ctx.reflection_ids)) != len(roots):
        raise RuntimeError("reflections are not in bijection with positive roots")
    return ctx


def _check_same_context(a: GroupElement, b: GroupElement) -> None:
    if a.ctx is not b.ctx:
        raise ValueError("context mismatch: elements from different groups")


def _mul(ctx: GroupContext, xi: int, wi: int) -> int:
    """Id of xw: peel the smallest right descent s off w, xw = (x ws) s."""
    if not wi:
        return xi
    s = ctx.srd[wi]
    return ctx.rmult[_mul(ctx, xi, ctx.rmult[wi][s])][s]


def _diagram_automorphisms(
    ctx: GroupContext,
) -> list[tuple[tuple[int, ...], list[int]]]:
    """(sigma, phi) for every permutation sigma of S that preserves the
    Coxeter matrix, the identity first: phi is the automorphism of W with
    phi(s) = sigma(s), as an id permutation, read off ``rmult`` in one pass
    by increasing id, phi(x) = phi(xs) sigma(s) with s = srd(x).  It
    preserves length and Bruhat order, and R and P are invariant under it
    (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch. 5).  Six on
    D4, two on A_n (n >= 2), B2, D_n (n >= 5), E6, F4 and G2, one on
    B_n (n >= 3)."""
    n, cartan = ctx.rank, ctx.datum.cartan
    # m(s, t) from the bond a_st a_ts of the Cartan matrix
    m = [
        [1 if i == j else (2, 3, 4, 6)[cartan[i][j] * cartan[j][i]] for j in range(n)]
        for i in range(n)
    ]
    rmult, srd = ctx.rmult, ctx.srd
    out = []
    for sigma in permutations(range(n)):
        if all(m[i][j] == m[sigma[i]][sigma[j]] for i in range(n) for j in range(n)):
            phi = [0] * ctx.order
            for x in range(1, ctx.order):  # xs has the smaller id
                s = srd[x]
                phi[x] = rmult[phi[rmult[x][s]]][sigma[s]]
            out.append((sigma, phi))
    return out


def word_of(w: GroupElement) -> str:
    """Canonical reduced word: lexicographically smallest, as "1 2 1".

    Obtained by repeatedly stripping the smallest left descent s of x,
    which is the smallest right descent of x^-1, as sx = (x^-1 s)^-1; the
    word of x is s then the word of sx.  The strip stops at the first
    element whose word is memoized, and the words of all the elements it
    passed are memoized on the way back, so each element is stripped once
    per context.  The identity prints as "e".
    """
    ctx = w.ctx
    words, inv, rmult, srd = ctx._words, ctx.inv, ctx.rmult, ctx.srd
    xi, passed = w.index, []
    word = words.get(xi)
    while word is None and xi:
        s = srd[inv[xi]]
        passed.append((xi, s))
        xi = inv[rmult[inv[xi]][s]]
        word = words.get(xi)
    for xi, s in reversed(passed):
        word = f"{s + 1} {word}" if word else str(s + 1)
        words[xi] = word
    return word or "e"


def parse_element(ctx: GroupContext, text: str) -> GroupElement:
    """Parse a whitespace-separated word over 1-based generator indices.

    "e" (or an empty string) is the identity.  The word need not be reduced;
    the product is returned regardless.
    """
    text = text.strip()
    if text in ("", "e"):
        return ctx.identity
    idx = 0
    for tok in text.split():
        if not (tok.isascii() and tok.isdigit()) or not 1 <= int(tok) <= ctx.rank:
            raise ValueError(
                f"bad generator token {tok!r} in element word {text!r} "
                f"(expected 1..{ctx.rank} or 'e')"
            )
        idx = ctx.rmult[idx][int(tok) - 1]
    return ctx.elements[idx]
