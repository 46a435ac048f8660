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
y[i] = x[i] - sum_j cartan[i][j] * x[j].  Elements get stable integer
ids breadth-first by length; after that, group operations are lookups in
id tables (``rmult``, ``inv``, ``lengths``, ``srd``), and the lazily
filled tables in ``GroupContext.tables`` key on ids.  The reference
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
from math import factorial
from typing import Iterator

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
class Tables:
    """Lazily filled tables of one group, keyed by element ids.

    Each field is filled by one function, named in its comment.  ``None``
    marks a whole-group table not built yet.  Lengths and
    descents are group data (``GroupContext.lengths``, ``.srd``).  The
    lower-cone masks ``le`` and the Bruhat-graph rows ``up`` and ``down``
    are per element and may be partly built: a mask 0 (every cone
    contains e, so no built mask is 0) or a row None is not built yet.
    The R, Rt, KL and staged tables are ``Columns``: one dict per top w,
    {w: {x: value}}, so an entry costs one slot of its column's dict and
    no (x, w) key tuple (38-54 bytes per R entry on B3, A4 and D4, 83-93
    with pair keys).  They hold comparable pairs only (incomparable probes
    are answered by the order test, not stored), a column is made with its
    first entry, and KL holds only entries that passed ``klr._certify``,
    which tests them with ``klr._kl_faults``.  These tables hold few
    distinct values (37 R polynomials over D4's 9,817 comparable pairs, 436
    over F4's 396,809), so every value they are filled with is the one
    tuple of ``pool`` equal to it, and the arithmetic on values is
    memoized by value, never by pair: the R/Rt recursion step in ``steps``
    and R's (q-1)-expansion in ``shifted``.  A reader of a derived value
    looks it up by the entry as it is now, so an entry changed after a
    fill gets its own result and no reader sees a value derived from an
    entry that has since changed.
    Tables can hold hundreds of thousands of entries, so they compare by
    identity and have no field-by-field repr.  What a sweep can derive a
    top w at a time is not stored: the list of comparable pairs is read
    off ``le``, the defects off the rows below w (``klr._Column``), and
    the absolute lengths a(., w) by one BFS from w
    (``bruhat.abs_len_table``).
    """

    le: list[int] | None = None  # bruhat._lower; 0 = not built yet
    up: list[tuple[int, ...] | None] | None = None  # bruhat._row; out-neighbors
    down: list[tuple[int, ...] | None] | None = None  # bruhat._row; in-neighbors
    R: Columns = field(default_factory=dict)  # klr._r, kind "R"; R[w][x] = R_xw
    Rt: Columns = field(default_factory=dict)  # klr._r, kind "Rt"
    KL: Columns = field(default_factory=dict)  # klr._certify; KL[w][x] = P_xw
    # P_xw computed by the KL recursion and not yet checked; klr._certify
    # moves an entry from here into KL once klr._kl_faults finds no fault
    # on the interval or group it sweeps, never replacing an entry in KL,
    # and drops a column it empties
    staged: Columns = field(default_factory=dict)  # klr._stage
    # mu-list by top id w: (x, mu(x, w)) for each x < w with mu(x, w) != 0;
    # a key w present means the column of w has been staged
    mu: dict[int, list[tuple[int, int]]] = field(default_factory=dict)  # klr._stage
    # one canonical tuple per distinct value filled into R, Rt, KL or staged
    pool: dict[Coeffs, Coeffs] = field(default_factory=dict)  # klr._intern
    # (kind, a, b) -> top * a + side * b, the kind's recursion step
    steps: dict[tuple[str, Coeffs, Coeffs], Coeffs] = field(
        default_factory=dict
    )  # klr._step
    # R value -> its trimmed (q-1)-coefficients
    shifted: dict[Coeffs, Coeffs] = field(default_factory=dict)  # klr._shifted


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

    One pass over the weight vectors w^-1(rho), ascents in increasing s,
    fills ``rmult``, ``lengths`` and ``srd`` (s is a right descent of w iff
    coordinate s is negative); ``inv`` follows each element's parent chain
    through ``rmult``, and reflection ids come from conjugating ids.  The
    tests check these tables against the reference matrices.

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
    # nonzero entries of column s: the simple root a_s in weight coordinates
    roots_in_weights = [
        [(j, cartan[j][s]) for j in range(n) if cartan[j][s]] for s in range(n)
    ]

    # breadth-first by length; x = parent[x] * s for s = letter[x]
    rho = (1,) * n
    index: dict[Vector, int] = {rho: 0}
    weights = [rho]
    parent, letter, lengths = [0], [-1], [0]
    rmult, srd = ctx.rmult, ctx.srd
    for wi, lam in enumerate(weights):  # weights grows while it is read
        row = []
        for s in range(n):
            img = list(lam)
            for j, a in roots_in_weights[s]:
                img[j] -= lam[s] * a
            key = tuple(img)
            xi = index.get(key)
            if xi is None:  # an ascent reaching a new element
                xi = index[key] = len(weights)
                weights.append(key)
                parent.append(wi)
                letter.append(s)
                lengths.append(lengths[wi] + 1)
            row.append(xi)
        rmult.append(tuple(row))
        srd.append(next((s for s, c in enumerate(lam) if c < 0), -1))
    order = len(weights)
    if order != expected_order:
        raise RuntimeError(
            f"enumerated {order} elements of {datum.name}, "
            f"expected {expected_order}"
        )
    npos = datum.num_positive_roots()
    if lengths[-1] != npos or lengths.count(npos) != 1:
        raise RuntimeError(
            f"{datum.name} has no unique longest element of length {npos} "
            f"at the last id"
        )
    ctx.lengths = lengths

    # w = s_1 ... s_k read off the parent chain from the end, so
    # w^-1 = s_k ... s_1 is the product of its letters in that order
    inv = ctx.inv = [0] * order
    for wi in range(1, order):
        xi, yi = wi, 0
        while xi:
            yi = rmult[yi][letter[xi]]
            xi = parent[xi]
        inv[wi] = yi

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


def word_of(w: GroupElement) -> str:
    """Canonical reduced word: lexicographically smallest, as "1 2 1".

    Obtained by repeatedly stripping the smallest left descent s of x,
    which is the smallest right descent of x^-1, as sx = (x^-1 s)^-1; the
    identity prints as "e".
    """
    ctx = w.ctx
    cached = ctx._words.get(w.index)
    if cached is not None:
        return cached
    inv, rmult = ctx.inv, ctx.rmult
    letters = []
    xi = w.index
    while xi:
        s = ctx.srd[inv[xi]]
        letters.append(str(s + 1))
        xi = inv[rmult[inv[xi]][s]]
    word = " ".join(letters) if letters else "e"
    ctx._words[w.index] = word
    return word


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
