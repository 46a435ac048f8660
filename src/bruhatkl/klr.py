"""Memoized exact tables of R-, Rtilde-, and Kazhdan-Lusztig polynomials,
plus the derived machinery: f/h-vectors, interval sums, and strict edges.

R and Rt satisfy one recursion that strips the smallest right descent s
of the top element w (fixed deterministically so the tables fill in a
reproducible order), and differ only in its step polynomials:

    R_uw  = R_{us,ws}           if us < u, else  q R_{us,ws} + (q-1) R_{u,ws}
    Rt_uw = Rt_{us,ws}          if us < u, else  Rt_{us,ws} + q Rt_{u,ws}

KL polynomials are defined by the functional equation

    q^l(u,w) P_uw(1/q) = sum over u <= v <= w of R_uv(q) P_vw(q)

together with P_ww = 1 and the degree bound deg P_uw <= (l(u,w)-1)/2,
which determine P_uw uniquely.  They are computed a whole column
P_{., w} at a time by the Kazhdan-Lusztig recursion (Invent. Math. 53,
1979, (2.2.c)) over the same s, with v = ws and c = [xs < x]:

    P_xw = q^(1-c) P_{xs,v} + q^c P_{x,v}
           - sum over z with zs < z of mu(z,v) q^((l(w)-l(z))/2) P_{x,z}

where mu(z,v) is the coefficient of q^((l(z,v)-1)/2) in P_zv.  A column
goes first into ``tables.staged``; ``tables.KL`` receives an entry only
after the functional equation has been checked exactly over the whole
interval [u, w] asked for (see ``_certify``).  So every KL value served
has passed the check, whatever the recursion computed.  The tables are
the ``R``, ``Rt``, ``KL``, ``staged`` and ``mu`` fields of the owning
context's ``ctx.tables``, keyed by element ids and holding comparable
pairs only; they are filled lazily (one thread at a time), and nothing
else mutates them.  Coefficients are Python integers throughout, so
nothing can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from bruhatkl.bruhat import (
    absolute_length,
    bruhat_le,
    iter_bits,
    le_masks,
    neighborhood,
)
from bruhatkl.bruhat import _le, _lower, _require_le
from bruhatkl.coxeter import Coeffs, GroupContext, GroupElement, Pair, word_of
from bruhatkl.coxeter import _check_same_context
from bruhatkl.polynomial import (
    Basis,
    IntPoly,
    _addmul_into,
    _from_shifted,
    _to_shifted,
    _trim,
)

__all__ = [
    "FHDecomposition",
    "r_poly",
    "rtilde_poly",
    "check_r_rtilde_link",
    "kl_poly",
    "kl_at_one",
    "fh_vectors",
    "strict_edges",
    "strict_path_to_smooth",
    "fill_tables",
]

KINDS = ("R", "Rt", "KL")


# (top, side) step polynomials of the R/Rt recursion when us > u:
# T_uw = top * T_{us,ws} + side * T_{u,ws}
_STEPS = {"R": ((0, 1), (-1, 1)), "Rt": ((1,), (0, 1))}


def _r(ctx: GroupContext, ui: int, wi: int, kind: str = "R") -> Coeffs:
    """R_uw (kind "R") or Rt_uw (kind "Rt"); () when u is not below w."""
    table = getattr(ctx.tables, kind)
    key = (ui, wi)
    res = table.get(key)
    if res is not None:
        return res
    if ui == wi:
        res = (1,)
    elif not _le(ctx, ui, wi):
        return ()
    else:
        lengths = ctx.lengths
        s = ctx.srd[wi]
        usi, wsi = ctx.rmult[ui][s], ctx.rmult[wi][s]
        if lengths[usi] < lengths[ui]:
            res = _r(ctx, usi, wsi, kind)
        else:
            top, side = _STEPS[kind]
            out = [0] * (lengths[wi] - lengths[ui] + 1)
            _addmul_into(out, top, _r(ctx, usi, wsi, kind))
            _addmul_into(out, side, _r(ctx, ui, wsi, kind))
            res = _trim(out)
    table[key] = res
    return res


def _shifted(ctx: GroupContext, ui: int, wi: int) -> Coeffs:
    """Trimmed (q-1)-coefficients of R_uw, from the R table as it is now."""
    return _to_shifted(_r(ctx, ui, wi))


def _between(ctx: GroupContext, ui: int, wi: int) -> Iterator[int]:
    """Ids of v with u <= v <= w, in increasing id (hence length) order.

    Builds only the masks of elements below w; a built mask is never 0.
    """
    lower = _lower(ctx, wi)
    masks = ctx.tables.le
    for vi in iter_bits(lower):
        if (masks[vi] or _lower(ctx, vi)) >> ui & 1:
            yield vi


def _stage(ctx: GroupContext, wi: int) -> None:
    """Stage the KL column of w, and first every column it needs.

    Fills ``tables.staged`` with P_xw for every x <= w, by the recursion in
    the module docstring, and ``tables.mu`` with the mu-list of w: the
    pairs (x, mu(x, w)) with mu(x, w) != 0.  Entries of columns already
    moved into ``tables.KL`` are read from there.  Reads only the masks
    of elements below w.
    """
    t = ctx.tables
    kl, staged, mu = t.KL, t.staged, t.mu
    rmult, lengths, srd = ctx.rmult, ctx.lengths, ctx.srd
    stack = [wi]
    while stack:
        w = stack[-1]
        if w in mu:
            stack.pop()
            continue
        s = srd[w]
        if s < 0:  # w = e
            staged[w, w] = (1,)
            mu[w] = []
            continue
        v = rmult[w][s]
        if v not in mu:
            stack.append(v)
            continue
        terms = [(z, m) for z, m in mu[v] if lengths[rmult[z][s]] < lengths[z]]
        missing = [z for z, _ in terms if z not in mu]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        lw = lengths[w]
        lower_v = _lower(ctx, v)
        below = list(iter_bits(_lower(ctx, w)))
        col: dict[int, list[int]] = {}  # x with xs < x
        for x in below:
            xs = rmult[x][s]
            if lengths[xs] > lengths[x]:
                continue
            out = [0] * ((lw - lengths[x]) // 2 + 1)
            for i, c in enumerate(kl.get((xs, v)) or staged[xs, v]):
                out[i] += c
            if lower_v >> x & 1:
                for i, c in enumerate(kl.get((x, v)) or staged[x, v], 1):
                    out[i] += c
            col[x] = out
        for z, m in terms:
            shift = (lw - lengths[z]) // 2
            for x in iter_bits(_lower(ctx, z)):
                out = col.get(x)
                if out is not None:
                    for i, c in enumerate(kl.get((x, z)) or staged[x, z], shift):
                        out[i] -= m * c
        done = {x: _trim(out) for x, out in col.items()}
        mus = []
        for x in below:
            p = done.get(x)
            if p is None:  # xs > x: P_xw = P_{xs,w}
                p = done[rmult[x][s]]
            staged[x, w] = p
            d = lw - lengths[x] - 1
            if d % 2 == 0 and len(p) > d // 2 and p[d // 2]:
                mus.append((x, p[d // 2]))
        mu[w] = mus


class _RAtQ:
    """R_xy(2^bits) by column y, kept for the length of one fill_tables call.

    Every column above y reuses the values of y; a larger ``bits`` than a
    column needs is still sound, so the memo is rebuilt only when a column
    needs more.
    """

    __slots__ = ("bits", "cols")

    def __init__(self) -> None:
        self.bits = 0
        self.cols: dict[int, list[tuple[int, int]]] = {}


def _at(cs: Coeffs, bits: int) -> int:
    """The polynomial cs evaluated at q = 2^bits."""
    val = 0
    for c in reversed(cs):
        val = (val << bits) + c
    return val


def _r_at(ctx: GroupContext, xi: int, yi: int, bits: int) -> int:
    """R_xy(2^bits), after checking the norm bound the certificate rests on."""
    r = _r(ctx, xi, yi)
    if sum(map(abs, r)) > 3 ** (ctx.lengths[yi] - ctx.lengths[xi]):
        raise RuntimeError(
            f"R coefficients exceed the KL certificate's headroom for "
            f"({word_of(ctx.elements[xi])!r}, {word_of(ctx.elements[yi])!r}) "
            f"in {ctx.name}"
        )
    return _at(r, bits)


def _sums_at_q(
    ctx: GroupContext, f: Callable[[int, int], Coeffs]
) -> tuple[int, Iterator[dict[int, int]]]:
    """B, and one dict {u: S_uw(Q)} over u <= w per top w, by increasing id.

    Q = 2^B and S_uw = sum over v in [u, w] of R_uv * F_vw, where f(v, w)
    gives the coefficients of F_vw.  B serves an identity whose sides are
    sums of at most |G| such products: every coefficient of either side is
    then at most M = |G| * max ||R_xy||_1 * max ||F_vw||_1 (each norm at
    least 1, over every comparable pair), and coefficients <= M with
    2^(B-1) > 2M make the identity exact at Q: a nonzero difference, its
    coefficients below 2^(B-1) in absolute value, cannot vanish at 2^B.
    The signed base-2^B digits of S_uw(Q) are then its coefficients
    (``_digits``).  The norms are read from the tables as they are now, not
    from the 3^l bound of ``_certify``, so a corrupted entry raises B
    instead of breaking the identity or raising.
    """
    lower = le_masks(ctx)
    cols = [{x: _r(ctx, x, y) for x in iter_bits(lower[y])} for y in range(ctx.order)]
    norm_r = max(sum(map(abs, r)) for col in cols for r in col.values())
    norm_f = max(sum(map(abs, f(v, w))) for w, col in enumerate(cols) for v in col)
    m = ctx.order * max(1, norm_r) * max(1, norm_f)
    bits = (2 * m).bit_length() + 1  # 2^(B-1) > 2M
    for col in cols:
        for x, r in col.items():
            col[x] = _at(r, bits)

    def tops() -> Iterator[dict[int, int]]:
        for w, col in enumerate(cols):
            acc = dict.fromkeys(col, 0)
            # transposed: for each v, add R_uv(Q) F_vw(Q) to every u below it
            for v in col:
                c = _at(f(v, w), bits)
                for u, r in cols[v].items():
                    acc[u] += r * c
            yield acc

    return bits, tops()


def _certify(ctx: GroupContext, ui: int, wi: int, memo: _RAtQ | None = None) -> None:
    """Check the staged P_xw, x in [u, w], and move them into ``tables.KL``.

    Stages the column of w first if needed.  Each x in [u, w] not yet in
    ``tables.KL`` must satisfy P_ww = 1, P_xw(0) = 1, the degree bound, and
    the functional equation, checked exactly at q = Q = 2^B:

        Q^l(x,w) P_xw(1/Q) = sum over y in [x, w] of R_xy(Q) P_yw(Q)

    Both sides are polynomials in q.  ||R_xy||_1 <= 3^l(x,y), by induction
    on the steps of ``_STEPS``: 3^(l-2) + 2 * 3^(l-1) <= 3^l (``_r_at``
    raises if an R entry breaks it).  So every coefficient of either side is
    at most M = |[u,w]| * 3^l(u,w) * max|P|, the difference at most 2M, and
    2^(B-1) > 2M makes two sides with equal values at Q equal as
    polynomials.  The equation and the degree bound on [u, w] determine
    P_uw, so a checked entry is exact however the column was computed.
    Raises RuntimeError naming the first failing pair from the top.
    """
    t = ctx.tables
    kl, staged = t.KL, t.staged
    if wi not in t.mu:
        _stage(ctx, wi)
    lengths = ctx.lengths
    lw = lengths[wi]
    members = list(_between(ctx, ui, wi))
    col: dict[int, Coeffs] = {}
    acc: dict[int, int] = {}  # x not yet in KL -> right-hand side at Q
    todo = 0
    for x in members:
        p = kl.get((x, wi))
        if p is None:
            p = staged[x, wi]
            acc[x] = 0
            todo |= 1 << x
        col[x] = p
    for x in acc:
        p = col[x]
        if x == wi:
            ok = p == (1,)
        else:
            ok = p and p[0] == 1 and 2 * len(p) <= lw - lengths[x] + 1
        if not ok:
            raise _kl_error(ctx, x, wi)
    if acc:
        top = max(abs(c) for p in col.values() for c in p)
        bits = (2 * len(members) * 3 ** (lw - lengths[ui]) * top).bit_length() + 1
        if memo is not None:
            if memo.bits < bits:
                memo.bits, memo.cols = bits + 16, {}
            bits = memo.bits
        masks = t.le
        # transposed: for each y, add R_xy(Q) P_yw(Q) to every x below it
        for y in members:
            lower_y = masks[y] or _lower(ctx, y)
            below = lower_y & todo
            if not below:
                continue
            if memo is None:
                pairs = [(x, _r_at(ctx, x, y, bits)) for x in iter_bits(below)]
            else:
                pairs = memo.cols.get(y)
                if pairs is None:
                    pairs = memo.cols[y] = [
                        (x, _r_at(ctx, x, y, bits)) for x in iter_bits(lower_y)
                    ]
                if below != lower_y:
                    pairs = [(x, r) for x, r in pairs if below >> x & 1]
            py = _at(col[y], bits)
            for x, r in pairs:
                acc[x] += r * py
        for x in sorted(acc, reverse=True):
            p = col[x]
            if _at(p[::-1], bits) << bits * (lw - lengths[x] - len(p) + 1) != acc[x]:
                raise _kl_error(ctx, x, wi)
    for x in members:
        p = staged.pop((x, wi), None)
        if x in acc:
            kl[x, wi] = p


def _kl_error(ctx: GroupContext, xi: int, wi: int) -> RuntimeError:
    return RuntimeError(
        f"KL functional equation failed for "
        f"({word_of(ctx.elements[xi])!r}, {word_of(ctx.elements[wi])!r}) "
        f"in {ctx.name}"
    )


def _kl(ctx: GroupContext, ui: int, wi: int) -> Coeffs:
    """P_uw; () when u is not below w."""
    res = ctx.tables.KL.get((ui, wi))
    if res is not None:
        return res
    if ui == wi:
        return (1,)
    if not _le(ctx, ui, wi):
        return ()
    _certify(ctx, ui, wi)
    return ctx.tables.KL[ui, wi]


def _kl1(ctx: GroupContext, ui: int, wi: int) -> int:
    """P_uw evaluated at 1 (drives strict-edge machinery)."""
    return sum(_kl(ctx, ui, wi))


# -- public operations ---------------------------------------------------


def r_poly(u: GroupElement, w: GroupElement) -> IntPoly:
    """R-polynomial of the pair: 0 if incomparable, monic of degree l(u,w)."""
    _check_same_context(u, w)
    return IntPoly(_r(u.ctx, u.index, w.index), Basis.Q)


def rtilde_poly(u: GroupElement, w: GroupElement) -> IntPoly:
    """Rtilde-polynomial of the pair: nonnegative coefficients, monic."""
    _check_same_context(u, w)
    return IntPoly(_r(u.ctx, u.index, w.index, "Rt"), Basis.Q)


def kl_poly(u: GroupElement, w: GroupElement) -> IntPoly:
    """Kazhdan-Lusztig polynomial of the pair."""
    _check_same_context(u, w)
    return IntPoly(_kl(u.ctx, u.index, w.index), Basis.Q)


def kl_at_one(u: GroupElement, w: GroupElement) -> int:
    """P_uw(1): positive whenever u <= w, and 1 exactly when smooth."""
    _check_same_context(u, w)
    return _kl1(u.ctx, u.index, w.index)


def check_r_rtilde_link(u: GroupElement, w: GroupElement) -> bool:
    """Verify R against Rtilde through the absolute-length closed form.

    Rtilde_uw must have strictly positive coefficients exactly in degrees
    a(u,w), a(u,w)+2, ..., l(u,w); writing c_j for them,

        R_uw(q) = sum_j c_j q^((l-j)/2) (q-1)^j,

    so, expanding q^m = (1 + (q-1))^m, the (q-1)^n coefficient of R_uw is
    sum_j c_j binomial((l-j)/2, n-j).  Returns True iff the rebuilt
    (q-1)-coefficients equal those of R_uw.  A coefficient pattern
    violation raises RuntimeError since it breaks the closed form itself,
    not just the equality.
    """
    ctx = u.ctx
    if u == w or not bruhat_le(u, w):
        raise ValueError("check_r_rtilde_link requires u < w")
    a = absolute_length(u, w)
    ell = w.length - u.length
    rt = _r(ctx, u.index, w.index, "Rt")
    rt += (0,) * (ell + 1 - len(rt))  # a short entry reads as 0 to q^l
    for n, c in enumerate(rt):
        expected_support = a <= n <= ell and (ell - n) % 2 == 0
        if expected_support and c <= 0:
            raise RuntimeError(
                f"Rtilde coefficient of q^{n} should be positive for "
                f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
            )
        if not expected_support and c != 0:
            raise RuntimeError(
                f"Rtilde parity violation at q^{n} for "
                f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
            )
    rebuilt = [0] * (ell + 1)
    for j in range(a, ell + 1, 2):
        m = (ell - j) // 2
        for i in range(m + 1):
            rebuilt[j + i] += rt[j] * comb(m, i)
    return _trim(rebuilt) == _shifted(ctx, u.index, w.index)


@dataclass
class FHDecomposition:
    """R_uw factored through its largest (q-1)-power.

    With a = a(u,w) and d = l(u,w) - a, the quotient R_uw / (q-1)^a is
    written both ways:

        sum_i f_{i-1} (q-1)^(d-i)  =  sum_i h_i q^(d-i)

    ``f`` lists (f_{-1}, ..., f_{d-1}) and ``h`` lists (h_0, ..., h_d);
    f is strictly positive and h palindromic, with f_{-1} = h_0 = 1.
    """

    a: int
    d: int
    f: tuple[int, ...]
    h: tuple[int, ...]


def fh_vectors(u: GroupElement, w: GroupElement) -> FHDecomposition:
    """Extract and validate the f/h-decomposition of R_uw (requires u < w)."""
    ctx = u.ctx
    if u == w or not bruhat_le(u, w):
        raise ValueError("fh_vectors requires u < w")
    ell = w.length - u.length
    sh = _shifted(ctx, u.index, w.index)
    a = next((i for i, c in enumerate(sh) if c), 0)
    if a != absolute_length(u, w):
        raise RuntimeError(
            f"(q-1)-multiplicity {a} of R differs from absolute length for "
            f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
        )
    d = ell - a
    f = sh[a:][::-1]
    h = _from_shifted(sh[a:])[::-1]
    ok = (
        len(f) == d + 1
        and len(h) == d + 1
        and f[0] == 1
        and h[0] == 1
        and all(x > 0 for x in f)
        and h == h[::-1]
        and _from_shifted(sh) == _r(ctx, u.index, w.index)
    )
    if not ok:
        raise RuntimeError(
            f"f/h-decomposition invariants failed for "
            f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
        )
    return FHDecomposition(a=a, d=d, f=f, h=h)


def _digits(val: int, bits: int) -> Coeffs:
    """Trimmed coefficients, each in [-2^(bits-1), 2^(bits-1)), of the
    polynomial whose value at q = 2^bits is val: the inverse of ``_at``."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = []
    while val:
        d = ((val + half) & mask) - half
        out.append(d)
        val = (val - d) >> bits
    return tuple(out)


def _interval_r_sums(ctx: GroupContext) -> dict[Pair, Coeffs]:
    """Sum over v in [x, w] of R_xv for every comparable pair, from R as it
    is now: the sums of ``_sums_at_q`` with F = 1, read back in signed
    base-2^B digits.  Nothing is stored."""
    bits, tops = _sums_at_q(ctx, lambda v, w: (1,))
    return {
        (x, w): _digits(val, bits)
        for w, acc in enumerate(tops)
        for x, val in acc.items()
    }


def strict_edges(u: GroupElement, w: GroupElement) -> list[GroupElement]:
    """Neighbors v of u inside [u, w] with P_uw(1) > P_vw(1)."""
    _require_le(u, w)
    ctx = u.ctx
    base = _kl1(ctx, u.index, w.index)
    return [
        v for v in neighborhood(u, w) if base > _kl1(ctx, v.index, w.index)
    ]


def strict_path_to_smooth(u: GroupElement, w: GroupElement) -> list[GroupElement]:
    """Greedy strict path from a singular u to a smooth vertex under w.

    At each step take the strict neighbor minimizing P(1), ties broken by
    element id.  Requires P_uw(1) > 1; P(1) strictly decreases along the
    path, so it terminates at a vertex with P(1) = 1.
    """
    _require_le(u, w)
    ctx = u.ctx
    if _kl1(ctx, u.index, w.index) <= 1:
        raise ValueError("strict_path_to_smooth requires a singular bottom vertex")
    path = [u]
    cur = u
    while _kl1(ctx, cur.index, w.index) > 1:
        here = _kl1(ctx, cur.index, w.index)
        best = None
        for v in neighborhood(cur, w):
            val = _kl1(ctx, v.index, w.index)
            if val < here and (best is None or (val, v.index) < best[:2]):
                best = (val, v.index, v)
        if best is None:
            raise RuntimeError(
                f"singular vertex {word_of(cur)!r} under {word_of(w)!r} in "
                f"{ctx.name} has no strict edge"
            )
        cur = best[2]
        path.append(cur)
    return path


# -- whole-group tables --------------------------------------------------


def fill_tables(ctx: GroupContext, kinds: tuple[str, ...] = KINDS) -> None:
    """Compute every comparable pair's entry for the requested kinds.

    Top elements go by increasing id, hence length.  Each KL column is
    staged by the recursion and certified over its whole lower cone before
    the next one, with R_xy(2^B) memoized for this call only.
    """
    masks = le_masks(ctx)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
    memo = _RAtQ()
    for wi in range(ctx.order):
        for kind in ("R", "Rt"):
            if kind in kinds:
                for ui in iter_bits(masks[wi]):
                    _r(ctx, ui, wi, kind)
        if "KL" in kinds:
            _certify(ctx, 0, wi, memo)
