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
after ``_kl_faults`` has found no fault on the whole interval [u, w]
asked for, or on the whole group in ``fill_tables`` (see ``_certify``).
It tests P_ww = 1, P(0) = 1, the degree bound and the functional
equation, the last exactly at q = 2^B through the interval sums of
``_sums_at_q``.  So every KL value served has passed the check, whatever
the recursion computed.

Over the whole group, the sums are swept only for the right-extremal
pairs, D_R(w) in D_R(x) (du Cloux, Experiment. Math. 11, 2002; Bjorner
and Brenti, Combinatorics of Coxeter Groups, Thm. 5.1.1 and Prop.
5.1.8).  For s in D_R(w) and xs > x, pairing each v with vs gives
S_xw = q S_{xs,w}, so every other pair's sum is its coset top's sum times
a power of q (``_coset_tops``).  That rests on two premises, checked on
the entries read at every sweep (``_reducible``): (a) F_vw = F_{vs,w}
for s in D_R(w), and (b) the R table follows the recursion above, hence
is the group's R.  If either fails anywhere, the sweep takes every pair,
so a corrupted table gets the same sums, faults and errors either way.
The reduction is only on the right.  The two-sided one, D_L(w) in D_L(x)
as well, would sweep 2.2% of D4's triples and 2.6% of B4's (8.2% and
10.6% on the right alone), but needs premises on the left too.

The tables are the ``R``, ``Rt``, ``KL``, ``staged`` and ``mu`` fields
of the owning context's ``ctx.tables``.  The first four hold comparable
pairs only, one dict per top w keyed by x (``coxeter.Columns``), so a
sweep resolves a column once and then reads its entries by x; ``mu`` is
keyed by w.  They are filled lazily (one thread at a time), and nothing
else mutates them.  Coefficients are Python integers throughout,
so nothing can overflow.

The tables hold few distinct values (81 R polynomials over A5's 98,407
comparable pairs), so each value is held once: every entry filled in is
the tuple of ``tables.pool`` equal to it (``_intern``), and each piece of
arithmetic on values runs once per value, never per pair.  The step
top * a + side * b of the R/Rt recursion is memoized in ``tables.steps``
by (kind, a, b), R's (q-1)-expansion in ``tables.shifted`` by R, and a
sweep of ``_sums_at_q`` evaluates each distinct R and F value at Q once.
Keyed by value, no memo can serve a result for an entry that has since
changed: the changed entry is looked up by its new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb
from typing import Callable, Iterator

from bruhatkl.bruhat import (
    absolute_length,
    bruhat_le,
    iter_bits,
    le_masks,
    neighborhood,
)
from bruhatkl.bruhat import _le, _lower, _out_below, _require_le
from bruhatkl.coxeter import Coeffs, Columns, GroupContext, GroupElement, Tables
from bruhatkl.coxeter import _check_same_context, word_of
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


def _intern(t: Tables, cs: Coeffs) -> Coeffs:
    """The one tuple of ``t.pool`` equal to cs, cs itself if it is new."""
    return t.pool.setdefault(cs, cs)


def _step(t: Tables, kind: str, a: Coeffs, b: Coeffs) -> Coeffs:
    """top * a + side * b for the kind's step polynomials, interned;
    computed once per (kind, a, b) and kept in ``t.steps``."""
    key = kind, a, b
    res = t.steps.get(key)
    if res is None:
        top, side = _STEPS[kind]
        out = [0] * max(len(top) + len(a), len(side) + len(b))
        _addmul_into(out, top, a)
        _addmul_into(out, side, b)
        res = t.steps[key] = _intern(t, _trim(out))
    return res


def _r(ctx: GroupContext, ui: int, wi: int, kind: str = "R") -> Coeffs:
    """R_uw (kind "R") or Rt_uw (kind "Rt"); () when u is not below w."""
    t = ctx.tables
    table = getattr(t, kind)
    col = table.get(wi)
    if col is not None:
        res = col.get(ui)
        if res is not None:
            return res
    if ui == wi:
        res = _intern(t, (1,))
    elif not _lower(ctx, wi) >> ui & 1:
        return ()
    else:
        lengths = ctx.lengths
        s = ctx.srd[wi]
        usi, wsi = ctx.rmult[ui][s], ctx.rmult[wi][s]
        if lengths[usi] < lengths[ui]:
            res = _r(ctx, usi, wsi, kind)
        else:
            res = _step(t, kind, _r(ctx, usi, wsi, kind), _r(ctx, ui, wsi, kind))
    if col is None:  # the recursion reads only columns below w
        col = table[wi] = {}
    col[ui] = res
    return res


def _shifted(ctx: GroupContext, r: Coeffs) -> Coeffs:
    """Trimmed (q-1)-coefficients of the R value r, expanded once per
    value and kept in ``tables.shifted``."""
    memo = ctx.tables.shifted
    sh = memo.get(r)
    if sh is None:
        sh = memo[r] = _to_shifted(r)
    return sh


def _between(ctx: GroupContext, ui: int, wi: int) -> Iterator[int]:
    """Ids of v with u <= v <= w, in increasing id (hence length) order.

    Builds only the masks of elements below w; a built mask is never 0.
    """
    lower = _lower(ctx, wi)
    masks = ctx.tables.le
    for vi in iter_bits(lower):
        if (masks[vi] or _lower(ctx, vi)) >> ui & 1:
            yield vi


def _reader(t: Tables) -> Callable[[int], Callable[[int], Coeffs]]:
    """The KL column reader: w -> (v -> P_vw), P_vw read from ``t.KL`` if
    v is in the column there, even empty, else from ``t.staged``.  Each
    call resolves the two columns of w once, for all the v read from it."""
    kl, staged = t.KL, t.staged

    def column(w: int) -> Callable[[int], Coeffs]:
        k, s = kl.get(w, {}), staged.get(w, {})
        if not k or not s:
            return (k or s).__getitem__
        return lambda v: k[v] if v in k else s[v]

    return column


def _stage(ctx: GroupContext, wi: int) -> None:
    """Stage the KL column of w, and first every column it needs.

    Fills the column w of ``tables.staged`` with P_xw for every x <= w, by
    the recursion in the module docstring, and ``tables.mu`` with the
    mu-list of w: the pairs (x, mu(x, w)) with mu(x, w) != 0.  Entries of
    columns already moved into ``tables.KL`` are read from there
    (``_reader``).  Reads only the masks of elements below w.
    """
    t = ctx.tables
    staged, mu, column = t.staged, t.mu, _reader(t)
    rmult, lengths, srd = ctx.rmult, ctx.lengths, ctx.srd
    stack = [wi]
    while stack:
        w = stack[-1]
        if w in mu:
            stack.pop()
            continue
        s = srd[w]
        if s < 0:  # w = e
            staged[w] = {w: _intern(t, (1,))}
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
        lower_v, pv = _lower(ctx, v), column(v)
        below = list(iter_bits(_lower(ctx, w)))
        col: dict[int, list[int]] = {}  # x with xs < x
        for x in below:
            xs = rmult[x][s]
            if lengths[xs] > lengths[x]:
                continue
            out = [0] * ((lw - lengths[x]) // 2 + 1)
            for i, c in enumerate(pv(xs)):
                out[i] += c
            if lower_v >> x & 1:
                for i, c in enumerate(pv(x), 1):
                    out[i] += c
            col[x] = out
        for z, m in terms:
            shift = (lw - lengths[z]) // 2
            pz = column(z)
            for x in iter_bits(_lower(ctx, z)):
                out = col.get(x)
                if out is not None:
                    for i, c in enumerate(pz(x), shift):
                        out[i] -= m * c
        done = {x: _intern(t, _trim(out)) for x, out in col.items()}
        mus = []
        ps = staged[w] = {}
        for x in below:
            p = done.get(x)
            if p is None:  # xs > x: P_xw = P_{xs,w}
                p = done[rmult[x][s]]
            ps[x] = p
            d = lw - lengths[x] - 1
            if d % 2 == 0 and len(p) > d // 2 and p[d // 2]:
                mus.append((x, p[d // 2]))
        mu[w] = mus


def _at(cs: Coeffs, bits: int) -> int:
    """The polynomial cs evaluated at q = 2^bits."""
    val = 0
    for c in reversed(cs):
        val = (val << bits) + c
    return val


def _right_descents(ctx: GroupContext) -> list[int]:
    """D_R(x) by id x, as a bitmask over the simple reflections."""
    lengths = ctx.lengths
    return [
        sum(1 << s for s, xs in enumerate(row) if lengths[xs] < lengths[x])
        for x, row in enumerate(ctx.rmult)
    ]


def _coset_tops(ctx: GroupContext, d: int) -> list[tuple[int, int]]:
    """(x*, l(x*) - l(x)) by id x: x* is the longest element of the coset
    x W_d, d a set of simple reflections as a bitmask.  Any chain of
    ascents xs > x with s in d ends at x*, so x* = x exactly when d is in
    D_R(x)."""
    rmult, lengths = ctx.rmult, ctx.lengths
    gens = list(iter_bits(d))
    tops: list[tuple[int, int]] = [(0, 0)] * ctx.order
    for x in reversed(range(ctx.order)):  # xs > x has the larger id
        tops[x] = x, 0
        for s in gens:
            xs = rmult[x][s]
            if lengths[xs] > lengths[x]:
                top, k = tops[xs]
                tops[x] = top, k + 1
                break
    return tops


def _reducible(
    ctx: GroupContext,
    rcols: dict[int, tuple[list[int], list[Coeffs]]],
    fcols: dict[int, list[Coeffs]],
    desc: list[int],
) -> bool:
    """Whether the premises of the coset reduction of ``_sums_at_q`` hold
    for the columns read: (a) F_vw = F_{vs,w} for every top w, s in D_R(w)
    and v <= w; (b) R_ee = 1 and every other R_xv is the step of ``_r`` at
    s = srd(v) read from the table, so that, by induction on l(v), the
    table is the R of the group (R_vv = R_{vs,vs} = 1 included)."""
    rmult = ctx.rmult
    for w, fs in fcols.items():
        if desc[w]:
            vs = rcols[w][0]
            fw = dict(zip(vs, fs))
            for s in iter_bits(desc[w]):
                if [fw.get(rmult[v][s]) for v in vs] != fs:
                    return False
    if rcols[0][1] != [(1,)]:
        return False
    t, lengths, srd = ctx.tables, ctx.lengths, ctx.srd
    steps = t.steps
    for v, (xs, rs) in rcols.items():
        s = srd[v]
        if s < 0:
            continue
        get = dict(zip(*rcols[rmult[v][s]])).get
        for x, r in zip(xs, rs):
            xs_ = rmult[x][s]
            if lengths[xs_] < lengths[x]:
                want = get(xs_, ())
            else:
                a, b = get(xs_, ()), get(x, ())
                want = steps.get(("R", a, b)) or _step(t, "R", a, b)
            if r != want:
                return False
    return True


def _sums_at_q(
    ctx: GroupContext,
    f: Callable[[int], Callable[[int], Coeffs]],
    ui: int = 0,
    wi: int = -1,
    ones: Columns | None = None,
) -> tuple[int, Iterator[tuple[int, dict[int, int]]]]:
    """B, and per top w one pair (w, {x: S_xw(Q)}), x by increasing id.

    Q = 2^B and S_xw = sum over v in [x, w] of R_xv * F_vw, where f(w)
    reads the column w of F: f(w)(v) gives the coefficients of F_vw.  With
    wi < 0 the sweep covers the whole group, every w a top and every
    x <= w; otherwise it covers the interval [u, w], with w its one top
    and every x in [u, w].  B serves an
    identity whose sides are sums of at most n such products, n the number
    of members: every coefficient of either side is then at most
    M = n * max ||R_xy||_1 * max ||F_vw||_1 (each norm at least 1, over the
    entries read), and coefficients <= M with 2^(B-1) > 2M make the
    identity exact at Q: a nonzero difference, its coefficients below
    2^(B-1) in absolute value, cannot vanish at 2^B.  The signed base-2^B
    digits of S_xw(Q) are then its coefficients (``_digits``).  The norms
    are read from the tables as they are now, so a corrupted entry raises B
    instead of breaking the identity.  The norms and the values at Q are
    taken once per distinct R or F value read, which the sweep then shares
    between the pairs that hold it.

    The whole-group sweep sums over the triples x <= v <= w only for the
    x with D_R(w) in D_R(x), about a tenth of them (du Cloux, Experiment.
    Math. 11, 2002).  Lemma: for s in D_R(w) and xs > x, S_xw = q S_{xs,w}.
    Pair each v <= w with vs, also <= w, and take vs < v.  With
    F_vw = F_{vs,w}, R_xv = q R_{xs,vs} + (q-1) R_{x,vs} and
    R_{xs,v} = R_{x,vs}, the pair adds q (R_{xs,vs} + R_{x,vs}) F_vw to
    S_xw and (R_{xs,vs} + R_{x,vs}) F_vw to S_{xs,w}.  So every
    x <= w gets S_xw(Q) = Q^k S_{x*,w}(Q), x* the top of the coset
    x W_{D_R(w)} and k = l(x*) - l(x) (``_coset_tops``): the same integer
    the sum over every v gives.  The lemma rests on two premises, which
    ``_reducible`` checks on the columns read before anything is summed:
    (a) F_vw = F_{vs,w} for every s in D_R(w), and (b) R is the group's R,
    which then obeys its recursion at every descent.  If either fails
    anywhere, every top is swept over every x, as the interval sweep always
    is.  The columns of v cut down to the coset tops of one D_R(w) are
    built on first use and kept for the rest of the sweep.

    If ``ones`` is a dict, the same sweep also writes into it, as
    ones[w][x] for every pair (x, w) it yields, the coefficients of the
    interval R-sum S_1, the sum with F = 1, read back by ``_digits`` once
    per distinct value.  B serves S_1 too, since ||1||_1 = 1 <=
    max(1, max ||F_vw||_1).  Each triple then adds R_xv(Q) to S_1, and
    R_xv(Q) (F_vw(Q) - 1) to S_F only where that is nonzero, and
    S_F = S_1 + the latter.  F = 1 meets (a), so S_1 obeys the lemma too.
    """
    if wi < 0:
        masks, span, tops = le_masks(ctx), (1 << ctx.order) - 1, range(ctx.order)
    else:
        span = 0
        for v in _between(ctx, ui, wi):  # builds the masks below w
            span |= 1 << v
        masks, tops = ctx.tables.le, (wi,)
    # column v: the ids x of the members below v and the R_xv, read once
    rcols = {}
    for v in iter_bits(span):
        xs = list(iter_bits(masks[v] & span))
        rcols[v] = xs, [_r(ctx, x, v) for x in xs]
    fcols = {w: list(map(f(w), rcols[w][0])) for w in tops}
    # D_R(w) by top w, its coset tops swept alone; None: every x swept
    desc = _right_descents(ctx) if wi < 0 else None
    if desc is not None and not _reducible(ctx, rcols, fcols, desc):
        desc = None
    rvals = {r for _, rs in rcols.values() for r in rs}
    fvals = {p for fs in fcols.values() for p in fs}
    norm_r = max(sum(map(abs, r)) for r in rvals)
    norm_f = max(sum(map(abs, p)) for p in fvals)
    m = len(rcols) * max(1, norm_r) * max(1, norm_f)
    bits = (2 * m).bit_length() + 1  # 2^(B-1) > 2M
    at = {cs: _at(cs, bits) for cs in rvals | fvals}
    for _, rs in rcols.values():
        rs[:] = [at[r] for r in rs]

    def sums() -> Iterator[tuple[int, dict[int, int]]]:
        digits: dict[int, Coeffs] = {}  # S_1(Q) -> its coefficients
        # D_R(w) -> its coset tops, which x are their own, and the columns
        # cut down to those x
        cosets: dict[int, tuple] = {0: (None, None, rcols)}
        for w in tops:
            vs = rcols[w][0]
            d = desc[w] if desc is not None else 0
            if d not in cosets:
                cos = _coset_tops(ctx, d)
                cosets[d] = cos, [x == t for x, (t, _) in enumerate(cos)], {}
            cos, is_top, cols = cosets[d]
            own = vs if cos is None else list(compress(vs, map(is_top.__getitem__, vs)))
            acc = dict.fromkeys(own, 0)
            acc1 = dict.fromkeys(own, 0) if ones is not None else None
            # transposed: for each v, add R_xv(Q) F_vw(Q) to every x below it
            for v, p in zip(vs, fcols.pop(w)):
                col = cols.get(v)
                if col is None:  # the coset tops of column v
                    keep = list(map(is_top.__getitem__, rcols[v][0]))
                    col = cols[v] = [list(compress(c, keep)) for c in rcols[v]]
                xs, rs = col
                c = at[p]
                if acc1 is not None:
                    for x, r in zip(xs, rs):
                        acc1[x] += r
                    c -= 1
                    if not c:
                        continue
                if c == 1:
                    for x, r in zip(xs, rs):
                        acc[x] += r
                else:
                    for x, r in zip(xs, rs):
                        acc[x] += r * c
            if acc1 is not None:
                for x, val in acc1.items():
                    acc[x] += val
            if cos is not None:  # S_xw(Q) = Q^k S_{x*,w}(Q)
                shifts = [cos[x] for x in vs]
                acc = {x: acc[t] << bits * k for x, (t, k) in zip(vs, shifts)}
                if acc1 is not None:
                    acc1 = {x: acc1[t] << bits * k for x, (t, k) in zip(vs, shifts)}
            if acc1 is not None:
                one = ones[w] = {}
                for x, val in acc1.items():
                    cs = digits.get(val)
                    if cs is None:
                        cs = digits[val] = _digits(val, bits)
                    one[x] = cs
            yield w, acc

    return bits, sums()


def _kl_faults(
    ctx: GroupContext,
    column: Callable[[int], Callable[[int], Coeffs]],
    ui: int = 0,
    wi: int = -1,
    ones: Columns | None = None,
) -> Iterator[tuple[int, int, str]]:
    """(x, w, fault) for each pair of the sweep of ``_sums_at_q`` (the
    interval [u, w], or the whole group when wi < 0) that fails a test, by
    w and then x, with P_xw = column(w)(x).  Tested: P_ww = 1, P_xw(0) = 1,
    the degree bound deg P_xw <= (l(x,w)-1)/2, and the functional
    equation, exactly at q = Q = 2^B:

        Q^l(x,w) P_xw(1/Q) = sum over y in [x, w] of R_xy(Q) P_yw(Q)

    The equation and the degree bound determine P_xw from the P_yw with
    y in (x, w], so when no pair of [x, w] fails, P_xw is the KL
    polynomial of the tables' R however it was computed.  ``ones`` is
    passed to the sweep, which fills it with the interval R-sums.

    Every pair is tested.  Over the whole group the sweep sums over the
    triples only for coset tops, and gives each other pair Q^k times its
    coset top's sum: when the premises of ``_sums_at_q`` hold, that is
    the integer a sum over its own triples gives, so every test sees the
    same values either way.  When they fail, it sums for every pair.
    """
    lengths = ctx.lengths
    bits, tops = _sums_at_q(ctx, column, ui, wi, ones)
    rev: dict[Coeffs, int] = {}  # P -> Q^(deg P) P(1/Q), once per value
    for w, acc in tops:
        lw, pw = lengths[w], column(w)
        for x, val in acc.items():
            p = pw(x)
            d = lw - lengths[x]
            if x == w:
                if p != (1,):
                    yield x, w, "diagonal KL entry not 1"
            elif not p or p[0] != 1 or 2 * len(p) > d + 1:
                yield x, w, f"malformed KL entry {p}"
            else:
                lhs = rev.get(p)
                if lhs is None:
                    lhs = rev[p] = _at(p[::-1], bits)
                if lhs << bits * (d + 1 - len(p)) != val:
                    yield x, w, "functional equation fails"


def _move(kl: Columns, wi: int, col: dict[int, Coeffs]) -> None:
    """Add the entries of col to the column w of kl, replacing none there;
    col itself becomes that column if kl has none."""
    have = kl.get(wi)
    if have is None:
        kl[wi] = col
    else:
        for x, p in col.items():
            have.setdefault(x, p)


def _certify(
    ctx: GroupContext,
    ui: int = 0,
    wi: int = -1,
    ones: Columns | None = None,
) -> list:
    """Check the P_xw over [u, w] and move the staged ones into
    ``tables.KL``; with wi < 0, over every comparable pair.

    Stages the columns of the tops first if needed, then runs one
    ``_kl_faults`` sweep and returns its faults, also on a table already
    certified.  Over the whole group the sweep sums only for the coset
    tops x*, D_R(w) in D_R(x*), when its two premises hold, and for every
    pair otherwise; the faults are the same either way (see
    ``_sums_at_q``).  The sweep also fills ``ones``, if given, with the
    interval R-sums of the pairs it covers.  A pair in ``tables.KL`` is
    read from there, even when empty (``_reader``), and never replaced by
    its staged entry.  Staged entries move a column at a time, and a staged
    column emptied is dropped.  Raises RuntimeError naming the first faulty
    pair not in ``tables.KL``, by w and then x, before moving anything.
    """
    t = ctx.tables
    kl, staged = t.KL, t.staged
    for w in range(ctx.order) if wi < 0 else (wi,):
        _stage(ctx, w)
    faults = list(_kl_faults(ctx, _reader(t), ui, wi, ones))
    for x, w, _ in faults:
        if x not in kl.get(w, ()):
            raise _kl_error(ctx, x, w)
    if wi < 0:
        for w, col in staged.items():
            _move(kl, w, col)
        staged.clear()
        return faults
    col = staged.get(wi, {})
    moved = {x: col.pop(x) for x in _between(ctx, ui, wi) if x in col}
    if not col:
        staged.pop(wi, None)
    if moved:
        _move(kl, wi, moved)
    return faults


def _kl_error(ctx: GroupContext, xi: int, wi: int) -> RuntimeError:
    return RuntimeError(_pair_fault(ctx, xi, wi, "KL functional equation failed"))


def _kl(ctx: GroupContext, ui: int, wi: int) -> Coeffs:
    """P_uw; () when u is not below w."""
    col = ctx.tables.KL.get(wi)
    if col is not None:
        res = col.get(ui)
        if res is not None:
            return res
    if ui == wi:
        return (1,)
    if not _le(ctx, ui, wi):
        return ()
    _certify(ctx, ui, wi)
    return ctx.tables.KL[wi][ui]


def _kl1(ctx: GroupContext, ui: int, wi: int) -> int:
    """P_uw evaluated at 1 (drives strict-edge machinery)."""
    return sum(_kl(ctx, ui, wi))


class _Column:
    """The column view of w: ``lower`` = lower(w), ``below`` = the x <= w
    by increasing id, ``ps`` = {x: P_xw} and ``p1`` = {x: P_xw(1)} (None
    without ``kl``), and the out-neighbors below w of each x, built on its
    first read and then kept (``out``).  Each P is read once, through
    ``_kl``, so a column not yet in ``tables.KL`` is certified first."""

    __slots__ = ("ctx", "w", "lower", "below", "ps", "p1", "_out")

    def __init__(self, ctx: GroupContext, wi: int, kl: bool = True):
        self.ctx, self.w = ctx, wi
        self.lower = _lower(ctx, wi)
        self.below = list(iter_bits(self.lower))
        self.ps: dict[int, Coeffs] | None = None
        self.p1: dict[int, int] | None = None
        if kl:
            self.ps = {x: _kl(ctx, x, wi) for x in self.below}
            self.p1 = {x: sum(p) for x, p in self.ps.items()}
        self._out: dict[int, list[int]] = {}

    def out(self, x: int) -> list[int]:
        """The out-neighbors of x below w, sorted by id, hence by length."""
        nb = self._out.get(x)
        if nb is None:
            nb = self._out[x] = _out_below(self.ctx, x, self.lower)
        return nb

    def defect(self, x: int) -> int:
        """df(x, w): out-neighbors of x below w minus l(x, w)."""
        lengths = self.ctx.lengths
        return len(self.out(x)) - (lengths[self.w] - lengths[x])


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


def _pair_fault(ctx: GroupContext, ui: int, wi: int, fault: str) -> str:
    """A fault of the pair (u, w), worded as this module's RuntimeErrors are."""
    u, w = ctx.elements[ui], ctx.elements[wi]
    return f"{fault} for ({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"


def _rt_support_fault(rt: Coeffs, a: int, ell: int) -> str | None:
    """The first coefficient of an Rt value (read as 0 up to q^l where
    short) that breaks the closed form's support pattern, a pair's
    absolute length a and length l > 0 given: positive exactly in degrees
    a, a+2, ..., l.  None if there is none."""
    for n, c in enumerate(rt + (0,) * (ell + 1 - len(rt))):
        expected_support = a <= n <= ell and (ell - n) % 2 == 0
        if expected_support and c <= 0:
            return f"Rtilde coefficient of q^{n} should be positive"
        if not expected_support and c != 0:
            return f"Rtilde parity violation at q^{n}"
    return None


def _rt_rebuilt(rt: Coeffs, a: int, ell: int) -> Coeffs:
    """Trimmed (q-1)-coefficients of R rebuilt from an Rt value that has
    the support pattern of ``_rt_support_fault``."""
    rebuilt = [0] * (ell + 1)
    for j in range(a, ell + 1, 2):
        m = (ell - j) // 2
        for i in range(m + 1):
            rebuilt[j + i] += rt[j] * comb(m, i)
    return _trim(rebuilt)


def check_r_rtilde_link(u: GroupElement, w: GroupElement) -> bool:
    """Verify R against Rtilde through the absolute-length closed form.

    Rtilde_uw must have strictly positive coefficients exactly in degrees
    a(u,w), a(u,w)+2, ..., l(u,w); writing c_j for them,

        R_uw(q) = sum_j c_j q^((l-j)/2) (q-1)^j,

    so, expanding q^m = (1 + (q-1))^m, the (q-1)^n coefficient of R_uw is
    sum_j c_j binomial((l-j)/2, n-j).  Returns True iff the rebuilt
    (q-1)-coefficients equal those of R_uw.  A coefficient pattern
    violation raises RuntimeError since it breaks the closed form itself,
    not just the equality.  The work is done on the pair's values by
    ``_rt_support_fault`` and ``_rt_rebuilt``, which the ``verify`` check
    r_basics calls once per distinct (R, Rt, a, l) instead of once per pair.
    """
    ctx = u.ctx
    if u == w or not bruhat_le(u, w):
        raise ValueError("check_r_rtilde_link requires u < w")
    a = absolute_length(u, w)
    ell = w.length - u.length
    rt = _r(ctx, u.index, w.index, "Rt")
    fault = _rt_support_fault(rt, a, ell)
    if fault is not None:
        raise RuntimeError(_pair_fault(ctx, u.index, w.index, fault))
    return _rt_rebuilt(rt, a, ell) == _shifted(ctx, _r(ctx, u.index, w.index))


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


def _fh_split(
    ctx: GroupContext, r: Coeffs, a: int, ell: int
) -> FHDecomposition | str:
    """The f/h-decomposition of an R value r, for a pair of absolute length
    a and length l > 0, or the fault that stops it: the (q-1)-multiplicity
    of r differs from a, or an invariant of ``FHDecomposition`` fails, or
    the decomposition does not rebuild r."""
    sh = _shifted(ctx, r)
    mult = next((i for i, c in enumerate(sh) if c), 0)
    if mult != a:
        return f"(q-1)-multiplicity {mult} of R differs from absolute length"
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
        and _from_shifted(sh) == r
    )
    if not ok:
        return "f/h-decomposition invariants failed"
    return FHDecomposition(a=a, d=d, f=f, h=h)


def fh_vectors(u: GroupElement, w: GroupElement) -> FHDecomposition:
    """Extract and validate the f/h-decomposition of R_uw (requires u < w).

    Raises RuntimeError naming the pair if it fails.  The work is done on
    the pair's values by ``_fh_split``, which the ``verify`` check
    fh_structure calls once per distinct (R, a, l) instead of once per pair.
    """
    ctx = u.ctx
    if u == w or not bruhat_le(u, w):
        raise ValueError("fh_vectors requires u < w")
    r = _r(ctx, u.index, w.index)
    fh = _fh_split(ctx, r, absolute_length(u, w), w.length - u.length)
    if isinstance(fh, str):
        raise RuntimeError(_pair_fault(ctx, u.index, w.index, fh))
    return fh


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
    path, so it terminates at a vertex with P(1) <= 1.  RuntimeError if a
    vertex on the way has no strict edge.  The one-pair reference for the
    column walk of ``_greedy_ends``.
    """
    _require_le(u, w)
    ctx, wi = u.ctx, w.index
    here = _kl1(ctx, u.index, wi)
    if here <= 1:
        raise ValueError("strict_path_to_smooth requires a singular bottom vertex")
    path = [u]
    while here > 1:
        cur = path[-1]
        vals = [(_kl1(ctx, v.index, wi), v.index) for v in neighborhood(cur, w)]
        strict = [c for c in vals if c[0] < here]
        if not strict:
            raise _stuck_error(ctx, cur.index, wi)
        here, vi = min(strict)
        path.append(ctx.elements[vi])
    return path


def _stuck_error(ctx: GroupContext, xi: int, wi: int) -> RuntimeError:
    """The error of a greedy path stuck at x under w: no strict edge."""
    return RuntimeError(
        f"singular vertex {word_of(ctx.elements[xi])!r} under "
        f"{word_of(ctx.elements[wi])!r} in {ctx.name} has no strict edge"
    )


def _greedy_ends(col: _Column) -> Callable[[int], tuple[int, bool]]:
    """The greedy walk of one column: a function mapping x <= w to (the end
    of the greedy strict path from x, False) or (the vertex where it gets
    stuck, True), as ``strict_path_to_smooth`` walks it, reading the
    column's out-neighbor lists.  A walk stops at the first vertex whose
    result is known, so each vertex is walked once per column."""
    ends: dict[int, tuple[int, bool]] = {}
    p1 = col.p1

    def end_of(x: int) -> tuple[int, bool]:
        walk = []
        while x not in ends and p1[x] > 1:
            walk.append(x)
            strict = [(p1[v], v) for v in col.out(x) if p1[v] < p1[x]]
            if not strict:
                ends[x] = x, True
                break
            x = min(strict)[1]
        res = ends.get(x, (x, False))
        for v in walk:
            ends[v] = res
        return res

    return end_of


def _singular_rows(
    ctx: GroupContext, wi: int
) -> Iterator[tuple[int, Coeffs, int, int, int, int]]:
    """(x, P_xw, P_xw(1), df(x, w), strict edges at x, greedy path end) for
    every x < w with P_xw != 1, by increasing id: the rows of ``classify``,
    from the column view of w and its greedy walk.  Raises as
    ``strict_path_to_smooth`` does, for the first row by increasing id
    whose path it cannot build, naming the same vertex.
    """
    col = _Column(ctx, wi)
    p1 = col.p1
    end_of = _greedy_ends(col)
    for x, p in col.ps.items():
        if x == wi or p == (1,):
            continue
        if p1[x] <= 1:
            raise ValueError("strict_path_to_smooth requires a singular bottom vertex")
        end, stuck = end_of(x)
        if stuck:
            raise _stuck_error(ctx, end, wi)
        strict = len([v for v in col.out(x) if p1[v] < p1[x]])
        yield x, p, p1[x], col.defect(x), strict, end


# -- whole-group tables --------------------------------------------------


def fill_tables(ctx: GroupContext, kinds: tuple[str, ...] = KINDS) -> None:
    """Compute every comparable pair's entry for the requested kinds.

    Top elements go by increasing id, hence length.  For KL, every column
    is staged by the recursion and then certified in one ``_certify`` sweep
    over the whole group; a second call certifies the table again.
    """
    masks = le_masks(ctx)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
    for wi in range(ctx.order):
        for kind in ("R", "Rt"):
            if kind in kinds:
                for ui in iter_bits(masks[wi]):
                    _r(ctx, ui, wi, kind)
    if "KL" in kinds:
        _certify(ctx)
