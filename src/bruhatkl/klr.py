"""Memoized exact tables of R-, Rtilde-, and Kazhdan-Lusztig polynomials,
plus the derived machinery: f/h-vectors, interval sums, and strict edges.

R and Rt satisfy one recursion that strips the smallest right descent s
of the top element w (fixed deterministically so the tables fill in a
reproducible order), and differ only in its step polynomials:

    R_uw  = R_{us,ws}           if us < u, else  q R_{us,ws} + (q-1) R_{u,ws}
    Rt_uw = Rt_{us,ws}          if us < u, else  Rt_{us,ws} + q Rt_{u,ws}

(Bjorner and Brenti, Combinatorics of Coxeter Groups, Thm. 5.1.1.)  It
runs a column at a time, ``_fill_columns``, wherever whole columns are
needed: over an interval [e, w], whose columns are all of [e, w], and so
over the whole group, [e, w0].  That one pass by increasing id fills each
missing entry from the column of ws and checks each present one against
it.  A whole-group pass runs once per command, before anything reads the
table: in the KL certificate (``_certify``), whose coset reduction takes
the pass's verdict as a premise, or, when nothing reads KL, in
``theorems.run_suite`` or ``fill_tables``; every whole-group sweep after
it only reads R.  A single pair, or an interval [u, w] with u != e, is
filled by ``_r``, the same recursion one pair at a time, which reads only
the pairs it needs.

KL polynomials are defined by the functional equation

    q^l(u,w) P_uw(1/q) = sum over u <= v <= w of R_uv(q) P_vw(q)

together with P_ww = 1 and the degree bound deg P_uw <= (l(u,w)-1)/2,
which determine P_uw uniquely.  They are computed a whole column
P_{., w} at a time by the Kazhdan-Lusztig recursion (Invent. Math. 53,
1979, (2.2.c)) over the same s, with v = ws and c = [xs < x]:

    P_xw = q^(1-c) P_{xs,v} + q^c P_{x,v}
           - sum over z with zs < z of mu(z,v) q^((l(w)-l(z))/2) P_{x,z}

where mu(z,v) is the coefficient of q^((l(z,v)-1)/2) in P_zv.  A column
goes into ``tables.KL`` with its entries marked in ``tables.pending``;
an entry is served only once its mark is cleared, after ``_kl_faults``
has found no fault on the whole interval [u, w] asked for, or on the
whole group in ``fill_tables`` (see ``_certify``).  It tests P_ww = 1,
P(0) = 1, the degree bound and the functional equation, the last exactly
at q = 2^B through the interval sums of ``_sums_at_q``.  So every KL
value served has passed the check, whatever the recursion computed.

A whole-group sweep of ``_sums_at_q`` can skip most pairs: its
``reduction`` argument says which x it sums for each top w, and gives
every other pair a representative pair, swept no later, whose sum is the
pair's up to a shift and a sign.  It has two values, each with premises
checked on the entries read before anything is summed; if they fail
anywhere, the sweep sums every pair, so a corrupted table gets the same
sums, faults and errors either way.
- ``_Cosets`` (F = P and F = 1: the certificate and the interval
  R-sums) sums only the right-extremal pairs, D_R(w) in D_R(x) (du
  Cloux, Experiment. Math. 11, 2002; Bjorner and Brenti, Combinatorics
  of Coxeter Groups, Thm. 5.1.1 and Prop. 5.1.8).  For s in D_R(w) and
  xs > x, pairing each v with vs gives S_xw = q S_{xs,w}, so every other
  pair's sum is its coset top's sum times a power of q
  (``_coset_tops``).  Premises: (a) F_vw = F_{vs,w} for s in D_R(w),
  and (b) the R table follows the recursion above, hence is the group's
  R, which the certificate's column pass over R reports.  The
  reduction is only on the right.  The two-sided one, D_L(w) in
  D_L(x) as well, would sweep 2.2% of D4's triples and 2.6% of B4's
  (8.2% and 10.6% on the right alone), but needs premises on the left
  too.
- ``_Orbits`` (F = +-R: r_alternating_sum) sums one pair per orbit of
  the symmetries R_xv = R_{x^-1, v^-1} and R_xv = R_{v w0, x w0}
  (Bjorner and Brenti, ch. 5), which are its premises: 35.2% of D4's
  triples, 30.1% of F4's.  Premise 1 is the test of the r_inverse_symmetry
  check, ``_inverse_faults``: one sweep per ``theorems.run_suite`` call,
  whose verdict the caller passes in, as premise (b) of ``_Cosets`` is.

The tables are the ``R``, ``Rt``, ``KL``, ``pending`` and ``mu`` fields
of the owning context's ``ctx.tables``.  The first three hold comparable
pairs only, one dict per top w keyed by x (``coxeter.Columns``), so a
sweep resolves a column once and then reads its entries by x; ``pending``
and ``mu`` are keyed by w.  The keys of R, Rt and KL are the context's
one int object per id (``ctx.ids``), not a new int per entry.  They are
filled on demand (one thread at a time), R and Rt by the column pass or
the pair recursion above, and nothing else mutates them.
Coefficients are Python integers throughout, so nothing can overflow.

The tables hold few distinct values (81 R polynomials over A5's 98,407
comparable pairs), so each value is held once: every entry filled in is
the tuple of ``tables.pool`` equal to it (``_intern``), and each piece of
arithmetic on values runs once per value, never per pair.  The step
top * a + side * b of the R/Rt recursion is memoized in ``tables.steps``
by (kind, a, b), and a sweep of ``_sums_at_q`` evaluates each distinct R
and F value at Q once.  Keyed by value, no memo can serve a result for an
entry that has since changed: the changed entry is looked up by its new
value.  R's (q-1)-expansion is not memoized: a check expands it once per
value class, and a one-pair function once per call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from math import comb
from operator import itemgetter, lt
from typing import Callable, Iterator

from bruhatkl.bruhat import (
    absolute_length,
    bruhat_le,
    iter_bits,
    le_masks,
    neighborhood,
)
from bruhatkl.bruhat import _le, _lower, _require_le, _up_masks
from bruhatkl.coxeter import Coeffs, Columns, GroupContext, GroupElement, Tables
from bruhatkl.coxeter import _check_same_context, _mul, word_of
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
    """R_uw (kind "R") or Rt_uw (kind "Rt"); () when u is not below w.

    The recursion of one pair, filling the entries it reads on the way: a
    reader of single pairs, and of the interval [u, w] with u != e, where
    whole columns would cost more than the pairs asked for.  Whole-group
    and [e, w] fills go through ``_fill_columns``, which stores the same
    values."""
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
        col = table[ctx.ids[wi]] = {}
    col[ctx.ids[ui]] = res  # the shared key object
    return res


def _fill_columns(ctx: GroupContext, kind: str = "R", wi: int = -1) -> bool:
    """Fill the missing R (or Rt) entries of every column v <= w, and check
    the present ones, in one pass over the columns by increasing id; with
    wi < 0, w = w0, the last id, above every element, so the pass covers
    the whole group.  Returns whether every present entry equals the
    recursion's value.

    For each x <= v, with T the kind's table, the pass takes the step of
    ``_r`` at s = srd(v) from the column of vs, already complete: T_xv =
    T_{xs,vs} if xs < x, else the kind's step of T_{xs,vs} and T_{x,vs}
    (() where that pair is not comparable).  A diagonal entry is 1.  A
    missing entry gets that value, keyed by the ``ctx.ids`` objects, which
    is the value ``_r`` gives it.  A present entry, planted or (), is kept
    and read as it is, and only compared with it.  So with kind "R" and a
    True result, by induction on l(v), the table holds the R of the group
    on the columns passed: premise (b) of ``_Cosets``.

    Each column is worked on whole, with C-level maps: the value of an
    entry is looked up in a memo of the pass by what it depends on,
    (xs < x, T_{xs,vs}, T_{x,vs}), so each distinct triple is decided once
    (``_step``) and every per-entry step is a dict lookup.
    """
    t = ctx.tables
    table = getattr(t, kind)
    ids, rmult, srd = ctx.ids, ctx.rmult, ctx.srd
    one = _intern(t, (1,))
    columns = list(iter_bits(_lower(ctx, ctx.order - 1 if wi < 0 else wi)))
    for v in columns:
        _lower(ctx, v)
    masks = t.le
    fits = True
    memo: dict[tuple[bool, Coeffs, Coeffs], Coeffs] = {}  # -> T_xv
    for v in columns:
        xs = list(iter_bits(masks[v]))
        s = srd[v]
        if s < 0:  # v = e
            wants = [one]
        else:
            get = table[rmult[v][s]].get  # the column of vs, passed already
            ys = list(map(itemgetter(s), map(rmult.__getitem__, xs)))  # the xs
            keys = list(
                zip(
                    map(lt, ys, xs),  # xs < x: ids grow with length
                    map(get, ys, repeat(())),
                    map(get, xs, repeat(())),
                )
            )
            wants = list(map(memo.get, keys))
            if None in wants:
                for i, want in enumerate(wants):
                    if want is None:
                        down, a, b = key = keys[i]
                        wants[i] = memo[key] = a if down else _step(t, kind, a, b)
            wants[-1] = one  # x = v, the largest id below v
        col = table.get(v)
        if col is None:
            table[ids[v]] = dict(zip(map(ids.__getitem__, xs), wants))
        elif list(map(col.get, xs)) != wants:
            for x, want in zip(xs, wants):
                have = col.get(x)
                if have is None:
                    col[ids[x]] = want
                elif have != want:
                    fits = False
    return fits


def _inverse_faults(ctx: GroupContext) -> list[tuple[int, int]]:
    """The pairs (x, w), by w and then x, with R_xw != R_{x^-1, w^-1},
    read from R as the caller's pass left it (``_fill_columns``): the
    test of the r_inverse_symmetry check and premise 1 of ``_Orbits``,
    which holds when the list is empty."""
    inv, table, masks = ctx.inv, ctx.tables.R, le_masks(ctx)
    return [
        (x, w) for w in range(ctx.order) for x in iter_bits(masks[w])
        if table[w][x] != table[inv[w]][inv[x]]
    ]


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
    """The KL column reader: w -> (v -> P_vw), read from ``t.KL``, pending
    or not.  Each call resolves the column of w once, for all the v read
    from it."""
    kl = t.KL
    return lambda w: kl[w].__getitem__


def _stage(ctx: GroupContext, wi: int) -> None:
    """Stage the KL column of w, and first every column it needs.

    Computes P_xw for every x <= w by the recursion in the module
    docstring, and fills ``tables.mu`` with the mu-list of w: the pairs
    (x, mu(x, w)) with mu(x, w) != 0.  Puts into the column w of
    ``tables.KL`` each P_xw whose x is not there yet and sets its bit in
    ``tables.pending``; an entry already there, for a pair below w or
    not, is kept, read in place of the computed one, and not marked.  A
    column put in whole takes the mask le[w] as its pending mask.  Reads
    only the masks of elements below w.
    """
    t = ctx.tables
    kl, pending, mu, column = t.KL, t.pending, t.mu, _reader(t)
    rmult, lengths, srd, ids = ctx.rmult, ctx.lengths, ctx.srd, ctx.ids
    stack = [wi]
    while stack:
        w = stack[-1]
        if w in mu:
            stack.pop()
            continue
        s = srd[w]
        if s < 0:  # w = e
            ps, mus = {w: _intern(t, (1,))}, []
        else:
            v = rmult[w][s]
            if v not in mu:
                stack.append(v)
                continue
            terms = [(z, m) for z, m in mu[v] if lengths[rmult[z][s]] < lengths[z]]
            missing = [z for z, _ in terms if z not in mu]
            if missing:
                stack.extend(missing)
                continue
            lw = lengths[w]
            lower_v, pv = _lower(ctx, v), column(v)
            # the x <= w as the shared key objects, which ps and mus keep
            below = list(map(ids.__getitem__, iter_bits(_lower(ctx, w))))
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
            mus, ps = [], {}
            for x in below:
                p = done.get(x)
                if p is None:  # xs > x: P_xw = P_{xs,w}
                    p = done[rmult[x][s]]
                ps[x] = p
                d = lw - lengths[x] - 1
                if d % 2 == 0 and len(p) > d // 2 and p[d // 2]:
                    mus.append((x, p[d // 2]))
        w = ids[w]
        mu[w] = mus  # w is popped at the next turn
        have = kl.setdefault(w, ps)
        if have is ps:
            pending[w] = _lower(ctx, w)
            continue
        new = {x: p for x, p in ps.items() if x not in have}
        if new:
            have.update(new)
            pending[w] = sum(1 << x for x in new)


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


class _LazyColumns(dict):
    """Columns cut down for a sweep of ``_sums_at_q``: a missing key v
    gets make(v), made on its first read and then kept, so a column
    once made is read with no Python call."""

    def __init__(self, make: Callable[[int], tuple[list[int], list[int]]]):
        super().__init__()
        self.make = make

    def __missing__(self, v: int) -> tuple[list[int], list[int]]:
        col = self[v] = self.make(v)
        return col


class _Cosets:
    """The coset reduction of a whole-group ``_sums_at_q`` sweep (the
    lemma in its docstring): for each top w, with d = D_R(w), sum only
    the coset tops, the x with d in D_R(x), and give every x <= w the sum
    of the top x* of its coset x W_d times Q^k, k = l(x*) - l(x)
    (``_coset_tops``).  Serves F = P and F = 1.

    Premises (``holds``): (a) F_vw = F_{vs,w} for every top w, s in
    D_R(w) and v <= w, checked on the F columns read; (b) every R_xv is
    the step of the recursion at s = srd(v) from the column of vs, and
    every diagonal entry is 1, so that, by induction on l(v), the table is
    the R of the group.  (b) is not derived again here: it is the verdict
    of the ``_fill_columns`` pass over R that the caller of the sweep
    (``_certify``) made before it, passed to the sweep as ``premise``.
    F = 1 meets (a), so the R-sums S_1 obey the lemma too.  The columns of v
    cut down to the coset tops of one D_R(w) are built on first use and
    dropped after the last top w with that D_R(w).
    """

    ones = True  # serves the sums S_1 of ``_sums_at_q`` too

    def __init__(self, ctx: GroupContext, rcols: dict, fcols: dict):
        self.ctx, self.rcols, self.fcols = ctx, rcols, fcols
        self.desc = _right_descents(ctx)
        self.last = {d: w for w, d in enumerate(self.desc)}
        # D_R(w) -> its coset tops, which x are their own, and the columns
        # cut down to those x
        self.cosets: dict[int, tuple] = {}

    def holds(self) -> bool:
        """Premise (a), checked on the F columns read; (b) is the
        sweep's ``premise``."""
        rmult, desc = self.ctx.rmult, self.desc
        for w, fs in self.fcols.items():
            if desc[w]:
                vs = self.rcols[w][0]
                fw = dict(zip(vs, fs))
                for s in iter_bits(desc[w]):
                    if [fw.get(rmult[v][s]) for v in vs] != fs:
                        return False
        return True

    def top(self, w: int, vs: list[int]) -> tuple:
        """(own, cut, spread) for the top w, as ``_sums_at_q`` reads
        them: the x summed, {v: the column v cut down to them}, and the
        map from their sums to every x's (None: every x is summed)."""
        d = self.desc[w]
        if not d:  # w = e
            return vs, self.rcols, None
        entry = self.cosets.get(d)
        if entry is None:
            cos = _coset_tops(self.ctx, d)
            is_top = [x == t for x, (t, _) in enumerate(cos)]
            rcols = self.rcols

            def make(v: int) -> tuple[list[int], list[int]]:
                keep = list(map(is_top.__getitem__, rcols[v][0]))
                return tuple(list(compress(c, keep)) for c in rcols[v])

            entry = self.cosets[d] = cos, is_top, _LazyColumns(make)
        if self.last[d] == w:
            del self.cosets[d]
        cos, is_top, cut = entry

        def spread(acc: dict[int, int], bits: int) -> dict[int, int]:
            shifts = map(cos.__getitem__, vs)  # S_xw(Q) = Q^k S_{x*,w}(Q)
            return {x: acc[t] << bits * k for x, (t, k) in zip(vs, shifts)}

        own = list(compress(vs, map(is_top.__getitem__, vs)))
        return own, cut, spread


class _Orbits:
    """The symmetry-orbit reduction of a whole-group ``_sums_at_q`` sweep
    with F_vw = (-1)^l(v) R_vw, which serves r_alternating_sum.

    With N = l(w0) and w0 the last id, two symmetries of R (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, ch. 5) are its premises:
    (1) R_xv = R_{x^-1, v^-1}, and (2) R_xv = R_{v w0, x w0}, for every
    pair x <= v.  v -> v^-1 maps [x, w] onto [x^-1, w^-1], and v -> v w0
    maps it onto [w w0, x w0], reversing the order, with l(v w0) = N -
    l(v).  So term by term, S_xw = S_{x^-1, w^-1} = (-1)^N S_{w w0, x w0}:
    the same integers at Q.  Each pair's representative is reached by at
    most one of each map: (w w0, x w0) if l(x) + l(w) > N, then the
    inverse pair if its top has the larger id.  So the sweep sums only the
    tops w with id(w) <= id(w^-1), over the x with l(x) + l(w) <= N, a
    prefix of each column by id (35.2% of D4's triples, 30.1% of F4's),
    and every representative lies in its pair's column or an earlier one.

    ``holds`` checks, on the columns read, (2) for the pairs with
    l(x) + l(v) <= N, whose images are all the others, and that F is
    (-1)^l(v) R on every top; a missing entry fails.  (1) is not tested
    again here: it is the verdict of the caller's ``_inverse_faults``
    sweep, the test of the r_inverse_symmetry check, passed to the sweep
    as ``premise``.
    """

    ones = False  # S_1 has no such symmetry

    def __init__(self, ctx: GroupContext, rcols: dict, fcols: dict):
        self.ctx, self.rcols, self.fcols = ctx, rcols, fcols
        w0 = ctx.order - 1
        self.n = ctx.lengths[w0]
        self.times_w0 = [_mul(ctx, x, w0) for x in range(ctx.order)]
        # top w -> the nonzero sums it summed: on a sound table, S_ww alone
        self.kept: dict[int, dict[int, int]] = {}

    def _end(self, lw: int) -> int:
        """The first id longer than N - l(w): the x summed for a top w are
        the ids below it, since ids grow with length."""
        return bisect_right(self.ctx.lengths, self.n - lw)

    def holds(self) -> bool:
        """Premise (2), checked on the columns read, and F = +-R; (1) is
        the sweep's ``premise``."""
        ctx, rcols = self.ctx, self.rcols
        lengths, times_w0 = ctx.lengths, self.times_w0
        negated: dict[Coeffs, Coeffs] = {}  # R value -> -R
        for w, fs in self.fcols.items():
            vs, rs = rcols[w]
            for r in set(rs) - negated.keys():
                negated[r] = tuple(-c for c in r)
            if fs != [negated[r] if lengths[v] % 2 else r for v, r in zip(vs, rs)]:
                return False
        column = ctx.tables.R.get
        for v, (xs, rs) in rcols.items():
            i = bisect_left(xs, self._end(lengths[v]))
            vw0 = times_w0[v]
            for x, r in zip(xs[:i], rs[:i]):
                col = column(times_w0[x])
                if col is None or col.get(vw0) != r:
                    return False
        return True

    def top(self, w: int, vs: list[int]) -> tuple:
        """(own, cut, spread) for the top w, as for ``_Cosets``."""
        lengths, inv, times_w0 = self.ctx.lengths, self.ctx.inv, self.times_w0
        lw, n, kept = lengths[w], self.n, self.kept

        def spread(acc: dict[int, int], bits: int) -> dict[int, int]:
            if acc:  # w summed: keep its nonzero sums for later tops
                kept[w] = {x: v for x, v in acc.items() if v}
            out = {}
            for x in vs:
                if lengths[x] + lw <= n:
                    x1, w1, neg = x, w, False
                else:  # (w w0, x w0): S_xw = (-1)^N S_{w w0, x w0}
                    x1, w1, neg = times_w0[w], times_w0[x], n % 2 == 1
                if w1 > inv[w1]:  # S_xw = S_{x^-1, w^-1}
                    x1, w1 = inv[x1], inv[w1]
                val = kept[w1].get(x1, 0)
                out[x] = -val if neg else val
            return out

        if w > inv[w]:
            return [], None, spread
        end = self._end(lw)
        rcols = self.rcols

        def make(v: int) -> tuple[list[int], list[int]]:
            xs, rs = col = rcols[v]
            i = bisect_left(xs, end)
            return col if i == len(xs) else (xs[:i], rs[:i])

        return vs[: bisect_left(vs, end)], _LazyColumns(make), spread


def _sums_at_q(
    ctx: GroupContext,
    f: Callable[[int], Callable[[int], Coeffs]],
    ui: int = 0,
    wi: int = -1,
    ones: Columns | None = None,
    reduction: type[_Cosets] | type[_Orbits] | None = None,
    premise: bool = False,
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
    between the pairs that hold it.  A whole-group sweep only reads R: the
    caller has filled all of it (``_fill_columns``).  An interval
    sweep fills what it reads of R first: over [e, w] by one
    ``_fill_columns`` pass, and over [u, w] with u != e by ``_r``, pair by
    pair.

    A whole-group sweep can be given a ``reduction``: ``_Cosets`` (F = P
    and F = 1) or ``_Orbits`` (F = +-R), and ``premise``, the caller's
    verdict on the one premise of it that the reduction does not test
    itself: (b) of ``_Cosets``, the result of the caller's pass over R,
    or (1) of ``_Orbits``, that ``_inverse_faults`` found none.  Its
    ``top`` says which x to sum for each top w, and its ``spread`` gives
    every other pair the sum of its representative pair, swept no later,
    times the shift Q^k and the sign that relate the two; ``_Orbits``
    keeps the sums of earlier tops that it needs, and no other.  Its
    other premises (``holds``) are checked on the columns read before
    anything is summed.  If ``premise`` is false or one of them fails, or
    if the reduction does not serve the sums S_1 asked for, every top is
    swept over every x, as the interval sweep always is.  Either way each pair
    gets the integer a sum over its own triples gives.  Lemma of
    ``_Cosets``, the reduction of du Cloux
    (Experiment. Math. 11, 2002) that sums only the x with D_R(w) in
    D_R(x), about a tenth of the triples: for s in D_R(w) and xs > x,
    S_xw = q S_{xs,w}.  Pair each v <= w with vs, also <= w, and take
    vs < v.  With F_vw = F_{vs,w}, R_xv = q R_{xs,vs} + (q-1) R_{x,vs} and
    R_{xs,v} = R_{x,vs}, the pair adds q (R_{xs,vs} + R_{x,vs}) F_vw to
    S_xw and (R_{xs,vs} + R_{x,vs}) F_vw to S_{xs,w}.  So every x <= w
    gets S_xw(Q) = Q^k S_{x*,w}(Q), x* the top of the coset x W_{D_R(w)}
    and k = l(x*) - l(x).

    If ``ones`` is a dict, the same sweep also writes into it, as
    ones[w][x] for every pair (x, w) it yields, the coefficients of the
    interval R-sum S_1, the sum with F = 1, read back by ``_digits`` once
    per distinct value.  B serves S_1 too, since ||1||_1 = 1 <=
    max(1, max ||F_vw||_1).  Each triple then adds R_xv(Q) to S_1, and
    R_xv(Q) (F_vw(Q) - 1) to S_F only where that is nonzero, and
    S_F = S_1 + the latter.
    """
    if wi < 0:
        masks, span, tops = le_masks(ctx), (1 << ctx.order) - 1, range(ctx.order)
    else:
        span = 0
        for v in _between(ctx, ui, wi):  # builds the masks below w
            span |= 1 << v
        masks, tops, reduction = ctx.tables.le, (wi,), None
    # column v: the ids x of the members below v and the R_xv, read once;
    # over the group or [e, w] every column is needed whole: the caller's
    # pass filled the group's, and one pass fills those of [e, w]; else
    # ``_r`` fills the pairs read
    whole = wi < 0 or ui == 0
    if whole and wi >= 0:
        _fill_columns(ctx, "R", wi)
    ids = ctx.ids
    rcols = {}
    table = ctx.tables.R
    for v in iter_bits(span):
        xs = list(map(ids.__getitem__, iter_bits(masks[v] & span)))
        if whole:
            rcols[v] = xs, list(map(table[v].__getitem__, xs))
        else:
            get = table.get(v, {}).get  # entries there, else ``_r``
            rcols[v] = xs, [get(x) or _r(ctx, x, v) for x in xs]
    fcols = {w: list(map(f(w), rcols[w][0])) for w in tops}
    red = None
    if reduction is not None and premise and (ones is None or reduction.ones):
        red = reduction(ctx, rcols, fcols)
        red = red if red.holds() else None
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
        for w in tops:
            vs = rcols[w][0]
            fs = fcols.pop(w)
            if red is None:
                own, cut, spread = vs, rcols, None
            else:
                own, cut, spread = red.top(w, vs)
            acc = dict.fromkeys(own, 0)
            acc1 = dict.fromkeys(own, 0) if ones is not None else None
            # transposed: for each v, add R_xv(Q) F_vw(Q) to every x below it
            for v, p in zip(vs, fs) if own else ():
                xs, rs = cut[v]
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
            if spread is not None:  # the other pairs', from representatives'
                acc = spread(acc, bits)
                if acc1 is not None:
                    acc1 = spread(acc1, bits)
            if acc1 is not None:
                one = ones[ids[w]] = {}
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
    recursive: bool = False,
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
    passed to the sweep, which fills it with the interval R-sums, and so
    is ``recursive``, the verdict of the caller's pass over R.

    Every pair is tested.  Over the whole group the sweep takes the
    reduction ``_Cosets``: it sums over the triples only for coset tops,
    and gives each other pair Q^k times its coset top's sum.  When the
    premises hold, that is the integer a sum over its own triples gives,
    so every test sees the same values either way.  When they fail, it
    sums for every pair.
    """
    lengths = ctx.lengths
    bits, tops = _sums_at_q(ctx, column, ui, wi, ones, _Cosets, recursive)
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


def _certify(
    ctx: GroupContext,
    ui: int = 0,
    wi: int = -1,
    ones: Columns | None = None,
) -> list:
    """Check the P_xw over [u, w] and clear their ``tables.pending``
    bits; with wi < 0, over every comparable pair.

    Stages the columns of the tops first if needed, then runs one
    ``_kl_faults`` sweep and returns its faults, also on a table already
    certified.  Over the whole group it first makes the one
    ``_fill_columns`` pass over R of the command, which fills what is
    missing of R and whose verdict is premise (b) of the sweep's coset
    reduction; every reader of R after it, in this call and in the checks
    of ``theorems.run_suite``, reads the table it left.  The sweep sums
    only for the coset tops x*, D_R(w) in D_R(x*), when its two premises
    hold, and for every pair otherwise; the faults are the same either
    way (see ``_sums_at_q``).  The sweep also fills ``ones``, if given,
    with the interval R-sums of the pairs it covers.  Raises RuntimeError
    naming the first faulty pair whose pending bit is set, by w and then
    x, before clearing any bit.
    """
    t = ctx.tables
    pending = t.pending
    for w in range(ctx.order) if wi < 0 else (wi,):
        _stage(ctx, w)
    recursive = wi < 0 and _fill_columns(ctx, "R")
    faults = list(_kl_faults(ctx, _reader(t), ui, wi, ones, recursive))
    for x, w, _ in faults:
        if pending.get(w, 0) >> x & 1:
            raise _kl_error(ctx, x, w)
    if wi < 0:
        pending.clear()
    elif wi in pending:
        left = pending.pop(wi) & ~sum(1 << x for x in _between(ctx, ui, wi))
        if left:
            pending[wi] = left
    return faults


def _kl_error(ctx: GroupContext, xi: int, wi: int) -> RuntimeError:
    return RuntimeError(_pair_fault(ctx, xi, wi, "KL functional equation failed"))


def _kl(ctx: GroupContext, ui: int, wi: int) -> Coeffs:
    """P_uw; () when u is not below w.  An entry still pending is
    certified first."""
    t = ctx.tables
    col = t.KL.get(wi)
    if col is not None:
        res = col.get(ui)
        if res is not None and not t.pending.get(wi, 0) >> ui & 1:
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
    by increasing id, ``up`` = the out-neighbor masks (``_up_masks``), so
    that the out-neighbors of x below w are up[x] & lower, ``df`` = {x:
    df(x, w)}, their number minus l(x, w), and with ``kl`` (else None)
    ``ps`` = {x: P_xw}, ``p1`` = {x: P_xw(1)} and ``eq``, the pairs (c,
    mask of the x with P_xw(1) = c) by increasing c.  Each P is read once:
    from the KL column of w when no entry of it is pending, else, or where
    an x is missing, through ``_kl``, which certifies a pending entry
    first."""

    __slots__ = ("w", "lower", "below", "up", "df", "ps", "p1", "eq", "_lt")

    def __init__(self, ctx: GroupContext, wi: int, kl: bool = True):
        lengths, lower, up = ctx.lengths, _lower(ctx, wi), _up_masks(ctx)
        self.w, self.lower, self.up = wi, lower, up
        self.below = list(iter_bits(lower))
        lw = lengths[wi]
        self.df = {x: (up[x] & lower).bit_count() - lw + lengths[x] for x in self.below}
        self.ps = self.p1 = self.eq = None
        self._lt: dict[int, int] = {}
        if kl:
            t = ctx.tables
            get = ({} if t.pending.get(wi) else t.KL.get(wi, {})).get
            self.ps = {x: get(x) or _kl(ctx, x, wi) for x in self.below}
            self.p1 = {x: sum(p) for x, p in self.ps.items()}
            eq: dict[int, int] = {}
            for x, c in self.p1.items():
                eq[c] = eq.get(c, 0) | 1 << x
            self.eq = sorted(eq.items())

    def count_lt(self, x: int, c: int) -> int:
        """The out-neighbors v of x below w with P_vw(1) < c, counted; the
        mask of the v <= w with P_vw(1) < c is kept by c."""
        m = self._lt.get(c)
        if m is None:
            m = self._lt[c] = sum(mask for d, mask in self.eq if d < c)
        return (self.up[x] & m).bit_count()  # m holds no bit outside lower

    def p1_sum(self, x: int) -> int:
        """The sum of P_vw(1) over the out-neighbors v of x below w: c
        times their number in the mask of c, for each value c of P(1) by
        increasing c, until every one is counted."""
        out = self.up[x] & self.lower
        total, left = 0, out.bit_count()  # left: the v not counted yet
        for c, mask in self.eq:
            if not left:
                break
            k = (out & mask).bit_count()
            total += c * k
            left -= k
        return total

    def step(self, x: int) -> int | None:
        """The greedy step from x: the out-neighbor v of x below w with
        P_vw(1) < P_xw(1) least by (P_vw(1), v), None if there is none."""
        out, here = self.up[x], self.p1[x]  # each mask is inside lower
        for c, mask in self.eq:
            if c >= here:
                break
            hit = out & mask
            if hit:
                return (hit & -hit).bit_length() - 1
        return None


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
    return _rt_rebuilt(rt, a, ell) == _to_shifted(_r(ctx, u.index, w.index))


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


def _fh_split(r: Coeffs, a: int, ell: int) -> FHDecomposition | str:
    """The f/h-decomposition of an R value r, for a pair of absolute length
    a and length l > 0, or the fault that stops it: the (q-1)-multiplicity
    of r differs from a, or an invariant of ``FHDecomposition`` fails, or
    the decomposition does not rebuild r."""
    sh = _to_shifted(r)
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
    if u == w or not bruhat_le(u, w):
        raise ValueError("fh_vectors requires u < w")
    return _fh_of(u.ctx, u.index, w.index, absolute_length(u, w))


def _fh_of(ctx: GroupContext, ui: int, wi: int, a: int) -> FHDecomposition:
    """``fh_vectors`` of u < w, given a = a(u, w): ``_fh_split`` of R_uw,
    raising RuntimeError naming the pair if it fails."""
    fh = _fh_split(_r(ctx, ui, wi), a, ctx.lengths[wi] - ctx.lengths[ui])
    if isinstance(fh, str):
        raise RuntimeError(_pair_fault(ctx, ui, wi, fh))
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
    stuck, True), as ``strict_path_to_smooth`` walks it, by the column's
    steps (``_Column.step``).  A walk stops at the first vertex whose
    result is known, so each vertex is walked once per column."""
    ends: dict[int, tuple[int, bool]] = {}
    p1 = col.p1

    def end_of(x: int) -> tuple[int, bool]:
        walk = []
        while x not in ends and p1[x] > 1:
            walk.append(x)
            v = col.step(x)
            if v is None:
                ends[x] = x, True
                break
            x = v
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
        yield x, p, p1[x], col.df[x], col.count_lt(x, p1[x]), end


# -- whole-group tables --------------------------------------------------


def fill_tables(ctx: GroupContext, kinds: tuple[str, ...] = KINDS) -> None:
    """Compute every comparable pair's entry for the requested kinds.

    R and Rt each take one pass of ``_fill_columns``, which fills what is
    missing and checks what is there.  For KL, every column is staged by
    the recursion and then certified in one ``_certify`` sweep over the
    whole group, which makes the pass over R itself, so R takes one pass
    either way; a second call certifies the table again.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
    if "Rt" in kinds:
        _fill_columns(ctx, "Rt")
    if "KL" in kinds:
        _certify(ctx)
    elif "R" in kinds:
        _fill_columns(ctx, "R")
