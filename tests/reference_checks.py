"""Coefficient-form checks, the reference the library's fast checks are tested against.

``bruhatkl.theorems`` tests r_alternating_sum, kl_basics and the interval
R-sums of dvc_linear, nth2_quadratic and smoothness_equivalence at one
point q = 2^B, and kl_monotone and mono_equiv a column class at a time.
This module keeps the other route: every identity in coefficient form,
every interval R-sum by ``sum_r_over`` (R entries added one at a time)
and every triple u <= v <= w one at a time.  One change from that route
as it was: kl_basics sizes its accumulator to the longest product, so an
entry out of its degree bound gives a witness instead of an IndexError.
Each function takes a context and returns the CheckReport of the library
check of the same name.

The ten R-level checks (r_basics, r_functional_equation,
r_derivative_edge, shifted_nonneg, divisibility_order, fh_structure,
boolean_criterion, binomial_bounds, brenti_scan, le1_le2_le3) decide each
class of pairs with equal (R, Rt, a(u,w), l(u,w)) once, on tuples.  Here
every pair is decided on its own, by polynomial arithmetic: the
(q-1)-expansion and the (q-1)-multiplicity by repeated synthetic
division, computed anew for every pair, R'(1) and R''(1) read from that
expansion, q^l R(1/q) and R rebuilt from R-tilde and the f/h round trips
by ``mul`` and ``add`` on coefficient tuples, (q-1)^n from its binomial
coefficients, and Bruhat-graph edges found from the reflections
(u -> w when u^-1 w is a reflection), not from the graph's rows.
fh_structure drops its re-tests after the f/h decomposition, which raises
on each of them.

lemma_lm, nth3_strict_edges and strict_path read the KL table a column at
a time in the library and walk each column's greedy paths once.  Here
every pair reads its own P values and its out-neighbors below w, and
strict_path builds each pair's path with ``strict_path_to_smooth`` and
tests every edge of it.  Membership of v in [u, w] is tested per pair
from the lower cones, as lower[w] >> v & 1 and lower[v] >> u & 1.
"""

from math import comb

from bruhatkl.bruhat import (
    _require_le,
    abs_len_table,
    absolute_length,
    comparable_pairs,
    defect,
    iter_bits,
    le_masks,
    up_adjacency,
)
from bruhatkl.coxeter import GroupContext, GroupElement, _mul, word_of
from bruhatkl.klr import (
    _between,
    _kl,
    _kl1,
    _r,
    _sums_at_q,
    strict_path_to_smooth,
)
from bruhatkl.polynomial import _addmul_into, _trim
from bruhatkl.theorems import (
    CheckReport,
    _dominates,
    _pair_word,
    _report,
    _Witnesses,
)


def _interval_mask(lower, ui, wi):
    """Mask of [u, w]: bit v set iff lower[w] >> v & 1 and lower[v] >> u & 1."""
    return sum(1 << vi for vi in iter_bits(lower[wi]) if lower[vi] >> ui & 1)


def _defect(ctx, ui, wi):
    """df(u, w), by the public one-pair ``defect`` for every pair."""
    return defect(ctx.elements[ui], ctx.elements[wi])


def _abs(ctx, ui, wi):
    """a(u, w), read from the table of w for every pair."""
    return abs_len_table(ctx.elements[wi])[ui]


def add(a, b):
    """a + b on coefficient tuples, trimmed."""
    out = [0] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return _trim(out)


def mul(a, b):
    """a * b on coefficient tuples, trimmed."""
    out = [0] * (len(a) + len(b))
    _addmul_into(out, a, b)
    return _trim(out)


def sum_r_over(x: GroupElement, w: GroupElement):
    """Sum of R_xv over all v in [x, w], one R entry at a time."""
    _require_le(x, w)
    acc = ()
    for vi in _between(x.ctx, x.index, w.index):
        acc = add(acc, _r(x.ctx, x.index, vi))
    return acc


def entries(table):
    """The pair-keyed view {(x, w): value} of a table held by column,
    {w: {x: value}}: R, Rt, KL and staged of ``Tables``, or the interval
    R-sums of ``_sums_at_q``.  A new dict; changing it changes no table."""
    return {(x, w): v for w, col in table.items() for x, v in col.items()}


def plant(table, x, w, value):
    """Set the entry (x, w) of a table held by column, its column made if new."""
    table.setdefault(w, {})[x] = value


def delete(table, x, w):
    """Remove the entry (x, w) of a table held by column, and its column
    if that empties it."""
    col = table[w]
    del col[x]
    if not col:
        del table[w]


def f_one(w):
    """The column w of F = 1, as ``_sums_at_q`` reads F: v -> (1,)."""
    return lambda v: (1,)


def interval_r_sums(ctx: GroupContext):
    """{(x, w): sum of R_xv over v in [x, w]} for every comparable pair,
    from R as it is now: the library's route, one whole-group
    ``_sums_at_q`` sweep with F = 1, read back from ``ones``."""
    out = {}
    for _ in _sums_at_q(ctx, f_one, ones=out)[1]:
        pass
    return entries(out)


def _divide_by_q_minus_one(cs):
    """One synthetic division by (q-1): (quotient, remainder = value at 1)."""
    if not cs:
        return [], 0
    quot = [0] * (len(cs) - 1)
    acc = 0
    for k in range(len(cs) - 1, 0, -1):
        acc += cs[k]
        quot[k - 1] = acc
    return quot, acc + cs[0]


def _shifted(cs):
    """Trimmed (q-1)-coefficients of cs, one division per coefficient."""
    cs, out = list(cs), []
    while cs:
        cs, rem = _divide_by_q_minus_one(cs)
        out.append(rem)
    return _trim(out)


def _valuation(cs):
    """Multiplicity of (q-1) as a factor of cs, and the quotient by it."""
    mult, cur = 0, list(cs)
    while cur:
        quot, rem = _divide_by_q_minus_one(cur)
        if rem:
            break
        mult, cur = mult + 1, quot
    return mult, cur


def _q_minus_one_power(n):
    return tuple((-1) ** (n - k) * comb(n, k) for k in range(n + 1))


def _from_shifted(cs):
    """Power-basis coefficients of the (q-1)-coefficients cs, by Horner in (q-1)."""
    out = ()
    for a in reversed(cs):
        out = add(mul(out, (-1, 1)), (a,))
    return out


def _r_rtilde_link(ctx, ui, wi):
    """R_uw rebuilt from Rt_uw term by term, with ``check_r_rtilde_link``'s
    support and parity errors."""
    u, w = ctx.elements[ui], ctx.elements[wi]
    a = absolute_length(u, w)
    ell = w.length - u.length
    rt = _r(ctx, ui, wi, "Rt")
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
    rebuilt = ()
    for k in range((ell - a) // 2 + 1):
        term = (0,) * ((ell - a - 2 * k) // 2) + (rt[a + 2 * k],)
        rebuilt = add(rebuilt, mul(term, _q_minus_one_power(a + 2 * k)))
    return rebuilt == _r(ctx, ui, wi)


def _fh_vectors(ctx, ui, wi):
    """Raise ``fh_vectors``'s RuntimeError unless the f/h decomposition of
    R_uw, by division and the two round trips, has every invariant."""
    u, w = ctx.elements[ui], ctx.elements[wi]
    ell = w.length - u.length
    rc = _r(ctx, ui, wi)
    a, cur = _valuation(rc)
    if a != absolute_length(u, w):
        raise RuntimeError(
            f"(q-1)-multiplicity {a} of R differs from absolute length for "
            f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
        )
    quotient = _trim(cur)
    d = ell - a
    h = tuple(reversed(quotient))
    f = tuple(reversed(_shifted(quotient)))
    ok = (
        len(f) == d + 1
        and len(h) == d + 1
        and f[0] == 1
        and h[0] == 1
        and all(x > 0 for x in f)
        and h == tuple(reversed(h))
    )
    ok = ok and _from_shifted(tuple(reversed(f))) == quotient
    ok = ok and mul(quotient, _q_minus_one_power(a)) == rc
    if not ok:
        raise RuntimeError(
            f"f/h-decomposition invariants failed for "
            f"({word_of(u)!r}, {word_of(w)!r}) in {ctx.name}"
        )


def r_basics(ctx: GroupContext) -> CheckReport:
    """R and Rt ground rules, and R rebuilt from Rt."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        rc = _r(ctx, ui, wi)
        rtc = _r(ctx, ui, wi, "Rt")
        if ui == wi:
            if rc != (1,) or rtc != (1,):
                wit.add(f"{_pair_word(ctx, ui, wi)}: diagonal entry not 1")
            continue
        ell = lengths[wi] - lengths[ui]
        if len(rc) != ell + 1 or rc[-1] != 1:
            wit.add(f"{_pair_word(ctx, ui, wi)}: R not monic of degree {ell}: {rc}")
            continue
        if sum(rc) != 0:
            wit.add(f"{_pair_word(ctx, ui, wi)}: R(1) = {sum(rc)} != 0")
        if len(rtc) != ell + 1 or rtc[-1] != 1 or any(c < 0 for c in rtc):
            wit.add(f"{_pair_word(ctx, ui, wi)}: bad Rt {rtc}")
            continue
        try:
            if not _r_rtilde_link(ctx, ui, wi):
                wit.add(f"{_pair_word(ctx, ui, wi)}: Rt substitution rebuild != R")
        except RuntimeError as exc:
            wit.add(str(exc))
    return _report(ctx, "r_basics", n, wit, {})


def shifted_nonneg(ctx: GroupContext) -> CheckReport:
    """(q-1)-coefficients of R vanish below a(u,w) and are positive
    from a(u,w) through l(u,w)."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        sh = _shifted(_r(ctx, ui, wi))
        a = _abs(ctx, ui, wi)
        ell = lengths[wi] - lengths[ui]
        ok = len(sh) == ell + 1
        ok = ok and all(c == 0 for c in sh[:a])
        ok = ok and all(c > 0 for c in sh[a:])
        if not ok:
            wit.add(f"{_pair_word(ctx, ui, wi)}: shifted {sh}, a = {a}")
    return _report(ctx, "shifted_nonneg", n, wit, {})


def divisibility_order(ctx: GroupContext) -> CheckReport:
    """The (q-1)-multiplicity of R equals the absolute length of the pair."""
    wit = _Witnesses()
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        mult, _ = _valuation(_r(ctx, ui, wi))
        a = _abs(ctx, ui, wi)
        if mult != a:
            wit.add(f"{_pair_word(ctx, ui, wi)}: multiplicity {mult}, a = {a}")
    return _report(ctx, "divisibility_order", n, wit, {})


def fh_structure(ctx: GroupContext) -> CheckReport:
    """f/h-decomposition exists per pair and rebuilds R exactly."""
    wit = _Witnesses()
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        try:
            _fh_vectors(ctx, ui, wi)
        except RuntimeError as exc:
            wit.add(str(exc))
    return _report(ctx, "fh_structure", n, wit, {})


def boolean_criterion(ctx: GroupContext) -> CheckReport:
    """R equals (q-1)^l(u,w) exactly when a(u,w) = l(u,w)."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    a_lt_ell = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        ell = lengths[wi] - lengths[ui]
        is_power = _r(ctx, ui, wi) == _q_minus_one_power(ell)
        a_is_ell = _abs(ctx, ui, wi) == ell
        a_lt_ell += not a_is_ell
        if is_power != a_is_ell:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: R == (q-1)^l is {is_power} "
                f"but a == l is {a_is_ell}"
            )
    return _report(ctx, "boolean_criterion", n, wit, {"a_lt_ell": a_lt_ell})


def binomial_bounds(ctx: GroupContext) -> CheckReport:
    """(q-1)^l <= R <= q^l coefficientwise in the shifted basis."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        ell = lengths[wi] - lengths[ui]
        sh = _shifted(_r(ctx, ui, wi))
        sh += (0,) * (ell + 1 - len(sh))  # a short entry reads as 0 to (q-1)^l
        for k, c in enumerate(sh):
            lo = 1 if k == ell else 0
            if not lo <= c <= comb(ell, k):
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: shifted coeff {k} is {c}, "
                    f"bounds [{lo}, {comb(ell, k)}]"
                )
                break
    return _report(ctx, "binomial_bounds", n, wit, {})


def r_functional_equation(ctx: GroupContext) -> CheckReport:
    """q^l R(1/q) = (-1)^l R(q), l = l(u,w), with q^l R(1/q) built one
    term c q^(l-k) at a time; a nonzero term past q^l has no such form."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        rc = _r(ctx, ui, wi)
        ell = lengths[wi] - lengths[ui]
        lhs, ok = (), True
        for k, c in enumerate(rc):
            if k <= ell:
                lhs = add(lhs, (0,) * (ell - k) + (c,))
            elif c:
                ok = False
        if not ok or lhs != mul(((-1) ** ell,), rc):
            wit.add(f"{_pair_word(ctx, ui, wi)}: reversal/sign mismatch {rc}")
    return _report(ctx, "r_functional_equation", n, wit, {})


def _is_edge(ctx, ui, wi):
    """u -> w: w = ut for a reflection t, and l(w) > l(u)."""
    t = _mul(ctx, ctx.inv[ui], wi)
    return ctx.lengths[wi] > ctx.lengths[ui] and any(
        r.index == t for r in ctx.reflections
    )


def r_derivative_edge(ctx: GroupContext) -> CheckReport:
    """R'(1), the (q-1)^1 coefficient of R, is 1 on Bruhat-graph edges
    and 0 on all other pairs."""
    wit = _Witnesses()
    n = edges = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        sh = _shifted(_r(ctx, ui, wi))
        d1 = sh[1] if len(sh) > 1 else 0
        is_edge = _is_edge(ctx, ui, wi)
        edges += is_edge
        if d1 != (1 if is_edge else 0):
            wit.add(f"{_pair_word(ctx, ui, wi)}: R'(1) = {d1}, edge = {is_edge}")
    return _report(ctx, "r_derivative_edge", n, wit, {"edges": edges})


def brenti_scan(ctx: GroupContext) -> CheckReport:
    """Report-only scan of |[q^n] R| against binomial(l, n), over every
    n up to the larger of l(u,w) and the degree of the entry."""
    lengths = ctx.lengths
    n = excess_pairs = 0
    max_excess = None
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        rc = _r(ctx, ui, wi)
        ell = lengths[wi] - lengths[ui]
        worst = max(
            abs(rc[k] if k < len(rc) else 0) - comb(ell, k)
            for k in range(max(ell + 1, len(rc)))
        )
        excess_pairs += worst > 0
        max_excess = worst if max_excess is None else max(max_excess, worst)
    return _report(
        ctx,
        "brenti_scan",
        n,
        _Witnesses(),
        {"max_excess": 0 if max_excess is None else max_excess,
         "excess_pairs": excess_pairs},
    )


def le1_le2_le3(ctx: GroupContext) -> CheckReport:
    """For u -> w: (q-1)^2 divides R - q^m (q-1), m = (l-1)/2, by
    synthetic division, the linear Rt coefficient is 1, and R''(1), twice
    the (q-1)^2 coefficient of R, is l(u,w) - 1; for a(u,w) = 2, R''(1)
    counts the v with u -> v -> w, edges found from the reflections."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = edges = a2_pairs = skipped = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        a = _abs(ctx, ui, wi) if ui != wi else 0
        if ui == wi or a > 2:
            skipped += 1
            continue
        ell = lengths[wi] - lengths[ui]
        rc = _r(ctx, ui, wi)
        sh = _shifted(rc)
        second = 2 * sh[2] if len(sh) > 2 else 0
        if a != 1:
            a2_pairs += 1
            m_paths = sum(
                1
                for t in ctx.reflections
                if _is_edge(ctx, ui, vi := _mul(ctx, ui, t.index))
                and _is_edge(ctx, vi, wi)
            )
            if second != m_paths:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: R''(1) = {second}, m = {m_paths}"
                )
            continue
        edges += 1
        m = (ell - 1) // 2
        if len(rc) != ell + 1:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: R entry {rc} has {len(rc)} "
                f"coefficients, not l(u,w) + 1 = {ell + 1}"
            )
        else:
            diff = add(rc, mul((0,) * m + (1,), (1, -1)))  # R - q^m (q-1)
            if diff and _valuation(diff)[0] < 2:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: (q-1)^2 does not divide "
                    f"R - q^{m}(q-1)"
                )
        rt = _r(ctx, ui, wi, "Rt")
        if (rt[1] if len(rt) > 1 else 0) != 1:
            wit.add(f"{_pair_word(ctx, ui, wi)}: linear Rt coeff != 1")
        if second != ell - 1:
            wit.add(f"{_pair_word(ctx, ui, wi)}: R''(1) = {second} != {ell - 1}")
    return _report(
        ctx,
        "le1_le2_le3",
        n,
        wit,
        {"edges": edges, "a2_pairs": a2_pairs, "skipped": skipped},
    )


def r_alternating_sum(ctx: GroupContext) -> CheckReport:
    """Sign-alternating convolution over each interval is a Kronecker delta."""
    wit = _Witnesses()
    lower = le_masks(ctx)
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        even = [0] * (lengths[wi] - lengths[ui] + 1)
        odd = list(even)
        for vi in iter_bits(_interval_mask(lower, ui, wi)):
            acc = odd if (lengths[vi] - lengths[ui]) % 2 else even
            _addmul_into(acc, _r(ctx, ui, vi), _r(ctx, vi, wi))
        acc = [e - o for e, o in zip(even, odd)]
        expected = 1 if ui == wi else 0
        if acc[0] != expected or any(acc[1:]):
            wit.add(f"{_pair_word(ctx, ui, wi)}: alternating sum {acc}")
    return _report(ctx, "r_alternating_sum", n, wit, {})


def biconditional_check(ctx: GroupContext, name: str, order: int) -> CheckReport:
    """Shared body of dvc_linear and nth2_quadratic.

    Inequality side: for every x < w the (q-1)^order coefficient of the
    interval R-sum is at least binomial(l(x,w), order).  Equivalence side:
    an interval [u, w] has strict excess at some x in [u, w) exactly when
    P_uw differs from 1, with singularity read off the KL table.
    """
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    exc_masks = [0] * ctx.order
    for wi in range(ctx.order):
        for xi in iter_bits(lower[wi]):
            if xi == wi:
                continue
            cs = sum_r_over(ctx.elements[xi], ctx.elements[wi])
            if order == 1:
                val = sum(k * c for k, c in enumerate(cs))
            else:
                val = sum(comb(k, 2) * c for k, c in enumerate(cs))
            bound = comb(lengths[wi] - lengths[xi], order)
            if val > bound:
                exc_masks[wi] |= 1 << xi
            elif val < bound:
                wit.add(
                    f"{_pair_word(ctx, xi, wi)}: (q-1)^{order} coefficient "
                    f"of the R-sum is {val} < {bound}"
                )
    n = 0
    singular = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        strict_somewhere = bool(
            _interval_mask(lower, ui, wi) & ~(1 << wi) & exc_masks[wi]
        )
        singular_kl = _kl(ctx, ui, wi) != (1,)
        singular += singular_kl
        if strict_somewhere != singular_kl:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: strict excess is "
                f"{strict_somewhere} but KL-singularity is {singular_kl}"
            )
    return _report(ctx, name, n, wit, {"singular_intervals": singular})


def dvc_linear(ctx: GroupContext) -> CheckReport:
    """Linear (q-1)-coefficient of interval R-sums dominates l(x,w), with
    strictness somewhere iff the interval is singular."""
    return biconditional_check(ctx, "dvc_linear", 1)


def nth2_quadratic(ctx: GroupContext) -> CheckReport:
    """Quadratic (q-1)-coefficient of interval R-sums dominates
    binomial(l(x,w), 2), with strictness somewhere iff singular."""
    return biconditional_check(ctx, "nth2_quadratic", 2)


def kl_basics(ctx: GroupContext) -> CheckReport:
    """KL ground rules per pair: constant term 1, degree bound
    (l(u,w)-1)/2, 1 on the diagonal, and the defining functional equation
    verified by full substitution."""
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        pc = _kl(ctx, ui, wi)
        if ui == wi:
            if pc != (1,):
                wit.add(f"{_pair_word(ctx, ui, wi)}: diagonal KL entry not 1")
            continue
        D = lengths[wi] - lengths[ui]
        if not pc or pc[0] != 1 or len(pc) - 1 > (D - 1) // 2:
            wit.add(f"{_pair_word(ctx, ui, wi)}: malformed KL entry {pc}")
            continue
        terms = [
            (_r(ctx, ui, vi), _kl(ctx, vi, wi))
            for vi in iter_bits(_interval_mask(lower, ui, wi))
        ]
        acc = [0] * max([D + 1] + [len(a) + len(b) - 1 for a, b in terms])
        for a, b in terms:
            _addmul_into(acc, a, b)
        lhs = [0] * len(acc)
        for j, c in enumerate(pc):
            lhs[D - j] = c
        if lhs != acc:
            wit.add(f"{_pair_word(ctx, ui, wi)}: functional equation fails")
    return _report(ctx, "kl_basics", n, wit, {})


def kl_monotone(ctx: GroupContext) -> CheckReport:
    """Fixing the top element, KL polynomials weakly decrease along Bruhat
    order: u <= v <= w implies P_uw >= P_vw coefficientwise."""
    wit = _Witnesses()
    lower = le_masks(ctx)
    n = 0
    for vi, wi in comparable_pairs(ctx):
        pvw = _kl(ctx, vi, wi)
        for ui in iter_bits(lower[vi]):
            n += 1
            if not _dominates(_kl(ctx, ui, wi), pvw):
                wit.add(
                    f"{_pair_word(ctx, ui, wi)} via "
                    f"v='{word_of(ctx.elements[vi])}': monotonicity fails"
                )
    return _report(
        ctx, "kl_monotone", n, wit, {"comparable_pairs": len(comparable_pairs(ctx))}
    )


def mono_equiv(ctx: GroupContext) -> CheckReport:
    """For u < v <= w, strict coefficientwise KL inequality is equivalent
    to the strict inequality of the values at 1."""
    wit = _Witnesses()
    lower = le_masks(ctx)
    n = 0
    for vi, wi in comparable_pairs(ctx):
        pvw = _kl(ctx, vi, wi)
        v1 = _kl1(ctx, vi, wi)
        for ui in iter_bits(lower[vi]):
            if ui == vi:
                continue
            n += 1
            puw = _kl(ctx, ui, wi)
            strict_poly = _dominates(puw, pvw) and puw != pvw
            strict_at_one = _kl1(ctx, ui, wi) > v1
            if strict_poly != strict_at_one:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)} via "
                    f"v='{word_of(ctx.elements[vi])}': strictness mismatch"
                )
    return _report(ctx, "mono_equiv", n, wit, {})


def lemma_lm(ctx: GroupContext) -> CheckReport:
    """l(u,w) P_uw(1) - 2 P'_uw(1) equals the sum of P_vw(1) over the
    bottom neighborhood of [u, w]."""
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    up = up_adjacency(ctx)
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        pc = _kl(ctx, ui, wi)
        lhs = (lengths[wi] - lengths[ui]) * sum(pc) - 2 * sum(
            k * c for k, c in enumerate(pc)
        )
        rhs = sum(
            _kl1(ctx, vi, wi) for vi in up[ui] if lower[wi] >> vi & 1
        )
        if lhs != rhs:
            wit.add(f"{_pair_word(ctx, ui, wi)}: {lhs} != {rhs}")
    return _report(ctx, "lemma_lm", n, wit, {})


def nth3_strict_edges(ctx: GroupContext) -> CheckReport:
    """Every singular pair has strict edges at the bottom vertex, at least
    defect + 1 of them, each pointing to a vertex with positive P(1)."""
    wit = _Witnesses()
    lower = le_masks(ctx)
    up = up_adjacency(ctx)
    n = 0
    singular = skipped = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        base = _kl1(ctx, ui, wi)
        if base <= 1:
            skipped += 1
            continue
        singular += 1
        strict = 0
        for vi in up[ui]:
            if lower[wi] >> vi & 1:
                val = _kl1(ctx, vi, wi)
                if val <= 0:
                    wit.add(f"{_pair_word(ctx, ui, wi)}: P(1) <= 0 at a neighbor")
                strict += base > val
        df = _defect(ctx, ui, wi)
        if strict < df + 1:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: {strict} strict edges, "
                f"defect {df}"
            )
    return _report(
        ctx,
        "nth3_strict_edges",
        n,
        wit,
        {"singular_pairs": singular, "smooth_skipped": skipped},
    )


def strict_path(ctx: GroupContext) -> CheckReport:
    """From every singular pair the greedy strict path exists, uses only
    strict Bruhat-graph edges, and ends at a rationally smooth vertex."""
    wit = _Witnesses()
    lower = le_masks(ctx)
    up = up_adjacency(ctx)
    n = 0
    singular = skipped = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        if _kl1(ctx, ui, wi) <= 1:
            skipped += 1
            continue
        singular += 1
        try:
            path = strict_path_to_smooth(ctx.elements[ui], ctx.elements[wi])
        except RuntimeError as exc:
            wit.add(str(exc))
            continue
        ok = len(path) >= 2 and _kl(ctx, path[-1].index, wi) == (1,)
        for x, y in zip(path, path[1:]):
            ok = ok and y.index in up[x.index]
            ok = ok and bool(lower[wi] >> y.index & 1)
            ok = ok and _kl1(ctx, x.index, wi) > _kl1(ctx, y.index, wi)
        if not ok:
            wit.add(f"{_pair_word(ctx, ui, wi)}: bad strict path")
    return _report(
        ctx,
        "strict_path",
        n,
        wit,
        {"singular_pairs": singular, "smooth_skipped": skipped},
    )


def smoothness_equivalence(ctx: GroupContext) -> CheckReport:
    """Three singularity criteria agree on every interval: interval R-sums
    equal to q^l at every lower vertex, zero defect at every lower vertex,
    and KL triviality."""
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    bad_sum = [0] * ctx.order
    bad_df = [0] * ctx.order
    for wi in range(ctx.order):
        for xi in iter_bits(lower[wi]):
            if xi == wi:
                continue
            cs = sum_r_over(ctx.elements[xi], ctx.elements[wi])
            ell = lengths[wi] - lengths[xi]
            if cs != (0,) * ell + (1,):
                bad_sum[wi] |= 1 << xi
            if _defect(ctx, xi, wi) != 0:
                bad_df[wi] |= 1 << xi
    n = 0
    smooth = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        inside = _interval_mask(lower, ui, wi) & ~(1 << wi)
        by_sum = not (inside & bad_sum[wi])
        by_df = not (inside & bad_df[wi])
        by_kl = _kl(ctx, ui, wi) == (1,)
        smooth += by_kl
        if not by_sum == by_df == by_kl:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: sum-criterion {by_sum}, "
                f"defect-criterion {by_df}, KL-criterion {by_kl}"
            )
    return _report(
        ctx, "smoothness_equivalence", n, wit, {"smooth_intervals": smooth}
    )


REFERENCE = {
    "r_basics": r_basics,
    "r_alternating_sum": r_alternating_sum,
    "r_functional_equation": r_functional_equation,
    "r_derivative_edge": r_derivative_edge,
    "shifted_nonneg": shifted_nonneg,
    "divisibility_order": divisibility_order,
    "fh_structure": fh_structure,
    "boolean_criterion": boolean_criterion,
    "binomial_bounds": binomial_bounds,
    "brenti_scan": brenti_scan,
    "le1_le2_le3": le1_le2_le3,
    "dvc_linear": dvc_linear,
    "nth2_quadratic": nth2_quadratic,
    "kl_basics": kl_basics,
    "kl_monotone": kl_monotone,
    "mono_equiv": mono_equiv,
    "lemma_lm": lemma_lm,
    "nth3_strict_edges": nth3_strict_edges,
    "strict_path": strict_path,
    "smoothness_equivalence": smoothness_equivalence,
}
