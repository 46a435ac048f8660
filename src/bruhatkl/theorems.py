"""Named whole-group verification checks with witness-producing reports.

Every check sweeps all applicable element pairs (or triples) of one group
and returns a deterministic CheckReport: pass/fail, counterexample
witnesses (capped, with the total always in the stats), and named integer
statistics.  Checks appear in the registry from cheap R-level facts to the
KL-level inequalities, so failures localize early.  The equivalence checks
(dvc_linear, nth2_quadratic, smoothness_equivalence) compute their two
sides through independent code paths: interval R-sums on one side, KL
values on the other.

Five checks test polynomial identities at one point, q = Q = 2^B
(Kronecker substitution; von zur Gathen and Gerhard, Modern Computer
Algebra, section 8.4), through one interval sum, S_uw = sum over v in
[u, w] of R_uv F_vw (``klr._sums_at_q``).  r_alternating_sum (F = +-R)
and kl_basics (F = P) compare the two sides of their identity at Q, one
integer each per pair; kl_basics reports the faults of ``klr._kl_faults``
from the one certificate sweep (``klr._certify``) of a ``run_suite``
call, which fills what is missing of the KL table and checks all of it.
The interval R-sums (F = 1) of dvc_linear, nth2_quadratic and
smoothness_equivalence are read back from their values at Q, once per
call, from R as it is then, and passed to each of the three.  They come
from the same certificate sweep, which adds R_xv(Q) to S_1 at every
triple it sums and R_xv(Q) (P_vw(Q) - 1) to S_P only where P_vw != 1, at
the one B that serves both.  That is exact: B is set with each sum from
the norms of R and F as they are then, so that every coefficient of
either side is at most M with 2^(B-1) > 2M, and a nonzero integer
polynomial with coefficients that small does not vanish at 2^B.  So a
pair fails at Q exactly when it fails as polynomials, and the signed
base-2^B digits of a value are its coefficients, which
r_alternating_sum's witness prints.  A whole-group sweep sums over the
triples only for the pairs with D_R(w) in D_R(x) and gets the others'
sums by a power of Q, when F_vw = F_{vs,w} for s in D_R(w) and R follows
its recursion, both checked on the entries read.  F = P and F = 1 meet
that on correct tables; F = +-R does not, so r_alternating_sum, like a
sweep of tables that break either premise, sums over every triple.  The
values, and so every verdict, count and witness, are the same either
way.  kl_monotone and mono_equiv group each KL column by value and
decide each pair of values once; every triple is still counted, and
reported if it fails.

Ten R-level checks (``_READS_CLASSES``: r_basics, r_functional_equation,
r_derivative_edge, shifted_nonneg, divisibility_order, fh_structure,
boolean_criterion, binomial_bounds, brenti_scan, le1_le2_le3) read a pair
only through its key (R_uw, Rt_uw, a(u,w), l(u,w), u -> w), and the
tables hold few keys (37 over D4's 9,817 comparable pairs).  So
``run_suite`` groups the pairs by key once per call, in one pass over the
lower-cone masks (``_r_classes``), from the tables as they are then,
and passes the classes to each of the ten, which decides each class once.
Counts and stats come from the class sizes; only a failing class's pairs
are walked, merged in pair order, to write the witnesses a sweep of the
pairs one at a time would write.  le1_le2_le3 still counts the length-2
paths of each pair with a(u,w) = 2, the one part of a verdict that the
key does not fix.  R's (q-1)-expansion is read through ``klr._shifted``,
once per R value.

The ten column checks (``_WALKS``: deodhar and the KL-level checks but
kl_basics) share one walk over the tops w per ``run_suite`` call
(``_walk``).  For each w it builds one ``klr._Column``: lower(w), P_xw
and P_xw(1) for each x <= w, each read once, and each x's out-neighbors
below w, built at most once per (x, w); deodhar's defects are
len(out-neighbors) - l(x, w).  Only one column is held at a time, and a
walk of deodhar alone reads no KL.  strict_path reads the column's greedy
walk, ``klr._greedy_ends``, as ``classify`` does.  Some x < w failing a
criterion lies in [u, w) exactly when bit u of the OR of their lower(x)
is set.

Domains are always comparable pairs u <= w (zero values on incomparable
pairs are the recursions' base case, covered by unit tests); checks with a
narrower domain count the pairs they skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Generator

from bruhatkl.bruhat import (
    _row,
    abs_len_table,
    down_adjacency,
    iter_bits,
    le_masks,
    up_adjacency,
)
from bruhatkl.coxeter import Coeffs, Columns, GroupContext, Pair, word_of
from bruhatkl.klr import (
    _certify,
    _Column,
    _digits,
    _greedy_ends,
    _fh_split,
    _pair_fault,
    _r,
    _rt_rebuilt,
    _rt_support_fault,
    _shifted,
    _stuck_error,
    _sums_at_q,
)

__all__ = [
    "CheckReport",
    "CHECK_NAMES",
    "run_check",
    "run_suite",
    "report_to_json",
    "summary_table",
]

WITNESS_CAP = 20


@dataclass
class CheckReport:
    """Outcome of one named check over one group."""

    check_name: str
    group: str
    pairs_tested: int
    passed: bool
    witnesses: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)


class _Witnesses:
    """Capped witness collector that keeps the exact total."""

    def __init__(self):
        self.total = 0
        self.items: list[str] = []

    def add(self, desc: str) -> None:
        self.total += 1
        if len(self.items) < WITNESS_CAP:
            self.items.append(desc)


def _pair_word(ctx: GroupContext, ui: int, wi: int) -> str:
    return f"u='{word_of(ctx.elements[ui])}' w='{word_of(ctx.elements[wi])}'"


def _pair_count(ctx: GroupContext) -> int:
    """Number of comparable pairs: a popcount over the lower-cone masks."""
    return sum(m.bit_count() for m in le_masks(ctx))


def _report(ctx, name, pairs, wit, stats) -> CheckReport:
    stats = dict(stats)
    stats["violations_total"] = wit.total
    return CheckReport(
        check_name=name,
        group=ctx.name,
        pairs_tested=pairs,
        passed=wit.total == 0,
        witnesses=wit.items,
        stats=stats,
    )


# -- R-level checks ------------------------------------------------------

# (R_uw, Rt_uw, a(u,w), l(u,w), u -> w): everything an R-level verdict reads
Key = tuple[Coeffs, Coeffs, int, int, bool]
# a fault of a pair: its text, and whether it is worded as klr's
# RuntimeErrors ("... for (u, w) in G") rather than as "u=... w=...: ..."
Fault = tuple[str, bool]
# the comparable pairs by key, each class's pairs in pair order
Classes = dict[Key, list[Pair]]


def _r_classes(ctx: GroupContext) -> Classes:
    """The comparable pairs grouped by their ``Key``, each class's pairs
    in pair order.

    One pass over the lower-cone masks, top w by top w: R and Rt are read
    through ``klr._r`` (filled lazily where missing), and a(u,w) and the
    in-edges of w once per top w.  Nothing is kept: each ``run_suite``
    call groups the tables as they are then.  l(u,w) = 0 exactly on the
    diagonal.
    """
    lengths = ctx.lengths
    lower = le_masks(ctx)
    classes: Classes = {}
    for wi in range(ctx.order):
        lw = lengths[wi]
        a_of = abs_len_table(ctx.elements[wi])
        into_w = set(_row(ctx, wi)[1])
        for ui in iter_bits(lower[wi]):
            key = (
                _r(ctx, ui, wi),
                _r(ctx, ui, wi, "Rt"),
                a_of[ui],
                lw - lengths[ui],
                ui in into_w,
            )
            members = classes.get(key)
            if members is None:
                classes[key] = [(ui, wi)]
            else:
                members.append((ui, wi))
    return classes


def _count(classes: Classes, diagonal: bool = False) -> int:
    """Number of pairs in the classes, the diagonal's only if asked."""
    return sum(len(ps) for key, ps in classes.items() if diagonal or key[3])


def _pair_order_witnesses(
    ctx: GroupContext, failing: list[tuple[list[Pair], list[Fault]]]
) -> _Witnesses:
    """The witnesses of (pairs, their faults) entries, in pair order and,
    per pair, in the order of its faults: what a sweep of the pairs one at
    a time writes."""
    wit = _Witnesses()
    rows = [(pair, faults) for pairs, faults in failing for pair in pairs]
    rows.sort(key=lambda row: (row[0][1], row[0][0]))
    for (ui, wi), faults in rows:
        for text, named in faults:
            if named:
                wit.add(_pair_fault(ctx, ui, wi, text))
            else:
                wit.add(f"{_pair_word(ctx, ui, wi)}: {text}")
    return wit


def _class_report(
    ctx: GroupContext,
    name: str,
    classes: Classes,
    decide: Callable[[Coeffs, Coeffs, int, int, bool], list[Fault]],
    diagonal: bool = False,
    stats: dict[str, int] | None = None,
) -> CheckReport:
    """The report of a check that decides each class once: ``decide``
    takes a class's key and returns the faults of each of its pairs.  The
    diagonal's classes are tested and counted only if asked."""
    failing = []
    for key, pairs in classes.items():
        if diagonal or key[3]:
            faults = decide(*key)
            if faults:
                failing.append((pairs, faults))
    wit = _pair_order_witnesses(ctx, failing)
    return _report(ctx, name, _count(classes, diagonal), wit, stats or {})


def _check_r_basics(ctx: GroupContext, classes: Classes) -> CheckReport:
    """R and Rt ground rules: 1 on the diagonal, monic of degree l(u,w),
    R(1) = 0 off the diagonal, Rt nonnegative, and R rebuilt from Rt
    through the absolute-length closed form."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        if not ell:
            return [] if r == rt == (1,) else [("diagonal entry not 1", False)]
        if len(r) != ell + 1 or r[-1] != 1:
            return [(f"R not monic of degree {ell}: {r}", False)]
        faults = []
        if sum(r) != 0:
            faults.append((f"R(1) = {sum(r)} != 0", False))
        if len(rt) != ell + 1 or rt[-1] != 1 or any(c < 0 for c in rt):
            faults.append((f"bad Rt {rt}", False))
            return faults
        fault = _rt_support_fault(rt, a, ell)
        if fault is not None:
            faults.append((fault, True))
        elif _rt_rebuilt(rt, a, ell) != _shifted(ctx, r):
            faults.append(("Rt substitution rebuild != R", False))
        return faults

    return _class_report(ctx, "r_basics", classes, decide, diagonal=True)


def _check_r_inverse_symmetry(ctx: GroupContext) -> CheckReport:
    """R is invariant under inverting both indices."""
    wit = _Witnesses()
    inv = ctx.inv
    lower = le_masks(ctx)
    n = 0
    for wi in range(ctx.order):
        iw = inv[wi]
        for ui in iter_bits(lower[wi]):
            n += 1
            if _r(ctx, ui, wi) != _r(ctx, inv[ui], iw):
                wit.add(f"{_pair_word(ctx, ui, wi)}: R differs on inverses")
    return _report(ctx, "r_inverse_symmetry", n, wit, {})


def _check_r_alternating_sum(ctx: GroupContext) -> CheckReport:
    """Sign-alternating convolution over each interval is a Kronecker delta.

    Tested at Q = 2^B, one integer per pair, exactly by the bound of
    ``klr._sums_at_q``, which also makes the signed base-2^B digits of the
    value the coefficients a failing pair's witness prints.  F = +-R holds
    one tuple per distinct value, so the sweep evaluates each at Q once.
    """
    wit = _Witnesses()
    lengths = ctx.lengths
    negated: dict[Coeffs, Coeffs] = {}  # R value -> -R, once per value

    def signed(wi: int) -> Callable[[int], Coeffs]:  # v -> (-1)^l(v) R_vw
        def entry(vi: int) -> Coeffs:
            r = _r(ctx, vi, wi)
            if not lengths[vi] % 2:
                return r
            neg = negated.get(r)
            if neg is None:
                neg = negated[r] = tuple(-c for c in r)
            return neg

        return entry

    bits, tops = _sums_at_q(ctx, signed)
    for wi, acc in tops:
        for ui, val in acc.items():
            if lengths[ui] % 2:
                val = -val
            expected = 1 if ui == wi else 0
            if val != expected:
                coeffs = list(_digits(val, bits))
                coeffs += [0] * (lengths[wi] - lengths[ui] + 1 - len(coeffs))
                wit.add(f"{_pair_word(ctx, ui, wi)}: alternating sum {coeffs}")
    return _report(ctx, "r_alternating_sum", _pair_count(ctx), wit, {})


def _check_r_functional_equation(ctx: GroupContext, classes: Classes) -> CheckReport:
    """q^l R(1/q) = (-1)^l R(q), l = l(u,w): reversing R's l + 1
    coefficients (a short entry padded with zeros) gives R up to sign,
    and R has no nonzero coefficient past q^l."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        sign = -1 if ell % 2 else 1
        # a short entry reads as 0 to q^l
        padded = r[: ell + 1] + (0,) * (ell + 1 - len(r))
        if any(r[ell + 1 :]) or padded[::-1] != tuple(sign * c for c in padded):
            return [(f"reversal/sign mismatch {r}", False)]
        return []

    return _class_report(
        ctx, "r_functional_equation", classes, decide, diagonal=True
    )


def _check_r_derivative_edge(ctx: GroupContext, classes: Classes) -> CheckReport:
    """R'(1) is 1 on Bruhat-graph edges and 0 on all other pairs."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        d1 = sum(k * c for k, c in enumerate(r))
        if d1 != (1 if edge else 0):
            return [(f"R'(1) = {d1}, edge = {edge}", False)]
        return []

    edges = sum(len(ps) for (*_, edge), ps in classes.items() if edge)
    return _class_report(
        ctx, "r_derivative_edge", classes, decide, True, {"edges": edges}
    )


def _check_shifted_nonneg(ctx: GroupContext, classes: Classes) -> CheckReport:
    """(q-1)-coefficients of R vanish below a(u,w) and are positive
    from a(u,w) through l(u,w)."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        sh = _shifted(ctx, r)
        ok = len(sh) == ell + 1
        ok = ok and all(c == 0 for c in sh[:a])
        ok = ok and all(c > 0 for c in sh[a:])
        return [] if ok else [(f"shifted {sh}, a = {a}", False)]

    return _class_report(ctx, "shifted_nonneg", classes, decide)


def _check_divisibility_order(ctx: GroupContext, classes: Classes) -> CheckReport:
    """The (q-1)-multiplicity of R (the leading zeros of its
    (q-1)-expansion) equals the absolute length of the pair."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        mult = next((i for i, c in enumerate(_shifted(ctx, r)) if c), 0)
        return [] if mult == a else [(f"multiplicity {mult}, a = {a}", False)]

    return _class_report(ctx, "divisibility_order", classes, decide)


def _check_fh_structure(ctx: GroupContext, classes: Classes) -> CheckReport:
    """f/h-decomposition exists per pair: f positive with f_(-1) = 1,
    h palindromic with h_0 = 1, both rebuilding R exactly."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        fh = _fh_split(ctx, r, a, ell)
        return [(fh, True)] if isinstance(fh, str) else []

    return _class_report(ctx, "fh_structure", classes, decide)


def _check_boolean_criterion(ctx: GroupContext, classes: Classes) -> CheckReport:
    """R equals (q-1)^l(u,w) exactly when a(u,w) = l(u,w)."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        is_power = _shifted(ctx, r) == (0,) * ell + (1,)
        a_is_ell = a == ell
        if is_power != a_is_ell:
            return [(f"R == (q-1)^l is {is_power} but a == l is {a_is_ell}", False)]
        return []

    a_lt_ell = sum(
        len(ps) for (_, _, a, ell, _), ps in classes.items() if ell and a != ell
    )
    return _class_report(
        ctx, "boolean_criterion", classes, decide, stats={"a_lt_ell": a_lt_ell}
    )


def _check_binomial_bounds(ctx: GroupContext, classes: Classes) -> CheckReport:
    """(q-1)^l <= R <= q^l coefficientwise in the shifted basis."""

    def decide(r, rt, a, ell, edge) -> list[Fault]:
        sh = _shifted(ctx, r)
        sh += (0,) * (ell + 1 - len(sh))  # a short entry reads as 0 to (q-1)^l
        for k, c in enumerate(sh):
            lo = 1 if k == ell else 0
            if not lo <= c <= comb(ell, k):
                return [(
                    f"shifted coeff {k} is {c}, bounds [{lo}, {comb(ell, k)}]",
                    False,
                )]
        return []

    return _class_report(ctx, "binomial_bounds", classes, decide)


def _check_brenti_scan(ctx: GroupContext, classes: Classes) -> CheckReport:
    """Report-only scan of |[q^n] R| against binomial(l, n).

    The bound is an open conjecture, so violations are reported in the
    stats (max excess and how many pairs exceed 0), never as failures.
    """
    max_excess = None
    excess_pairs = 0
    for (r, rt, a, ell, edge), pairs in classes.items():
        if not ell:
            continue
        r += (0,) * (ell + 1 - len(r))  # a short entry reads as 0 to q^l
        worst = max(abs(c) - comb(ell, k) for k, c in enumerate(r))
        if worst > 0:
            excess_pairs += len(pairs)
        if max_excess is None or worst > max_excess:
            max_excess = worst
    return _report(
        ctx,
        "brenti_scan",
        _count(classes),
        _Witnesses(),
        {"max_excess": 0 if max_excess is None else max_excess,
         "excess_pairs": excess_pairs},
    )


# -- Bruhat-graph checks -------------------------------------------------

# A column check is a generator sent one ``klr._Column`` per top w, by
# increasing id, and then None, on which it returns its report
# (``_walk``).  So every selected column check reads one view of each
# column, and the view's out-neighbor lists are built once per (x, w).
Walker = Generator[None, "_Column | None", CheckReport]


def _joined(first: _Witnesses, then: _Witnesses) -> _Witnesses:
    """The witnesses of first and then those of then, as one collector
    holds them when they are added in that order."""
    wit = _Witnesses()
    wit.total = first.total + then.total
    wit.items = (first.items + then.items)[:WITNESS_CAP]
    return wit


def _check_deodhar(ctx: GroupContext) -> Walker:
    """Defect is nonnegative on every comparable pair."""
    wit = _Witnesses()
    n = max_defect = 0
    while col := (yield):
        n += len(col.below)
        for ui in col.below:
            df = col.defect(ui)
            max_defect = max(max_defect, df)
            if df < 0:
                wit.add(f"{_pair_word(ctx, ui, col.w)}: defect {df}")
    return _report(ctx, "deodhar", n, wit, {"max_defect": max_defect})


def _biconditional_check(
    ctx: GroupContext, sums: Columns, name: str, order: int
) -> Walker:
    """Shared body of dvc_linear and nth2_quadratic.

    Inequality side: for every x < w the (q-1)^order coefficient of the
    interval R-sum is at least binomial(l(x,w), order).  Equivalence side:
    an interval [u, w] has strict excess at some x in [u, w) exactly when
    P_uw differs from 1, with singularity read off the column view of w.
    Every inequality-side witness is listed before the equivalence side's.
    """
    ineq, equiv = _Witnesses(), _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    coeff: dict[Coeffs, int] = {}  # R-sum -> its (q-1)^order coefficient
    n = singular = 0
    while col := (yield):
        wi = col.w
        reach = 0  # the OR of lower(x) over the x < w with strict excess
        sums_w = sums[wi]
        for xi in col.below:
            if xi == wi:
                continue
            cs = sums_w[xi]
            val = coeff.get(cs)
            if val is None:
                val = coeff[cs] = sum(comb(k, order) * c for k, c in enumerate(cs))
            bound = comb(lengths[wi] - lengths[xi], order)
            if val > bound:
                reach |= lower[xi]
            elif val < bound:
                ineq.add(
                    f"{_pair_word(ctx, xi, wi)}: (q-1)^{order} coefficient "
                    f"of the R-sum is {val} < {bound}"
                )
        for ui, p in col.ps.items():
            n += 1
            strict_somewhere = bool(reach >> ui & 1)
            singular_kl = p != (1,)
            singular += singular_kl
            if strict_somewhere != singular_kl:
                equiv.add(
                    f"{_pair_word(ctx, ui, wi)}: strict excess is "
                    f"{strict_somewhere} but KL-singularity is {singular_kl}"
                )
    wit = _joined(ineq, equiv)
    return _report(ctx, name, n, wit, {"singular_intervals": singular})


def _check_dvc(ctx: GroupContext, sums: Columns) -> Walker:
    """Linear (q-1)-coefficient of interval R-sums dominates l(x,w), with
    strictness somewhere iff the interval is singular."""
    return _biconditional_check(ctx, sums, "dvc_linear", 1)


def _check_nth2(ctx: GroupContext, sums: Columns) -> Walker:
    """Quadratic (q-1)-coefficient of interval R-sums dominates
    binomial(l(x,w), 2), with strictness somewhere iff singular."""
    return _biconditional_check(ctx, sums, "nth2_quadratic", 2)


def _check_le1_le2_le3(ctx: GroupContext, classes: Classes) -> CheckReport:
    """Edge and double-step consequences: for u -> w, (q-1)^2 divides
    R - q^((l-1)/2) (q-1), the linear Rt coefficient is 1, and
    R''(1) = l(u,w) - 1; for a(u,w) = 2, R''(1) counts the length-2
    directed paths from u to w.

    Decided once per class, except the path count of a(u,w) = 2, which
    is taken per pair."""
    up = up_adjacency(ctx)
    down_sets = [set(xs) for xs in down_adjacency(ctx)]
    failing: list[tuple[list[Pair], list[Fault]]] = []
    edges = a2_pairs = skipped = 0
    for (r, rt, a, ell, edge), pairs in classes.items():
        if not ell or a > 2:
            skipped += len(pairs)
            continue
        second = sum(k * (k - 1) * c for k, c in enumerate(r))
        if a != 1:
            a2_pairs += len(pairs)
            for ui, wi in pairs:
                m_paths = sum(1 for vi in up[ui] if vi in down_sets[wi])
                if second != m_paths:
                    text = f"R''(1) = {second}, m = {m_paths}"
                    failing.append(([(ui, wi)], [(text, False)]))
            continue
        edges += len(pairs)
        faults = []
        m = (ell - 1) // 2
        if len(r) != ell + 1:
            faults.append((
                f"R entry {r} has {len(r)} coefficients, "
                f"not l(u,w) + 1 = {ell + 1}",
                False,
            ))
        else:
            diff = list(r)
            diff[m] += 1
            diff[m + 1] -= 1  # subtract q^m (q-1)
            if sum(diff) != 0 or sum(k * c for k, c in enumerate(diff)) != 0:
                faults.append((f"(q-1)^2 does not divide R - q^{m}(q-1)", False))
        if rt[1:2] != (1,):
            faults.append(("linear Rt coeff != 1", False))
        if second != ell - 1:
            faults.append((f"R''(1) = {second} != {ell - 1}", False))
        if faults:
            failing.append((pairs, faults))
    return _report(
        ctx,
        "le1_le2_le3",
        _count(classes, True),
        _pair_order_witnesses(ctx, failing),
        {"edges": edges, "a2_pairs": a2_pairs, "skipped": skipped},
    )


# -- KL-level checks -----------------------------------------------------


def _check_kl_basics(ctx: GroupContext, faults: list) -> CheckReport:
    """KL ground rules per pair: constant term 1, degree bound
    (l(u,w)-1)/2, 1 on the diagonal, and the defining functional equation
    verified by full substitution at Q = 2^B (``klr._kl_faults``): the
    faults of the certificate sweep of this run (``faults``)."""
    wit = _Witnesses()
    for ui, wi, fault in faults:
        wit.add(f"{_pair_word(ctx, ui, wi)}: {fault}")
    return _report(ctx, "kl_basics", _pair_count(ctx), wit, {})


def _check_kl_nonneg(ctx: GroupContext) -> Walker:
    """All KL coefficients are nonnegative."""
    wit = _Witnesses()
    n = 0
    while col := (yield):
        n += len(col.ps)
        for ui, pc in col.ps.items():
            if any(c < 0 for c in pc):
                wit.add(f"{_pair_word(ctx, ui, col.w)}: negative coefficient in {pc}")
    return _report(ctx, "kl_nonneg", n, wit, {})


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Coefficientwise a >= b with missing entries read as 0."""
    if len(b) > len(a):
        if any(c > 0 for c in b[len(a):]):
            return False
        b = b[: len(a)]
    return all(x >= y for x, y in zip(a, b))


def _strictness_differs(puw: Coeffs, pvw: Coeffs) -> bool:
    """Strict coefficientwise inequality and strict inequality at 1 disagree."""
    return (_dominates(puw, pvw) and puw != pvw) != (sum(puw) > sum(pvw))


def _class_sweep(
    ctx: GroupContext,
    message: str,
    fails: Callable[[Coeffs, Coeffs], bool],
    strict: bool,
) -> Generator[None, "_Column | None", tuple[int, _Witnesses]]:
    """Test every triple u <= v <= w (u < v if strict) a column class at a
    time, as a column check whose result is (triples tested, witnesses).

    ``fails(P_uw, P_vw)`` is decided once per distinct pair of values and
    memoized; the u failing for (v, w) are then one mask, ``bad & lower[v]``.
    The witnesses are in the order of a sweep over (v, w) in pair order and
    u by increasing id.
    """
    wit = _Witnesses()
    lower = le_masks(ctx)
    verdicts: dict[tuple[Coeffs, Coeffs], bool] = {}
    n = 0
    while col := (yield):
        wi, ps = col.w, col.ps
        classes: dict[Coeffs, int] = {}  # P -> mask of the u with P_uw = P
        for ui, p in ps.items():
            classes[p] = classes.get(p, 0) | 1 << ui
        bad_masks: dict[Coeffs, int] = {}
        for vi, pvw in ps.items():
            bad = bad_masks.get(pvw)
            if bad is None:
                bad = 0
                for puw, mask in classes.items():
                    key = (puw, pvw)
                    verdict = verdicts.get(key)
                    if verdict is None:
                        verdict = verdicts[key] = fails(puw, pvw)
                    if verdict:
                        bad |= mask
                bad_masks[pvw] = bad
            below = lower[vi] & ~(1 << vi) if strict else lower[vi]
            n += below.bit_count()
            for ui in iter_bits(bad & below):
                wit.add(
                    f"{_pair_word(ctx, ui, wi)} via "
                    f"v='{word_of(ctx.elements[vi])}': {message}"
                )
    return n, wit


def _check_kl_monotone(ctx: GroupContext) -> Walker:
    """Fixing the top element, KL polynomials weakly decrease along Bruhat
    order: u <= v <= w implies P_uw >= P_vw coefficientwise."""
    n, wit = yield from _class_sweep(
        ctx, "monotonicity fails", lambda a, b: not _dominates(a, b), strict=False
    )
    return _report(
        ctx, "kl_monotone", n, wit, {"comparable_pairs": _pair_count(ctx)}
    )


def _check_mono_equiv(ctx: GroupContext) -> Walker:
    """For u < v <= w, strict coefficientwise KL inequality is equivalent
    to the strict inequality of the values at 1."""
    n, wit = yield from _class_sweep(
        ctx, "strictness mismatch", _strictness_differs, strict=True
    )
    return _report(ctx, "mono_equiv", n, wit, {})


def _check_lemma_lm(ctx: GroupContext) -> Walker:
    """l(u,w) P_uw(1) - 2 P'_uw(1) equals the sum of P_vw(1) over the
    bottom neighborhood of [u, w]."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    while col := (yield):
        wi, p1 = col.w, col.p1
        n += len(p1)
        for ui, pc in col.ps.items():
            lhs = (lengths[wi] - lengths[ui]) * p1[ui] - 2 * sum(
                k * c for k, c in enumerate(pc)
            )
            rhs = sum(p1[vi] for vi in col.out(ui))
            if lhs != rhs:
                wit.add(f"{_pair_word(ctx, ui, wi)}: {lhs} != {rhs}")
    return _report(ctx, "lemma_lm", n, wit, {})


def _check_nth3_strict_edges(ctx: GroupContext) -> Walker:
    """Every singular pair has strict edges at the bottom vertex, at least
    defect + 1 of them, each pointing to a vertex with positive P(1)."""
    wit = _Witnesses()
    n = singular = skipped = 0
    while col := (yield):
        wi, p1 = col.w, col.p1
        n += len(p1)
        for ui, base in p1.items():
            if base <= 1:
                skipped += 1
                continue
            singular += 1
            nb = col.out(ui)
            for vi in nb:
                if p1[vi] <= 0:
                    wit.add(f"{_pair_word(ctx, ui, wi)}: P(1) <= 0 at a neighbor")
            strict = sum(1 for vi in nb if base > p1[vi])
            df = col.defect(ui)
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


def _check_strict_path(ctx: GroupContext) -> Walker:
    """From every singular pair the greedy strict path exists, uses only
    strict Bruhat-graph edges (as ``klr._greedy_ends`` builds it), and
    ends at a rationally smooth vertex."""
    wit = _Witnesses()
    n = singular = skipped = 0
    while col := (yield):
        wi, ps, p1 = col.w, col.ps, col.p1
        end_of = _greedy_ends(col)
        n += len(p1)
        for ui, base in p1.items():
            if base <= 1:
                skipped += 1
                continue
            singular += 1
            end, stuck = end_of(ui)
            if stuck:
                wit.add(str(_stuck_error(ctx, end, wi)))
            elif ps[end] != (1,):
                wit.add(f"{_pair_word(ctx, ui, wi)}: bad strict path")
    return _report(
        ctx,
        "strict_path",
        n,
        wit,
        {"singular_pairs": singular, "smooth_skipped": skipped},
    )


def _check_smoothness_equivalence(
    ctx: GroupContext, sums: Columns
) -> Walker:
    """Three singularity criteria agree on every interval: interval R-sums
    equal to q^l at every lower vertex, zero defect at every lower vertex,
    and KL triviality."""
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    n = smooth = 0
    while col := (yield):
        wi = col.w
        bad_sum = bad_df = 0  # the OR of lower(x) over the x < w failing
        sums_w = sums[wi]
        for xi in col.below:
            if xi == wi:
                continue
            ell = lengths[wi] - lengths[xi]
            if sums_w[xi] != (0,) * ell + (1,):
                bad_sum |= lower[xi]
            if col.defect(xi) != 0:
                bad_df |= lower[xi]
        for ui, p in col.ps.items():
            n += 1
            by_sum = not (bad_sum >> ui & 1)
            by_df = not (bad_df >> ui & 1)
            by_kl = p == (1,)
            smooth += by_kl
            if not by_sum == by_df == by_kl:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: sum-criterion {by_sum}, "
                    f"defect-criterion {by_df}, KL-criterion {by_kl}"
                )
    return _report(
        ctx, "smoothness_equivalence", n, wit, {"smooth_intervals": smooth}
    )


def _walk(ctx: GroupContext, checks: dict[str, Walker]) -> dict[str, CheckReport]:
    """Run the column checks in one walk over the tops w, by increasing id,
    and return their reports.  One ``klr._Column`` of w is built and sent
    to each check; it reads the KL column only if one of them reads KL.
    No column is kept past the next one."""
    if not checks:
        return {}
    kl = not _READS_KL.isdisjoint(checks)
    for check in checks.values():
        next(check)
    for wi in range(ctx.order):
        col = _Column(ctx, wi, kl)
        for check in checks.values():
            check.send(col)
    reports = {}
    for name, check in checks.items():
        try:
            check.send(None)
        except StopIteration as done:
            reports[name] = done.value
    return reports


# -- registry and drivers -------------------------------------------------


_REGISTRY = {
    "r_basics": _check_r_basics,
    "r_inverse_symmetry": _check_r_inverse_symmetry,
    "r_alternating_sum": _check_r_alternating_sum,
    "r_functional_equation": _check_r_functional_equation,
    "r_derivative_edge": _check_r_derivative_edge,
    "shifted_nonneg": _check_shifted_nonneg,
    "divisibility_order": _check_divisibility_order,
    "fh_structure": _check_fh_structure,
    "boolean_criterion": _check_boolean_criterion,
    "binomial_bounds": _check_binomial_bounds,
    "brenti_scan": _check_brenti_scan,
    "deodhar": _check_deodhar,
    "dvc_linear": _check_dvc,
    "nth2_quadratic": _check_nth2,
    "le1_le2_le3": _check_le1_le2_le3,
    "kl_basics": _check_kl_basics,
    "kl_nonneg": _check_kl_nonneg,
    "kl_monotone": _check_kl_monotone,
    "mono_equiv": _check_mono_equiv,
    "lemma_lm": _check_lemma_lm,
    "nth3_strict_edges": _check_nth3_strict_edges,
    "strict_path": _check_strict_path,
    "smoothness_equivalence": _check_smoothness_equivalence,
}

CHECK_NAMES = tuple(_REGISTRY)

# the checks that read the KL table
_READS_KL = frozenset(
    "dvc_linear nth2_quadratic kl_basics kl_nonneg kl_monotone mono_equiv "
    "lemma_lm nth3_strict_edges strict_path smoothness_equivalence".split()
)
# the checks that read the interval R-sums, passed to them as an argument
_READS_SUMS = frozenset("dvc_linear nth2_quadratic smoothness_equivalence".split())
# the checks that decide once per class of ``_r_classes``, passed to them
_READS_CLASSES = frozenset(
    "r_basics r_functional_equation r_derivative_edge shifted_nonneg "
    "divisibility_order fh_structure boolean_criterion binomial_bounds "
    "brenti_scan le1_le2_le3".split()
)
# the column checks, run together in one ``_walk``
_WALKS = frozenset(
    "deodhar dvc_linear nth2_quadratic kl_nonneg kl_monotone mono_equiv "
    "lemma_lm nth3_strict_edges strict_path smoothness_equivalence".split()
)


def run_check(name: str, ctx: GroupContext) -> CheckReport:
    """Run one registered check over a whole group."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown check {name!r}; registered: {', '.join(CHECK_NAMES)}"
        )
    return run_suite(ctx, name)[0]


def run_suite(ctx: GroupContext, selection="all") -> list[CheckReport]:
    """Run the selected checks and return their reports, in registry order.

    If any of them reads the KL table, one certificate sweep
    (``klr._certify``) fills what is missing of it and checks all of it,
    also when it was full before this call; kl_basics reports its faults.
    If any reads the interval R-sums, the same sweep also yields them.  No
    check changes R, so they are R's sums at this call, passed to each.
    The classes of ``_r_classes`` are built once for the checks that
    decide once per class, from R, Rt and the graph as they are at this
    call.  The column checks (``_WALKS``) share one ``_walk`` over the
    tops, after the others have run."""
    if selection == "all":
        names = CHECK_NAMES
    else:
        if isinstance(selection, str):
            selection = (selection,)
        if not selection:
            raise ValueError(
                f"no checks selected; registered: {', '.join(CHECK_NAMES)}"
            )
        unknown = [s for s in selection if s not in _REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown!r}; registered: {', '.join(CHECK_NAMES)}"
            )
        names = tuple(n for n in CHECK_NAMES if n in set(selection))
    reads_sums = not _READS_SUMS.isdisjoint(names)
    sums: Columns | None = {} if reads_sums else None
    faults = None if _READS_KL.isdisjoint(names) else _certify(ctx, ones=sums)
    classes = None
    reports = {}
    walkers = {}
    for n in names:
        check = _REGISTRY[n]
        if n in _WALKS:
            walkers[n] = check(ctx, sums) if n in _READS_SUMS else check(ctx)
        elif n in _READS_CLASSES:
            if classes is None:
                classes = _r_classes(ctx)
            reports[n] = check(ctx, classes)
        elif n == "kl_basics":
            reports[n] = _check_kl_basics(ctx, faults)
        else:
            reports[n] = check(ctx)
    classes = None  # not held through the walk
    reports.update(_walk(ctx, walkers))
    return [reports[n] for n in names]


def report_to_json(report: CheckReport) -> dict:
    return {
        "check": report.check_name,
        "group": report.group,
        "pairs": report.pairs_tested,
        "passed": report.passed,
        "witnesses": list(report.witnesses),
        "stats": dict(report.stats),
    }


def summary_table(reports: list[CheckReport]) -> str:
    """Fixed-width text summary, one line per report."""
    name_w = max([len(r.check_name) for r in reports] + [5])
    lines = [
        f"{'check'.ljust(name_w)}  group  {'pairs':>8}  result  witnesses",
    ]
    for r in reports:
        total = r.stats.get("violations_total", len(r.witnesses))
        lines.append(
            f"{r.check_name.ljust(name_w)}  {r.group:<5}  {r.pairs_tested:>8}  "
            f"{'PASS' if r.passed else 'FAIL':<6}  {total}"
        )
    return "\n".join(lines)
