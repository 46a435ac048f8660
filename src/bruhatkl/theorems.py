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
integer each per pair.  The interval R-sums (F = 1) of dvc_linear,
nth2_quadratic and smoothness_equivalence are read back from their values
at Q (``klr._interval_r_sums``): ``run_suite`` computes them once per call,
from R as it is then, at the first of the three it runs, and passes them to
each of the three as an argument.  That is exact: B is set with
each sum from the norms of R and F as they are then, so that every
coefficient of either side is at most M with 2^(B-1) > 2M, and a nonzero
integer polynomial with coefficients that small does not vanish at 2^B.  So a
pair fails at Q exactly when it fails as polynomials; r_alternating_sum
recomputes such a pair in coefficient form for the coefficients its
witness prints.  kl_monotone and mono_equiv group each KL column by value
and decide each pair of values once; every triple is still counted, and
reported if it fails.

The R-level checks read R's (q-1)-expansion through ``klr._shifted``,
which computes it from the R table at each call, so they see the table
as it is when they run.

Domains are always comparable pairs u <= w (zero values on incomparable
pairs are the recursions' base case, covered by unit tests); checks with a
narrower domain count the pairs they skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable

from bruhatkl.bruhat import (
    _defects,
    abs_len_table,
    comparable_pairs,
    down_adjacency,
    ge_masks,
    iter_bits,
    le_masks,
    up_adjacency,
)
from bruhatkl.coxeter import Coeffs, GroupContext, Pair, word_of
from bruhatkl.klr import (
    _at,
    _kl,
    _kl1,
    _r,
    _interval_r_sums,
    _shifted,
    _sums_at_q,
    check_r_rtilde_link,
    fh_vectors,
    fill_tables,
    strict_path_to_smooth,
)
from bruhatkl.polynomial import _addmul_into

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


def _abs(ctx: GroupContext, ui: int, wi: int) -> int:
    return abs_len_table(ctx.elements[wi])[ui]


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


def _check_r_basics(ctx: GroupContext) -> CheckReport:
    """R and Rt ground rules: 1 on the diagonal, monic of degree l(u,w),
    R(1) = 0 off the diagonal, Rt nonnegative, and R rebuilt from Rt
    through the absolute-length closed form."""
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
            if not check_r_rtilde_link(ctx.elements[ui], ctx.elements[wi]):
                wit.add(f"{_pair_word(ctx, ui, wi)}: Rt substitution rebuild != R")
        except RuntimeError as exc:
            wit.add(str(exc))
    return _report(ctx, "r_basics", n, wit, {})


def _check_r_inverse_symmetry(ctx: GroupContext) -> CheckReport:
    """R is invariant under inverting both indices."""
    wit = _Witnesses()
    inv = ctx.inv
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        if _r(ctx, ui, wi) != _r(ctx, inv[ui], inv[wi]):
            wit.add(f"{_pair_word(ctx, ui, wi)}: R differs on inverses")
    return _report(ctx, "r_inverse_symmetry", n, wit, {})


def _alternating_sum(ctx: GroupContext, ui: int, wi: int, members: int) -> list[int]:
    """Coefficients of the sum over v in members of (-1)^l(u,v) R_uv R_vw:
    l(u,w) + 1 of them, or more where a product is longer, so a malformed
    entry cannot index past the end."""
    lengths = ctx.lengths
    terms = []
    for vi in iter_bits(members):
        rvw = _r(ctx, vi, wi)
        if (lengths[vi] - lengths[ui]) % 2:
            rvw = tuple(-c for c in rvw)
        terms.append((_r(ctx, ui, vi), rvw))
    size = lengths[wi] - lengths[ui] + 1
    acc = [0] * max([size] + [len(a) + len(b) - 1 for a, b in terms])
    for a, b in terms:
        _addmul_into(acc, a, b)
    return acc


def _check_r_alternating_sum(ctx: GroupContext) -> CheckReport:
    """Sign-alternating convolution over each interval is a Kronecker delta.

    Tested at Q = 2^B, one integer per pair, exactly by the bound of
    ``klr._sums_at_q``; a pair that fails there is recomputed in coefficient
    form for its witness.
    """
    wit = _Witnesses()
    lower = le_masks(ctx)
    upper = ge_masks(ctx)
    lengths = ctx.lengths

    def signed(vi: int, wi: int) -> Coeffs:  # (-1)^l(v) R_vw
        r = _r(ctx, vi, wi)
        return tuple(-c for c in r) if lengths[vi] % 2 else r

    _, tops = _sums_at_q(ctx, signed)
    for wi, acc in enumerate(tops):
        for ui, val in acc.items():
            if lengths[ui] % 2:
                val = -val
            expected = 1 if ui == wi else 0
            if val != expected:
                coeffs = _alternating_sum(ctx, ui, wi, lower[wi] & upper[ui])
                wit.add(f"{_pair_word(ctx, ui, wi)}: alternating sum {coeffs}")
    return _report(ctx, "r_alternating_sum", len(comparable_pairs(ctx)), wit, {})


def _check_r_functional_equation(ctx: GroupContext) -> CheckReport:
    """Reversing R's coefficients equals R up to the sign (-1)^l(u,w)."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        rc = _r(ctx, ui, wi)
        ell = lengths[wi] - lengths[ui]
        sign = -1 if ell % 2 else 1
        if tuple(reversed(rc)) != tuple(sign * c for c in rc):
            wit.add(f"{_pair_word(ctx, ui, wi)}: reversal/sign mismatch {rc}")
    return _report(ctx, "r_functional_equation", n, wit, {})


def _check_r_derivative_edge(ctx: GroupContext) -> CheckReport:
    """R'(1) is 1 on Bruhat-graph edges and 0 on all other pairs."""
    wit = _Witnesses()
    up = [set(xs) for xs in up_adjacency(ctx)]
    n = 0
    edges = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        d1 = sum(k * c for k, c in enumerate(_r(ctx, ui, wi)))
        is_edge = wi in up[ui]
        edges += is_edge
        if d1 != (1 if is_edge else 0):
            wit.add(f"{_pair_word(ctx, ui, wi)}: R'(1) = {d1}, edge = {is_edge}")
    return _report(ctx, "r_derivative_edge", n, wit, {"edges": edges})


def _check_shifted_nonneg(ctx: GroupContext) -> CheckReport:
    """(q-1)-coefficients of R vanish below a(u,w) and are positive
    from a(u,w) through l(u,w)."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        sh = _shifted(ctx, ui, wi)
        a = _abs(ctx, ui, wi)
        ell = lengths[wi] - lengths[ui]
        ok = len(sh) == ell + 1
        ok = ok and all(c == 0 for c in sh[:a])
        ok = ok and all(c > 0 for c in sh[a:])
        if not ok:
            wit.add(f"{_pair_word(ctx, ui, wi)}: shifted {sh}, a = {a}")
    return _report(ctx, "shifted_nonneg", n, wit, {})


def _check_divisibility_order(ctx: GroupContext) -> CheckReport:
    """The (q-1)-multiplicity of R (the leading zeros of its
    (q-1)-expansion) equals the absolute length of the pair."""
    wit = _Witnesses()
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        mult = next((i for i, c in enumerate(_shifted(ctx, ui, wi)) if c), 0)
        a = _abs(ctx, ui, wi)
        if mult != a:
            wit.add(f"{_pair_word(ctx, ui, wi)}: multiplicity {mult}, a = {a}")
    return _report(ctx, "divisibility_order", n, wit, {})


def _check_fh_structure(ctx: GroupContext) -> CheckReport:
    """f/h-decomposition exists per pair: f positive with f_(-1) = 1,
    h palindromic with h_0 = 1, both rebuilding R exactly."""
    wit = _Witnesses()
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        try:
            fh_vectors(ctx.elements[ui], ctx.elements[wi])
        except RuntimeError as exc:
            wit.add(str(exc))
    return _report(ctx, "fh_structure", n, wit, {})


def _check_boolean_criterion(ctx: GroupContext) -> CheckReport:
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
        is_power = _shifted(ctx, ui, wi) == (0,) * ell + (1,)
        a_is_ell = _abs(ctx, ui, wi) == ell
        a_lt_ell += not a_is_ell
        if is_power != a_is_ell:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: R == (q-1)^l is {is_power} "
                f"but a == l is {a_is_ell}"
            )
    return _report(ctx, "boolean_criterion", n, wit, {"a_lt_ell": a_lt_ell})


def _check_binomial_bounds(ctx: GroupContext) -> CheckReport:
    """(q-1)^l <= R <= q^l coefficientwise in the shifted basis."""
    wit = _Witnesses()
    lengths = ctx.lengths
    n = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        ell = lengths[wi] - lengths[ui]
        sh = _shifted(ctx, ui, wi)
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


def _check_brenti_scan(ctx: GroupContext) -> CheckReport:
    """Report-only scan of |[q^n] R| against binomial(l, n).

    The bound is an open conjecture, so violations are reported in the
    stats (max excess and how many pairs exceed 0), never as failures.
    """
    lengths = ctx.lengths
    n = 0
    max_excess = None
    excess_pairs = 0
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        n += 1
        ell = lengths[wi] - lengths[ui]
        rc = _r(ctx, ui, wi)
        rc += (0,) * (ell + 1 - len(rc))  # a short entry reads as 0 to q^l
        worst = max(abs(c) - comb(ell, k) for k, c in enumerate(rc))
        excess_pairs += worst > 0
        if max_excess is None or worst > max_excess:
            max_excess = worst
    return _report(
        ctx,
        "brenti_scan",
        n,
        _Witnesses(),
        {"max_excess": 0 if max_excess is None else max_excess,
         "excess_pairs": excess_pairs},
    )


# -- Bruhat-graph checks -------------------------------------------------


def _check_deodhar(ctx: GroupContext) -> CheckReport:
    """Defect is nonnegative on every comparable pair."""
    wit = _Witnesses()
    n = 0
    max_defect = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        df = _defects(ctx, wi)[ui]
        max_defect = max(max_defect, df)
        if df < 0:
            wit.add(f"{_pair_word(ctx, ui, wi)}: defect {df}")
    return _report(ctx, "deodhar", n, wit, {"max_defect": max_defect})


def _biconditional_check(
    ctx: GroupContext, sums: dict[Pair, Coeffs], name: str, order: int
) -> CheckReport:
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
            cs = sums[xi, wi]
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
    upper = ge_masks(ctx)
    n = 0
    singular = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        strict_somewhere = bool(
            lower[wi] & upper[ui] & ~(1 << wi) & exc_masks[wi]
        )
        singular_kl = _kl(ctx, ui, wi) != (1,)
        singular += singular_kl
        if strict_somewhere != singular_kl:
            wit.add(
                f"{_pair_word(ctx, ui, wi)}: strict excess is "
                f"{strict_somewhere} but KL-singularity is {singular_kl}"
            )
    return _report(ctx, name, n, wit, {"singular_intervals": singular})


def _check_dvc(ctx: GroupContext, sums: dict[Pair, Coeffs]) -> CheckReport:
    """Linear (q-1)-coefficient of interval R-sums dominates l(x,w), with
    strictness somewhere iff the interval is singular."""
    return _biconditional_check(ctx, sums, "dvc_linear", 1)


def _check_nth2(ctx: GroupContext, sums: dict[Pair, Coeffs]) -> CheckReport:
    """Quadratic (q-1)-coefficient of interval R-sums dominates
    binomial(l(x,w), 2), with strictness somewhere iff singular."""
    return _biconditional_check(ctx, sums, "nth2_quadratic", 2)


def _check_le1_le2_le3(ctx: GroupContext) -> CheckReport:
    """Edge and double-step consequences: for u -> w, (q-1)^2 divides
    R - q^((l-1)/2) (q-1), the linear Rt coefficient is 1, and
    R''(1) = l(u,w) - 1; for a(u,w) = 2, R''(1) counts the length-2
    directed paths from u to w."""
    wit = _Witnesses()
    lengths = ctx.lengths
    up = up_adjacency(ctx)
    down_sets = [set(xs) for xs in down_adjacency(ctx)]
    n = 0
    edges = a2_pairs = skipped = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        if ui == wi:
            skipped += 1
            continue
        a = _abs(ctx, ui, wi)
        if a > 2:
            skipped += 1
            continue
        ell = lengths[wi] - lengths[ui]
        rc = _r(ctx, ui, wi)
        second = sum(k * (k - 1) * c for k, c in enumerate(rc))
        if a == 1:
            edges += 1
            m = (ell - 1) // 2
            if len(rc) != ell + 1:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: R entry {rc} has {len(rc)} "
                    f"coefficients, not l(u,w) + 1 = {ell + 1}"
                )
            else:
                diff = list(rc)
                diff[m] += 1
                diff[m + 1] -= 1  # subtract q^m (q-1)
                if sum(diff) != 0 or sum(k * c for k, c in enumerate(diff)) != 0:
                    wit.add(
                        f"{_pair_word(ctx, ui, wi)}: (q-1)^2 does not divide "
                        f"R - q^{m}(q-1)"
                    )
            if _r(ctx, ui, wi, "Rt")[1:2] != (1,):
                wit.add(f"{_pair_word(ctx, ui, wi)}: linear Rt coeff != 1")
            if second != ell - 1:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: R''(1) = {second} != {ell - 1}"
                )
        else:
            a2_pairs += 1
            m_paths = sum(1 for vi in up[ui] if vi in down_sets[wi])
            if second != m_paths:
                wit.add(
                    f"{_pair_word(ctx, ui, wi)}: R''(1) = {second}, "
                    f"m = {m_paths}"
                )
    return _report(
        ctx,
        "le1_le2_le3",
        n,
        wit,
        {"edges": edges, "a2_pairs": a2_pairs, "skipped": skipped},
    )


# -- KL-level checks -----------------------------------------------------


def _check_kl_basics(ctx: GroupContext) -> CheckReport:
    """KL ground rules per pair: constant term 1, degree bound
    (l(u,w)-1)/2, 1 on the diagonal, and the defining functional equation
    verified by full substitution at Q = 2^B, exactly by the bound of
    ``klr._sums_at_q``."""
    wit = _Witnesses()
    lengths = ctx.lengths
    bits, tops = _sums_at_q(ctx, lambda vi, wi: _kl(ctx, vi, wi))
    for wi, acc in enumerate(tops):
        # acc[u] = sum over v in [u, w] of R_uv(Q) P_vw(Q)
        for ui, val in acc.items():
            pc = _kl(ctx, ui, wi)
            if ui == wi:
                if pc != (1,):
                    wit.add(f"{_pair_word(ctx, ui, wi)}: diagonal KL entry not 1")
                continue
            D = lengths[wi] - lengths[ui]
            if not pc or pc[0] != 1 or len(pc) - 1 > (D - 1) // 2:
                wit.add(f"{_pair_word(ctx, ui, wi)}: malformed KL entry {pc}")
                continue
            lhs = _at(pc[::-1], bits) << bits * (D + 1 - len(pc))
            if lhs != val:
                wit.add(f"{_pair_word(ctx, ui, wi)}: functional equation fails")
    return _report(ctx, "kl_basics", len(comparable_pairs(ctx)), wit, {})


def _check_kl_nonneg(ctx: GroupContext) -> CheckReport:
    """All KL coefficients are nonnegative."""
    wit = _Witnesses()
    n = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        pc = _kl(ctx, ui, wi)
        if any(c < 0 for c in pc):
            wit.add(f"{_pair_word(ctx, ui, wi)}: negative coefficient in {pc}")
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


def _column_classes(ctx: GroupContext, wi: int, lower_w: int) -> dict[Coeffs, int]:
    """Column w of the KL table as {P: mask of the u <= w with P_uw = P}."""
    classes: dict[Coeffs, int] = {}
    for ui in iter_bits(lower_w):
        p = _kl(ctx, ui, wi)
        classes[p] = classes.get(p, 0) | 1 << ui
    return classes


def _class_sweep(
    ctx: GroupContext,
    message: str,
    fails: Callable[[Coeffs, Coeffs], bool],
    strict: bool,
) -> tuple[int, _Witnesses]:
    """Test every triple u <= v <= w (u < v if strict) a column class at a time.

    ``fails(P_uw, P_vw)`` is decided once per distinct pair of values and
    memoized; the u failing for (v, w) are then one mask, ``bad & lower[v]``.
    Returns the number of triples tested and the witnesses, in the order of
    a sweep over (v, w) in pair order and u by increasing id.
    """
    wit = _Witnesses()
    lower = le_masks(ctx)
    verdicts: dict[tuple[Coeffs, Coeffs], bool] = {}
    n = 0
    for wi in range(ctx.order):
        classes = _column_classes(ctx, wi, lower[wi])
        bad_masks: dict[Coeffs, int] = {}
        for vi in iter_bits(lower[wi]):
            pvw = _kl(ctx, vi, wi)
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


def _check_kl_monotone(ctx: GroupContext) -> CheckReport:
    """Fixing the top element, KL polynomials weakly decrease along Bruhat
    order: u <= v <= w implies P_uw >= P_vw coefficientwise."""
    n, wit = _class_sweep(
        ctx, "monotonicity fails", lambda a, b: not _dominates(a, b), strict=False
    )
    return _report(
        ctx, "kl_monotone", n, wit, {"comparable_pairs": len(comparable_pairs(ctx))}
    )


def _check_mono_equiv(ctx: GroupContext) -> CheckReport:
    """For u < v <= w, strict coefficientwise KL inequality is equivalent
    to the strict inequality of the values at 1."""
    n, wit = _class_sweep(ctx, "strictness mismatch", _strictness_differs, strict=True)
    return _report(ctx, "mono_equiv", n, wit, {})


def _check_lemma_lm(ctx: GroupContext) -> CheckReport:
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


def _check_nth3_strict_edges(ctx: GroupContext) -> CheckReport:
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
        df = _defects(ctx, wi)[ui]
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


def _check_strict_path(ctx: GroupContext) -> CheckReport:
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


def _check_smoothness_equivalence(
    ctx: GroupContext, sums: dict[Pair, Coeffs]
) -> CheckReport:
    """Three singularity criteria agree on every interval: interval R-sums
    equal to q^l at every lower vertex, zero defect at every lower vertex,
    and KL triviality."""
    wit = _Witnesses()
    lengths = ctx.lengths
    lower = le_masks(ctx)
    upper = ge_masks(ctx)
    bad_sum = [0] * ctx.order
    bad_df = [0] * ctx.order
    for wi in range(ctx.order):
        defects = _defects(ctx, wi)
        for xi in iter_bits(lower[wi]):
            if xi == wi:
                continue
            cs = sums[xi, wi]
            ell = lengths[wi] - lengths[xi]
            if cs != (0,) * ell + (1,):
                bad_sum[wi] |= 1 << xi
            if defects[xi] != 0:
                bad_df[wi] |= 1 << xi
    n = 0
    smooth = 0
    for ui, wi in comparable_pairs(ctx):
        n += 1
        inside = lower[wi] & upper[ui] & ~(1 << wi)
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


def run_check(name: str, ctx: GroupContext) -> CheckReport:
    """Run one registered check over a whole group."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown check {name!r}; registered: {', '.join(CHECK_NAMES)}"
        )
    return run_suite(ctx, name)[0]


def run_suite(ctx: GroupContext, selection="all") -> list[CheckReport]:
    """Run the selected checks (registry order) and return their reports.

    If any of them reads the KL table, it is filled first, in one
    certificate pass over the whole group.  If any reads the interval
    R-sums, they are computed once, at the first such check, and passed to
    each of them; no check changes R, so they are R's sums at this call."""
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
    if not _READS_KL.isdisjoint(names):
        fill_tables(ctx, ("KL",))
    sums = None
    reports = []
    for n in names:
        if n in _READS_SUMS:
            if sums is None:  # held through earlier checks, it adds to peak RSS
                sums = _interval_r_sums(ctx)
            reports.append(_REGISTRY[n](ctx, sums))
        else:
            reports.append(_REGISTRY[n](ctx))
    return reports


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
