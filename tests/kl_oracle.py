"""Brute-force Kazhdan-Lusztig oracle used to cross-check the library.

For each pair u <= w the defining functional equation

    q^l(u,w) * P_uw(1/q) = sum over u <= v <= w of R_uv(q) * P_vw(q)

is turned into a dense linear system in the unknown coefficients of P_uw
(degree bound (l(u,w)-1)//2) and solved by plain Gaussian elimination over
Fraction, processing u by descending length for each fixed w
(``oracle_kl_table``: every u <= w; ``oracle_kl_pair``: only the x in one
interval [u, w], which the equation for P_uw involves).  No
coefficient read-off shortcut is used anywhere, and the R-polynomials are
recomputed here from their own recursion rather than taken from the
library, so agreement with bruhatkl.klr is a genuine two-route check.
"""

from fractions import Fraction

from bruhatkl.bruhat import bruhat_le, iter_bits, le_masks
from bruhatkl.coxeter import GroupContext, right_descents


def oracle_r_table(ctx: GroupContext) -> dict[tuple[int, int], tuple[int, ...]]:
    """R-polynomial coefficients (power basis) for all comparable pairs."""
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    rmult = ctx.rmult
    lengths = [g.length for g in ctx.elements]

    def rec(ui: int, wi: int) -> tuple[int, ...]:
        if ui == wi:
            return (1,)
        if not bruhat_le(ctx.elements[ui], ctx.elements[wi]):
            return ()
        key = (ui, wi)
        if key in table:
            return table[key]
        s = min(right_descents(ctx.elements[wi]))
        usi, wsi = rmult[ui][s], rmult[wi][s]
        if lengths[usi] < lengths[ui]:
            res = rec(usi, wsi)
        else:
            qa = (0,) + rec(usi, wsi)  # q * R(us, ws)
            b = rec(ui, wsi)  # (q-1) * R(u, ws)
            out = list(qa) + [0] * max(0, len(b) + 1 - len(qa))
            for i, c in enumerate(b):
                out[i] -= c
                out[i + 1] += c
            res = tuple(out)
        table[key] = res
        return res

    masks = le_masks(ctx)
    for wi in range(ctx.order):
        for ui in iter_bits(masks[wi]):
            rec(ui, wi)
    return table


def _gauss_solve_unique(A, b):
    """Solve A x = b over Fraction; raise unless the solution is unique."""
    rows = len(A)
    cols = len(A[0]) if A else 0
    M = [[Fraction(A[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if M[i][cols] != 0:
            raise ArithmeticError("inconsistent linear system")
    if len(pivots) != cols:
        raise ArithmeticError("underdetermined linear system")
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = M[i][cols]
    return x


def _solve_column(members, wi, masks, lengths, r_table):
    """P_{x,w} for every x in ``members`` (closed upward inside [., w])."""
    P: dict[tuple[int, int], tuple[int, ...]] = {}
    for ui in sorted(members, key=lambda ui: -lengths[ui]):
        if ui == wi:
            P[(ui, wi)] = (1,)
            continue
        D = lengths[wi] - lengths[ui]
        m = (D - 1) // 2
        # right-hand side: sum of R_uv * P_vw over u < v <= w
        F = [0] * (D + 1)
        for vi in members:
            if vi == ui or not masks[vi] >> ui & 1:
                continue
            rc = r_table[(ui, vi)]
            pc = P[(vi, wi)]
            for i, a in enumerate(rc):
                if a:
                    for j, bcf in enumerate(pc):
                        F[i + j] += a * bcf
        # unknowns p_0..p_m; equation per power of q in
        # q^D P(1/q) - P(q) = F(q)
        A = [
            [(1 if j == D - k else 0) - (1 if j == k else 0) for j in range(m + 1)]
            for k in range(D + 1)
        ]
        sol = _gauss_solve_unique(A, F)
        coeffs = []
        for x in sol:
            if x.denominator != 1:
                raise ArithmeticError("non-integer KL coefficient")
            coeffs.append(int(x))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        P[(ui, wi)] = tuple(coeffs)
    return P


def oracle_kl_table(ctx: GroupContext) -> dict[tuple[int, int], tuple[int, ...]]:
    """KL coefficients (power basis) for all comparable pairs, by linear solve."""
    r_table = oracle_r_table(ctx)
    masks = le_masks(ctx)
    lengths = [g.length for g in ctx.elements]
    P: dict[tuple[int, int], tuple[int, ...]] = {}
    for wi in range(ctx.order):
        P.update(_solve_column(list(iter_bits(masks[wi])), wi, masks, lengths, r_table))
    return P


def oracle_kl_pair(ctx: GroupContext, ui: int, wi: int, r_table=None) -> tuple[int, ...]:
    """P_uw for one comparable pair, solving only the x in [u, w] of column w.

    ``r_table`` is ``oracle_r_table(ctx)``, computed here when not given.
    """
    if r_table is None:
        r_table = oracle_r_table(ctx)
    masks = le_masks(ctx)
    lengths = [g.length for g in ctx.elements]
    members = [xi for xi in iter_bits(masks[wi]) if masks[xi] >> ui & 1]
    return _solve_column(members, wi, masks, lengths, r_table)[(ui, wi)]
