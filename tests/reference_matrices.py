"""Matrix model of a Weyl group, the reference the library's build is tested against.

``bruhatkl.coxeter.build_group`` never builds a matrix: it enumerates the
group by weight vectors.  This module keeps the other route, the integer
matrices of the geometric representation on simple-root coordinates, where
the simple reflection s_i sends x to y with y[i] = x[i] - sum_j cartan[i][j]
* x[j] and y[k] = x[k] otherwise.  ``matrix_of`` gives the matrix of one
element from its word, and ``reference_tables`` enumerates the whole group
breadth-first by matrices, so that the library's tables can be compared
with tables found without any of its code.
"""

from functools import lru_cache

from bruhatkl.coxeter import GroupElement, word_of

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in cols) for ra in a)


def apply(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def is_positive(v: Vector) -> bool:
    """Sign of a nonzero root vector (all coordinates share a sign)."""
    return next(c for c in v if c) > 0


@lru_cache(maxsize=None)
def generators(cartan: Matrix) -> tuple[Matrix, ...]:
    """The simple-reflection matrices: the identity with row i replaced."""
    n = len(cartan)
    return tuple(
        tuple(
            tuple((i == j) - cartan[i][j] if k == i else int(k == j) for j in range(n))
            for k in range(n)
        )
        for i in range(n)
    )


@lru_cache(maxsize=None)
def matrix_of(w: GroupElement) -> Matrix:
    """Matrix of w: the product of the generator matrices along word_of(w)."""
    gens = generators(w.ctx.datum.cartan)
    m = identity(w.ctx.rank)
    if w.length:
        for tok in word_of(w).split():
            m = mat_mul(m, gens[int(tok) - 1])
    return m


def reference_tables(cartan: Matrix) -> dict:
    """The group tables found by matrices alone.

    Elements are enumerated breadth-first from the identity, each w trying
    ws for s in increasing order when s is an ascent (column s of w's
    matrix, the root w(a_s), is positive).  Positive roots are closed under
    the generators from the simple roots, in discovery order, and the
    reflection of each root is found by closing the simple reflections
    under conjugation, tracking roots.  Returns ``rmult``, ``inv``,
    ``lengths``, ``srd``, ``pos_roots`` and ``reflections`` (the id of each
    root's reflection, in root order).
    """
    n = len(cartan)
    gens = generators(cartan)
    mats = [identity(n)]
    inv_mats = [mats[0]]  # inv(ws) = s inv(w)
    index = {mats[0]: 0}
    lengths = [0]
    for wi, m in enumerate(mats):  # mats grows while it is read
        for s in range(n):
            if is_positive(tuple(row[s] for row in m)):
                ms = mat_mul(m, gens[s])
                if ms not in index:
                    index[ms] = len(mats)
                    mats.append(ms)
                    inv_mats.append(mat_mul(gens[s], inv_mats[wi]))
                    lengths.append(lengths[wi] + 1)
    rmult = [tuple(index[mat_mul(m, g)] for g in gens) for m in mats]
    srd = [
        next((s for s, x in enumerate(row) if lengths[x] < ell), -1)
        for row, ell in zip(rmult, lengths)
    ]
    inv = [index[m] for m in inv_mats]

    units = [identity(n)[i] for i in range(n)]
    roots = list(units)
    for beta in roots:  # roots grows while it is read
        for g in gens:
            img = apply(g, beta)
            if is_positive(img) and img not in roots:
                roots.append(img)
    by_root = dict(zip(units, gens))
    queue = list(units)
    while queue:
        beta = queue.pop()
        for g in gens:
            img = apply(g, beta)
            if not is_positive(img):
                img = tuple(-c for c in img)
            if img not in by_root:
                by_root[img] = mat_mul(g, mat_mul(by_root[beta], g))
                queue.append(img)
    return {
        "rmult": rmult,
        "inv": inv,
        "lengths": lengths,
        "srd": srd,
        "pos_roots": roots,
        "reflections": [index[by_root[beta]] for beta in roots],
    }
