"""Dense `Fraction` Gauss-Jordan elimination: the slow reference the
fraction-free `linalg.integer_echelon` is compared against.

Matrices are lists of row lists.  `rref` pivots on the first nonzero entry
of each column in turn, so its pivots are the lexicographically first
independent columns; `nullspace` takes one basis vector per free column and
`solve` sets every free coordinate to zero.
"""

from fractions import Fraction

from naryalg.scalars import is_zero


def rref(mat):
    """Reduced row-echelon form; returns (rref_matrix, pivot_columns)."""
    m = [row[:] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of the right nullspace (deterministic: free columns in order)."""
    if not mat:
        return []
    r, pivots = rref(mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution x of a x = b, or None if inconsistent."""
    if not a:
        return [] if all(is_zero(x) for x in b) else None
    rows, cols = len(a), len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def sparse(mat):
    """The rows of a dense matrix as {column: nonzero value} dicts."""
    return [{j: v for j, v in enumerate(row) if not is_zero(v)} for row in mat]
