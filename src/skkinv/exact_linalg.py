"""Exact integer and rational matrix algebra.

Everything here runs over arbitrary-precision integers or `fractions.Fraction`;
no floating point is used anywhere, so downstream invariant checks can assert
equality with zero tolerance.

The public computations are Smith normal form, rational rank, rational
kernels and independence tests, and the inertia (signature) of a symmetric
rational form under congruence diagonalization.

Smith normal form, rational rank, `left_kernel` and `independent_modulo`
share one sparse elimination kernel over the integers. A matrix is held as
sparse rows (`{column: entry}` dicts) with an index from each column to the
rows that use it, and entries equal to +1 or -1 are eliminated first, in
order of least Markowitz cost (row count - 1) * (column count - 1). The
simplicial layer hands over boundary matrices only after its own reduction
(`simplicial.ChainComplex`) has removed the cells it can pair through a unit
incidence, so what arrives here is the few cells left over; they are still
mostly zeros with unit entries, and this step usually finishes the job.
For invariant factors, whatever block is left has
no unit entry and goes to the dense Smith loop; for kernels and independence
over the rationals, elimination continues fraction-free. No `Fraction`,
float or modular rank is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class NonSymmetricMatrix(ValueError):
    """Raised when a symmetric form is required but the input is not."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows * cols")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]


@dataclass(frozen=True)
class SignatureTriple:
    """Inertia of a symmetric rational form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


# -- dense Smith loop ------------------------------------------------------------

def _min_pivot(m, t, rows, cols):
    """Position of the smallest nonzero |entry| in the trailing block, scan order row-major."""
    best = None
    best_abs = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
    return best


def _smith_loop(m, rows, cols) -> tuple[int, ...]:
    """Diagonalize the dense rows `m` in place; returns the nonzero invariant factors.

    Pivot choice is the smallest nonzero absolute value in the remaining
    block, ties broken by row-major scan order, which makes the output
    deterministic.
    """

    def row_op(dst, src, q):
        m[dst] = [a - q * b for a, b in zip(m[dst], m[src])]

    def col_op(dst, src, q):
        for r in m:
            r[dst] -= q * r[src]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        pos = _min_pivot(m, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // pivot)
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    col_op(j, t, m[t][j] // pivot)
                    dirty = dirty or m[t][j] != 0
            if dirty:
                pos = _min_pivot(m, t, rows, cols)
                continue
            # pivot must divide the whole trailing block for the chain property
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row up, then repeat
            pos = _min_pivot(m, t, rows, cols)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    return tuple(m[i][i] for i in range(t))


# -- sparse elimination kernel ---------------------------------------------------

def _sparse_rows(A: IntMatrix) -> list[dict[int, int]]:
    """One {column: nonzero entry} dict per row of A."""
    cols, e = A.cols, A.entries
    if cols == 0:
        return [{} for _ in range(A.rows)]
    return [{j: x for j, x in enumerate(e[s:s + cols]) if x} for s in range(0, len(e), cols)]


def _multipliers(a: int, p: int) -> tuple[int, int]:
    """(scale, f) such that scale * a - f * p == 0, with scale > 0 as small as possible."""
    if p == 1 or p == -1:
        return 1, a * p
    g = gcd(a, p) if p > 0 else -gcd(a, p)
    return p // g, a // g


def _combine(v: dict, scale: int, f: int, w: dict) -> list[int]:
    """v <- scale * v - f * w, dropping entries that cancel.

    Returns the keys of w that entered v or left it.
    """
    if scale != 1:
        for k in v:
            v[k] *= scale
    changed = []
    for k, x in w.items():
        y = v.get(k, 0) - f * x
        if y:
            if k not in v:
                changed.append(k)
            v[k] = y
        else:
            del v[k]
            changed.append(k)
    return changed


class _Elimination:
    """Exact row elimination on sparse integer rows.

    Pivoting on (r, c) clears column c from every other active row with
    multiples of row r, then retires row r to `pivots`. Each retired row is
    therefore free of the pivot columns retired before it, so one pass over
    `pivots` in order reduces any vector. With `track`, every row carries a
    tag recording which combination of the input rows it is; tags of rows
    that become zero are collected in `kernel`.
    """

    def __init__(self, rows: list[dict[int, int]], track: bool = False):
        self.rows: dict[int, dict[int, int]] = {}
        self.tags = {} if track else None
        self.kernel: list[dict[int, int]] = []
        self.where: dict[int, set[int]] = {}
        self.pivots: list[tuple[int, int, dict[int, int]]] = []  # (column, entry, row)
        for i, row in enumerate(rows):
            if row:
                self.rows[i] = row
                if track:
                    self.tags[i] = {i: 1}
                for c in row:
                    self.where.setdefault(c, set()).add(i)
            elif track:
                self.kernel.append({i: 1})

    def _unit_pivot(self):
        """A +1/-1 entry of least Markowitz cost (r - 1) * (c - 1), or None.

        Columns are searched in order of count. An entry in a column used by
        n rows costs at least (shortest row length - 1) * (n - 1), so the
        search stops once the best cost found reaches that bound.
        """
        rows = self.rows
        if not rows:
            return None
        shortest = min(map(len, rows.values())) - 1
        best = None
        best_cost = None
        for c, users in sorted(self.where.items(), key=lambda item: len(item[1])):
            cn = len(users) - 1
            if best_cost is not None and best_cost <= shortest * cn:
                break
            for r in users:
                row = rows[r]
                x = row[c]
                if x == 1 or x == -1:
                    cost = (len(row) - 1) * cn
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (r, c), cost
        return best

    def _least_pivot(self):
        """An entry of least absolute value, then least Markowitz cost, or None."""
        best = None
        best_key = None
        for c, users in self.where.items():
            for r in users:
                row = self.rows[r]
                key = (abs(row[c]), (len(row) - 1) * (len(users) - 1))
                if best_key is None or key < best_key:
                    best, best_key = (r, c), key
        return best

    def _pivot(self, r: int, c: int) -> None:
        rows, where, tags = self.rows, self.where, self.tags
        prow = rows.pop(r)
        ptag = tags.pop(r) if tags is not None else None
        for k in prow:
            where[k].discard(r)
        p = prow[c]
        for i in where.pop(c):
            row = rows[i]
            scale, f = _multipliers(row[c], p)
            for k in _combine(row, scale, f, prow):
                if k in row:
                    where[k].add(i)
                elif k != c:
                    where[k].discard(i)
            if tags is not None:
                _combine(tags[i], scale, f, ptag)
            if scale != 1 and row:  # fraction-free step: divide out the content
                content = gcd(*row.values(), *(tags[i].values() if tags is not None else ()))
                if content > 1:
                    for k in row:
                        row[k] //= content
                    if tags is not None:
                        for k in tags[i]:
                            tags[i][k] //= content
            if not row:
                del rows[i]
                if tags is not None:
                    self.kernel.append(tags.pop(i))
        for k in prow:
            if k != c and not where[k]:
                del where[k]
        self.pivots.append((c, p, prow))

    def eliminate_units(self) -> int:
        """Pivot on +1/-1 entries until none is left; returns how many were used."""
        count = 0
        while (pos := self._unit_pivot()) is not None:
            self._pivot(*pos)
            count += 1
        return count

    def eliminate(self) -> None:
        """Pivot until every row is zero, unit entries first, fraction-free after."""
        self.eliminate_units()
        while (pos := self._least_pivot()) is not None:
            self._pivot(*pos)
            self.eliminate_units()

    def remainder(self) -> tuple[list[list[int]], int]:
        """The active block as dense rows, and its column count."""
        cols = sorted(self.where)
        return [[row.get(c, 0) for c in cols] for row in self.rows.values()], len(cols)

    def reduce(self, v: dict[int, int]) -> dict[int, int]:
        """Reduce v in place modulo the rows of `pivots` (over the rationals)."""
        for c, p, prow in self.pivots:
            a = v.get(c)
            if a:
                _combine(v, *_multipliers(a, p), prow)
        return v

    def append(self, v: dict[int, int]) -> None:
        """Retire a nonzero vector already reduced by `reduce` as a new pivot row."""
        c = min(v, key=lambda k: abs(v[k]))
        self.pivots.append((c, v[c], v))


def smith_normal_form(A: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors of A over the integers, each dividing the next:
    one per unit pivot, then the dense Smith loop on the block the unit pivots
    leave behind."""
    elim = _Elimination(_sparse_rows(A))
    units = elim.eliminate_units()
    rest, cols = elim.remainder()
    return (1,) * units + _smith_loop(rest, len(rest), cols)


def rational_rank(A: IntMatrix) -> int:
    """Rank of A over the rationals: the number of nonzero invariant factors."""
    return len(smith_normal_form(A))


def _dense(vector: dict[int, int], length: int) -> tuple[int, ...]:
    out = [0] * length
    for k, x in vector.items():
        out[k] = x
    return tuple(out)


def left_kernel(A: IntMatrix) -> list[tuple[int, ...]]:
    """Integer vectors y forming a rational basis of {y : y * A = 0}."""
    elim = _Elimination(_sparse_rows(A), track=True)
    elim.eliminate()
    return [_dense(tag, A.rows) for tag in elim.kernel]


def independent_modulo(span: IntMatrix, vectors) -> list[tuple[int, ...]]:
    """The vectors, in order, that are rationally independent modulo the row
    span of `span` together with the vectors kept before them."""
    elim = _Elimination(_sparse_rows(span))
    elim.eliminate()
    kept = []
    for vector in vectors:
        vector = tuple(vector)
        if len(vector) != span.cols:
            raise ValueError("vector length does not match the span's column count")
        v = elim.reduce({k: x for k, x in enumerate(vector) if x})
        if v:
            elim.append(v)
            kept.append(vector)
    return kept


# -- symmetric forms and determinants --------------------------------------------

def symmetric_signature(Q) -> SignatureTriple:
    """Inertia of a symmetric matrix of exact rationals via congruence moves.

    Zero diagonal entries are repaired with the standard add-a-row move when
    an off-diagonal partner exists; rows that are entirely zero count toward
    `n_zero`.
    """
    m = [[Fraction(x) for x in row] for row in Q]
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSymmetricMatrix("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NonSymmetricMatrix(f"entries ({i},{j}) and ({j},{i}) differ")

    n_plus = n_minus = n_zero = 0
    for k in range(n):
        if m[k][k] == 0:
            partner = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
            if partner is None:
                n_zero += 1
                continue
            # congruence: add (or, if that cancels, subtract) row/col `partner`
            # into row/col k; one of the two signs always creates a pivot
            c, d = m[k][partner], m[partner][partner]
            eps = 1 if 2 * c + d != 0 else -1
            for j in range(n):
                m[k][j] += eps * m[partner][j]
            for i in range(n):
                m[i][k] += eps * m[i][partner]
        pivot = m[k][k]
        if pivot > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
    return SignatureTriple(n_plus, n_minus, n_zero)


def determinant(A: IntMatrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
