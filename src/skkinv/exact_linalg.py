"""Exact integer and rational matrix algebra.

Everything here runs over arbitrary-precision integers or `fractions.Fraction`;
no floating point is used anywhere, so downstream invariant checks can assert
equality with zero tolerance.

The public computations are Smith normal form, rational rank, rational
kernels and independence tests, and the inertia (signature) of a symmetric
rational form under congruence diagonalization.

Smith normal form, rational rank, `left_kernel` and `independent_modulo`
share one sparse elimination kernel over the integers. A matrix
(`IntMatrix`) is held as sparse rows, `{column: entry}` dicts of the nonzero
entries, and so is every vector the kernel takes or returns; no dense form is
built. The kernel copies each row once, indexes the rows that use each
column, and eliminates entries equal to +1 or -1 first, in order of least
Markowitz cost (row count - 1) * (column count - 1). The simplicial layer
hands over boundary matrices only after its own reduction
(`simplicial.ChainComplex`) has removed one vertex per component, one facet
per closed orientable piece and the cells it can pair through a unit
incidence. On closed orientable manifolds what arrives here is empty or a
minimal set, such as the two edges of a torus or the one triangle of CP^2;
on other input it is the few cells left over, still mostly zeros with unit
entries, and this step usually finishes the job.
For invariant factors, the rows left without a unit entry are finished on
the same sparse rows by integer row and column operations; for kernels and
independence over the rationals, elimination continues fraction-free. No
`Fraction`, float or modular rank is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class NonSymmetricMatrix(ValueError):
    """Raised when a symmetric form is required but the input is not."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix as sparse rows: entries[i] maps each column
    of row i that holds a nonzero entry to it. Nothing mutates the rows."""

    rows: int
    cols: int
    entries: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match the number of row dicts")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """The matrix with these dense rows; `from_rows([])` is 0 x 0."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple({j: int(x) for j, x in enumerate(r) if x} for r in rows))

    def to_rows(self) -> list[list[int]]:
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.entries]


@dataclass(frozen=True)
class SignatureTriple:
    """Inertia of a symmetric rational form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


# -- sparse elimination kernel ---------------------------------------------------

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
    that become zero are collected in `kernel`. The rows of A are copied
    once, here, so A is left as it was.
    """

    def __init__(self, A: IntMatrix, track: bool = False):
        self.rows: dict[int, dict[int, int]] = {}
        self.tags = {} if track else None
        self.kernel: list[dict[int, int]] = []
        self.where: dict[int, set[int]] = {}
        self.pivots: list[tuple[int, int, dict[int, int]]] = []  # (column, entry, row)
        for i, row in enumerate(A.entries):
            if row:
                self.rows[i] = row = dict(row)
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

    def _subtract(self, i: int, scale: int, f: int, w: dict[int, int]) -> dict[int, int]:
        """rows[i] <- scale * rows[i] - f * w, keeping `where` in step; returns the row.

        A column that loses its last row keeps an empty set in `where`; the
        caller drops it once no row can gain that column again.
        """
        row, where = self.rows[i], self.where
        for k in _combine(row, scale, f, w):
            if k in row:
                where[k].add(i)
            else:
                where[k].discard(i)
        return row

    def _drop_empty(self, columns) -> None:
        """Delete the `where` entries of those columns that no row uses."""
        for k in columns:
            if not self.where[k]:
                del self.where[k]

    def _pivot(self, r: int, c: int) -> None:
        rows, where, tags = self.rows, self.where, self.tags
        prow = rows.pop(r)
        ptag = tags.pop(r) if tags is not None else None
        for k in prow:
            where[k].discard(r)
        p = prow[c]
        for i in [*where[c]]:
            row = rows[i]
            scale, f = _multipliers(row[c], p)
            self._subtract(i, scale, f, prow)
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
        self._drop_empty(prow)
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

    def invariant_factors(self) -> tuple[int, ...]:
        """Nonzero invariant factors of the rows over the integers, each dividing the next.

        Unit pivots give factors 1. On the rows they leave, a pivot p at
        (r, c), first an entry of least absolute value, clears column c by
        integer row operations on the rows whose entry there is at least |p|.
        Once column c holds p alone, column operations reduce row r modulo p
        and touch no other row. A smaller entry left in column c or row r
        becomes the next pivot; a pivot alone in its row and column is
        retired. diag(a, b) -> diag(gcd(a, b), lcm(a, b)) then turns the
        retired pivots into a divisibility chain.
        """
        units = self.eliminate_units()
        rows, where = self.rows, self.where
        pos = self._least_pivot()
        while pos is not None:
            r, c = pos
            prow = rows[r]
            p = prow[c]
            for i in [i for i in where[c] if i != r and abs(rows[i][c]) >= abs(p)]:
                if not self._subtract(i, 1, rows[i][c] // p, prow):
                    del rows[i]
            if len(where[c]) > 1:
                pos = (min(where[c] - {r}, key=lambda i: abs(rows[i][c])), c)
                continue
            column_ops = {k: x // p * p for k, x in prow.items() if k != c and abs(x) >= abs(p)}
            self._subtract(r, 1, 1, column_ops)
            self._drop_empty(column_ops)
            if len(prow) > 1:
                pos = (r, min(prow, key=lambda k: abs(prow[k])))
            else:
                self._pivot(r, c)
                pos = self._least_pivot()
        factors = [abs(p) for _, p, _ in self.pivots[units:]]
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                factors[i], factors[j] = gcd(a, b), lcm(a, b)
        return (1,) * units + tuple(factors)

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
    """Nonzero invariant factors of A over the integers, each dividing the next,
    by sparse elimination (`_Elimination.invariant_factors`)."""
    return _Elimination(A).invariant_factors()


def rational_rank(A: IntMatrix) -> int:
    """Rank of A over the rationals: the number of nonzero invariant factors."""
    return len(smith_normal_form(A))


def left_kernel(A: IntMatrix) -> list[dict[int, int]]:
    """Integer vectors y forming a rational basis of {y : y * A = 0}, each a
    `{row: entry}` dict of its nonzero entries."""
    elim = _Elimination(A, track=True)
    elim.eliminate()
    return elim.kernel


def independent_modulo(span: IntMatrix, vectors) -> list[dict[int, int]]:
    """The vectors, in order, that are rationally independent modulo the row
    span of `span` together with the vectors kept before them. Each vector is
    a `{column: entry}` dict, which is not changed; one with a column outside
    `span.cols` is refused."""
    elim = _Elimination(span)
    elim.eliminate()
    kept = []
    for vector in vectors:
        if not all(0 <= k < span.cols for k in vector):
            raise ValueError("vector has a column outside the span's columns")
        v = elim.reduce({k: x for k, x in vector.items() if x})
        if v:
            elim.append(v)
            kept.append(vector)
    return kept


# -- symmetric forms -------------------------------------------------------------

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
