"""Simplicial-complex models of closed oriented manifolds.

A complex is stored as its list of top-dimensional facets (sorted vertex
tuples) with optional orientation signs, sorted and checked once. Its facet
closure is enumerated once, into a face index (`FaceIndex`) that alone holds
the closure and, from the chain complex's first read on, its incidences; chi,
closedness and the chain complex read that index. The pieces of a closed
complex (its facets joined through codimension-1 faces, with each facet's
orientation sign) are walked once; orienting, checking supplied signs, the
wedge check of `skk` and the chain complex read that walk. An oriented or
reversed copy of a complex shares its checked facets, its face index and its
pieces; only its signs are checked.

Homology reduces the chain complex first (`ChainComplex`) and runs Smith
normal form only on the cells left over; integral, rational and mod-2
homology all read the same invariant factors. Only closedness, orientability
and the consistency of supplied signs are verified here (`skk` also refuses
wedges); inputs are trusted to be manifold triangulations beyond that, even a
single pinched surface.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import InputError
from .exact_linalg import IntMatrix, smith_normal_form
from .rationals import is_json_int


class NotClosed(InputError):
    """Complex is not closed (some codimension-1 face is not shared by exactly two facets)."""


class NotOrientable(InputError):
    """No consistent orientation assignment exists."""


class OddEulerCharacteristic(ValueError):
    """Even-dimensional input with odd Euler characteristic; not a closed manifold."""


class DimensionMismatch(ValueError):
    """Operands have different dimensions."""


class ComplexFormatError(InputError):
    """Malformed complex document."""


@dataclass(frozen=True)
class FaceIndex:
    """The facet closure of a complex, enumerated once, and its incidences.
    The levels and ridges are built with the index (`face_index`); `faces`
    and `cofaces` are read off them when the chain complex first asks, and
    kept here, so every signed copy of the complex shares them, a request for
    chi alone never builds them, and nothing mutates them."""

    cells: tuple[tuple[tuple[int, ...], ...], ...]  # cells[k]: the k-simplices, sorted
    # each codimension-1 face -> (facet index, omitted vertex position) per facet containing it
    ridges: dict[tuple[int, ...], list[tuple[int, int]]]
    closed: bool  # every codimension-1 face lies in exactly two facets

    @cached_property
    def faces(self) -> list[list[tuple[int, ...]]]:
        """faces[k][i][j]: the position in level k - 1 of cell i of level k
        without its vertex j. The top level is read off the ridges; each level
        below looks its faces up in one position map of the level under it."""
        cells, n = self.cells, len(self.cells) - 1
        faces = [[()] * len(cells[0])]
        for k in range(1, n):
            face = dict(zip(cells[k - 1], range(len(cells[k - 1])))).__getitem__
            # combinations drop the last vertex first
            faces.append([tuple(map(face, itertools.combinations(c, k)))[::-1]
                          for c in cells[k]])
        if n:
            top = [[0] * (n + 1) for _ in cells[n]]
            for p, ridge in enumerate(cells[n - 1]):
                for i, omit in self.ridges[ridge]:
                    top[i][omit] = p
            faces.append(list(map(tuple, top)))
        return faces

    @cached_property
    def cofaces(self) -> list[list[list[int]]]:
        """cofaces[k][i]: the positions in level k + 1 of the cells that have
        cell i of level k as a face, in increasing order (none at the top)."""
        cofaces = [[[] for _ in cs] for cs in self.cells]
        for k in range(1, len(self.cells)):
            up = cofaces[k - 1]
            for i, fs in enumerate(self.faces[k]):
                for f in fs:
                    up[f].append(i)
        return cofaces


@dataclass(frozen=True)
class Pieces:
    """The pieces of a closed complex, walked once (`SimplicialComplex.pieces`)."""

    piece: tuple[int, ...]        # piece[i]: the piece of facet i, numbered by first facet
    signs: tuple[int, ...]        # signs[i]: facet i's sign from the walk of its piece
    first: tuple[int, ...]        # first[p]: the first facet of piece p
    orientable: tuple[bool, ...]  # orientable[p]: the walk of piece p met no contradiction


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list of a pure simplicial complex, with optional facet signs."""

    dim: int
    facets: tuple[tuple[int, ...], ...]
    orientations: tuple[int, ...] | None = None

    def __post_init__(self):
        facets, n = self.facets, self.dim + 1
        # each facet is n distinct sorted vertices and the list strictly increases
        if not (type(facets) is tuple and set(map(len, facets)) <= {n}
                and tuple(map(tuple, map(sorted, map(set, facets)))) == facets
                and all(map(operator.lt, facets, facets[1:]))):
            raise ValueError(_facet_fault(self.dim, facets))
        if self.orientations is not None:
            _check_signs(self.orientations, len(facets))

    @classmethod
    def from_facets(cls, dim, facets, orientations=None) -> "SimplicialComplex":
        """Normalize: sort vertices within facets and sort the facet list,
        carrying orientation signs along with their facets."""
        norm = [tuple(sorted(map(int, f))) for f in facets]
        if orientations is None:
            return cls(dim, tuple(sorted(norm)), None)
        signs = [int(s) for s in orientations]
        if len(signs) != len(norm):
            raise ValueError("orientation count does not match facet count")
        paired = sorted(zip(norm, signs))
        return cls(dim, tuple(f for f, _ in paired), tuple(s for _, s in paired))

    @cached_property
    def face_index(self) -> FaceIndex:
        """The facet closure, enumerated on first use and kept with the complex:
        the top level is the facet list itself, level dim - 1 the ridges, and
        each lower level one set of vertex combinations of the facets."""
        d, facets = self.dim, self.facets
        ridges: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        omitted = range(d, -1, -1)  # combinations drop the last vertex first
        for i, f in enumerate(facets):
            for omit, r in zip(omitted, itertools.combinations(f, d)):
                ridges.setdefault(r, []).append((i, omit))
        cells = [tuple(sorted(set(itertools.chain.from_iterable(
                     map(itertools.combinations, facets, itertools.repeat(k + 1))))))
                 for k in range(d - 1)]
        if d:
            cells.append(tuple(sorted(ridges)))
        cells.append(facets)
        return FaceIndex(tuple(cells), ridges, set(map(len, ridges.values())) <= {2})

    @cached_property
    def pieces(self) -> Pieces:
        """The pieces of the complex, which must be closed: the classes of
        facets joined through codimension-1 faces, each walked depth-first
        from its first facet, which gets the sign +1, on first use and kept
        with the complex. Compatible orientations induce opposite signs on a
        shared face, so a facet's sign is its neighbour's times -1 when the
        omitted positions have an even sum, and a sign met twice with both
        values makes its piece non-orientable."""
        neighbours = [[] for _ in self.facets]
        for (i, oi), (j, oj) in self.face_index.ridges.values():
            factor = 1 if (oi + oj) % 2 else -1
            neighbours[i].append((j, factor))
            neighbours[j].append((i, factor))
        signs = [0] * len(self.facets)
        piece = [0] * len(self.facets)
        first, orientable = [], []
        for start in range(len(self.facets)):
            if signs[start]:
                continue
            p, ok = len(first), True
            first.append(start)
            signs[start] = 1
            piece[start] = p
            stack = [start]
            while stack:
                i = stack.pop()
                for j, factor in neighbours[i]:
                    want = signs[i] * factor
                    if signs[j] == 0:
                        signs[j] = want
                        piece[j] = p
                        stack.append(j)
                    elif signs[j] != want:
                        ok = False
            orientable.append(ok)
        return Pieces(tuple(piece), tuple(signs), tuple(first), tuple(orientable))

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-simplices of the facet closure, sorted."""
        if k < 0 or k > self.dim:
            return ()
        return self.face_index.cells[k]

    def reversed_orientation(self) -> "SimplicialComplex":
        if self.orientations is None:
            raise ValueError("complex carries no orientation to reverse")
        return self._with_orientations(tuple(-s for s in self.orientations))

    def _with_orientations(self, orientations: tuple[int, ...]) -> "SimplicialComplex":
        """The same facets with other signs. The facets, already checked, and
        the face index and pieces built so far are shared; only the signs are
        checked."""
        _check_signs(orientations, len(self.facets))
        other = object.__new__(SimplicialComplex)
        vars(other).update(vars(self), orientations=orientations)
        return other


def _facet_fault(dim: int, facets) -> str:
    """What is wrong with a facet list that failed the checks: the first facet
    at fault, else the order of the list."""
    seen = set()
    for f in facets:
        if len(f) != dim + 1 or len(set(f)) != dim + 1:
            return f"facet {f} does not have {dim + 1} distinct vertices"
        if tuple(sorted(f)) != f:
            return f"facet {f} is not sorted"
        if f in seen:
            return f"duplicate facet {f}"
        seen.add(f)
    return "facet list is not sorted; use from_facets"


def _check_signs(signs, count: int) -> None:
    if len(signs) != count:
        raise ValueError("orientation count does not match facet count")
    if not all(map((1, -1).__contains__, signs)):
        raise ValueError("orientation signs must be +1 or -1")


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers by degree plus elementary divisors > 1 per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def validate_closed(K: SimplicialComplex) -> bool:
    """True iff every (dim-1)-face lies in exactly two facets."""
    return K.face_index.closed


def orient(K: SimplicialComplex) -> SimplicialComplex:
    """Assign facet signs making the signed boundary vanish: those of the walk
    of each piece (`SimplicialComplex.pieces`), +1 on its first facet. Raises
    NotClosed unless K is closed, NotOrientable if a walk met a contradiction."""
    if not validate_closed(K):
        raise NotClosed("orientation requires a closed complex")
    pieces = K.pieces
    if not all(pieces.orientable):
        raise NotOrientable("orientation traversal hit a contradiction")
    return K._with_orientations(pieces.signs)


def check_orientation(K: SimplicialComplex) -> None:
    """Raise NotOrientable unless the facet signs K carries are a fundamental
    cycle, and NotClosed unless K is closed. They are one exactly when each
    piece is orientable and carries the signs of its walk
    (`SimplicialComplex.pieces`) times the sign of its first facet; the first
    facet at fault is named."""
    if K.orientations is None:
        raise ValueError("complex carries no orientation to check")
    if not validate_closed(K):
        raise NotClosed("orientation requires a closed complex")
    signs, pieces = K.orientations, K.pieces
    for facet, sign, walked, p in zip(K.facets, signs, pieces.signs, pieces.piece):
        if not pieces.orientable[p] or sign != walked * signs[pieces.first[p]]:
            raise NotOrientable(f"orientation signs do not cancel at the facet {list(facet)}")


def oriented(K: SimplicialComplex) -> SimplicialComplex:
    """K with facet signs forming a fundamental cycle: found by `orient` when
    K carries none, checked by `check_orientation` when it does. Raises
    NotClosed or NotOrientable."""
    if K.orientations is None:
        return orient(K)
    check_orientation(K)
    return K


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of simplex counts over the facet closure."""
    return sum((-1) ** k * len(cells) for k, cells in enumerate(K.face_index.cells))


def boundary_matrix(K: SimplicialComplex, k: int) -> IntMatrix:
    """Matrix of the boundary map from k-chains to (k-1)-chains."""
    kcells, k1cells = K.simplices(k), K.simplices(k - 1)
    cols = len(kcells)
    entries = [0] * (len(k1cells) * cols)
    if 0 < k <= K.dim:
        row = dict(zip(k1cells, range(len(k1cells))))
        for j, c in enumerate(kcells):
            for i in range(len(c)):
                entries[row[c[:i] + c[i + 1:]] * cols + j] += -1 if i % 2 else 1
    return IntMatrix(len(k1cells), cols, tuple(entries))


class ChainComplex:
    """The simplicial chain complex of K, reduced before any elimination.

    It reads the face index's `faces` and `cofaces` and builds no incidence of
    its own (`faces` is kept here for the intersection form). The face at
    index j of a cell has incidence (-1) ** j, a unit, so cells can be removed
    in pairs without touching the boundaries of the others, which keeps
    integral homology, torsion included (Kaczynski, Mrozek, Slusarek 1998):

    - first one vertex per connected component goes, each one Z in H_0
      (`components` counts them);
    - on a closed complex of dimension n >= 1, the first facet of each
      orientable piece goes, each one Z in H_n (`fundamental` counts them):
      with the piece's fundamental cycle z = sum of e_s s, the boundary of
      that facet s0 is -e_0 times that of z - e_0 s0, so nothing else changes.
      Non-orientable pieces such as RP^2 keep all their facets, and in
      dimension 0 the empty face joins no points;
    - then coreduction pairs (a cell whose only remaining face is its
      partner) and collapse pairs (a cell whose only remaining coface is its
      partner) go, in FIFO order from the removed vertices and facets
      (Mrozek, Batko 2009), then in one sweep over all cells. Counts only
      fall, so a cell that becomes free later is queued when it does, and no
      pair is left.

    `pairs` lists (k, a, b) in removal order, for the k-cell at position a and
    the (k+1)-cell at position b; `survivors[k]` are the positions of the
    k-cells left over for Smith normal form.
    """

    def __init__(self, K: SimplicialComplex):
        index, n = K.face_index, K.dim
        cells, faces, cofaces = index.cells, index.faces, index.cofaces
        self.faces = faces
        alive = [[True] * len(cs) for cs in cells]
        nfaces = [[k + 1 if k else 0] * len(cs) for k, cs in enumerate(cells)]
        ncofaces = [[len(up) for up in cs] for cs in cofaces]
        pairs: list[tuple[int, int, int]] = []
        queue = deque()

        def remove(k, i):
            alive[k][i] = False
            if k:
                counts = ncofaces[k - 1]
                for f in faces[k][i]:
                    counts[f] -= 1
                    if counts[f] == 1:
                        queue.append((k - 1, f))
            if k < n:
                counts = nfaces[k + 1]
                for c in cofaces[k][i]:
                    counts[c] -= 1
                    if counts[c] == 1:
                        queue.append((k + 1, c))

        def drain():
            while queue:
                k, i = queue.popleft()
                if not alive[k][i]:
                    continue
                if nfaces[k][i] == 1:
                    a = next(f for f in faces[k][i] if alive[k - 1][f])
                    pairs.append((k - 1, a, i))
                    remove(k - 1, a)
                    remove(k, i)
                elif ncofaces[k][i] == 1:
                    b = next(c for c in cofaces[k][i] if alive[k + 1][c])
                    pairs.append((k, i, b))
                    remove(k, i)
                    remove(k + 1, b)

        self.components = 0
        seen = [False] * len(cells[0])
        for v in range(len(seen)):
            if not seen[v]:  # a new component: mark it through its edges
                seen[v] = True
                stack = [v]
                while stack:
                    for e in cofaces[0][stack.pop()]:
                        for w in faces[1][e]:
                            if not seen[w]:
                                seen[w] = True
                                stack.append(w)
                self.components += 1
                remove(0, v)
        self.fundamental = 0
        if n and index.closed:
            pieces = K.pieces
            for first, orientable in zip(pieces.first, pieces.orientable):
                if orientable:
                    self.fundamental += 1
                    remove(n, first)
        drain()
        for k, flags in enumerate(alive):
            for i, flag in enumerate(flags):
                if flag:
                    queue.append((k, i))
                    drain()
        self.pairs = pairs
        self.survivors = [[i for i, flag in enumerate(flags) if flag] for flags in alive]

    def boundary(self, k: int) -> IntMatrix:
        """Matrix of the degree-k boundary map on the surviving cells."""
        rows, cols = self.survivors[k - 1], self.survivors[k]
        row_of = {f: r for r, f in enumerate(rows)}
        width = len(cols)
        entries = [0] * (len(rows) * width)
        for c, i in enumerate(cols):
            for j, f in enumerate(self.faces[k][i]):
                r = row_of.get(f)
                if r is not None:
                    entries[r * width + c] = -1 if j % 2 else 1
        return IntMatrix(len(rows), width, tuple(entries))

    def cocycle(self, k: int, values) -> tuple[int, ...]:
        """Extend a cocycle on the surviving k-cells, 1 <= k < dim, to one on
        all k-cells. (In degree dim the removed facets' classes are missing.)

        The pairs are undone in reverse order. A removed (k+1)-cell b takes the
        value 0, and its partner a in degree k the value that makes the cochain
        vanish on the boundary of b, as seen when the pair was removed: a itself
        and the faces of b removed before it still read 0 at that point of the
        reverse pass.
        """
        cochain = [0] * len(self.faces[k])
        for i, x in zip(self.survivors[k], values):
            cochain[i] = x
        for degree, a, b in reversed(self.pairs):
            if degree == k:
                fs = self.faces[k + 1][b]
                rest = sum(-cochain[f] if j % 2 else cochain[f] for j, f in enumerate(fs))
                cochain[a] = rest if fs.index(a) % 2 else -rest
        return tuple(cochain)


def homology(K: SimplicialComplex, coefficients: str = "integers") -> HomologyProfile:
    """Homology profile over 'integers', 'rationals', or 'mod2' coefficients.

    The chain complex is reduced first (`ChainComplex`), and its removed
    vertices and facets add to H_0 and H_dim; then one Smith normal form per
    boundary map of what survives serves all three coefficient systems: its
    invariant factors count the rank over Q, the odd ones the rank over Z/2,
    and those > 1 of the degree-(k+1) map are the torsion of H_k over the
    integers.
    """
    if coefficients not in ("integers", "rationals", "mod2"):
        raise ValueError(f"unknown coefficient system {coefficients!r}")
    n = K.dim
    chain = ChainComplex(K)
    dims = [len(cells) for cells in chain.survivors]
    ranks = [0] * (n + 2)
    torsion: list[tuple[int, ...]] = [()] * (n + 1)
    for k in range(1, n + 1):
        diag = smith_normal_form(chain.boundary(k))
        ranks[k] = sum(d % 2 for d in diag) if coefficients == "mod2" else len(diag)
        if coefficients == "integers":
            torsion[k - 1] = tuple(d for d in diag if d > 1)
    betti = [dims[k] - ranks[k] - ranks[k + 1] for k in range(n + 1)]
    betti[0] += chain.components
    betti[n] += chain.fundamental
    return HomologyProfile(tuple(betti), tuple(torsion))


def kervaire_semicharacteristic(K: SimplicialComplex):
    """Half the Euler characteristic in even dimensions; in odd dimensions the
    mod-2 sum of even-degree rational Betti numbers."""
    if not validate_closed(K):
        raise NotClosed("semicharacteristic requires a closed complex")
    if K.dim % 2 == 0:
        chi = euler_characteristic(K)
        if chi % 2 != 0:
            raise OddEulerCharacteristic(f"chi = {chi} is odd in even dimension {K.dim}")
        return chi // 2
    profile = homology(K, "rationals")
    return sum(profile.betti[2 * i] for i in range(K.dim // 2 + 1)) % 2


def disjoint_union(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Disjoint union with K2's vertices shifted past K1's."""
    if K1.dim != K2.dim:
        raise DimensionMismatch(f"dimensions {K1.dim} and {K2.dim} differ")
    shift = max(K1.vertices(), default=-1) + 1
    shifted = [tuple(v + shift for v in f) for f in K2.facets]
    facets = K1.facets + tuple(shifted)
    ori = None
    if K1.orientations is not None and K2.orientations is not None:
        ori = K1.orientations + K2.orientations
    return SimplicialComplex(K1.dim, facets, ori)


_COMPLEX_FIELDS = {"dim", "facets", "orientations"}


def complex_to_json(K: SimplicialComplex) -> str:
    doc = {"dim": K.dim, "facets": [list(f) for f in K.facets]}
    if K.orientations is not None:
        doc["orientations"] = list(K.orientations)
    return json.dumps(doc, indent=2)


# Bound on the faces `face_index` enumerates for a document, counted as
# sum(2 ** len(facet)): one facet of d + 1 vertices has 2 ** (d + 1) faces, so
# an 88-byte dimension-17 document would cost 80 MB (its incidences, up to
# d + 1 per face, more). The shipped fixtures count at most 1152 (cp2_9), the
# benchmark's complexes at most 2304 (the 7-sphere, cp2_9 + cp2_9).
MAX_CLOSURE = 1 << 17


def complex_from_json(text: str) -> SimplicialComplex:
    """Parse the complex document format; unknown fields are rejected."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
        raise ComplexFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ComplexFormatError("top-level document must be an object")
    unknown = set(doc) - _COMPLEX_FIELDS
    if unknown:
        raise ComplexFormatError(f"unknown fields: {sorted(unknown)}")
    if "dim" not in doc or "facets" not in doc:
        raise ComplexFormatError("document requires 'dim' and 'facets'")
    dim = doc["dim"]
    if not is_json_int(dim) or dim < 0:
        raise ComplexFormatError("'dim' must be a non-negative integer")
    facets = doc["facets"]
    # `json.loads` makes integer literals exact ints, and true/false bools
    if not (isinstance(facets, list) and all(isinstance(f, list) for f in facets)
            and set(map(type, itertools.chain.from_iterable(facets))) <= {int}):
        raise ComplexFormatError("'facets' must be an array of integer arrays")
    if not facets:
        # a facet-less complex would still cost a face index of `dim` + 1 levels
        raise ComplexFormatError("'facets' must not be empty")
    if sum(1 << len(f) for f in facets) > MAX_CLOSURE:
        raise ComplexFormatError(
            f"the facet closure would enumerate more than {MAX_CLOSURE} faces")
    ori = doc.get("orientations")
    if ori is not None:
        if not (isinstance(ori, list) and set(map(type, ori)) <= {int} and set(ori) <= {1, -1}):
            raise ComplexFormatError("'orientations' must be an array of +1/-1")
    try:
        return SimplicialComplex.from_facets(dim, facets, ori)
    except ValueError as exc:
        raise ComplexFormatError(str(exc)) from exc
