"""Cut-and-paste calculus on compact oriented surfaces.

Surfaces are stored in classification normal form: a list of components,
each a genus together with its labeled boundary circles. Cutting along a
simple closed curve and regluing boundary circles are exact bookkeeping
operations on this data; the Euler characteristic is preserved by both and
the genus of a pasted component is recovered from it.

Regluing data is a circle matching only. Orientation-preserving
self-diffeomorphisms of a disjoint union of circles are isotopic to
component permutations, so isotopy classes of gluings carry no extra
parameters in dimension two.

Circle identifiers are assigned deterministically: initial circles are
numbered component by component, and circles created by cuts take the next
fresh identifiers in birth order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import InputError


class NotClosedSurface(ValueError):
    """Operation requires closed surfaces."""


class InvalidSpec(InputError):
    """Cut specification does not apply to the surface."""


class InvalidMatching(InputError):
    """Paste matching is not a matching on distinct existing circles."""


class ScriptError(InputError):
    """Malformed cut/paste script line."""


@dataclass(frozen=True)
class Component:
    genus: int
    circles: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("negative genus")

    @property
    def boundary_count(self) -> int:
        return len(self.circles)

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus - len(self.circles)


@dataclass(frozen=True)
class Surface:
    components: tuple[Component, ...]
    next_circle: int = 0

    def __post_init__(self):
        ids = [c for comp in self.components for c in comp.circles]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate circle identifiers")
        if any(c >= self.next_circle for c in ids):
            raise ValueError("circle identifier beyond next_circle")

    @property
    def is_closed(self) -> bool:
        return all(not comp.circles for comp in self.components)

    def as_multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted multiset of (genus, boundary circles); the normal form."""
        return tuple(sorted((c.genus, c.boundary_count) for c in self.components))

    def circle_ids(self) -> tuple[int, ...]:
        return tuple(c for comp in self.components for c in comp.circles)


def surface(*components) -> Surface:
    """Build a surface from (genus, boundary_count) pairs."""
    comps = []
    nxt = 0
    for g, b in components:
        comps.append(Component(g, tuple(range(nxt, nxt + b))))
        nxt += b
    return Surface(tuple(comps), nxt)


def sphere() -> Surface:
    return surface((0, 0))


def torus() -> Surface:
    return surface((1, 0))


def disk() -> Surface:
    return surface((0, 1))


def genus_surface(g: int, b: int = 0) -> Surface:
    return surface((g, b))


@dataclass(frozen=True)
class NonSeparating:
    pass


@dataclass(frozen=True)
class Separating:
    genus_first: int
    circles_first: frozenset[int] = frozenset()


@dataclass(frozen=True)
class CutSpec:
    component: int
    kind: NonSeparating | Separating


@dataclass(frozen=True)
class PasteSpec:
    pairs: tuple[tuple[int, int], ...]


def chi(S: Surface) -> int:
    return sum(c.chi for c in S.components)


def disjoint_union(S1: Surface, S2: Surface) -> Surface:
    """Disjoint union; S2's circle identifiers are shifted to stay fresh."""
    shift = S1.next_circle
    comps = S1.components + tuple(
        Component(c.genus, tuple(x + shift for x in c.circles)) for c in S2.components
    )
    return Surface(comps, shift + S2.next_circle)


class _Piece:
    """A component under edit: mutable, compared and hashed by identity."""

    __slots__ = ("genus", "circles")

    def __init__(self, genus: int, circles: list[int]):
        self.genus = genus
        self.circles = circles


class _Editor:
    """A surface under a sequence of moves: its components in order, the
    component owning each circle, and the next fresh circle identifier.

    Each move kind is one method that edits this state in place; a move that
    raises may leave it part-edited, and every caller drops it with the
    exception. `surface()` validates the result once.
    """

    def __init__(self, S: Surface):
        self.pieces = [_Piece(c.genus, list(c.circles)) for c in S.components]
        self.owner = {c: p for p in self.pieces for c in p.circles}
        self.next_circle = S.next_circle

    def surface(self) -> Surface:
        return Surface(tuple(Component(p.genus, tuple(p.circles)) for p in self.pieces),
                       self.next_circle)

    def normal_form(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """chi and the sorted multiset of (genus, boundary circles) of the
        current surface, as `chi` and `Surface.as_multiset` give them."""
        shape = tuple(sorted([(p.genus, len(p.circles)) for p in self.pieces]))
        return sum(2 - 2 * g - b for g, b in shape), shape

    def apply(self, move) -> None:
        if isinstance(move, CutSpec):
            self.cut(move)
        elif isinstance(move, PasteSpec):
            self.paste(move)
        else:
            raise ScriptError(f"unknown move object {move!r}")

    def cut(self, spec: CutSpec) -> None:
        if not 0 <= spec.component < len(self.pieces):
            raise InvalidSpec(f"no component {spec.component}")
        piece = self.pieces[spec.component]
        nxt = self.next_circle
        if isinstance(spec.kind, NonSeparating):
            if piece.genus == 0:
                raise InvalidSpec("non-separating curve requires genus >= 1")
            piece.genus -= 1
            piece.circles += (nxt, nxt + 1)
            self.owner[nxt] = self.owner[nxt + 1] = piece
            self.next_circle = nxt + 2
            return
        kind = spec.kind
        if not 0 <= kind.genus_first <= piece.genus:
            raise InvalidSpec(
                f"genus split {kind.genus_first} out of range for genus {piece.genus}")
        if not all(self.owner.get(c) is piece for c in kind.circles_first):
            raise InvalidSpec("partition names circles absent from the component")
        second = _Piece(piece.genus - kind.genus_first,
                        [c for c in piece.circles if c not in kind.circles_first] + [nxt + 1])
        piece.genus = kind.genus_first
        piece.circles = [c for c in piece.circles if c in kind.circles_first] + [nxt]
        self.pieces.insert(spec.component + 1, second)
        for c in second.circles:
            self.owner[c] = second
        self.owner[nxt] = piece
        self.next_circle = nxt + 2

    def paste(self, spec: PasteSpec) -> None:
        used: set[int] = set()
        for a, b in spec.pairs:
            if a == b:
                raise InvalidMatching(f"circle {a} matched with itself")
            for c in (a, b):
                if c in used:
                    raise InvalidMatching(f"circle {c} matched twice")
                used.add(c)
        owner = self.owner
        # union-find over the pieces the matching touches
        parent: dict[_Piece, _Piece] = {}

        def find(x):
            while parent.setdefault(x, x) is not x:
                parent[x] = x = parent[parent[x]]
            return x

        for a, b in spec.pairs:
            for c in (a, b):
                if c not in owner:
                    raise InvalidMatching(f"no circle {c}")
            parent[find(owner[a])] = find(owner[b])

        # clusters in the order of their first piece; the first piece keeps
        # the cluster's place and becomes the glued component
        clusters: dict[_Piece, list[_Piece]] = {}
        for piece in [p for p in self.pieces if p in parent]:
            clusters.setdefault(find(piece), []).append(piece)
        absorbed: set[_Piece] = set()
        for members in clusters.values():
            total_chi = sum(2 - 2 * p.genus - len(p.circles) for p in members)
            remaining = [c for p in members for c in p.circles if c not in used]
            # A cluster of m pieces of genera summing to G, joined by k pairs,
            # has total_chi = 2m - 2G - B for B circles and 2k of them glued,
            # so genus2 = 2 - (B - 2k) - total_chi = 2(G + k - m + 1). The
            # pairs connect the m pieces, so k >= m - 1: genus2 is even and
            # at least 2G, and a matching cannot make it otherwise.
            genus2 = 2 - len(remaining) - total_chi
            if genus2 < 0 or genus2 % 2 != 0:
                raise RuntimeError(f"paste computed {genus2} as twice the genus of a"
                                   f" cluster of {len(members)} pieces")
            first = members[0]
            first.genus, first.circles = genus2 // 2, remaining
            for p in members[1:]:
                for c in p.circles:
                    owner[c] = first
                absorbed.add(p)
        for c in used:
            del owner[c]
        if absorbed:
            self.pieces = [p for p in self.pieces if p not in absorbed]


def cut(S: Surface, spec: CutSpec) -> Surface:
    """Cut one component along a simple closed curve.

    A non-separating cut turns (g, b) into (g-1, b+2); a separating cut
    splits into (g1, b1+1) and (g-g1, b2+1) along the declared partition of
    the boundary circles. Both preserve the Euler characteristic.
    """
    editor = _Editor(S)
    editor.cut(spec)
    return editor.surface()


def paste(S: Surface, spec: PasteSpec) -> Surface:
    """Reglue matched boundary circle pairs (orientation-compatibly).

    Components connected through the matching merge; each component's genus
    is recovered from chi = 2 - 2g - b over its remaining boundary, which
    leaves an unmatched component as it was.
    """
    editor = _Editor(S)
    editor.paste(spec)
    return editor.surface()


def sk_equivalent(M: Surface, N: Surface) -> bool:
    """Closed surfaces are related by cut-and-paste moves iff chi agrees."""
    if not M.is_closed or not N.is_closed:
        raise NotClosedSurface("cut-and-paste equivalence compares closed surfaces")
    return chi(M) == chi(N)


# -- seeded samplers -------------------------------------------------------------

def random_surface(rng, max_genus: int = 5, max_components: int = 4,
                   max_boundary: int = 4) -> Surface:
    comps = [(rng.randrange(0, max_genus + 1), rng.randrange(0, max_boundary + 1))
             for _ in range(rng.randrange(1, max_components + 1))]
    return surface(*comps)


def random_move(rng, S: Surface):
    """A random valid cut or paste for S, or None when no move exists."""
    options = []
    for i, comp in enumerate(S.components):
        if comp.genus >= 1:
            options.append(("nonsep", i))
        options.append(("sep", i))
    if len(S.circle_ids()) >= 2:
        options.append(("paste", None))
    if not options:
        return None
    kind, i = rng.choice(options)
    if kind == "nonsep":
        return CutSpec(i, NonSeparating())
    if kind == "sep":
        comp = S.components[i]
        g1 = rng.randrange(0, comp.genus + 1)
        chosen = frozenset(c for c in comp.circles if rng.random() < 0.5)
        return CutSpec(i, Separating(g1, chosen))
    ids = list(S.circle_ids())
    rng.shuffle(ids)
    npairs = rng.randrange(1, len(ids) // 2 + 1)
    pairs = tuple((ids[2 * k], ids[2 * k + 1]) for k in range(npairs))
    return PasteSpec(pairs)


# -- script format -------------------------------------------------------------

def parse_script(text: str):
    """Parse the line-oriented cut/paste script into a list of specs.

    Grammar, one move per line (blank lines and '#' comments ignored):
        cut <component> nonsep
        cut <component> sep <g1> <circles-or-dash>
        paste <id>~<id> [<id>~<id> ...]
    """
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cut":
                component = int(parts[1])
                if parts[2] == "nonsep":
                    if len(parts) != 3:
                        raise ScriptError("trailing tokens after 'nonsep'")
                    moves.append(CutSpec(component, NonSeparating()))
                elif parts[2] == "sep":
                    if len(parts) > 5:
                        raise ScriptError("trailing tokens after 'sep <g1> <circles>'")
                    g1 = int(parts[3])
                    circles = frozenset() if parts[4] == "-" else frozenset(
                        int(x) for x in parts[4].split(",")
                    )
                    moves.append(CutSpec(component, Separating(g1, circles)))
                else:
                    raise ScriptError(f"unknown cut kind {parts[2]!r}")
            elif parts[0] == "paste":
                pairs = []
                for token in parts[1:]:
                    a, sep, b = token.partition("~")
                    if not sep:
                        raise ScriptError(f"bad pair token {token!r}")
                    pairs.append((int(a), int(b)))
                if not pairs:
                    raise ScriptError("paste needs at least one pair")
                moves.append(PasteSpec(tuple(pairs)))
            else:
                raise ScriptError(f"unknown move {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ScriptError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    return moves


def apply_script(S: Surface, moves) -> Surface:
    editor = _Editor(S)
    for move in moves:
        editor.apply(move)
    return editor.surface()


def trace_script(S: Surface, moves):
    """Yield (chi, sorted multiset) of S and of the surface after each move.

    One pass: the moves edit one `_Editor`, and no intermediate `Surface` is
    built. An invalid move raises after the steps before it were yielded.
    """
    editor = _Editor(S)
    yield editor.normal_form()
    for move in moves:
        editor.apply(move)
        yield editor.normal_form()
