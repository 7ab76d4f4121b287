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


def cylinder() -> Surface:
    return surface((0, 2))


def pair_of_pants() -> Surface:
    return surface((0, 3))


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


def cut(S: Surface, spec: CutSpec) -> Surface:
    """Cut one component along a simple closed curve.

    A non-separating cut turns (g, b) into (g-1, b+2); a separating cut
    splits into (g1, b1+1) and (g-g1, b2+1) along the declared partition of
    the boundary circles. Both preserve the Euler characteristic.
    """
    if not 0 <= spec.component < len(S.components):
        raise InvalidSpec(f"no component {spec.component}")
    comp = S.components[spec.component]
    nxt = S.next_circle
    if isinstance(spec.kind, NonSeparating):
        if comp.genus == 0:
            raise InvalidSpec("non-separating curve requires genus >= 1")
        new_comp = Component(comp.genus - 1, comp.circles + (nxt, nxt + 1))
        comps = (
            S.components[: spec.component] + (new_comp,) + S.components[spec.component + 1:]
        )
        return Surface(comps, nxt + 2)
    kind = spec.kind
    if not 0 <= kind.genus_first <= comp.genus:
        raise InvalidSpec(f"genus split {kind.genus_first} out of range for genus {comp.genus}")
    if not kind.circles_first <= set(comp.circles):
        raise InvalidSpec("partition names circles absent from the component")
    first_circles = tuple(c for c in comp.circles if c in kind.circles_first)
    second_circles = tuple(c for c in comp.circles if c not in kind.circles_first)
    first = Component(kind.genus_first, first_circles + (nxt,))
    second = Component(comp.genus - kind.genus_first, second_circles + (nxt + 1,))
    comps = (
        S.components[: spec.component] + (first, second) + S.components[spec.component + 1:]
    )
    return Surface(comps, nxt + 2)


def paste(S: Surface, spec: PasteSpec) -> Surface:
    """Reglue matched boundary circle pairs (orientation-compatibly).

    Components connected through the matching merge; each component's genus
    is recovered from chi = 2 - 2g - b over its remaining boundary, which
    leaves an unmatched component as it was.
    """
    used: set[int] = set()
    for a, b in spec.pairs:
        if a == b:
            raise InvalidMatching(f"circle {a} matched with itself")
        for c in (a, b):
            if c in used:
                raise InvalidMatching(f"circle {c} matched twice")
            used.add(c)
    owner = {c: i for i, comp in enumerate(S.components) for c in comp.circles}
    # union-find over component indices
    parent = list(range(len(S.components)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in spec.pairs:
        for c in (a, b):
            if c not in owner:
                raise InvalidMatching(f"no circle {c}")
        parent[find(owner[a])] = find(owner[b])

    clusters: dict[int, list[int]] = {}
    for i in range(len(S.components)):
        clusters.setdefault(find(i), []).append(i)

    new_components = []
    for indices in sorted(clusters.values(), key=lambda ix: ix[0]):
        members = [S.components[i] for i in indices]
        total_chi = sum(c.chi for c in members)
        remaining = tuple(c for comp in members for c in comp.circles if c not in used)
        genus2 = 2 - len(remaining) - total_chi
        if genus2 < 0 or genus2 % 2 != 0:
            raise InvalidMatching("matching does not produce an orientable surface")
        new_components.append(Component(genus2 // 2, remaining))
    return Surface(tuple(new_components), S.next_circle)


def sk_equivalent(M: Surface, N: Surface) -> bool:
    """Closed surfaces are related by cut-and-paste moves iff chi agrees."""
    if not M.is_closed or not N.is_closed:
        raise NotClosedSurface("cut-and-paste equivalence compares closed surfaces")
    return chi(M) == chi(N)


def double(S: Surface) -> Surface:
    """Glue S to its mirror along the identity of the boundary.

    A component (g, b) with b >= 1 doubles to a closed component of genus
    2g + b - 1; closed components contribute themselves plus a mirror copy.
    """
    comps = []
    for c in S.components:
        if c.boundary_count == 0:
            comps.append((c.genus, 0))
            comps.append((c.genus, 0))
        else:
            comps.append((2 * c.genus + c.boundary_count - 1, 0))
    return surface(*comps)


def mapping_torus_demo() -> Surface:
    """Mapping torus of a circle diffeomorphism.

    Every orientation-preserving diffeomorphism of the circle is isotopic to
    the identity, so the mapping torus is the torus regardless of the map.
    """
    return torus()


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
    for move in moves:
        if isinstance(move, CutSpec):
            S = cut(S, move)
        elif isinstance(move, PasteSpec):
            S = paste(S, move)
        else:
            raise ScriptError(f"unknown move object {move!r}")
    return S
