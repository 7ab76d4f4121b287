"""Cobordism categories of dimensions 1 and 2 as words in generators.

A word is an ordered list of layers, each a list of generators applied side
by side; the bottom layer is applied first. Dimension-2 generators are the
surface pieces id, swap, cap, cup, pants, copants; dimension-1 generators
are pid, acap, acup on finite point sets.

Equivalence of words is decided through a normal form: one sweep from the
bottom layer up carries each wire's component label, merging components
where a generator joins wires, and each dimension-2 component is classified
by (genus, attached in-circles, attached out-circles), which is complete by
the classification of compact oriented surfaces. Boundary circles are
tracked positionally; reorderings are explicit swap layers.

Grammar (whitespace-insensitive):
    word  := layer (";" layer)*
    layer := gen ("|" gen)*
    gen   := id | swap | cap | cup | pants | copants   -- dimension 2
           | pid | acap | acup                          -- dimension 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import InputError


class WordSyntaxError(InputError):
    """Word text violates the grammar; carries a token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at character {position}: {message}")
        self.position = position


class ArityMismatch(InputError):
    """Layer or composition arities do not line up."""


class WrongDimension(ValueError):
    """Word has the wrong dimension for the operation."""


class InternalInvariantViolation(RuntimeError):
    """Component classification produced an impossible genus."""


# generator -> (dimension, in-arity, out-arity)
GENERATORS = {
    "id": (2, 1, 1),
    "swap": (2, 2, 2),
    "cap": (2, 0, 1),
    "cup": (2, 1, 0),
    "pants": (2, 2, 1),
    "copants": (2, 1, 2),
    "pid": (1, 1, 1),
    "acap": (1, 0, 2),
    "acup": (1, 2, 0),
}

# dimension -> generator -> (in-arity, out-arity), read by the word kernels
ARITIES = {dim: {g: (n_in, n_out) for g, (d, n_in, n_out) in GENERATORS.items() if d == dim}
           for dim in (1, 2)}

# contribution of each dimension-2 generator to the Euler characteristic
CHI_2 = {"id": 0, "swap": 0, "cap": 1, "cup": 1, "pants": -1, "copants": -1}


@dataclass(frozen=True)
class CobordismWord:
    """Arity-checked word; the empty word is the identity on nothing.

    `widths[i]` is the wire count at boundary i: 0 is the in-boundary and
    len(layers) the out-boundary. It is derived from the layers, so equality,
    hashing and repr ignore it.
    """

    dim: int
    layers: tuple[tuple[str, ...], ...]
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension {self.dim} not supported")
        arities = ARITIES[self.dim]
        widths: list[int] = []
        for layer in self.layers:
            ins = outs = 0
            for g in layer:
                try:
                    n_in, n_out = arities[g]
                except KeyError:
                    if g not in GENERATORS:
                        raise ValueError(f"unknown generator {g!r}") from None
                    raise WrongDimension(
                        f"generator {g!r} lives in dimension {GENERATORS[g][0]}") from None
                ins += n_in
                outs += n_out
            if not widths:
                widths.append(ins)
            elif ins != widths[-1]:
                raise ArityMismatch(f"layer expects {ins} inputs but receives {widths[-1]}")
            widths.append(outs)
        object.__setattr__(self, "widths", tuple(widths) or (0,))

    @property
    def in_arity(self) -> int:
        return self.widths[0]

    @property
    def out_arity(self) -> int:
        return self.widths[-1]

    def generator_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for layer in self.layers:
            for g in layer:
                counts[g] = counts.get(g, 0) + 1
        return counts

    def text(self) -> str:
        return " ; ".join(" | ".join(layer) for layer in self.layers)


def parse_word(text: str, dim: int = 2) -> CobordismWord:
    """Parse the layer DSL; raises WordSyntaxError with a character position."""
    layers = []
    offset = 0
    for chunk in text.split(";"):
        gens = []
        tok_off = offset
        for token in chunk.split("|"):
            name = token.strip()
            at = tok_off + (token.index(name) if name else 0)
            if not name:
                raise WordSyntaxError("empty generator", at)
            if name not in GENERATORS:
                raise WordSyntaxError(f"unknown generator {name!r}", at)
            if GENERATORS[name][0] != dim:
                raise WordSyntaxError(f"generator {name!r} is not dimension {dim}", at)
            gens.append(name)
            tok_off += len(token) + 1
        layers.append(tuple(gens))
        offset += len(chunk) + 1
    return CobordismWord(dim, tuple(layers))


def empty_word(dim: int = 2) -> CobordismWord:
    return CobordismWord(dim, ())


def identity_word(arity: int, dim: int = 2) -> CobordismWord:
    gen = "id" if dim == 2 else "pid"
    if arity == 0:
        return empty_word(dim)
    return CobordismWord(dim, ((gen,) * arity,))


def compose(M: CobordismWord, N: CobordismWord) -> CobordismWord:
    """Glue M's out-boundary to N's in-boundary (M applied first)."""
    if M.dim != N.dim:
        raise WrongDimension("cannot compose words of different dimensions")
    if M.out_arity != N.in_arity:
        raise ArityMismatch(f"out-arity {M.out_arity} does not match in-arity {N.in_arity}")
    return CobordismWord(M.dim, M.layers + N.layers)


def tensor(M: CobordismWord, N: CobordismWord) -> CobordismWord:
    """Side-by-side juxtaposition, padding the shorter word with identity layers."""
    if M.dim != N.dim:
        raise WrongDimension("cannot tensor words of different dimensions")
    gen = "id" if M.dim == 2 else "pid"
    mlays, nlays = list(M.layers), list(N.layers)
    while len(mlays) < len(nlays):
        mlays.append((gen,) * M.out_arity)
    while len(nlays) < len(mlays):
        nlays.append((gen,) * N.out_arity)
    layers = tuple(a + b for a, b in zip(mlays, nlays))
    return CobordismWord(M.dim, layers)


@dataclass(frozen=True)
class ComponentClass:
    """One connected piece: genus (None in dimension 1) and its boundary positions."""

    genus: int | None
    in_positions: tuple[int, ...]
    out_positions: tuple[int, ...]

    @property
    def is_closed(self) -> bool:
        return not self.in_positions and not self.out_positions


@dataclass(frozen=True)
class CobordismClass:
    """Normal form: classified components with positional boundary data."""

    dim: int
    in_arity: int
    out_arity: int
    components: tuple[ComponentClass, ...]

    def closed_genera(self) -> tuple[int, ...]:
        return tuple(sorted(c.genus for c in self.components if c.is_closed))

    @property
    def arc_count(self) -> int:
        if self.dim != 1:
            raise WrongDimension("arc counts only exist in dimension 1")
        return sum(1 for c in self.components if c.in_positions or c.out_positions)

    @property
    def circle_count(self) -> int:
        if self.dim != 1:
            raise WrongDimension("circle counts only exist in dimension 1")
        return sum(1 for c in self.components if c.is_closed)

    def total_chi(self) -> int:
        if self.dim == 1:
            return self.arc_count
        return sum(2 - 2 * c.genus - len(c.in_positions) - len(c.out_positions)
                   for c in self.components)


def normal_form(M: CobordismWord) -> CobordismClass:
    """Classify the word's connected components.

    One sweep from the bottom layer up carries the component label of each
    wire: every in-boundary wire starts a component of its own, id and pid
    pass a label on, and swap exchanges two (a swap is two disjoint strands,
    not a connected patch). Any other generator opens a component, merges
    the components of its inputs into it and labels its outputs with it;
    union-find runs over components only, and a merge adds up their Euler
    characteristics from the generators. The genus then comes from
    chi = 2 - 2g - (boundary circles).
    """
    arities = ARITIES[M.dim]
    parent = list(range(M.in_arity))
    chi = [0] * M.in_arity

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    labels = parent[:]
    for layer in M.layers:
        out: list[int] = []
        pos = 0
        for g in layer:
            if g == "id" or g == "pid":
                out.append(labels[pos])
                pos += 1
            elif g == "swap":
                out += (labels[pos + 1], labels[pos])
                pos += 2
            else:
                n_in, n_out = arities[g]
                comp = len(parent)
                parent.append(comp)
                chi.append(CHI_2.get(g, 0))
                for label in labels[pos:pos + n_in]:
                    root = find(label)
                    if root != comp:
                        parent[root] = comp
                        chi[comp] += chi[root]
                pos += n_in
                out += (comp,) * n_out
        labels = out

    comp_ins: dict[int, list[int]] = {}
    comp_outs: dict[int, list[int]] = {}
    for p in range(M.in_arity):
        comp_ins.setdefault(find(p), []).append(p)
    for p, label in enumerate(labels):
        comp_outs.setdefault(find(label), []).append(p)

    components = []
    for root in [c for c, up in enumerate(parent) if c == up]:
        ins = tuple(comp_ins.get(root, ()))
        outs = tuple(comp_outs.get(root, ()))
        if M.dim == 2:
            two_g = 2 - chi[root] - len(ins) - len(outs)
            if two_g < 0 or two_g % 2 != 0:
                raise InternalInvariantViolation(
                    f"component chi {chi[root]} with boundary {len(ins)}+{len(outs)}"
                )
            components.append(ComponentClass(two_g // 2, ins, outs))
        else:
            endpoints = len(ins) + len(outs)
            if endpoints not in (0, 2):
                raise InternalInvariantViolation(f"1d component with {endpoints} endpoints")
            components.append(ComponentClass(None, ins, outs))
    components.sort(key=lambda c: (c.in_positions, c.out_positions,
                                   -1 if c.genus is None else c.genus))
    return CobordismClass(M.dim, M.in_arity, M.out_arity, tuple(components))


# -- seeded samplers -----------------------------------------------------------

_GENS_BY_IN = {
    2: {0: ("cap",), 1: ("id", "cup", "copants"), 2: ("swap", "pants")},
    1: {0: ("acap",), 1: ("pid",), 2: ("acup",)},
}


def random_word(rng, dim: int = 2, start_arity: int | None = None) -> CobordismWord:
    """Seeded random word of 1 to 5 layers; arbitrary boundary arities."""
    table = _GENS_BY_IN[dim]
    arities = ARITIES[dim]
    cur = rng.randrange(0, 4) if start_arity is None else start_arity
    layers = []
    for _ in range(rng.randrange(1, 6)):
        layer = []
        rem = cur
        cur = 0
        while rem > 0:
            if rem >= 2 and rng.random() < 0.4:
                g = rng.choice(table[2])
            else:
                g = rng.choice(table[1])
            layer.append(g)
            n_in, n_out = arities[g]
            rem -= n_in
            cur += n_out
        while rng.random() < 0.25:
            g = rng.choice(table[0])
            layer.append(g)
            cur += arities[g][1]
        if not layer:
            g = rng.choice(table[0])
            layer.append(g)
            cur += arities[g][1]
        layers.append(tuple(layer))
    return CobordismWord(dim, tuple(layers))


def random_word_with_arities(rng, in_arity: int, out_arity: int) -> CobordismWord:
    """Seeded random dimension-2 word with prescribed boundary arities."""
    w = random_word(rng, dim=2, start_arity=in_arity)
    layers = list(w.layers)
    cur = w.out_arity
    while cur > out_arity:
        layers.append(("pants",) + ("id",) * (cur - 2) if cur >= 2 else ("cup",))
        cur -= 1
    while cur < out_arity:
        layers.append(("copants",) + ("id",) * (cur - 1) if cur >= 1 else ("cap",))
        cur += 1
    return CobordismWord(2, tuple(layers))


def random_closed_word(rng, dim: int = 2) -> CobordismWord:
    """Seeded random word from nothing to nothing."""
    w = random_word(rng, dim=dim, start_arity=0)
    merge = "pants" if dim == 2 else "acup"
    idg = "id" if dim == 2 else "pid"
    layers = list(w.layers)
    cur = w.out_arity
    while cur > 1:
        layers.append((merge,) + (idg,) * (cur - 2))
        cur -= 1 if dim == 2 else 2
    if cur == 1:
        if dim == 1:
            raise InternalInvariantViolation("odd point count cannot close in dimension 1")
        layers.append(("cup",))
    return CobordismWord(dim, tuple(layers))


def equivalent_rewrite(rng, M: CobordismWord) -> CobordismWord:
    """Rewrite the word without changing its class.

    Either inserts an identity layer at a random boundary or splits a layer
    in two, sliding a suffix of its generators past identity wires.
    """
    idg = "id" if M.dim == 2 else "pid"
    layers = list(M.layers)
    if not layers or rng.random() < 0.5:
        i = rng.randrange(0, len(layers) + 1)
        layers.insert(i, (idg,) * M.widths[i])
        return CobordismWord(M.dim, tuple(layers))
    li = rng.randrange(0, len(layers))
    layer = layers[li]
    if len(layer) < 2:
        layers.insert(li, (idg,) * M.widths[li])
        return CobordismWord(M.dim, tuple(layers))
    j = rng.randrange(1, len(layer))
    head, tail = layer[:j], layer[j:]
    head_out = sum(GENERATORS[g][2] for g in head)
    tail_in = sum(GENERATORS[g][1] for g in tail)
    first = head + (idg,) * tail_in
    second = (idg,) * head_out + tail
    layers[li:li + 1] = [first, second]
    return CobordismWord(M.dim, tuple(layers))


# -- canonical words -----------------------------------------------------------

def sphere_word() -> CobordismWord:
    return parse_word("cap ; cup")


def torus_word() -> CobordismWord:
    return parse_word("cap ; copants ; pants ; cup")


def closed_genus_word(g: int) -> CobordismWord:
    """Closed connected word of genus g: cap ; (copants ; pants)^g ; cup."""
    layers = [("cap",)] + [("copants",), ("pants",)] * g + [("cup",)]
    return CobordismWord(2, tuple(layers))
