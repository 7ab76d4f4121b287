"""Seeded input generation for the three benchmark workloads.

Every request carries the answer that follows from how its input was built,
so the oracle never has to run the code under test. The same seed gives
byte-identical request lists and input files.

Each workload is a deck: a fixed multiset of (kind, size) slots. The seed
fixes the order of the slots and the contents of every input (vertex
labels, words, scripts, catalogs), never the mix, so runs with different
seeds stress the same layers in the same proportions.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from oracle import trace_digest

WORKLOADS = ("complexes", "words", "surfaces")

# decks per request list: 1.7 (surfaces) to 5 (complexes) times what a
# 30-second run issues with the current code; the worker starts the list
# again when a run exhausts it
POOL_DECKS = {"complexes": 20, "words": 80, "surfaces": 130}

REQUESTS = "requests.jsonl"   # one request per line: kind, argv, expect


def _spread(slots, rng):
    """Order slots so that every prefix of the deck keeps the deck's mix:
    each kind's copies sit at evenly spaced, jittered positions."""
    by_kind: dict = {}
    for slot in slots:
        by_kind.setdefault(slot[0], []).append(slot)
    placed = []
    for kind, items in by_kind.items():
        rng.shuffle(items)
        n = len(items)
        for j, item in enumerate(items):
            placed.append(((j + rng.random()) / n, item))
    placed.sort(key=lambda p: p[0])
    return [item for _, item in placed]


# -- complexes ---------------------------------------------------------------------

def _perm_sign(seq) -> int:
    """Sign of the permutation that sorts a sequence of distinct values."""
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _relabel(facets, signs, rng):
    """Random injective relabelling; orientation signs follow the sort."""
    verts = sorted({v for f in facets for v in f})
    new = rng.sample(range(3 * len(verts)), len(verts))
    rename = dict(zip(verts, new))
    out_f, out_s = [], []
    for k, f in enumerate(facets):
        image = [rename[v] for v in f]
        out_f.append(sorted(image))
        if signs is not None:
            out_s.append(signs[k] * _perm_sign(image))
    order = sorted(range(len(out_f)), key=lambda k: out_f[k])
    facets = [out_f[k] for k in order]
    signs = [out_s[k] for k in order] if signs is not None else None
    return facets, signs


def _fixture(name: str):
    """A shipped triangulation; skkinv is imported only when inputs are built."""
    from skkinv import fixtures

    return getattr(fixtures, name)


def _torus_facets():
    return [list(f) for f in _fixture("torus7")().facets]


def _genus_sum(g: int, rng):
    """Connected sum of g seven-vertex tori, each glued along a random facet."""
    facets = _torus_facets()
    for _ in range(g - 1):
        shift = max(v for f in facets for v in f) + 1
        other = [[v + shift for v in f] for f in _torus_facets()]
        f1 = facets.pop(rng.randrange(len(facets)))
        f2 = other.pop(rng.randrange(len(other)))
        rename = dict(zip(f2, f1))
        facets += [sorted(rename.get(v, v) for v in f) for f in other]
    return facets


def _complex_doc(dim, facets, signs=None) -> str:
    doc = {"dim": dim, "facets": facets}
    if signs is not None:
        doc["orientations"] = signs
    return json.dumps(doc, separators=(",", ":"))


def _cp2(reverse: bool):
    K = _fixture("cp2_9")()
    signs = [(-s if reverse else s) for s in K.orientations]
    return [list(f) for f in K.facets], signs


def _homology_expect(coefficients, betti, torsion):
    """Torsion is reported over the integers only."""
    if coefficients != "integers":
        torsion = [[] for _ in betti]
    return {"check": "homology", "coefficients": coefficients,
            "betti": betti, "torsion": torsion}


def _sphere_betti(d):
    return [1] + [0] * (d - 1) + [1]


# (kind, size) slots of one complexes deck; sizes are genus or sphere dimension.
# Most requests are light ones whose time is in parsing and the facet closure
# (chi-only invariants and classes), so the median request is a simplicial
# one. The heavy tail, dimension 4 and homology over the rationals, is about a
# tenth of the deck, so the 95th percentile falls inside it, not at its edge.
COMPLEX_DECK = (
    [("genus_hom_z", g) for g in (1, 2, 2, 3, 3, 4, 5, 6)]
    + [("genus_hom_q", g) for g in (1, 1, 2, 2, 3, 4)]
    + [("genus_hom_q", 8)]
    + [("genus_hom_mod2", g) for g in (1, 2, 3, 4, 6, 8)]
    + [("genus_invariants", g) for g in (1, 2, 3, 4, 5, 6, 7, 8)] * 5
    + [("genus_class", g) for g in (1, 2, 3, 4, 5, 6, 7, 8)] * 5
    + [("rp2_hom", c) for c in ("integers", "integers", "rationals", "mod2", "mod2")]
    + [("rp2_invariants", 0)] * 10
    + [("sphere_hom", d) for d in (2, 3, 4, 5, 6, 2, 3, 4, 5, 6)]
    + [("sphere_hom_mod2", d) for d in (2, 3, 4, 5, 6, 7)]
    + [("sphere_invariants", d) for d in (2, 3, 4, 5, 6, 3, 5, 3, 5)]
    + [("cp2_hom", c) for c in ("integers", "integers", "mod2", "mod2", "rationals")]
    + [("cp2_signature", 0)] * 12
    + [("cp2_class", 0)] * 4
    + [("cp2_union", 0)]
    + [("not_closed", 0)] * 4
    + [("bad_document", 0)] * 4
)


def _complex_request(kind, size, rng, files):
    """One request: argv (file arguments relative to the work directory),
    the expected answer, and the input file it reads."""
    name = files.name("c", ".json")
    if kind.startswith("genus_"):
        g = size
        facets, _ = _relabel(_genus_sum(g, rng), None, rng)
        files[name] = _complex_doc(2, facets)
        chi = 2 - 2 * g
        if kind == "genus_invariants":
            return (["invariants", name],
                    {"check": "invariants", "dim": 2, "chi": chi, "kervaire": chi // 2})
        if kind == "genus_class":
            return ["skk", "class", name], {"check": "skk_class", "dim": 2, "value": chi // 2}
        coefficients = {"genus_hom_z": "integers", "genus_hom_q": "rationals",
                        "genus_hom_mod2": "mod2"}[kind]
        return (["homology", name, "--coefficients", coefficients],
                _homology_expect(coefficients, [1, 2 * g, 1], [[], [], []]))
    if kind.startswith("rp2_"):
        K = _fixture("projective_plane6")()
        facets, _ = _relabel(K.facets, None, rng)
        files[name] = _complex_doc(2, facets)
        if kind == "rp2_invariants":
            return (["invariants", name],
                    {"check": "invariants", "dim": 2, "chi": 1, "kervaire": None})
        betti = {"integers": [1, 0, 0], "rationals": [1, 0, 0], "mod2": [1, 1, 1]}[size]
        return (["homology", name, "--coefficients", size],
                _homology_expect(size, betti, [[], [2], []]))
    if kind.startswith("sphere_"):
        d = size
        K = _fixture("simplex_boundary")(d + 1)
        facets, _ = _relabel(K.facets, None, rng)
        files[name] = _complex_doc(d, facets)
        if kind == "sphere_invariants":
            chi = 2 if d % 2 == 0 else 0
            expect = {"check": "invariants", "dim": d, "chi": chi,
                      "kervaire": 1 if d % 2 else chi // 2}
            if d == 4:
                expect["sigma"] = 0
            return ["invariants", name], expect
        coefficients = "mod2" if kind == "sphere_hom_mod2" else "integers"
        return (["homology", name, "--coefficients", coefficients],
                _homology_expect(coefficients, _sphere_betti(d), [[]] * (d + 1)))
    if kind.startswith("cp2_"):
        if kind == "cp2_union":
            # disjoint union of two copies: Betti numbers and chi add
            f1, s1 = _cp2(rng.random() < 0.5)
            f2, s2 = _cp2(rng.random() < 0.5)
            shift = max(v for f in f1 for v in f) + 1
            facets = f1 + [[v + shift for v in f] for f in f2]
            facets, signs = _relabel(facets, s1 + s2, rng)
            files[name] = _complex_doc(4, facets, signs)
            return (["homology", name, "--coefficients", "integers"],
                    _homology_expect("integers", [2, 0, 2, 0, 2], [[]] * 5))
        reverse = rng.random() < 0.5
        facets, signs = _relabel(*_cp2(reverse), rng)
        files[name] = _complex_doc(4, facets, signs)
        sigma = -1 if reverse else 1
        if kind == "cp2_signature":
            return (["invariants", name],
                    {"check": "invariants", "dim": 4, "chi": 3, "kervaire": None, "sigma": sigma})
        if kind == "cp2_class":
            return ["skk", "class", name], {"check": "skk_class", "dim": 4, "value": [3, sigma]}
        return (["homology", name, "--coefficients", size],
                _homology_expect(size, [1, 0, 1, 0, 1], [[]] * 5))
    if kind == "not_closed":
        facets = _genus_sum(rng.randrange(1, 4), rng)
        facets.pop(rng.randrange(len(facets)))
        facets, _ = _relabel(facets, None, rng)
        files[name] = _complex_doc(2, facets)
        return ["skk", "class", name], {"check": "exit", "exit": 2}
    if kind == "bad_document":
        facets, _ = _relabel(_torus_facets(), None, rng)
        if rng.random() < 0.5:
            text = json.dumps({"dim": 2, "facets": facets, "colour": "red"})
        else:
            facets[0] = [facets[0][0]] * 3
            text = _complex_doc(2, facets)
        files[name] = text
        return ["homology", name], {"check": "exit", "exit": 2}
    raise ValueError(f"unknown complexes slot {kind!r}")


def _complexes(rng, decks, files):
    for _ in range(decks):
        for kind, size in _spread(list(COMPLEX_DECK), rng):
            argv, expect = _complex_request(kind, size, rng, files)
            yield {"kind": kind, "argv": argv, "expect": expect}


# -- words -------------------------------------------------------------------------

_GEN_ARITY = {"id": (1, 1), "swap": (2, 2), "cap": (0, 1), "cup": (1, 0),
              "pants": (2, 1), "copants": (1, 2),
              "pid": (1, 1), "acap": (0, 2), "acup": (2, 0)}


def _piece2(g, i, o, rng):
    """Layers of one connected dimension-2 piece of genus g with i inputs and
    o outputs: merge all inputs, add handles, split into the outputs."""
    layers = []
    w = i
    if w == 0:
        layers.append(["cap"])
        w = 1
    while w > 1:
        k = rng.randrange(w - 1)
        layers.append(["id"] * k + ["pants"] + ["id"] * (w - 2 - k))
        w -= 1
    for _ in range(g):
        layers.append(["copants"])
        if rng.random() < 0.3:
            layers.append(["swap"])
            layers.append(["swap"])
        layers.append(["pants"])
    if o == 0:
        layers.append(["cup"])
    while w < o:
        k = rng.randrange(w)
        layers.append(["id"] * k + ["copants"] + ["id"] * (w - 1 - k))
        w += 1
    return layers or [["id"]]


def _piece1(kind, rng):
    """One dimension-1 component: (layers, in-arity, out-arity)."""
    if kind == "circle":
        return [["acap"], ["acup"]], 0, 0
    if kind == "through":
        if rng.random() < 0.5:
            return [["pid"], ["pid", "acap"], ["acup", "pid"]], 1, 1
        return [["pid"]], 1, 1
    if kind == "birth":
        return [["acap"]], 0, 2
    return [["acup"]], 2, 0


def _width(layer, side):
    return sum(_GEN_ARITY[g][side] for g in layer)


def _tensor(pieces, pad):
    """Juxtapose piece layer lists (padding with identities) and return the
    layers plus each piece's block of in- and out-positions."""
    depth = max(len(layers) for layers, _, _ in pieces)
    rows = []
    for layers, _, _ in pieces:
        rows.append(layers + [[pad] * _width(layers[-1], 1)] * (depth - len(layers)))
    combined = []
    for k in range(depth):
        layer = [g for row in rows for g in row[k]]
        if layer:
            combined.append(layer)
    blocks = []
    in_off = out_off = 0
    for _, i, o in pieces:
        blocks.append((list(range(in_off, in_off + i)), list(range(out_off, out_off + o))))
        in_off += i
        out_off += o
    return combined, blocks, in_off, out_off


def _swap_layer(width, rng):
    """A layer of swaps and identities; returns it with its wire map."""
    layer, mapping, p = [], {}, 0
    while p < width:
        if p + 1 < width and rng.random() < 0.5:
            layer.append("swap")
            mapping[p], mapping[p + 1] = p + 1, p
            p += 2
        else:
            layer.append("id")
            mapping[p] = p
            p += 1
    return layer, mapping


def _word_text(layers, rng) -> str:
    sep = rng.choice((" ; ", ";", " ;\t"))
    bar = rng.choice((" | ", "|"))
    return sep.join(bar.join(layer) for layer in layers)


def _dim2_word(n_pieces, max_genus, rng, closed=False):
    """Tensor of connected pieces with final swap layers; returns the layer
    list and the components it must normalize to."""
    pieces, specs = [], []
    for _ in range(n_pieces):
        g = rng.randrange(max_genus + 1)
        i, o = (0, 0) if closed else (rng.randrange(4), rng.randrange(4))
        pieces.append((_piece2(g, i, o, rng), i, o))
        specs.append(g)
    layers, blocks, win, wout = _tensor(pieces, "id")
    outs = [list(b[1]) for b in blocks]
    for _ in range(rng.randrange(3) if wout >= 2 else 0):
        layer, mapping = _swap_layer(wout, rng)
        layers.append(layer)
        outs = [[mapping[p] for p in ps] for ps in outs]
    comps = [{"genus": g, "in": b[0], "out": sorted(ps)}
             for g, b, ps in zip(specs, blocks, outs)]
    return layers, comps, win, wout


def _dim1_word(n_pieces, rng):
    pieces = [_piece1(rng.choice(("circle", "through", "through", "birth", "death")), rng)
              for _ in range(n_pieces)]
    layers, blocks, win, wout = _tensor(pieces, "pid")
    comps = [{"genus": None, "in": b[0], "out": b[1]} for b in blocks]
    return layers, comps, win, wout


def _chi2(layers) -> int:
    chi = {"cap": 1, "cup": 1, "pants": -1, "copants": -1}
    return sum(chi.get(g, 0) for layer in layers for g in layer)


def _count(layers, name) -> int:
    return sum(1 for layer in layers for g in layer if g == name)


def _scalar_args(rng, exp: bool):
    """Random (cap, cup) pair as argv and exact values."""
    def rat():
        # |x| != 1, so the corrupted control is always visible
        while True:
            x = Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randrange(1, 8))
            if abs(x) != 1:
                return x
    a, e = rat(), rat()
    if exp:
        return [f"--cap-exp={a}", f"--cup-exp={e}"], a, e
    return [f"--cap={a}", f"--cup={e}"], a, e


def _eval_value(layers, a, e, exp: bool) -> str:
    """cap**(caps - pants) * cup**(cups - copants), from the word's own counts."""
    pa = _count(layers, "cap") - _count(layers, "pants")
    pe = _count(layers, "cup") - _count(layers, "copants")
    if exp:
        x = a * pa + e * pe
        return "1" if x == 0 else f"exp({x})"
    return str(a ** pa * e ** pe)


def _closed_value(layers, a, e, exp: bool) -> str:
    """(cap * cup) ** (chi / 2) for a closed word, chi from generator counts."""
    half = Fraction(_chi2(layers), 2)
    if exp:
        x = (a + e) * half
        return "1" if x == 0 else f"exp({x})"
    return str((a * e) ** half)


# (kind, size) slots of one words deck; size picks the word length class, or
# the verify budget. The axiom checks are the heaviest tenth of the deck and
# share one budget, so the 95th percentile falls inside one dense cluster.
WORD_DECK = (
    [("short_nf", 0)] * 18 + [("short_nf1", 0)] * 6 + [("short_eval", 0)] * 16
    + [("nf", 1)] * 10 + [("nf1", 1)] * 4 + [("eval", 1)] * 8 + [("closed_eval", 1)] * 6
    + [("nf", 2)] * 4 + [("nf1", 2)] * 2 + [("eval", 2)] * 3 + [("closed_eval", 2)] * 3
    + [("nf", 3)] * 2 + [("eval", 3)] * 1 + [("closed_eval", 3)] * 1
    + [("verify", 100)] * 8 + [("verify_corrupt", 100)] * 2
    + [("bad_word", 0)] * 4
)

# (pieces, max genus) by size class: about 2-25, 40-250, 300-1200, 1000-3000 generators
_WORD_SIZES = {0: (2, 2), 1: (4, 8), 2: (10, 30), 3: (20, 40)}

_POPULAR_SHARE = 0.28
_POPULAR_PER_KIND = 4


def _popular_pool(rng):
    """A few short requests per short kind that recur, like hot keys."""
    return {kind: [_word_request(kind, 0, rng, None) for _ in range(_POPULAR_PER_KIND)]
            for kind in ("short_nf", "short_nf1", "short_eval")}


def _nf_expect(comps, win, wout, layers, dim):
    expect = {"check": "normal_form", "in_arity": win, "out_arity": wout,
              "components": comps}
    if dim == 2:
        expect["chi"] = _chi2(layers)
    return expect


def _verify_request(kind, budget, rng):
    exp = rng.random() < 0.5
    argv, _, _ = _scalar_args(rng, exp)
    argv = ["tqft", "verify"] + argv + ["--seed", str(rng.randrange(10 ** 6)),
                                        "--budget", str(budget)]
    if kind == "verify":
        return argv, {"check": "verify", "exit": 0, "passed": [True] * 5}
    # the corrupted control sends pants to cap, which shows whenever cap**2 != 1
    return (argv + ["--corrupt"],
            {"check": "verify", "exit": 1, "passed": [False, True, False, True, True]})


def _bad_word_request(rng):
    """A word with an unknown generator, an empty generator or a layer whose
    in-arity cannot match the layer below it."""
    layers, _, _, _ = _dim2_word(2, 3, rng)
    k = rng.randrange(1, len(layers) + 1)
    choice = rng.randrange(3)
    if choice == 0:
        layers[k - 1] = layers[k - 1] + ["pantz"]
    elif choice == 1:
        layers.insert(k, [""])
    else:
        layers.insert(k, ["id"] * (_width(layers[k - 1], 1) + 1))
    return ["cob", "normal-form", _word_text(layers, rng)], {"check": "exit", "exit": 2}


def _word_request(kind, size, rng, popular):
    if popular is not None and kind in popular and rng.random() < _POPULAR_SHARE:
        return rng.choice(popular[kind])
    if kind in ("verify", "verify_corrupt"):
        return _verify_request(kind, size, rng)
    if kind == "bad_word":
        return _bad_word_request(rng)
    n_pieces, max_genus = _WORD_SIZES[size]
    if kind in ("short_nf1", "nf1"):
        layers, comps, win, wout = _dim1_word(max(1, 3 * n_pieces // 2), rng)
        return (["cob", "normal-form", _word_text(layers, rng), "--dim", "1"],
                _nf_expect(comps, win, wout, layers, 1))
    if kind in ("short_nf", "nf"):
        layers, comps, win, wout = _dim2_word(n_pieces, max_genus, rng)
        return (["cob", "normal-form", _word_text(layers, rng)],
                _nf_expect(comps, win, wout, layers, 2))
    if kind in ("short_eval", "eval"):
        layers, _, _, _ = _dim2_word(n_pieces, max_genus, rng)
        exp = rng.random() < 0.5
        argv, a, e = _scalar_args(rng, exp)
        return (["cob", "eval", _word_text(layers, rng)] + argv,
                {"check": "eval", "value": _eval_value(layers, a, e, exp)})
    if kind == "closed_eval":
        layers, _, _, _ = _dim2_word(n_pieces, max_genus, rng, closed=True)
        exp = rng.random() < 0.5
        argv, a, e = _scalar_args(rng, exp)
        return (["cob", "eval", _word_text(layers, rng)] + argv,
                {"check": "eval", "value": _closed_value(layers, a, e, exp)})
    raise ValueError(f"unknown words slot {kind!r}")


def _words(rng, decks, files):
    popular = _popular_pool(rng)
    for _ in range(decks):
        for kind, size in _spread(list(WORD_DECK), rng):
            argv, expect = _word_request(kind, size, rng, popular)
            yield {"kind": kind, "argv": argv, "expect": expect}


# -- surfaces ----------------------------------------------------------------------

class _SurfaceModel:
    """Independent bookkeeping of the surface a script acts on: components as
    [genus, circle ids] in the order the cut/paste calculus keeps them."""

    def __init__(self, comps):
        self.comps = []
        nxt = 0
        for g, b in comps:
            self.comps.append([g, list(range(nxt, nxt + b))])
            nxt += b
        self.next = nxt
        self.chi = sum(2 - 2 * g - b for g, b in comps)   # cuts and pastes keep chi

    def shape(self):
        return [self.chi, sorted([g, len(cs)] for g, cs in self.comps)]

    def circles(self):
        return [c for _, cs in self.comps for c in cs]

    def cut_nonsep(self, i):
        g, cs = self.comps[i]
        self.comps[i] = [g - 1, cs + [self.next, self.next + 1]]
        self.next += 2

    def cut_sep(self, i, g1, first):
        g, cs = self.comps[i]
        a = [g1, [c for c in cs if c in first] + [self.next]]
        b = [g - g1, [c for c in cs if c not in first] + [self.next + 1]]
        self.comps[i:i + 1] = [a, b]
        self.next += 2

    def paste(self, pairs):
        owner = {c: k for k, (_, cs) in enumerate(self.comps) for c in cs}
        parent = list(range(len(self.comps)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in pairs:
            parent[find(owner[a])] = find(owner[b])
        used = {c for pair in pairs for c in pair}
        clusters: dict = {}
        for k in range(len(self.comps)):
            clusters.setdefault(find(k), []).append(k)
        glued = {find(owner[a]) for a, _ in pairs}
        out = []
        for root, members in sorted(clusters.items(), key=lambda kv: kv[1][0]):
            if root not in glued:
                out.extend(self.comps[k] for k in members)
                continue
            chi = sum(2 - 2 * self.comps[k][0] - len(self.comps[k][1]) for k in members)
            rest = [c for k in members for c in self.comps[k][1] if c not in used]
            out.append([(2 - len(rest) - chi) // 2, rest])
        self.comps = out


def _random_move(model, rng):
    """A random valid move as script text, applied to the model."""
    circles = model.circles()
    n = len(model.comps)
    want_paste = len(circles) >= 2 and (len(circles) > 10 or n > 8 or rng.random() < 0.35)
    if want_paste:
        rng.shuffle(circles)
        k = rng.randrange(1, min(3, len(circles) // 2) + 1)
        pairs = [(circles[2 * j], circles[2 * j + 1]) for j in range(k)]
        model.paste(pairs)
        return "paste " + " ".join(f"{a}~{b}" for a, b in pairs)
    i = rng.randrange(n)
    g, cs = model.comps[i]
    if g >= 1 and rng.random() < 0.5:
        model.cut_nonsep(i)
        return f"cut {i} nonsep"
    g1 = rng.randrange(g + 1)
    first = [c for c in cs if rng.random() < 0.5]
    model.cut_sep(i, g1, set(first))
    return f"cut {i} sep {g1} " + (",".join(map(str, first)) if first else "-")


def _surface_expr(comps, rng) -> str:
    sep = rng.choice((" + ", "+"))
    return sep.join(f"g{g}b{b}" for g, b in comps)


def _catalog_doc(p2: Fraction, rng) -> str:
    """A dimension-8 capping catalog whose CP4 carries p2, with distractors."""
    pieces = [
        {"name": "D8", "chi": 1, "sigma": 0, "boundary": ["S7"], "attributes": {}},
        {"name": "S8", "chi": 2, "sigma": 0, "boundary": [], "attributes": {"p2": "0"}},
        {"name": "CP4", "chi": 5, "sigma": 0, "boundary": [], "attributes": {"p2": str(p2)}},
        {"name": "CP4_minus_D8", "chi": 4, "sigma": 0, "boundary": ["S7"], "attributes": {}},
    ]
    b_sigma = {"S7": rng.choice(("D8", "CP4_minus_D8"))}
    identities = [{"pieces": ["D8", "D8"], "equals": "S8"},
                  {"pieces": ["CP4_minus_D8", "D8"], "equals": "CP4"}]
    for k in range(rng.randrange(1, 6)):
        label = f"L{k}"
        pieces.append({"name": f"cap{k}", "chi": rng.randrange(-4, 5), "sigma": 0,
                       "boundary": [label], "attributes": {}})
        pieces.append({"name": f"X{k}", "chi": rng.randrange(-9, 10),
                       "sigma": rng.randrange(-3, 4), "boundary": [],
                       "attributes": {"p2": str(Fraction(rng.randrange(-50, 51), 3))}})
        b_sigma[label] = f"cap{k}"
    rng.shuffle(pieces)
    rng.shuffle(identities)
    doc = {"dim": 8, "l": 1, "pieces": pieces, "b_sigma": b_sigma, "identities": identities}
    return json.dumps(doc, indent=rng.choice((None, 2)))


# (kind, size) slots of one surfaces deck; size is a move count or grid half-width.
# Most requests are light class and capping-demo requests, whose time is in
# cli and virtual_bordism; scripts and sequence checks carry most of the time.
SURFACE_DECK = (
    [("cutpaste", m) for m in (100, 150, 200, 250, 300, 300, 400, 500, 600)]
    + [("class", 0)] * 12
    + [("verify_sequence", n) for n in (1, 2, 3, 4, 5, 6)]
    + [("verify_sequence_corrupt", n) for n in (2, 4)]
    + [("demo", 0)] * 14
    + [("bad_script", 0), ("open_surface", 0)]
)


def _surface_request(kind, size, rng, files):
    if kind in ("cutpaste", "bad_script"):
        comps = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(2, 6))]
        model = _SurfaceModel(comps)
        lines, trace = [], [model.shape()]
        for _ in range(size if kind == "cutpaste" else 20):
            lines.append(_random_move(model, rng))
            trace.append(model.shape())
            if rng.random() < 0.05:
                lines.append("# checkpoint")
        if kind == "bad_script":
            lines.insert(rng.randrange(len(lines)),
                         rng.choice(("cut x nonsep", "paste 1-2", "fold 0", "cut 0 sep")))
        name = files.name("s", ".cutpaste")
        files[name] = "\n".join(lines) + "\n"
        argv = ["cutpaste", name, "--start", _surface_expr(comps, rng)]
        if kind == "bad_script":
            return argv, {"check": "exit", "exit": 2}
        return argv, {"check": "cutpaste", "steps": len(trace), "final": trace[-1],
                      "digest": trace_digest(trace)}
    if kind in ("class", "open_surface"):
        comps = [(rng.randrange(20), 0) for _ in range(rng.randrange(2, 9))]
        if kind == "open_surface":
            comps.append((rng.randrange(3), rng.randrange(1, 4)))
            return ["skk", "class", "--surface", _surface_expr(comps, rng)], \
                {"check": "exit", "exit": 2}
        return (["skk", "class", "--surface", _surface_expr(comps, rng)],
                {"check": "skk_class", "dim": 2, "value": sum(1 - g for g, _ in comps)})
    if kind.startswith("verify_sequence"):
        argv = ["skk", "verify-sequence", "--grid", str(size),
                "--seed", str(rng.randrange(10 ** 6))]
        if kind == "verify_sequence":
            return argv, {"check": "verify", "exit": 0, "passed": [True] * 4}
        # the corrupted splitting halves the chi exponent, which only the
        # two splitting checks can see
        return (argv + ["--corrupt-splitting"],
                {"check": "verify", "exit": 1, "passed": [True, False, False, True]})
    if kind == "demo":
        p2 = Fraction(rng.choice([n for n in range(-60, 61) if n]), rng.randrange(1, 7))
        name = files.name("k", ".json")
        files[name] = _catalog_doc(p2, rng)
        return (["skk", "demo-bsigma", "--catalog", name],
                {"check": "demo", "values": {"D8": "1", "CP4_minus_D8": f"exp({p2})"}})
    raise ValueError(f"unknown surfaces slot {kind!r}")


def _surfaces(rng, decks, files):
    for _ in range(decks):
        for kind, size in _spread(list(SURFACE_DECK), rng):
            argv, expect = _surface_request(kind, size, rng, files)
            yield {"kind": kind, "argv": argv, "expect": expect}


# -- entry points -------------------------------------------------------------------

class _Inputs:
    """Input files of the requests being built, named in creation order."""

    def __init__(self):
        self.count = 0
        self.pending: dict[str, str] = {}

    def name(self, prefix: str, suffix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count:06d}{suffix}"

    def __setitem__(self, name: str, text: str):
        self.pending[name] = text

    def flush(self) -> dict[str, str]:
        out, self.pending = self.pending, {}
        return out


_BUILDERS = {"complexes": _complexes, "words": _words, "surfaces": _surfaces}


def stream(workload: str, seed: int, decks: int | None = None):
    """Yield (request, {file name: text}) in issue order; deterministic in
    (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    files = _Inputs()
    decks = POOL_DECKS[workload] if decks is None else decks
    for req in _BUILDERS[workload](rng, decks, files):
        yield req, files.flush()


def generate(workload: str, seed: int, decks: int | None = None):
    """(requests, files) for a workload, as lists in memory."""
    requests, files = [], {}
    for req, new in stream(workload, seed, decks):
        requests.append(req)
        files.update(new)
    return requests, files


def write_inputs(workdir: str, workload: str, seed: int, decks: int | None = None) -> dict:
    """Write the input files and the request list into workdir; returns a summary."""
    os.makedirs(workdir, exist_ok=True)
    summary = Summary()
    with open(os.path.join(workdir, REQUESTS), "w", encoding="utf-8") as out:
        for req, files in stream(workload, seed, decks):
            for name, text in files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            out.write(json.dumps(req, separators=(",", ":"), sort_keys=True) + "\n")
            summary.add(req, files)
    return summary.result()


class Summary:
    """Exact-repeat share and input-size ranges of a request list."""

    def __init__(self):
        self.seen: set[str] = set()
        self.requests = self.repeats = self.short = self.short_repeats = 0
        self.sizes: dict[str, list[int]] = {}

    def add(self, req, files) -> None:
        key = "\0".join(req["argv"])
        repeated = key in self.seen
        self.seen.add(key)
        self.requests += 1
        self.repeats += repeated
        if req["kind"].startswith("short_"):
            self.short += 1
            self.short_repeats += repeated
        for metric, value in _sizes(req["argv"], files):
            low, high = self.sizes.get(metric, (value, value))
            self.sizes[metric] = [min(low, value), max(high, value)]

    def result(self) -> dict:
        out = {"requests": self.requests, "distinct": len(self.seen),
               "repeat_share": self.repeats / self.requests}
        if self.short:
            out["short_repeat_share"] = self.short_repeats / self.short
        out["sizes"] = dict(sorted(self.sizes.items()))
        return out


def _sizes(argv, files):
    """(size name, value) pairs of one request, from its argv and input file."""
    text = next(iter(files.values()), "")
    if argv[0] == "cob":
        yield "word_generators", len(argv[2].replace(";", "|").split("|"))
    elif argv[0] == "tqft":
        yield "verify_budget", int(argv[argv.index("--budget") + 1])
    elif argv[0] == "cutpaste":
        yield "script_moves", sum(1 for line in text.splitlines()
                                  if line and not line.startswith("#"))
    elif argv[:2] == ["skk", "verify-sequence"]:
        yield "grid_half_width", int(argv[3])
    elif argv[:3] == ["skk", "class", "--surface"]:
        yield "surface_components", argv[3].count("g")
    elif argv[0] in ("homology", "invariants", "skk") and argv[1] != "demo-bsigma":
        yield "complex_bytes", len(text)


if __name__ == "__main__":
    # python3 gen.py WORKDIR WORKLOAD SEED: write the inputs, print the summary
    print(json.dumps(write_inputs(sys.argv[1], sys.argv[2], int(sys.argv[3])), sort_keys=True))
