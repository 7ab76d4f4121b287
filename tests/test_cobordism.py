"""Cobordism words: parsing, composition, tensor, and normal forms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import cobordism as cb

seeds = st.integers(min_value=0, max_value=2 ** 31)


def chi_from_generators(M):
    """Euler characteristic of a dimension-2 word from its generator counts."""
    return sum(cb.CHI_2[g] * n for g, n in M.generator_counts().items())


class TestParse:
    def test_sphere_word(self):
        w = cb.parse_word("cap ; cup")
        assert w.in_arity == 0 and w.out_arity == 0

    def test_two_caps_then_pants(self):
        w = cb.parse_word("cap | cap ; pants")
        assert w.in_arity == 0 and w.out_arity == 1

    def test_arity_mismatch(self):
        with pytest.raises(cb.ArityMismatch):
            cb.parse_word("pants ; pants")

    def test_unknown_generator_position(self):
        with pytest.raises(cb.WordSyntaxError) as err:
            cb.parse_word("cap ; wrong")
        assert err.value.position == 6

    def test_empty_generator(self):
        with pytest.raises(cb.WordSyntaxError):
            cb.parse_word("cap ; ; cup")

    def test_dimension_filter(self):
        with pytest.raises(cb.WordSyntaxError):
            cb.parse_word("acap", dim=2)
        w = cb.parse_word("acap ; acup", dim=1)
        assert w.dim == 1

    def test_whitespace_insensitive(self):
        assert cb.parse_word("cap;cup") == cb.parse_word("  cap  ;   cup ")


def parse_word_reference(text, dim=2):
    """The token-by-token parser `parse_word` replaced, kept as its oracle."""
    layers = []
    offset = 0
    for chunk in text.split(";"):
        gens = []
        tok_off = offset
        for token in chunk.split("|"):
            name = token.strip()
            at = tok_off + (token.index(name) if name else 0)
            if not name:
                raise cb.WordSyntaxError("empty generator", at)
            if name not in cb.GENERATORS:
                raise cb.WordSyntaxError(f"unknown generator {name!r}", at)
            if cb.GENERATORS[name][0] != dim:
                raise cb.WordSyntaxError(f"generator {name!r} is not dimension {dim}", at)
            gens.append(name)
            tok_off += len(token) + 1
        layers.append(tuple(gens))
        offset += len(chunk) + 1
    return cb.CobordismWord(dim, tuple(layers))


def _outcome(parse, text, dim):
    try:
        word = parse(text, dim)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return word, word.widths


_SPACES = ("", " ", "  ", "\t", " \n ")
_MUTANTS = {
    "unknown": lambda rng, dim: rng.choice(("capp", "Cap", "x", "id|", "pid;", "0")),
    "empty": lambda rng, dim: rng.choice(_SPACES),
    "wrong dimension": lambda rng, dim: rng.choice(tuple(cb.ARITIES[3 - dim])),
    "arity break": lambda rng, dim: rng.choice(tuple(cb.ARITIES[dim])),
}


class TestParseMatchesReference:
    """Over random words with one token mutated, `parse_word` raises what the old
    parser raised, with the same message and position, or builds the same word."""

    @pytest.mark.parametrize("kind", list(_MUTANTS))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_mutated_token(self, kind, dim):
        rng = random.Random(f"{kind}-{dim}")
        for _ in range(300):
            layers = [list(layer) for layer in cb.random_word(rng, dim=dim).layers]
            i = rng.randrange(len(layers))
            layers[i][rng.randrange(len(layers[i]))] = _MUTANTS[kind](rng, dim)
            text = ";".join("|".join(rng.choice(_SPACES) + g + rng.choice(_SPACES)
                                     for g in layer) for layer in layers)
            assert _outcome(cb.parse_word, text, dim) == _outcome(parse_word_reference, text, dim)

    @pytest.mark.parametrize("text", ["", ";", "|", "cap ; ", "pants ; pants ; bogus",
                                      "pants ; pants ; acap", "cap ; cup ; ; cup", "cap | "])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_edge_cases(self, text, dim):
        assert _outcome(cb.parse_word, text, dim) == _outcome(parse_word_reference, text, dim)


class TestCompose:
    def test_sphere_from_disks(self):
        w = cb.compose(cb.parse_word("cap"), cb.parse_word("cup"))
        assert cb.normal_form(w).components == (cb.ComponentClass(0, (), ()),)

    def test_genus_one_tube(self):
        w = cb.compose(cb.parse_word("copants"), cb.parse_word("pants"))
        nf = cb.normal_form(w)
        assert len(nf.components) == 1
        assert nf.components[0].genus == 1
        assert chi_from_generators(w) == -2

    def test_identity_law(self):
        M = cb.parse_word("copants ; pants")
        cylinder = cb.identity_word(M.out_arity)
        assert cb.normal_form(cb.compose(M, cylinder)) == cb.normal_form(M)

    def test_arity_check(self):
        with pytest.raises(cb.ArityMismatch):
            cb.compose(cb.parse_word("cap"), cb.parse_word("pants"))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_associative_normal_forms(self, seed):
        rng = random.Random(seed)
        A = cb.random_word(rng)
        B = cb.random_word(rng, start_arity=A.out_arity)
        C = cb.random_word(rng, start_arity=B.out_arity)
        left = cb.compose(cb.compose(A, B), C)
        right = cb.compose(A, cb.compose(B, C))
        assert cb.normal_form(left) == cb.normal_form(right)


class TestTensor:
    def test_caps_side_by_side(self):
        t = cb.tensor(cb.parse_word("cap"), cb.parse_word("cap"))
        assert t.layers == (("cap", "cap"),)

    def test_empty_identity(self):
        M = cb.parse_word("cap ; copants")
        assert cb.tensor(M, cb.empty_word()) == M
        assert cb.tensor(cb.empty_word(), M) == M

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_normal_form_is_shifted_union(self, seed):
        rng = random.Random(seed)
        M = cb.random_word(rng)
        N = cb.random_word(rng)
        t = cb.normal_form(cb.tensor(M, N))
        m, n = cb.normal_form(M), cb.normal_form(N)
        shifted = [
            cb.ComponentClass(
                c.genus,
                tuple(p + M.in_arity for p in c.in_positions),
                tuple(p + M.out_arity for p in c.out_positions),
            )
            for c in n.components
        ]
        expected = sorted(
            list(m.components) + shifted,
            key=lambda c: (c.in_positions, c.out_positions,
                           -1 if c.genus is None else c.genus),
        )
        assert list(t.components) == expected

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_interchange_law(self, seed):
        rng = random.Random(seed)
        A = cb.random_word(rng)
        C = cb.random_word(rng, start_arity=A.out_arity)
        B = cb.random_word(rng)
        D = cb.random_word(rng, start_arity=B.out_arity)
        left = cb.compose(cb.tensor(A, B), cb.tensor(C, D))
        right = cb.tensor(cb.compose(A, C), cb.compose(B, D))
        assert cb.normal_form(left) == cb.normal_form(right)


class TestNormalForm:
    def test_sphere(self):
        nf = cb.normal_form(cb.parse_word("cap ; cup"))
        assert nf.components == (cb.ComponentClass(0, (), ()),)

    def test_genus_one_tube(self):
        nf = cb.normal_form(cb.parse_word("copants ; pants"))
        assert nf.components == (cb.ComponentClass(1, (0,), (0,)),)

    def test_disk(self):
        nf = cb.normal_form(cb.parse_word("cap | cap ; pants"))
        assert nf.components == (cb.ComponentClass(0, (), (0,)),)
        assert nf.total_chi() == 1

    def test_closed_genus_series(self):
        for g in range(4):
            nf = cb.normal_form(cb.parse_word("cap ; " + "copants ; pants ; " * g + "cup"))
            assert nf.components == (cb.ComponentClass(g, (), ()),)

    def test_chi_consistency(self):
        rng = random.Random(5)
        for _ in range(200):
            w = cb.random_word(rng)
            assert chi_from_generators(w) == cb.normal_form(w).total_chi()

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rewrites(self, seed):
        rng = random.Random(seed)
        w = cb.random_word(rng)
        rewritten = w
        for _ in range(4):
            rewritten = cb.equivalent_rewrite(rng, rewritten)
        assert cb.normal_form(rewritten) == cb.normal_form(w)


def normal_form_reference(M):
    """Union-find over every wire of every layer and one node per generator
    patch; a swap joins its strands crosswise, and the Euler characteristic
    of a component sums its patches' contributions."""
    base = list(itertools.accumulate(M.widths, initial=0))
    parent = list(range(base.pop()))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    patch_gen = []
    for li, layer in enumerate(M.layers):
        in_pos, out_pos = base[li], base[li + 1]
        for g in layer:
            _, n_in, n_out = cb.GENERATORS[g]
            if g in ("id", "pid"):
                union(in_pos, out_pos)
            elif g == "swap":
                union(in_pos, out_pos + 1)
                union(in_pos + 1, out_pos)
            else:
                patch = len(parent)
                parent.append(patch)
                patch_gen.append((patch, g))
                for node in [*range(in_pos, in_pos + n_in), *range(out_pos, out_pos + n_out)]:
                    union(patch, node)
            in_pos += n_in
            out_pos += n_out

    comp_chi, comp_ins, comp_outs = {}, {}, {}
    for patch, g in patch_gen:
        comp_chi[find(patch)] = comp_chi.get(find(patch), 0) + cb.CHI_2.get(g, 0)
    for p in range(M.in_arity):
        comp_ins.setdefault(find(p), []).append(p)
    for p in range(M.out_arity):
        comp_outs.setdefault(find(base[-1] + p), []).append(p)
    components = []
    for root in set(comp_chi) | set(comp_ins) | set(comp_outs):
        ins = tuple(sorted(comp_ins.get(root, [])))
        outs = tuple(sorted(comp_outs.get(root, [])))
        if M.dim == 2:
            two_g = 2 - comp_chi.get(root, 0) - len(ins) - len(outs)
            assert two_g >= 0 and two_g % 2 == 0
            components.append(cb.ComponentClass(two_g // 2, ins, outs))
        else:
            assert len(ins) + len(outs) in (0, 2)
            components.append(cb.ComponentClass(None, ins, outs))
    components.sort(key=lambda c: (c.in_positions, c.out_positions,
                                   -1 if c.genus is None else c.genus))
    return cb.CobordismClass(M.dim, M.in_arity, M.out_arity, tuple(components))


def swap_heavy_word(rng, layers):
    """Dimension-2 word whose layers are mostly swaps, with a few patches."""
    width = rng.randrange(0, 7)
    rows = []
    for _ in range(layers):
        row, rem = [], width
        while rem > 0:
            if rem >= 2 and rng.random() < 0.7:
                g = "swap" if rng.random() < 0.85 else "pants"
            else:
                g = rng.choice(("id", "id", "cup", "copants"))
            row.append(g)
            rem -= cb.GENERATORS[g][1]
        if rng.random() < 0.2 or not row:
            row.append("cap")
        rows.append(tuple(row))
        width = sum(cb.GENERATORS[g][2] for g in row)
    return cb.CobordismWord(2, tuple(rows))


def long_word(rng, dim, generators):
    """Random words composed and tensored until the word has the given
    number of generators or more."""
    M = cb.random_word(rng, dim=dim)
    while sum(map(len, M.layers)) < generators:
        if rng.random() < 0.7:
            M = cb.compose(M, cb.random_word(rng, dim=dim, start_arity=M.out_arity))
        else:
            M = cb.tensor(M, cb.random_word(rng, dim=dim))
    return M


class TestSweepMatchesReference:
    @given(seeds, st.sampled_from([1, 2]), st.integers(min_value=0, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_random_words_and_rewrite_chains(self, seed, dim, rewrites):
        rng = random.Random(seed)
        M = cb.random_word(rng, dim=dim)
        for _ in range(rewrites):
            assert cb.normal_form(M) == normal_form_reference(M)
            M = cb.equivalent_rewrite(rng, M)
        assert cb.normal_form(M) == normal_form_reference(M)

    @given(seeds, st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_closed_words(self, seed, dim):
        rng = random.Random(seed)
        if dim == 2:
            M = cb.random_word_with_arities(rng, 0, 0)
        else:
            # dimension-1 generators keep the parity of the point count, so
            # a word from nothing ends on an even count, closed by acups
            M = cb.random_word(rng, dim=1, start_arity=0)
            closing = [("acup",) + ("pid",) * (n - 2) for n in range(M.out_arity, 0, -2)]
            M = cb.CobordismWord(1, M.layers + tuple(closing))
        assert M.in_arity == M.out_arity == 0
        assert cb.normal_form(M) == normal_form_reference(M)

    @given(seeds, st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_swap_heavy_words(self, seed, layers):
        M = swap_heavy_word(random.Random(seed), layers)
        assert cb.normal_form(M) == normal_form_reference(M)

    @given(seeds, st.sampled_from([1, 2]))
    @settings(max_examples=15, deadline=None)
    def test_words_of_a_thousand_generators(self, seed, dim):
        M = long_word(random.Random(seed), dim, 1000)
        assert sum(map(len, M.layers)) >= 1000
        assert cb.normal_form(M) == normal_form_reference(M)


def widths_reference(M):
    """Wire count at each boundary, summed from the generator table."""
    if not M.layers:
        return (0,)
    first_in = sum(cb.GENERATORS[g][1] for g in M.layers[0])
    return (first_in,) + tuple(sum(cb.GENERATORS[g][2] for g in layer) for layer in M.layers)


class TestWidths:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_words(self, seed):
        rng = random.Random(seed)
        for dim in (1, 2):
            M = cb.random_word(rng, dim=dim)
            assert M.widths == widths_reference(M)
            assert (M.in_arity, M.out_arity) == (M.widths[0], M.widths[-1])
            for i, layer in enumerate(M.layers):
                assert sum(cb.GENERATORS[g][1] for g in layer) == M.widths[i]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_word(self, dim):
        M = cb.empty_word(dim)
        assert M.widths == widths_reference(M) == (0,)
        assert (M.in_arity, M.out_arity) == (0, 0)

    def test_equality_hash_and_repr_ignore_widths(self):
        M = cb.parse_word("cap | cap ; pants")
        twin = cb.CobordismWord(2, M.layers)
        object.__setattr__(twin, "widths", (7, 7))
        assert twin == M and hash(twin) == hash(M)
        assert repr(twin) == repr(M) == f"CobordismWord(dim=2, layers={M.layers!r})"


class TestConstructionErrors:
    """Generators are checked left to right, each for being known and then
    for its dimension, before the layer's arity; layers go bottom up."""

    @pytest.mark.parametrize("dim,layers,error,message", [
        (3, (("bogus",),), ValueError, "dimension 3 not supported"),
        (2, (("cap",), ("pants", "bogus")), ValueError, "unknown generator 'bogus'"),
        (2, (("cap",), ("bogus", "pid")), ValueError, "unknown generator 'bogus'"),
        (2, (("cap",), ("pants", "pid", "bogus")), cb.WrongDimension,
         "generator 'pid' lives in dimension 1"),
        (1, (("acap",), ("cap", "pid")), cb.WrongDimension,
         "generator 'cap' lives in dimension 2"),
        (2, (("cap",), ("pants", "id")), cb.ArityMismatch,
         "layer expects 3 inputs but receives 1"),
        (2, (("cap",), ("pants",), ("bogus",)), cb.ArityMismatch,
         "layer expects 2 inputs but receives 1"),
        (1, (("acap",), ("acup",), ("pid",)), cb.ArityMismatch,
         "layer expects 1 inputs but receives 0"),
    ])
    def test_class_message_and_precedence(self, dim, layers, error, message):
        with pytest.raises(ValueError) as err:
            cb.CobordismWord(dim, layers)
        assert type(err.value) is error
        assert str(err.value) == message


class TestEquivalent:
    def test_cylinder_vs_genus_tube(self):
        tube = cb.parse_word("copants ; pants")
        assert cb.normal_form(cb.parse_word("id")) != cb.normal_form(tube)

    def test_swap_squared(self):
        twice = cb.parse_word("swap ; swap")
        assert cb.normal_form(twice) == cb.normal_form(cb.parse_word("id | id"))

    def test_reflexive(self):
        w = cb.parse_word("cap ; copants ; pants ; cup")
        assert cb.normal_form(w) == cb.normal_form(w)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_connected_classification_soundness(self, seed):
        """Connected words with one boundary circle each way and equal genus
        are equivalent regardless of how they were built."""
        rng = random.Random(seed)
        g = rng.randrange(0, 4)
        tube = [("copants",), ("pants",)] * g
        left = cb.CobordismWord(2, tuple(tube) or (("id",),))
        w = cb.parse_word("id")
        for _ in range(g):
            w = cb.compose(w, cb.parse_word("copants ; pants"))
        w = cb.equivalent_rewrite(rng, w)
        assert cb.normal_form(left) == cb.normal_form(w)


class TestDimensionOne:
    def test_circle(self):
        nf = cb.normal_form(cb.parse_word("acap ; acup", dim=1))
        assert nf.components == (cb.ComponentClass(None, (), ()),)
        assert nf.total_chi() == 0

    def test_arc(self):
        nf = cb.normal_form(cb.parse_word("acap", dim=1))
        assert nf.components == (cb.ComponentClass(None, (), (0, 1)),)
        assert nf.total_chi() == 1

    def test_point_identity(self):
        nf = cb.normal_form(cb.parse_word("pid | pid", dim=1))
        assert nf.components == (cb.ComponentClass(None, (0,), (0,)),
                                 cb.ComponentClass(None, (1,), (1,)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises((cb.WrongDimension, cb.WordSyntaxError)):
            cb.parse_word("cap ; pid")
        with pytest.raises(cb.WrongDimension):
            cb.compose(cb.parse_word("cap ; cup"), cb.parse_word("acap ; acup", dim=1))
