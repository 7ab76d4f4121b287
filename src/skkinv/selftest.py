"""The acceptance checks, run by `skkinv selftest` and by the acceptance tests.

Each check is a public function (of a seed, where it samples) that returns
a `CheckResult` with the first failure as its witness; it is written as a
generator of failure witnesses and made a check by `tqft.check`.
`run_selftest` runs all fourteen from one seed, and
`tests/test_acceptance.py` runs the same functions as criteria 01-13, so
the command and the tests verify the same claims. Library functions are
reached through their modules so that a test can plant a fault in one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import fixtures, intersection_form, simplicial, skk, surfaces as sf, tqft
from . import virtual_bordism as vb
from .cobordism import normal_form, parse_word, random_word_with_arities
from .tqft import InvertibleTQFT2, Report, check, exp_scalar, rational

_VALUES = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(5, 3))
# the 25 rational (cap, cup) points of the axiom grid
_GRID = tuple((a, e) for a in _VALUES for e in _VALUES)


@check
def homology_fixtures():
    for name, betti in (("sphere2", (1, 0, 1)), ("sphere3", (1, 0, 0, 1)),
                        ("torus7", (1, 2, 1))):
        got = simplicial.homology(fixtures.FIXTURES[name]()).betti
        if got != betti:
            yield f"{name}: {got} != {betti}"


@check
def sk_classification():
    s4 = skk.sk_class(fixtures.sphere4())
    if s4 != (1, 0):
        yield f"sphere4 -> {s4}"
    cp2 = fixtures.cp2_9()
    got = (simplicial.euler_characteristic(cp2), intersection_form.signature(cp2),
           skk.sk_class(cp2))
    if got != (3, 1, (1, 1)):
        yield f"cp2 (chi, sigma, class) -> {got}, expected (3, 1, (1, 1))"


@check
def i_n_table():
    expected = {1: "Z/2", 2: "Z", 3: "0", 4: "Z", 5: "Z/2", 6: "Z",
                7: "0", 8: "Z", 9: "Z/2", 10: "Z", 11: "0", 12: "Z"}
    for n, value in expected.items():
        if skk.i_n_table(n) != value:
            yield f"n={n}: {skk.i_n_table(n)} != {value}"


@check
def cutpaste_chi_invariance(seed: int):
    """200 random move sequences keep chi; closed endpoints are equivalent."""
    rng = random.Random(seed)
    for run in range(200):
        S = start = sf.random_surface(rng)
        for _ in range(rng.randrange(1, 13)):
            move = sf.random_move(rng, S)
            if move is None:
                break
            S = sf.apply_script(S, [move])
            if sf.chi(S) != sf.chi(start):
                yield f"run {run}: chi {sf.chi(S)} != {sf.chi(start)} after {move}"
        if start.is_closed and S.is_closed and not sf.sk_equivalent(start, S):
            yield f"run {run}: closed endpoints not equivalent"


def _random_cut_surface(rng, cuts: int) -> sf.Surface:
    S = sf.surface((rng.randrange(cuts, cuts + 3), 0))
    for _ in range(cuts):
        comp = rng.randrange(0, len(S.components))
        c = S.components[comp]
        if c.genus >= 1 and rng.random() < 0.7:
            S = sf.cut(S, sf.CutSpec(comp, sf.NonSeparating()))
        else:
            chosen = frozenset(x for x in c.circles if rng.random() < 0.5)
            S = sf.cut(S, sf.CutSpec(comp, sf.Separating(rng.randrange(0, c.genus + 1), chosen)))
    return S


@check
def skk_error_term(seed: int):
    """Differences of classes under two regluings agree across 500 piece pairs."""
    rng = random.Random(seed)
    for run in range(500):
        k = rng.randrange(1, 4)
        X, Y = _random_cut_surface(rng, k), _random_cut_surface(rng, k)
        positions = list(range(2 * k))
        rng.shuffle(positions)
        f = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]
        rng.shuffle(positions)
        g = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]

        def reglue_class(S, pairing):
            ids = S.circle_ids()
            glued = sf.paste(S, sf.PasteSpec(tuple((ids[a], ids[b]) for a, b in pairing)))
            return skk.skk_class(glued)

        diff_x = reglue_class(X, f) - reglue_class(X, g)
        diff_y = reglue_class(Y, f) - reglue_class(Y, g)
        if diff_x != diff_y:
            yield f"run {run}: differences {diff_x} != {diff_y}"


@check
def tqft_axiom_grid(seed: int):
    """The functor laws at each grid point i, on words of seed + i."""
    for i, (a, e) in enumerate(_GRID):
        report = tqft.verify_axioms(InvertibleTQFT2(rational(a), rational(e)),
                                    seed=seed + i, budget=200)
        for fail in report.failures():
            yield f"(a={a}, e={e}): {fail.name}: {fail.witness}"


@check
def closed_value_law(seed: int):
    """A closed word is worth psi(T) = cap*cup to the power chi/2 = sum of
    1 - genus, on 200 words at every grid point and at (3/2, 5/7)."""
    rng = random.Random(seed)
    words = [random_word_with_arities(rng, 0, 0) for _ in range(200)]
    exponents = [sum(1 - c.genus for c in normal_form(w).components) for w in words]
    for a, e in _GRID + ((Fraction(3, 2), Fraction(5, 7)),):
        T = InvertibleTQFT2(rational(a), rational(e))
        for w, exponent in zip(words, exponents):
            if tqft.evaluate(T, w) != skk.psi(T) ** exponent:
                yield f"(a={a}, e={e}): word {w.text()!r}"


@check
def kernel_theorem(seed: int):
    """(2, 1/2) is trivial on closed words but not on cap, and on the signed
    grid the kernel is where the positive restriction is trivial."""
    rng = random.Random(seed)
    T = InvertibleTQFT2(rational(2), rational(Fraction(1, 2)))
    for _ in range(100):
        w = random_word_with_arities(rng, 0, 0)
        if not tqft.evaluate(T, w).is_one:
            yield f"closed word {w.text()!r}"
    cap_value = tqft.evaluate(T, parse_word("cap"))
    if cap_value != rational(2):
        yield f"cap -> {cap_value}"
    kernel = skk.kernel_equals_sign_valued(skk.default_grid())
    if not kernel.passed:
        yield kernel.witness


@check
def boundary_dependence(seed: int):
    """Kernel TQFTs are trivial on closed words and depend on arities only."""
    for T in (InvertibleTQFT2(rational(2), rational(Fraction(1, 2))),
              InvertibleTQFT2(exp_scalar(Fraction(-3, 2)), exp_scalar(Fraction(3, 2))),
              InvertibleTQFT2(exp_scalar(Fraction(3, 2)), exp_scalar(Fraction(-3, 2)))):
        try:
            report = tqft.boundary_dependence_check(T, seed=seed, budget=100)
        except tqft.NotInKernel as exc:
            yield f"(cap={T.cap}, cup={T.cup}): {exc}"
            continue
        for fail in report.failures():
            yield f"(cap={T.cap}, cup={T.cup}): {fail.name}: {fail.witness}"


@check
def theta_multiplicativity(seed: int):
    """exp(chi) of a word's normal form is multiplicative under composition
    of dimension-2 words, which glue along circles; on dimension-1 words,
    which glue along points, it fails on two arcs glued to a circle, with
    exactly that witness."""
    dim2 = tqft.check_theta_defines_tqft(tqft.exp_chi_theta, 2, seed=seed, budget=300)
    if not dim2.passed:
        yield f"dimension 2 failed: {dim2.witness}"
    dim1 = tqft.check_theta_defines_tqft(tqft.exp_chi_theta, 1, seed=seed, budget=300)
    if dim1.witness != "two arcs glued to a circle: exp(1) * exp(1) != exp(0)":
        yield f"dimension 1 should fail on the arc gluing, got: {dim1.witness}"


@check
def lemma_relation(seed: int):
    """The three-piece relation for chi on pieces glued by `surfaces.paste`,
    300 triples; an orientable surface is its own reverse, so -X2 is X2."""
    rng = random.Random(seed)

    def glued_chi(X, Y):
        union = sf.surface(*((c.genus, len(c.circles)) for c in X.components + Y.components))
        ids = union.circle_ids()
        n = len(X.circle_ids())
        onto = list(ids[n:])
        rng.shuffle(onto)
        return sf.chi(sf.paste(union, sf.PasteSpec(tuple(zip(ids[:n], onto)))))

    for run in range(300):
        k = rng.randrange(1, 4)
        x1, x2, x3 = (_random_cut_surface(rng, k) for _ in range(3))
        lhs = glued_chi(x1, x2) + glued_chi(x2, x3)
        rhs = glued_chi(x1, x3) + glued_chi(x2, x2)
        if lhs != rhs:
            yield (f"run {run}: chi {lhs} != {rhs} for pieces {x1.as_multiset()},"
                   f" {x2.as_multiset()}, {x3.as_multiset()}")


@check
def split_sequence(seed: int):
    grid = skk.default_grid(4)
    if len(grid) != 9:
        yield f"default grid has {len(grid)} scalars, expected 9"
    for fail in skk.verify_split_sequence(grid=grid, seed=seed).failures():
        yield f"{fail.name}: {fail.witness}"


@check
def bsigma_demo():
    """The p2 catalog gives 1 and exp(10) under the two cappings of S7."""
    catalog = vb.dim8_catalog()
    p2 = (catalog.piece("CP4").attribute("p2"), catalog.piece("S8").attribute("p2"))
    if p2 != (10, 0):
        yield f"p2 of (CP4, S8) -> {p2}, expected (10, 0)"
    disk_value, cp_value = skk.b_sigma_dependence_demo(catalog)
    if str(disk_value) != "1" or str(cp_value) != "exp(10)":
        yield f"got ({disk_value}, {cp_value})"
    if not skk.attribute_invariant("p2", catalog)(catalog.piece("S8")).is_one:
        yield "sphere value differs from 1"


@check
def negative_controls(seed: int):
    """The corrupted TQFT and the corrupted splitting are caught, with witnesses."""
    bad = tqft.corrupted_tqft(InvertibleTQFT2(rational(2), rational(3)))
    if not any(c.witness for c in tqft.verify_axioms(bad, seed=seed, budget=100).failures()):
        yield "corrupted TQFT passed the axioms"
    identity = skk.verify_split_sequence(seed=seed, splitting=skk.corrupted_splitting).checks[2]
    if identity.passed or identity.name != "restriction_after_splitting_is_identity":
        yield f"corrupted splitting: check {identity.name} passed={identity.passed}"


def run_selftest(seed: int = 0) -> Report:
    return Report((
        homology_fixtures(),
        sk_classification(),
        i_n_table(),
        cutpaste_chi_invariance(seed),
        skk_error_term(seed + 1),
        tqft_axiom_grid(seed + 2),
        closed_value_law(seed + 3),
        kernel_theorem(seed + 4),
        boundary_dependence(seed + 5),
        theta_multiplicativity(seed + 6),
        lemma_relation(seed + 7),
        split_sequence(seed + 8),
        bsigma_demo(),
        negative_controls(seed + 9),
    ))
