"""Crossed extensions, the quotient construction, and the nu invariant."""
from __future__ import annotations

import dataclasses
import random

import pytest

from quadalg import crossed
from quadalg.abelian import FgAbGroup
from quadalg.crossed import (
    MAX_WORD_PAIRS,
    Mod2WordsCarrier,
    PullbackCarrier,
    ZtildePairsCarrier,
    cyclic_ring_extension,
    linearly_generated,
    nu_class,
    pullback_extension,
    verify_crossed,
    ztilde_construction,
)
from quadalg.errors import (
    NotASquareRing,
    NotSurjective,
    PullbackDegenerate,
    TooLarge,
)
from quadalg.nil2 import (
    DirectSumCarrier,
    FreePairsCarrier,
    SgMorphism,
    qpm_verify,
    square_group_verify,
)
from quadalg.sqring import cyclic_ring, znil, znil_monoid


def augmentation() -> SgMorphism:
    """Sum of coefficients, from the word model down to the integers."""
    return SgMorphism(
        e=lambda x: (sum(n for _, n in x.linear),),
        ee=lambda a: (sum(n for _, n in a),),
        name="augmentation",
    )


class TestCyclicExtensions:
    @pytest.mark.parametrize("m,d", [(4, 2), (2, 0), (9, 3)])
    def test_verifies(self, m, d):
        report = verify_crossed(cyclic_ring_extension(m, d), samples=300, seed=0)
        assert report.passed, report.render()

    @pytest.mark.parametrize("samples", [0, -5])
    def test_refuses_fewer_than_one_sample(self, samples):
        # the carriers are enumerated, but a count below one is still refused
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            verify_crossed(cyclic_ring_extension(4, 2), samples)

    def test_check_count_is_stable(self):
        report = verify_crossed(cyclic_ring_extension(4, 2), samples=120, seed=0)
        assert report.passed
        assert len(report.checks) == 73

    def test_module_and_quotient_sizes(self):
        ext = cyclic_ring_extension(4, 2)
        assert ext.kind == "ring"
        assert ext.module.describe() == "Z/2"
        assert ext.quot.carrier.describe() == "Z/2"
        assert cyclic_ring_extension(9, 3).module.describe() == "Z/3"
        assert cyclic_ring_extension(2, 0).module.describe() == "Z/2"

    @pytest.mark.parametrize("m,d", [(4, 2), (2, 0), (9, 3)])
    def test_nu_vanishes_on_ordinary_rings(self, m, d):
        result = nu_class(cyclic_ring_extension(m, d))
        assert result.is_zero
        assert result.order == 1
        assert result.is_invariant
        assert result.describe() == "nu = 0"

    def test_a_colliding_include_is_a_failed_check(self):
        ext = cyclic_ring_extension(4, 2)
        collapsed = dataclasses.replace(ext, include=lambda m: ext.c1.zero())
        report = verify_crossed(collapsed, samples=120, seed=0)
        check = next(c for c in report.checks if c.name == "include injective")
        assert (check.ok, check.witness) == (False, "(1,) and (0,) collide")

    def test_a_quotient_the_linear_elements_miss(self):
        ext = cyclic_ring_extension(4, 2)
        zero = ext.quot.carrier.zero()
        crushed = dataclasses.replace(ext, quot=dataclasses.replace(ext.quot, q=lambda x: zero))
        assert linearly_generated(crushed) == (False, "quotient by the image is Z/2")

    def test_generation_is_decided_on_integer_carriers_only(self):
        ext = cyclic_ring_extension(4, 2)
        pairs = DirectSumCarrier(ext.quot.carrier, ext.quot.carrier)
        other = dataclasses.replace(ext, quot=dataclasses.replace(ext.quot, carrier=pairs))
        assert linearly_generated(other) == (
            False, "cannot decide generation for DirectSumCarrier"
        )

    def test_pair_module_view_verifies(self):
        report = qpm_verify(cyclic_ring_extension(4, 2).qpm(), samples=200, seed=1)
        assert report.passed, report.render()


@pytest.fixture(scope="module")
def integer_ztilde():
    return ztilde_construction(znil())


@pytest.fixture(scope="module")
def word_ztilde():
    return ztilde_construction(znil_monoid(["s"], length_bound=6, sample_length=2))


@pytest.fixture(scope="module")
def pullback_parts():
    base = ztilde_construction(znil())
    ring_new = znil_monoid(["s"], length_bound=6, sample_length=2)
    section = lambda n: ring_new.e.make({(): n[0]}, {})
    return base, ring_new, section


@pytest.fixture(scope="module")
def pulled(pullback_parts):
    base, ring_new, section = pullback_parts
    return pullback_extension(base, ring_new, augmentation(), section,
                              samples=150, seed=5)


class TestZtildeOverIntegers:
    @pytest.fixture
    def ext(self, integer_ztilde):
        return integer_ztilde

    def test_verifies(self, ext):
        report = verify_crossed(ext, samples=200, seed=0)
        assert report.passed, report.render()

    def test_shape(self, ext):
        assert ext.kind == "csr"
        assert ext.name == "ztilde(znil)"
        assert ext.c1.describe() == "Z/2"
        assert ext.module.describe() == "Z/2"

    def test_nu_generates_the_kernel(self, ext):
        result = nu_class(ext)
        assert not result.is_zero
        assert result.order == 2
        assert result.is_invariant
        assert result.module_factors == (2,)
        assert result.generates_module
        assert result.describe() == "nu = 1 in Z/2: generator"

    def test_linear_elements_generate_the_quotient(self, ext):
        ok, witness = linearly_generated(ext)
        assert ok, witness

    def test_fibre_is_a_square_group(self, ext):
        report = square_group_verify(ext.qpm().level1(), samples=150, seed=2)
        assert report.passed, report.render()


class TestZtildeOverWords:
    @pytest.fixture
    def ext(self, word_ztilde):
        return word_ztilde

    def test_verifies(self, ext):
        report = verify_crossed(ext, samples=120, seed=3)
        assert report.passed, report.render()

    def test_nu_survives_the_word_model(self, ext):
        result = nu_class(ext, samples=120, seed=0)
        assert not result.is_zero
        assert result.order == 2
        assert result.is_invariant

    def test_linear_elements_generate_the_quotient(self, ext):
        ok, witness = linearly_generated(ext)
        assert ok, witness

    def test_short_samples_fit_a_tight_bound(self):
        # length bound 3 admits triple products of one-letter words only
        ext = ztilde_construction(znil_monoid(["s"], 3, sample_length=1))
        report = verify_crossed(ext, samples=120, seed=0)
        assert report.passed, report.render()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_samples_draw_the_words_up_to_the_sample_length(self, k):
        ext = ztilde_construction(znil_monoid(["s"], 3 * k, sample_length=k), samples=30)
        rng = random.Random(k)
        words_of = {
            "c0": lambda x: [w for w, _ in x.linear] + [w for p, _ in x.comm for w in p],
            "cee": lambda a: [w for p, _ in a for w in p],
            "c1": lambda r: [w for p, _ in r[0] for w in p] + list(r[1]),
            "module": list,
        }
        for name, words in words_of.items():
            carrier = getattr(ext, name)
            drawn = [w for _ in range(100) for w in words(carrier.sample(rng))]
            # every carrier draws from the ring's pool: all words up to length k
            assert max(map(len, drawn), default=-1) == k, name

    def test_word_pair_guard_comes_before_the_ring_checks(self, monkeypatch):
        class Checked(Exception):
            pass

        def verify_ring(R, samples, seed):
            raise Checked

        monkeypatch.setattr(crossed, "verify_ring", verify_ring)
        # 129 words, one over the bound, are refused before any check
        assert 128**2 <= MAX_WORD_PAIRS < 129**2
        with pytest.raises(TooLarge, match="129 words give more than 16384 word pairs"):
            ztilde_construction(znil_monoid(["s"], 128))
        # the largest word model in use, 127 words, goes on to the checks
        with pytest.raises(Checked):
            ztilde_construction(znil_monoid(["s", "t"], 6))

    def test_the_lift_is_the_made_pair_element(self):
        # the lift hands its pairs on without ``make``, in ``make``'s order
        ee = znil_monoid(["s", "t"], 6).ee
        c1 = ZtildePairsCarrier(ee, Mod2WordsCarrier(ee))
        rng = random.Random(5)
        mixed = 0
        for _ in range(300):
            el = c1.add(c1.sample(rng), ((), c1.right.sample(rng)))
            made = ee.make({**dict(el[0]), **{(w, w): 1 for w in el[1]}})
            assert tuple(c1.lift(el)) == made
            assert c1.reduce(dict(made)) == el
            mixed += bool(el[0]) and bool(el[1])
        assert mixed > 50

    def test_diagonal_classes_are_listed_up_to_twelve_words(self):
        words = [("s",) * k for k in range(13)]
        assert len(Mod2WordsCarrier(FreePairsCarrier(words[:12], [])).elements()) == 2**12
        with pytest.raises(TooLarge, match=r"2\^13 subsets exceed the bound"):
            Mod2WordsCarrier(FreePairsCarrier(words, [])).elements()

    def test_a_missing_word_is_the_free_quotient(self):
        ext = ztilde_construction(znil_monoid(["s"], 3, sample_length=1))
        q = ext.quot.q
        dropped = lambda x: tuple(t for t in q(x) if t[0] != ("s",))
        broken = dataclasses.replace(ext, quot=dataclasses.replace(ext.quot, q=dropped))
        assert linearly_generated(broken) == (False, "quotient by the image is Z")

    def test_rejects_a_broken_ring(self):
        broken = dataclasses.replace(znil(), H=lambda x: (x[0] * x[0],))
        with pytest.raises(NotASquareRing):
            ztilde_construction(broken)


class TestPullback:
    @pytest.fixture
    def parts(self, pullback_parts):
        return pullback_parts

    def test_verifies(self, pulled):
        report = verify_crossed(pulled, samples=120, seed=6)
        assert report.passed, report.render()

    def test_nu_keeps_its_order_but_loses_the_finite_module(self, pulled):
        result = nu_class(pulled, samples=150, seed=1)
        assert not result.is_zero
        assert result.order == 2
        assert result.is_invariant
        assert result.module_factors is None
        assert result.describe() == "nu has order 2"

    def test_preserves_linear_generation(self, pulled):
        ok, witness = linearly_generated(pulled)
        assert ok, witness

    def test_rejects_a_section_that_misses(self, parts):
        base, ring_new, _ = parts
        stuck = lambda n: ring_new.e.make({(): 0}, {})
        with pytest.raises(NotSurjective, match="section misses"):
            pullback_extension(base, ring_new, augmentation(), stuck,
                               samples=80, seed=5)

    def test_rejects_an_incompatible_morphism(self, parts):
        base, ring_new, section = parts
        crushed = SgMorphism(
            e=lambda x: (sum(n for _, n in x.linear),),
            ee=lambda a: (0,),
            name="crushed augmentation",
        )
        with pytest.raises(PullbackDegenerate, match="H images disagree"):
            pullback_extension(base, ring_new, crushed, section,
                               samples=80, seed=5)


class TestFinitePullback:
    @pytest.fixture(scope="class")
    def ext(self):
        identity = SgMorphism(e=lambda x: x, ee=lambda a: a, name="identity")
        return pullback_extension(cyclic_ring_extension(4, 2), cyclic_ring(4), identity,
                                  lambda c: c)

    def test_c1_is_the_matching_pairs(self, ext):
        assert ext.c1.elements() == [((0,), (0,)), ((1,), (2,)), ((2,), (0,)), ((3,), (2,))]

    def test_candidate_pairs_are_bounded_before_matching(self):
        def matches(c, w):
            raise AssertionError("a candidate pair was matched")

        c1 = PullbackCarrier(FgAbGroup((64,)), FgAbGroup((128,)), matches, None)
        with pytest.raises(TooLarge, match="direct sum has 8192 elements, bound 4096"):
            c1.elements()

    def test_verifies_exhaustively(self, ext, monkeypatch):
        def no_sampling(self, rng):
            raise AssertionError("a finite carrier was sampled")

        monkeypatch.setattr(PullbackCarrier, "sample", no_sampling)
        monkeypatch.setattr(FgAbGroup, "sample", no_sampling)
        report = verify_crossed(ext, samples=50, seed=0)
        assert report.passed, report.render()
        assert len(report.checks) == 73 and not report.notes

    def test_nu_sees_the_finite_module(self, ext):
        result = nu_class(ext)
        assert result.is_zero
        assert result.module_factors == (2,)
