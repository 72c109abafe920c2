"""Carriers, square groups, and the structure identities they force."""
from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.abelian import FgAbGroup, smith, from_columns
from quadalg.errors import BasisMismatch, NotFinite
from quadalg import nil2
from quadalg.nil2 import (
    Carrier,
    DirectSumCarrier,
    FreeAbelianCarrier,
    FreeNil2Carrier,
    FreePairsCarrier,
    SquareGroup,
    counterexample,
    square_group_verify,
    _tuples,
)
from quadalg.crossed import Mod2WordsCarrier
from quadalg.sqring import _shortlex_words, verify_ring, znil, znil_monoid

from .oracles import ReferenceWordMake, reference_counterexample, reference_tuples


def mod4_square_group() -> SquareGroup:
    """Z/4 with quadratic part Z/2, H the binomial coefficient, P zero."""
    return SquareGroup(
        e=FgAbGroup((4,)),
        ee=FgAbGroup((2,)),
        H=lambda x: ((x[0] * (x[0] - 1) // 2) % 2,),
        P=lambda a: (0,),
        name="Z/4 with binomial H",
    )


class TestFreeNil2Carrier:
    def test_normal_form_and_commutator(self):
        c = FreeNil2Carrier(["s", "t"], ["s", "t"])
        s, t = c.atom("s"), c.atom("t")
        assert c.add(t, s).linear == (("s", 1), ("t", 1))
        assert c.add(t, s).comm == ((("s", "t"), 1),)
        assert c.commutator(t, s).comm == ((("s", "t"), -1),)
        assert c.add(s, c.neg(s)) == c.zero()

    def test_group_laws_on_samples(self):
        c = FreeNil2Carrier(["s", "t", "u"], ["s", "t", "u"])
        rng = random.Random(0)
        for _ in range(300):
            x, y, z = c.sample(rng), c.sample(rng), c.sample(rng)
            assert c.add(c.add(x, y), z) == c.add(x, c.add(y, z))
            assert c.add(x, c.neg(x)) == c.zero()
            k = c.commutator(x, y)
            assert c.add(k, z) == c.add(z, k)

    def test_make_rejects_unknown_symbols(self):
        c = FreeNil2Carrier(["s"], ["s"])
        with pytest.raises(BasisMismatch):
            c.make({"t": 1})
        with pytest.raises(NotFinite):
            c.elements()

    def test_unordered_pairs_rejected(self):
        c = FreeNil2Carrier(["s", "t"], ["s", "t"])
        with pytest.raises(BasisMismatch):
            c.make({}, {("t", "s"): 1})


class TestCommutatorSubgroupSequence:
    """The free class-two group on n generators sits between the exterior
    square and the free abelian group: commutators inject with the linear
    quotient free of rank n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutators_embed_the_exterior_square(self, n):
        syms = [f"g{i}" for i in range(n)]
        c = FreeNil2Carrier(syms, syms)
        pairs = [(u, v) for i, u in enumerate(syms) for v in syms[i + 1 :]]
        cols = []
        for u, v in pairs:
            k = c.commutator(c.atom(u), c.atom(v))
            assert k.linear == ()
            coeffs = k.comm_dict()
            cols.append([coeffs.get(p, 0) for p in pairs])
        if not pairs:
            return
        diag = smith(from_columns(cols, len(pairs))).diagonal
        assert all(abs(d) == 1 for d in diag)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernel_of_abelianization_is_the_commutator_part(self, n):
        syms = [f"g{i}" for i in range(n)]
        c = FreeNil2Carrier(syms, syms)
        rng = random.Random(n)
        for _ in range(200):
            x, y = c.sample(rng), c.sample(rng)
            s = c.add(x, y)
            assert s.linear_dict() == {
                k: v
                for k, v in (
                    (k, x.linear_dict().get(k, 0) + y.linear_dict().get(k, 0))
                    for k in set(x.linear_dict()) | set(y.linear_dict())
                )
                if v
            }
            if x.linear == ():
                assert c.add(x, y) == c.add(y, x)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_commutator_pairing_factors_through_the_abelianization(self, n):
        syms = [f"g{i}" for i in range(n)]
        c = FreeNil2Carrier(syms, syms)
        rng = random.Random(7 * n)
        for _ in range(120):
            x, y = c.sample(rng), c.sample(rng)
            k = c.commutator(x, y)
            expected = {}
            lx, ly = x.linear_dict(), y.linear_dict()
            for i, u in enumerate(syms):
                for v in syms[i + 1 :]:
                    val = lx.get(u, 0) * ly.get(v, 0) - lx.get(v, 0) * ly.get(u, 0)
                    if val:
                        expected[(u, v)] = val
            assert k.comm_dict() == expected
            assert k.linear == ()


class TestSquareGroupVerify:
    def test_integer_model_passes(self):
        report = square_group_verify(znil().square_group, samples=400, seed=0)
        assert report.passed, report.render()

    def test_word_model_passes(self):
        sg = znil_monoid(["s", "t"], length_bound=4, sample_length=1).square_group
        report = square_group_verify(sg, samples=250, seed=1)
        assert report.passed, report.render()

    def test_binomial_fixture_passes_exhaustively(self):
        report = square_group_verify(mod4_square_group(), samples=50, seed=0)
        assert report.passed, report.render()

    @pytest.mark.parametrize("samples", [0, -5])
    def test_refuses_fewer_than_one_sample(self, samples):
        # the laws on Z would otherwise pass without a single tuple drawn
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            square_group_verify(znil().square_group, samples)

    def test_broken_p_is_caught_with_witness(self):
        sg = mod4_square_group()
        bad = SquareGroup(e=sg.e, ee=sg.ee, H=sg.H, P=lambda a: ((2 * a[0]) % 4,))
        report = square_group_verify(bad, samples=50, seed=0)
        assert not report.passed
        failure = report.first_failure()
        assert failure.name == "P(x|y)_H = [x,y]"
        assert failure.witness


@pytest.fixture(scope="module")
def sg():
    return znil_monoid(["s", "t"], length_bound=4, sample_length=1).square_group


class TestDerivedIdentities:
    """Consequences of the three axioms, checked on a word model where
    nothing collapses."""

    def _pairs(self, sg, count, seed):
        rng = random.Random(seed)
        return [(sg.e.sample(rng), sg.e.sample(rng)) for _ in range(count)]

    def test_t_is_an_involution(self, sg):
        rng = random.Random(2)
        for _ in range(150):
            a = sg.ee.sample(rng)
            assert sg.tmap(sg.tmap(a)) == a

    def test_cross_effect_symmetry(self, sg):
        for x, y in self._pairs(sg, 150, 3):
            assert sg.cross(y, x) == sg.ee.neg(sg.tmap(sg.cross(x, y)))

    def test_cross_effect_kills_p_on_the_right(self, sg):
        rng = random.Random(4)
        for _ in range(150):
            y, a = sg.e.sample(rng), sg.ee.sample(rng)
            assert sg.ee.is_zero(sg.cross(y, sg.P(a)))

    def test_h_shifts_by_central_values(self, sg):
        rng = random.Random(5)
        for _ in range(150):
            w, c = sg.e.sample(rng), sg.ee.sample(rng)
            lhs = sg.H(sg.e.add(w, sg.P(c)))
            rhs = sg.ee.add(sg.H(w), sg.ee.add(c, sg.tmap(c)))
            assert lhs == rhs

    def test_h_on_negation_and_multiples(self, sg):
        rng = random.Random(6)
        for _ in range(100):
            x = sg.e.sample(rng)
            assert sg.H(sg.e.neg(x)) == sg.ee.sub(sg.cross(x, x), sg.H(x))
            for n in (2, 3, -2):
                lhs = sg.H(sg.e.scalar(n, x))
                rhs = sg.ee.add(
                    sg.ee.scalar(n, sg.H(x)),
                    sg.ee.scalar(n * (n - 1) // 2, sg.cross(x, x)),
                )
                assert lhs == rhs

    def test_commutators_land_in_p_of_cross(self, sg):
        for z, w in self._pairs(sg, 150, 7):
            lhs = sg.e.add(z, w)
            rhs = sg.e.add(sg.e.add(w, z), sg.P(sg.cross(z, w)))
            assert lhs == rhs

    def test_delta_is_additive_and_t_negates_it(self, sg):
        rng = random.Random(8)
        for _ in range(100):
            x, y = sg.e.sample(rng), sg.e.sample(rng)
            assert sg.delta(sg.e.add(x, y)) == sg.ee.add(sg.delta(x), sg.delta(y))
            assert sg.tmap(sg.delta(x)) == sg.ee.neg(sg.delta(x))


class TestSmallCarrierUtilities:
    def test_direct_sum_and_free_abelian(self):
        d = DirectSumCarrier(FgAbGroup((2,)), FgAbGroup((3,)))
        a = ((1,), (2,))
        assert d.add(a, a) == ((0,), (1,))
        assert d.neg(a) == ((1,), (1,))
        f = FreeAbelianCarrier(["s", "t"], ["s", "t"])
        assert f.add(f.atom("s"), f.atom("s", -1)) == f.zero()

    def test_free_pairs_carrier(self):
        c = FreePairsCarrier(["s", "t"], ["s", "t"])
        v = c.add(c.pair("s", "t"), c.pair("t", "s", 2))
        assert dict(v) == {("s", "t"): 1, ("t", "s"): 2}
        with pytest.raises(BasisMismatch):
            c.make({("s", "u"): 1})


def _outcome(make, *args):
    """What ``make(*args)`` returns, or the type and message it raises."""
    try:
        return make(*args)
    except BasisMismatch as exc:
        return (type(exc), str(exc))


@st.composite
def word_carrier_input(draw):
    """Distinct symbols and coefficient dicts over them, zero coefficients
    included; a key is now and then a symbol outside the list."""
    symbols = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
    letter = st.sampled_from(symbols + ["?"]) if draw(st.booleans()) else st.sampled_from(symbols)
    coeff = st.integers(-3, 3)
    linear = draw(st.dictionaries(letter, coeff, max_size=6))
    pairs = draw(st.dictionaries(st.tuples(letter, letter), coeff, max_size=6))
    return symbols, linear, pairs


class TestOnePassMake:
    """The carriers' ``make`` against the frozen copies in ``ReferenceWordMake``."""

    @settings(max_examples=300, deadline=None)
    @given(word_carrier_input())
    def test_make_matches_the_reference(self, case):
        symbols, linear, pairs = case
        ref = ReferenceWordMake(symbols)
        ordered = {p: n for p, n in pairs.items() if p[0] in symbols and p[1] in symbols
                   and symbols.index(p[0]) < symbols.index(p[1])}
        nil2 = FreeNil2Carrier(symbols, symbols)
        for comm in (pairs, ordered):
            assert _outcome(nil2.make, linear, comm) == _outcome(ref.nil2_make, linear, comm)
        assert _outcome(nil2.make, linear) == _outcome(ref.nil2_make, linear)
        abelian = FreeAbelianCarrier(symbols, symbols)
        assert _outcome(abelian.make, linear) == _outcome(ref.abelian_make, linear)
        free_pairs = FreePairsCarrier(symbols, symbols)
        assert _outcome(free_pairs.make, pairs) == _outcome(ref.pairs_make, pairs)

    def test_errors_keep_their_messages(self):
        c = FreeNil2Carrier(["s", "t"], ["s", "t"])
        with pytest.raises(BasisMismatch, match=r"^unknown symbol 'u'$"):
            c.make({"s": 0, "u": 1})
        with pytest.raises(BasisMismatch, match=r"^unknown symbol pair \('s', 'u'\)$"):
            c.make({}, {("s", "u"): 0})
        with pytest.raises(BasisMismatch, match=r"^pair \('t', 's'\) is not strictly ordered$"):
            c.make({"s": 1}, {("s", "t"): 1, ("t", "s"): 0})
        with pytest.raises(BasisMismatch, match=r"^unknown symbol 'u'$"):
            FreeAbelianCarrier(["s"], ["s"]).make({"s": 1, "u": 0})
        with pytest.raises(BasisMismatch, match=r"^unknown symbol pair \('u', 's'\)$"):
            FreePairsCarrier(["s"], ["s"]).make({("u", "s"): 0})


# 31 words of length at most 2 on five letters: more than the 21 pool
# items up to which ``random.Random.sample`` draws from a shrinking copy
WORDS = _shortlex_words(list("abcde"), 2)

SAMPLED_CARRIERS = [FgAbGroup(factors) for factors in [(0,), (0, 0), (2, 6), (3, 0), (), (5,)]] + [
    FreeNil2Carrier(["s", "t"], ["s", "t"]),
    FreeNil2Carrier(WORDS, WORDS),
    FreeAbelianCarrier(["s", "t", "u"], ["s", "t"]),
    FreePairsCarrier(["s", "t", "u"], ["s", "t"]),
    Mod2WordsCarrier(FreePairsCarrier(WORDS, WORDS)),
]


class TestFlatSampling:
    """The law driver's ``_tuples`` against the frozen copy in ``reference_tuples``."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(SAMPLED_CARRIERS), max_size=3),
        st.integers(0, 2**64),
        st.integers(0, 20),
    )
    def test_tuples_match_the_reference(self, carriers, seed, samples):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        want = reference_tuples(carriers, samples, ref_rng)
        assert list(_tuples(carriers, samples, rng)) == want
        assert rng.getstate() == ref_rng.getstate()

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([[FgAbGroup((0,))] * 3, [FgAbGroup((5,)), FgAbGroup((0,))],
                         [FgAbGroup((97,)), FgAbGroup((89,))]]),
        st.integers(0, 2**64),
        st.integers(0, 300),
    )
    def test_one_coordinate_slots_match_the_reference(self, groups, seed, samples):
        """Slots of one coordinate, on both sides of the sample count (the
        slots' total width) from which each element comes from a table."""
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert list(_tuples(groups, samples, rng)) == reference_tuples(groups, samples, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


class TestDistinctTuples:
    """``counterexample`` against the frozen driver in ``reference_counterexample``."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(SAMPLED_CARRIERS), max_size=3),
        st.integers(0, 2**64),
        st.integers(1, 20),
        st.integers(1, 8),
        st.booleans(),
    )
    def test_driver_matches_the_reference(self, carriers, seed, samples, modulus, raising):
        """The same witness, exception and final stream; ``holds`` fails
        (or raises) on the tuples whose CRC is a multiple of ``modulus``."""
        def run(driver):
            calls = []

            def holds(*t):
                calls.append(t)
                if zlib.crc32(repr(t).encode()) % modulus:
                    return True
                if raising:
                    raise ArithmeticError(repr(t))
                return False

            rng = random.Random(seed)
            try:
                outcome = driver(carriers, holds, samples, rng)
            except ArithmeticError as exc:
                outcome = ("raised", str(exc))
            return outcome, rng.getstate(), calls

        got, state, calls = run(counterexample)
        want, ref_state, ref_calls = run(reference_counterexample)
        assert got == want
        assert state == ref_state
        assert calls == list(dict.fromkeys(ref_calls))

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("carriers", [[FgAbGroup((0,))], [FgAbGroup((2,))], []],
                             ids=["sampled", "enumerated", "empty"])
    def test_refuses_fewer_than_one_sample_before_any_draw(self, carriers, samples):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            counterexample(carriers, lambda *t: True, samples, rng)
        assert rng.getstate() == state

    def test_znil_checks_each_distinct_tuple_once(self, monkeypatch):
        calls = 0

        def counting(carriers, holds, samples, rng):
            def counted(*t):
                nonlocal calls
                calls += 1
                return holds(*t)
            return counterexample(carriers, counted, samples, rng)

        monkeypatch.setattr(nil2, "counterexample", counting)
        assert verify_ring(znil(), 3000, seed=0).passed
        assert calls == 47_160  # of 32 laws x 3000 = 96,000 tuples drawn


WORD_CARRIERS = [
    FreeAbelianCarrier(["s", "t", "u"], ["s", "t", "u"]),
    FreePairsCarrier(["s", "t", "u"], ["s", "t", "u"]),
    FreeNil2Carrier(["s", "t", "u"], ["s", "t", "u"]),
]


class TestOnePassArithmetic:
    """The word carriers' ``sum`` and ``sub`` against ``Carrier``'s folds."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WORD_CARRIERS), st.integers(0, 2**32), st.integers(0, 6),
           st.integers(0, 4))
    def test_sum_and_sub_match_the_folds(self, car, seed, count, at):
        rng = random.Random(seed)
        xs = [car.sample(rng) for _ in range(count)]
        if count >= 2:  # a pair x, -x that cancels
            at %= count - 1
            xs[at + 1] = car.neg(xs[at])
        assert car.sum(iter(xs)) == Carrier.sum(car, xs)
        for a in xs:
            for b in xs:
                assert car.sub(a, b) == Carrier.sub(car, a, b)
