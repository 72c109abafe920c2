"""Square rings, quadratic rings, and the free word models."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.errors import IllDefinedMultiplication, NotAQuadraticRing, TooLarge
from quadalg.abelian import FgAbGroup
from quadalg.sqring import (
    QuadraticRing,
    SquareRing,
    ad_ring,
    cyclic_ring,
    forget_U,
    linear_elements,
    verify_ring,
    znil,
    znil_monoid,
)

from .oracles import monoid_mul_reference


class TestZnil:
    def test_square_ring_laws_hold_under_heavy_sampling(self):
        report = verify_ring(znil(), samples=10000, seed=0)
        assert report.passed, report.render()

    def test_quadratic_ring_packaging_agrees(self):
        report = verify_ring(znil("quadratic"), samples=2000, seed=1)
        assert report.passed, report.render()

    def test_structure_values(self):
        R = znil()
        assert R.H((4,)) == (6,)
        assert R.H((-2,)) == (3,)
        assert R.mul((3,), (5,)) == (15,)
        assert R.act_pair((2,), (3,), (5,)) == (30,)
        assert R.two() == (2,)
        assert R.H(R.two()) == (1,)
        assert R.square_group.cross((3,), (5,)) == (15,)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown ring kind"):
            znil("cubic")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_refuses_fewer_than_one_sample(self, samples):
        # every law on Z would otherwise pass without a single tuple drawn
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            verify_ring(znil(), samples)


class TestCyclicRing:
    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("kind", ["square", "quadratic"])
    def test_laws_hold_exhaustively(self, n, kind):
        report = verify_ring(cyclic_ring(n, kind), samples=400, seed=0)
        assert report.passed, report.render()

    def test_trivial_modulus_collapses(self):
        R = cyclic_ring(1)
        assert R.one == R.e.zero() == ()
        assert R.mul((), ()) == ()

    def test_arithmetic_is_modular(self):
        R = cyclic_ring(4)
        assert R.mul((3,), (3,)) == (1,)
        assert R.e.add((3,), (2,)) == (1,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="modulus must be positive"):
            cyclic_ring(0)
        with pytest.raises(ValueError, match="unknown ring kind"):
            cyclic_ring(4, kind="cubic")


class TestWordModel:
    @pytest.mark.parametrize("kind", ["square", "quadratic"])
    def test_two_symbol_model_passes(self, kind):
        R = znil_monoid(["s", "t"], length_bound=4, kind=kind, sample_length=1)
        report = verify_ring(R, samples=400, seed=1)
        assert report.passed, report.render()

    def test_one_symbol_model_passes_with_longer_samples(self):
        R = znil_monoid(["s"], length_bound=6, sample_length=2)
        report = verify_ring(R, samples=300, seed=2)
        assert report.passed, report.render()

    def test_multiplication_concatenates_words(self):
        R = znil_monoid(["s", "t"], length_bound=4, sample_length=1)
        x = R.e.atom(("s",))
        y = R.e.atom(("t",))
        assert R.mul(x, y) == R.e.atom(("s", "t"))
        assert R.mul(R.one, x) == x
        assert R.square_group.cross(x, y) == R.ee.pair(("t",), ("s",))

    def test_overflowing_products_raise(self):
        R = znil_monoid(["s", "t"], length_bound=4, sample_length=1)
        long_left = R.e.atom(("s", "s"))
        long_right = R.e.atom(("t", "t", "t"))
        with pytest.raises(TooLarge, match="length 5 exceeds the bound 4"):
            R.mul(long_left, long_right)

    @pytest.mark.parametrize("site, length", [
        ("mul row", 6),
        ("mul central part of y", 5),
        ("mul central part of x", 5),
        ("eemul first word", 5),
        ("eemul second word", 6),
        ("act_pair", 5),
        ("act_right", 5),
    ])
    def test_an_overflow_names_the_first_word_past_the_bound(self, site, length):
        # the words are formed by ``+`` and only re-formed by ``concat`` past
        # the bound; the message names the first overflowing word ``concat``
        # met when it formed every word, as pinned before that change
        R = znil_monoid(["s", "t"], length_bound=4, sample_length=1)
        e, ee, w = R.e, R.ee, tuple
        products = {
            "mul row": lambda: R.mul(e.atom(w("sss")), e.make({w("t"): 1, w("ttt"): 1})),
            "mul central part of y":
                lambda: R.mul(e.atom(w("ss")), e.make({w("t"): 1}, {(w("t"), w("ttt")): 1})),
            "mul central part of x":
                lambda: R.mul(e.make({}, {(w("s"), w("sss")): 1}), e.atom(w("tt"))),
            "eemul first word":
                lambda: R.eemul(ee.pair(w("ss"), w("tt")), ee.pair(w("ttt"), w("ssss"))),
            "eemul second word":
                lambda: R.eemul(ee.pair(w("s"), w("tt")), ee.pair(w("tt"), w("ssss"))),
            "act_pair": lambda: R.act_pair(e.atom(w("ss")), e.atom(w("t")), ee.pair((), w("tttt"))),
            "act_right": lambda: R.act_right(ee.pair(w("s"), w("ttt")), e.atom(w("ss"))),
        }
        with pytest.raises(TooLarge) as info:
            products[site]()
        assert str(info.value) == f"product word of length {length} exceeds the bound 4"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            znil_monoid([], length_bound=6)
        with pytest.raises(ValueError, match="triple products would overflow"):
            znil_monoid(["s"], length_bound=4, sample_length=2)
        with pytest.raises(ValueError, match="unknown ring kind"):
            znil_monoid(["s"], length_bound=6, kind="cubic")
        with pytest.raises(ValueError, match="sample_length must be at least 0, got -1"):
            znil_monoid(["s"], length_bound=6, sample_length=-1)

    def test_the_word_count_is_bounded(self):
        with pytest.raises(TooLarge, match="2 symbols up to length 12 give more than 4096"):
            znil_monoid(["s", "t"], length_bound=12)
        assert len(znil_monoid(["s", "t"], length_bound=11).e.symbols) == 4095
        assert len(znil_monoid(["s"], length_bound=40).e.symbols) == 41


# Word models on one, two and three symbols, by symbol count.
WORD_MODELS = {k: znil_monoid(["s", "t", "u"][:k], length_bound=6) for k in (1, 2, 3)}


@st.composite
def word_elements(draw, R, scale: int, max_length: int):
    """An element with one to three linear words and a nonempty central
    part, on words of length at most ``max_length``, with coefficients
    ``scale`` times a nonzero integer in ``[-3, 3]``."""
    symbols = R.mul.__self__.symbols
    words = st.lists(st.sampled_from(symbols), max_size=max_length).map(tuple)
    coeffs = st.integers(-3, 3).filter(bool).map(lambda n: scale * n)
    lin = draw(st.dictionaries(words, coeffs, min_size=1, max_size=3))
    pairs = st.tuples(words, words).filter(lambda p: p[0] != p[1])
    cm = {
        tuple(sorted((u, v), key=R.e._rank.get)): n
        for (u, v), n in draw(st.lists(st.tuples(pairs, coeffs), min_size=1, max_size=3))
    }
    return R.e.make(lin, cm)


def product_or_overflow(mul, x, y):
    try:
        return mul(x, y)
    except TooLarge as exc:
        return f"TooLarge: {exc}"


class TestClosedFormProduct:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_form_matches_the_recursion(self, data):
        R = WORD_MODELS[data.draw(st.integers(1, 3), label="symbols")]
        scale = data.draw(st.sampled_from((1, 5, 13)), label="scale")
        # words of length 4 on the left and 3 on the right overflow the bound 6
        x = data.draw(word_elements(R, scale, 4), label="x")
        y = data.draw(word_elements(R, scale, 3), label="y")
        core = R.mul.__self__
        assert product_or_overflow(R.mul, x, y) == product_or_overflow(
            lambda a, b: monoid_mul_reference(core, a, b), x, y
        )


class TestForgetU:
    def test_underlying_square_ring_verifies(self):
        S = forget_U(znil("quadratic"))
        report = verify_ring(S, samples=1500, seed=3)
        assert report.passed, report.render()

    def test_actions_match_the_direct_model(self):
        import random

        S = forget_U(znil("quadratic"))
        R = znil()
        rng = random.Random(4)
        for _ in range(60):
            x, y, z = (R.e.sample(rng) for _ in range(3))
            a = R.ee.sample(rng)
            assert S.act_pair(x, y, a) == R.act_pair(x, y, a)
            assert S.act_right(a, z) == R.act_right(a, z)

    def test_rejects_a_broken_quadratic_ring(self):
        broken = dataclasses.replace(
            znil("quadratic"), H=lambda x: (x[0] * x[0],)
        )
        with pytest.raises(NotAQuadraticRing):
            forget_U(broken)

    def test_dispatch_rejects_other_types(self):
        with pytest.raises(TypeError, match="SquareRing or QuadraticRing"):
            verify_ring(42)


class TestLinearElements:
    def test_integers_have_two_linear_elements(self):
        assert linear_elements(znil()) == [(0,), (1,)]

    def test_cyclic_rings_are_entirely_linear(self):
        assert len(linear_elements(cyclic_ring(4))) == 4

    def test_word_models_report_the_word_atoms(self):
        R = znil_monoid(["s", "t"], length_bound=4, sample_length=1)
        pool = linear_elements(R)
        assert pool == [R.e.atom(w) for w in R.e.symbols]
        assert len(pool) == 31
        assert R.one in pool


class TestAdRing:
    def test_trivial_p_leaves_the_ring_alone(self):
        A = ad_ring(cyclic_ring(6))
        assert len(A.representatives) == 6
        assert A.mul((5,), (5,)) == (1,)
        assert A.add(A.one, A.one) == (2,)

    def test_quotients_by_the_p_image(self):
        e = FgAbGroup((4,))
        ee = FgAbGroup((2,))
        R = SquareRing(
            e=e,
            ee=ee,
            H=lambda x: (x[0] * (x[0] - 1) // 2 % 2,),
            P=lambda a: ((2 * a[0]) % 4,),
            one=(1,),
            mul=lambda x, y: ((x[0] * y[0]) % 4,),
            eemul=lambda a, b: ((a[0] * b[0]) % 2,),
            act_pair=lambda x, y, a: ((x[0] * y[0] * a[0]) % 2,),
            act_right=lambda a, z: ((a[0] * z[0]) % 2,),
            name="Z/4 with doubling P",
        )
        A = ad_ring(R)
        assert A.representatives == [(0,), (1,)]
        assert A.mul((1,), (1,)) == (1,)
        assert A.add((1,), (1,)) == (0,)

    def test_rejects_a_multiplication_that_depends_on_representatives(self):
        e = FgAbGroup((4,))
        ee = FgAbGroup((2,))
        R = SquareRing(
            e=e,
            ee=ee,
            H=lambda x: (0,),
            P=lambda a: ((2 * a[0]) % 4,),
            one=(1,),
            mul=lambda x, y: ((x[0] // 2) * y[0] % 4,),
            eemul=lambda a, b: (0,),
            act_pair=lambda x, y, a: (0,),
            act_right=lambda a, z: (0,),
            name="broken quotient",
        )
        with pytest.raises(IllDefinedMultiplication):
            ad_ring(R)


# ---------------------------------------------------------------------------
# Golden products in the free word model
# ---------------------------------------------------------------------------

GOLDEN_PRODUCTS = Path(__file__).parent / "golden" / "monoid_products.json"

# name -> (symbols, kind) of ``znil_monoid(symbols, 6, kind)``
PRODUCT_MODELS = {
    "st_square": (["s", "t"], "square"),
    "st_quadratic": (["s", "t"], "quadratic"),
    "s_square": (["s"], "square"),
}


def pinned_element(R, rng: random.Random, bound: int):
    """An element on up to three words and up to two central pairs, with
    coefficients at most ``bound`` in absolute value. Word lengths are
    drawn first, from 0 to 3 and now and then 4, so that some products
    overflow the length bound of 6."""
    by_length = {}
    for w in R.e.symbols:
        by_length.setdefault(len(w), []).append(w)

    def word():
        return rng.choice(by_length[rng.choice((0, 1, 2, 2, 3, 3, 3, 4))])

    lin = {word(): rng.randint(-bound, bound) for _ in range(rng.randint(0, 3))}
    cm = {}
    for _ in range(rng.randint(0, 2)):
        u, v = sorted((word(), word()), key=R.e.symbols.index)
        if u != v:
            cm[(u, v)] = rng.randint(-bound, bound)
    return R.e.make(lin, cm)


def pinned_products(name: str, count: int = 500) -> str:
    """``repr`` of ``mul(x, y)`` for ``count`` seeded pairs, one a line;
    a product whose words overflow the length bound reads ``TooLarge``.
    Every fifth pair has coefficients scaled up to 40 in absolute value."""
    symbols, kind = PRODUCT_MODELS[name]
    R = znil_monoid(symbols, 6, kind)
    rng = random.Random(f"monoid products {name}")
    lines = []
    for i in range(count):
        bound = 40 if i % 5 == 4 else 3
        x, y = pinned_element(R, rng, bound), pinned_element(R, rng, bound)
        try:
            lines.append(repr(R.mul(x, y)))
        except TooLarge:
            lines.append("TooLarge")
    return "\n".join(lines)


def product_digests() -> dict:
    return {
        name: hashlib.sha256(pinned_products(name).encode()).hexdigest()
        for name in PRODUCT_MODELS
    }


@pytest.mark.parametrize("name", sorted(PRODUCT_MODELS))
def test_pinned_monoid_products(name):
    golden = json.loads(GOLDEN_PRODUCTS.read_text())
    assert hashlib.sha256(pinned_products(name).encode()).hexdigest() == golden[name]


if __name__ == "__main__":
    GOLDEN_PRODUCTS.write_text(json.dumps(product_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PRODUCTS}")
