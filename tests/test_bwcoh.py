"""Cohomology of finite categories, checked against the bar resolution."""
from __future__ import annotations

import operator
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from quadalg import abelian, bwcoh
from quadalg.abelian import AbMap, FgAbGroup, columns, exact_at, identity, mat_vec
from quadalg.bwcoh import (
    DEFAULT_GENERATOR_CAP,
    MAX_COMPOSABLE_PAIRS,
    CochainComplex,
    FinCat,
    NatSystem,
    _QuotientComplex,
    _build_level,
    _level_size,
    _canonical_map,
    _d_presented,
    _pulled_system,
    bar_cohomology,
    bimodule_system,
    coboundary,
    cohomology,
    dm_natural_system,
    les_report,
    natsystem_verify,
    one_object_cyclic,
    relative_cohomology,
    trivial_system,
    validate_projection,
)
from quadalg.crossed import cyclic_ring_extension
from quadalg.errors import (
    DegreeTooHigh,
    NotIdentityOnObjects,
    NotSurjective,
    ShapeMismatch,
    TooLarge,
)
from quadalg.modq import ModQTrackExtension

from .oracles import CyclicTrackExtension, dense_rows, reference_chains, reference_matrix_table

PROPERTY = settings(max_examples=100, deadline=None)


def cyclic_setup(m: int):
    C = one_object_cyclic(m)
    return C, trivial_system(C, FgAbGroup.cyclic(m))


def projection_fixture():
    """The monoid on t with t^4 = t^2 over the multiplicative Z/2."""

    def kmul(a, b):
        s = a + b
        while s >= 4:
            s -= 2
        return s

    K = FinCat.from_monoid((0, 1, 2, 3), kmul, 0, name="<t | t^4 = t^2>")
    C = FinCat.from_monoid((1, 0), lambda a, b: a * b, 1, name="Z/2 multiplicative")
    p = {0: 1, 1: 0, 2: 0, 3: 0}
    return C, K, p


def cyclic_projection_fixture():
    """Reduction ``Z/4 -> Z/2`` of one-object cyclic categories."""
    K, C = one_object_cyclic(4), one_object_cyclic(2)
    return C, K, {a: a % 2 for a in K.morphisms}


def _arrows(arrows: tuple, name: str) -> FinCat:
    """Objects a and b, their identities, and the given arrows a -> b."""
    table = {("ia", "ia"): "ia", ("ib", "ib"): "ib"}
    for f in arrows:
        table[(f, "ia")] = table[("ib", f)] = f
    return FinCat(
        objects=("a", "b"),
        morphisms=("ia", "ib") + arrows,
        dom={"ia": "a", "ib": "b", **{f: "a" for f in arrows}},
        cod={"ia": "a", "ib": "b", **{f: "b" for f in arrows}},
        table=table,
        ids={"a": "ia", "b": "ib"},
        name=name,
    )


def arrow_fixture(top: FgAbGroup = FgAbGroup.cyclic(6)):
    """The arrow f: a -> b with D(ia) = Z/2, D(ib) = Z/3 and D(f) = ``top``.

    Extending ia or ib to f multiplies by 3 or by 2 (into the zero group
    when ``top`` is trivial). The level factors 2, 3 and 6 form no
    divisibility chain.
    """
    C = _arrows(("f",), "arrow")
    groups = {"ia": FgAbGroup.cyclic(2), "ib": FgAbGroup.cyclic(3), "f": top}
    scale = {"ia": 3, "ib": 2}

    def act(nu, alpha, psi):
        beta = C.compose(psi, C.compose(alpha, nu))
        src, dst = groups[alpha], groups[beta]
        if alpha == beta:
            return AbMap(src, dst, identity(src.ngens))
        return AbMap(src, dst, [[scale[alpha]]] * dst.ngens)

    return C, NatSystem(C, groups.__getitem__, act, name=f"arrow into {top.describe()}")


def pair_projection_fixture():
    """The parallel pair f, g: a -> b onto the arrow by g -> f, with the
    arrow's coefficients."""
    C, D = arrow_fixture()
    K = _arrows(("f", "g"), "parallel pair")
    return C, K, {"ia": "ia", "ib": "ib", "f": "f", "g": "f"}, D


class TestFinCat:
    def test_cyclic_category_validates(self):
        C = one_object_cyclic(4)
        report = C.validate()
        assert report.passed, report.render()
        assert C.morphisms == (0, 1, 2, 3)
        assert C.compose(1, 3) == 0
        assert C.is_identity(C.identity(C.objects[0]))

    def test_validate_catches_an_unclosed_table(self):
        C = FinCat(
            objects=("a",),
            morphisms=("ia", "f"),
            dom={"ia": "a", "f": "a"},
            cod={"ia": "a", "f": "a"},
            table={
                ("ia", "ia"): "ia",
                ("ia", "f"): "f",
                ("f", "ia"): "f",
                ("f", "f"): "ghost",
            },
            ids={"a": "ia"},
        )
        report = C.validate()
        assert not report.passed
        assert any(c.name == "composition closed" for c in report.failures)

    def test_validate_reports_a_missing_identity(self):
        C = FinCat(
            objects=("x",), morphisms=("f",), dom={"f": "x"}, cod={"f": "x"},
            table={}, ids={},
        )
        report = C.validate()
        assert not report.passed
        assert [c.name for c in report.failures][:2] == [
            "identities present", "identities neutral",
        ]

    def test_matrix_category_validates(self):
        cat, _ = dm_natural_system(2, 1)
        report = cat.validate()
        assert report.passed, report.render()
        assert cat.objects == (0, 1)
        assert len(cat.morphisms) == 5
        # a 1x1 matrix after a 0x1 one: the shapes do not meet
        with pytest.raises(ValueError, match="not composable"):
            FinCat.mod_r(2, 1).compose((1, 1, ((1,),)), (0, 1, ()))

    def test_matrix_category_growth_guard(self):
        with pytest.raises(TooLarge):
            FinCat.mod_r(2, 4)

    @pytest.mark.parametrize("size, max_rank", [(8, 2), (4096, 1), (2, 10**9)])
    def test_matrix_guard_counts_pairs_before_building(self, size, max_rank):
        def dot(row, col):
            raise AssertionError("a table entry was built")

        with pytest.raises(TooLarge, match=f"more than {MAX_COMPOSABLE_PAIRS} composable pairs"):
            FinCat.matrices(range(size), dot, 1, 0, max_rank, "oversized")

    def test_matrix_guard_admits_rank_three_mod_two(self, monkeypatch):
        # the mod-2 matrices of rank <= 3 have exactly 349,691 composable
        # pairs: one bound lower refuses them (building them takes seconds)
        assert MAX_COMPOSABLE_PAIRS >= 349_691
        monkeypatch.setattr(bwcoh, "MAX_COMPOSABLE_PAIRS", 349_690)
        with pytest.raises(TooLarge, match="more than 349690 composable pairs"):
            FinCat.mod_r(2, 3)

    def test_matrix_category_rejects_a_negative_rank(self):
        assert FinCat.mod_r(2, 0).objects == (0,)
        with pytest.raises(ValueError, match="max_rank must be at least 0"):
            FinCat.mod_r(2, -1)

    # -100 would also fail the size guard, which must not see it
    @pytest.mark.parametrize("max_rank", [-1, -100])
    def test_every_matrix_category_rejects_a_negative_rank(self, max_rank):
        with pytest.raises(ValueError, match=f"max_rank must be at least 0, got {max_rank}"):
            FinCat.matrices(range(2), lambda row, col: 0, 1, 0, max_rank, "negative")
        with pytest.raises(ValueError, match=f"max_rank must be at least 0, got {max_rank}"):
            FinCat.mod_r(2, max_rank)

    def test_rejects_a_nonpositive_cyclic_order(self):
        with pytest.raises(ValueError, match="must be positive"):
            one_object_cyclic(0)

    @pytest.mark.parametrize("make", [
        lambda: dm_natural_system(2, 1)[0],
        lambda: dm_natural_system(2, 2)[0],
        lambda: dm_natural_system(4, 1)[0],
        lambda: cyclic_setup(4)[0],
        lambda: arrow_fixture()[0],
        lambda: pair_projection_fixture()[1],
    ], ids=["dm2r1", "dm2r2", "dm4r1", "cyclic", "arrow", "pair"])
    def test_count_chains_counts_the_listed_chains(self, make):
        C = make()
        for n in range(4):
            assert C.count_chains(n) == len(C.composable_tuples(n)), n
        assert_walks_follow_the_scan(C)

    def test_monoid_guard_counts_pairs_before_building(self, monkeypatch):
        def mul(a, b):
            raise AssertionError("a table entry was built")

        monkeypatch.setattr(bwcoh, "MAX_COMPOSABLE_PAIRS", 24)
        with pytest.raises(TooLarge, match="more than 24 composable pairs"):
            FinCat.from_monoid(range(5), mul, 0, "oversized")
        monkeypatch.setattr(bwcoh, "MAX_COMPOSABLE_PAIRS", 25)
        assert len(FinCat.from_monoid(range(5), lambda a, b: (a + b) % 5, 0).table) == 25

    def test_associativity_witness_is_the_first_failing_chain(self):
        # subtraction mod 3: ((f - g) - h) and (f - (g - h)) differ when h != 0
        C = FinCat.from_monoid(range(3), lambda a, b: (a - b) % 3, 0)
        first = next(
            (f, g, h) for f, g, h in C.composable_tuples(3)
            if C.compose(C.compose(f, g), h) != C.compose(f, C.compose(g, h))
        )
        failed = {c.name: c.witness for c in C.validate().failures}
        assert failed["composition associative"] == f"triple {first!r}" == "triple (0, 0, 1)"

    def test_validate_bounds_pairs_times_morphisms(self, monkeypatch):
        # one_object_cyclic(3): 9 composable pairs times 3 morphisms
        monkeypatch.setattr(bwcoh, "MAX_ASSOCIATIVITY_CASES", 27)
        assert one_object_cyclic(3).validate().passed
        monkeypatch.setattr(bwcoh, "MAX_ASSOCIATIVITY_CASES", 26)
        with pytest.raises(TooLarge, match="9 composable pairs make associativity checks"):
            one_object_cyclic(3).validate()

    def test_validate_refuses_before_listing_pairs(self):
        # 600^3 triples: listing the 360,000 pairs alone would take tens of
        # megabytes; the refusal comes first, even on a table that is not
        # closed
        C = one_object_cyclic(600)
        C.table[(1, 1)] = "ghost"
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="360000 composable pairs"):
                C.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_cyclic_order_is_refused_before_listing(self):
        # listing the elements first would ask for a tuple of 10^12 entries
        with pytest.raises(TooLarge, match="more than 500000 composable pairs"):
            one_object_cyclic(10**12)

    def test_dm_system_checks_the_matrix_modulus_first(self):
        with pytest.raises(ValueError, match="matrix modulus must be at least 2, got 0"):
            dm_natural_system(0, 1)


@st.composite
def shuffled_categories(draw) -> FinCat:
    """A preorder on up to three objects times the monoid ``Z/m``, with its
    morphisms ``(i, j, a): i -> j`` listed in a drawn order, so that the
    morphisms into one object are interleaved with the others."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    arrows = {(i, i) for i in range(k)}
    arrows |= {(i, j) for i in range(k) for j in range(i + 1, k) if draw(st.booleans())}
    arrows |= {(i, l) for i, j in arrows for j2, l in arrows if j == j2}  # transitive for k <= 3
    order = draw(st.permutations([(i, j, a) for i, j in sorted(arrows) for a in range(m)]))
    return FinCat(
        objects=tuple(range(k)),
        morphisms=tuple(order),
        dom={f: f[0] for f in order},
        cod={f: f[1] for f in order},
        table={(f, g): (g[0], f[1], (f[2] + g[2]) % m) for f in order for g in order if f[0] == g[1]},
        ids={o: (o, o, 0) for o in range(k)},
        name=f"shuffled preorder on {k} objects times Z/{m}",
    )


def assert_walks_follow_the_scan(C: FinCat) -> None:
    """Chains, counts and level sizes in the order and number of the
    endpoint scan, on a system whose group varies with the morphism."""
    D = NatSystem(C, lambda a: FgAbGroup((2,) * (C.morphisms.index(a) % 3)), None)
    for n in range(4):
        assert C.count_chains(n) == len(reference_chains(C, n)), n
        for normalized in (False, True):
            chains = reference_chains(C, n, normalized)
            assert C.composable_tuples(n, normalized) == chains, (n, normalized)
            assert _level_size(C, D, n, normalized) == (
                sum(D.group_at(C.product(t)).ngens for t in chains) if n
                else sum(D.group_at(C.identity(o)).ngens for o in C.objects)
            ), (n, normalized)


def assert_validate_follows_the_scan(C: FinCat, f, g, h) -> None:
    """With ``f . g`` set to ``h``, the associativity witness is the first
    failing triple in the order of the endpoint scan."""
    C = replace(C, table={**C.table, (f, g): h})
    failing = (T for T in reference_chains(C, 3)
               if C.compose(C.compose(*T[:2]), T[2]) != C.compose(T[0], C.compose(*T[1:])))
    first = next(failing, None)
    failed = {c.name: c.witness for c in C.validate().failures}
    assert failed.get("composition associative") == (None if first is None else f"triple {first!r}")


class TestChainOrder:
    """Every chain walk reads ``FinCat.into`` and must list, count and
    order what the endpoint scan of ``tests/oracles.py`` does; the fixtures
    are checked in ``TestFinCat::test_count_chains_counts_the_listed_chains``."""

    @PROPERTY
    @given(shuffled_categories())
    def test_walks_on_shuffled_categories(self, C):
        assert C.validate().passed
        assert_walks_follow_the_scan(C)

    @PROPERTY
    @given(st.one_of(shuffled_categories(), st.sampled_from(
        [cyclic_setup(4)[0], arrow_fixture()[0], pair_projection_fixture()[1]])), st.data())
    def test_validate_walks_triples_in_scan_order(self, C, data):
        f, g = data.draw(st.sampled_from(reference_chains(C, 2)))
        h = data.draw(st.sampled_from(
            [k for k in C.morphisms if (C.dom[k], C.cod[k]) == (C.dom[g], C.cod[f])]))
        assert_validate_follows_the_scan(C, f, g, h)

    @PROPERTY
    @given(st.one_of(shuffled_categories(), st.sampled_from(
        [cyclic_setup(4)[0], arrow_fixture()[0], FinCat.mod_r(2, 1)])))
    def test_out_of_follows_the_scan(self, C):
        # natsystem_verify's witness and truncation point follow this order
        assert C.out_of == {o: [f for f in C.morphisms if C.dom[f] == o] for o in C.objects}

    @pytest.mark.parametrize("modulus, max_rank", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_matrix_table_follows_the_scan(self, modulus, max_rank):
        C = FinCat.mod_r(modulus, max_rank)

        def dot(row, col):
            return sum(map(operator.mul, row, col)) % modulus

        assert list(C.table.items()) == list(reference_matrix_table(C, dot).items())


class TestBarAgreement:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_small_moduli_all_degrees(self, m, degree):
        C, D = cyclic_setup(m)
        assert cohomology(C, D, degree).group == bar_cohomology(m, degree)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_modulus_four_low_degrees(self, degree):
        C, D = cyclic_setup(4)
        assert cohomology(C, D, degree).group == bar_cohomology(4, degree)

    def test_known_group_values(self):
        assert bar_cohomology(4, 2) == FgAbGroup((4,))
        C, D = cyclic_setup(4)
        assert cohomology(C, D, 2).group.invariant_factors == (4,)


class TestCochainComplex:
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_complex_serves_every_degree(self, m):
        C, D = cyclic_setup(m)
        cx = CochainComplex(C, D, normalized=False)
        for n in range(4):
            group = cx.homology(n).group
            assert group == cohomology(C, D, n).group == bar_cohomology(m, n)

    def test_each_level_is_built_once(self, monkeypatch):
        C, D = cyclic_setup(2)
        built = []
        build = bwcoh._build_level
        monkeypatch.setattr(
            bwcoh, "_build_level", lambda C, D, n, *args: built.append(n) or build(C, D, n, *args)
        )
        cx = CochainComplex(C, D, normalized=False)
        for n in range(4):
            cx.homology(n)
        assert sorted(built) == [0, 1, 2, 3, 4]

    def test_each_action_is_built_once(self):
        # H^0..H^3 of the rank-1 mod-4 category ask map_for for 51 distinct
        # (nu, alpha, psi) triples, most of them many times over
        C, D = dm_natural_system(4, 1)
        calls = []
        act = D.act
        D.act = lambda *triple: calls.append(triple) or act(*triple)
        for n in range(4):
            cohomology(C, D, n)
        assert len(calls) == len(set(calls)) == 51


def modq_system(extension):
    return extension.base, extension.system


# name -> category and coefficients whose level factors sort into a chain
CHAIN_SYSTEMS = {
    "dm": lambda: dm_natural_system(4, 1),
    "constant": lambda: (
        one_object_cyclic(4),
        trivial_system(one_object_cyclic(4), FgAbGroup.from_factors([2, 4])),
    ),
    "modq_cyclic": lambda: modq_system(CyclicTrackExtension(4, 2)),
    "modq_matrix": lambda: modq_system(
        ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=1)
    ),
}


class TestLevelLayout:
    def record_factoring(self, monkeypatch) -> list:
        calls = []
        for module, name in ((abelian, "smith"), (bwcoh, "quotient_presentation"), (bwcoh, "matmul")):
            f = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, f=f, name=name: calls.append(name) or f(*a)
            )
        return calls

    @pytest.mark.parametrize("name", sorted(CHAIN_SYSTEMS))
    def test_chain_levels_need_no_smith_form(self, monkeypatch, name):
        C, D = CHAIN_SYSTEMS[name]()
        calls = self.record_factoring(monkeypatch)
        for normalized in (False, True):
            cx = CochainComplex(C, D, normalized)
            for n in range(3):
                cx.d(n)
            assert all(cx.level(n).proj is None for n in range(4))
        assert calls == []

    def test_a_level_without_a_chain_is_presented(self, monkeypatch):
        C, D = arrow_fixture()
        calls = self.record_factoring(monkeypatch)
        cx = CochainComplex(C, D, False)
        cx.d(0)
        assert "quotient_presentation" in calls
        assert cx.level(0).grp == FgAbGroup((6,))
        assert cx.level(0).proj is not None

    def test_coordinates_follow_the_sorted_factors(self):
        C = one_object_cyclic(2)
        level = _build_level(C, trivial_system(C, FgAbGroup.from_factors([2, 4])), 1, False)
        assert level.grp == FgAbGroup((2, 2, 4, 4))
        assert level.index == {(0,): [0, 2], (1,): [1, 3]}

    def test_a_rank_two_level_is_built_in_little_memory(self):
        cx = CochainComplex(*dm_natural_system(2, 2), False)
        tracemalloc.start()
        try:
            level = cx.level(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert level.ngens == 1405
        assert peak < 5_000_000

    @pytest.mark.parametrize("m, normalized", [(2, False), (4, True)])
    def test_multi_factor_coefficients_add_up(self, m, normalized):
        C = one_object_cyclic(m)

        def res(factors, n):
            return cohomology(C, trivial_system(C, FgAbGroup.from_factors(factors)), n, normalized)

        for n in range(4):
            both = res([2, 4], n)
            parts = res([2], n).invariant_factors + res([4], n).invariant_factors
            assert both.group == FgAbGroup.from_factors(parts), n
            for g in both.group.generators():
                assert both.class_of(both.representative(g)) == g


class TestDifferential:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_squares_to_zero(self, m, normalized):
        C, D = cyclic_setup(m)
        levels = {n: _build_level(C, D, n, normalized) for n in range(4)}
        for n in range(2):
            d1 = _canonical_map(
                _d_presented(C, D, levels[n], levels[n + 1]), levels[n], levels[n + 1]
            )
            d2 = _canonical_map(
                _d_presented(C, D, levels[n + 1], levels[n + 2]),
                levels[n + 1],
                levels[n + 2],
            )
            assert d2.compose(d1).is_zero_map(), (m, normalized, n)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_normalized_chains_compute_the_same_groups(self, m, degree):
        C, D = cyclic_setup(m)
        full = cohomology(C, D, degree, normalized=False)
        norm = cohomology(C, D, degree, normalized=True)
        assert full.group == norm.group

    # On normalized chains of Z/4 the faces where a + b = 0 merge to the
    # identity, and the dict route skips them as the matrix does.
    @pytest.mark.parametrize("degree, normalized", [
        pytest.param(d, n, id=f"normalized-{d}" if n else str(d))
        for n in (False, True) for d in (0, 1, 2)
    ])
    def test_dict_coboundary_matches_the_matrix_differential(self, degree, normalized):
        rng = random.Random(7)
        m = 4
        C, D = cyclic_setup(m)
        src = _build_level(C, D, degree, normalized)
        tgt = _build_level(C, D, degree + 1, normalized)
        dmat = _d_presented(C, D, src, tgt)
        for _ in range(12):
            cochain = {}
            for key in src.keys:
                if rng.random() < 0.7:
                    cochain[key] = tuple(
                        rng.randrange(m) for _ in range(src.block[key].ngens)
                    )
            image = coboundary(C, D, degree, cochain, normalized)
            via_matrix = mat_vec(dmat, src.assemble(cochain))
            for key in tgt.keys:
                block = tgt.block[key]
                want = block.reduce(tuple(via_matrix[i] for i in tgt.index[key]))
                got = block.reduce(tuple(image.get(key, block.zero())))
                assert want == got, (degree, key)


class TestClassification:
    @pytest.fixture
    def degree_two(self):
        C, D = cyclic_setup(4)
        return C, D, cohomology(C, D, 2)

    def test_the_carry_cocycle_generates(self, degree_two):
        _, _, res = degree_two
        carry = {(a, b): ((a + b) // 4,) for a in range(4) for b in range(4)}
        assert res.is_cocycle(carry)
        cls = res.class_of(carry)
        assert cls != res.group.zero()
        assert res.group.element_order(cls) == 4

    def test_coboundaries_classify_to_zero(self, degree_two):
        C, D, res = degree_two
        assert res.class_of({}) == res.group.zero()
        square = {(a,): ((a * a) % 4,) for a in range(4)}
        image = coboundary(C, D, 1, square)
        assert res.is_cocycle(image)
        assert res.class_of(image) == res.group.zero()

    def test_detects_a_non_cocycle(self, degree_two):
        _, _, res = degree_two
        broken = {(a, b): ((a + b) // 4,) for a in range(4) for b in range(4)}
        broken[(1, 1)] = ((broken[(1, 1)][0] + 1) % 4,)
        assert not res.is_cocycle(broken)
        with pytest.raises(ValueError, match="unknown cochain index"):
            res.class_of({("bogus",): (1,)})

    def test_rank_two_degree_one_is_trivial(self):
        # dm mod 2 at rank <= 2; level 2 has 1,246 normalized generators
        C, D = dm_natural_system(2, 2)
        assert cohomology(C, D, 0, normalized=True).invariant_factors == (2,)
        res = cohomology(C, D, 1, normalized=True)
        assert res.group == FgAbGroup.trivial()
        rng = random.Random(5)
        x = {obj: D.group_at(C.identity(obj)).sample(rng) for obj in C.objects}
        z = coboundary(C, D, 0, x, normalized=True)
        assert z and res.is_cocycle(z)
        assert res.class_of(z) == res.group.zero()

    def test_rank_two_degree_one_on_full_chains(self):
        # level 2 has 1,405 full generators; about 1.4 s, against 4.8 s
        # while every Smith pivot search without a unit rescanned all rows
        C, D = dm_natural_system(2, 2)
        assert cohomology(C, D, 0, normalized=False).invariant_factors == (2,)
        res = cohomology(C, D, 1, normalized=False)
        assert res.invariant_factors == ()
        rng = random.Random(6)
        x = {obj: D.group_at(C.identity(obj)).sample(rng) for obj in C.objects}
        z = coboundary(C, D, 0, x, normalized=False)
        assert z and res.is_cocycle(z)
        assert res.class_of(z) == res.group.zero()


class TestNatSystemVerify:
    def test_identity_extension_failure_names_the_morphism(self):
        C = one_object_cyclic(3)
        G = FgAbGroup.cyclic(2)
        D = NatSystem(cat=C, group=lambda alpha: G, act=lambda nu, alpha, psi: AbMap(G, G, [[0]]))
        report = natsystem_verify(D)
        assert [(c.name, c.ok, c.witness) for c in report.checks] == [
            ("identity extension acts as the identity", False, "morphism 0"),
            ("extensions compose functorially", True, None),
        ]

    def test_functoriality_failure_names_both_extensions(self):
        # acting by -1 on Z/3 along every nu but the identity: 1 then 1 acts
        # by (-1)^2 = 1, but their composite 2 acts by -1
        C = one_object_cyclic(3)
        G = FgAbGroup.cyclic(3)
        D = NatSystem(
            cat=C, group=lambda alpha: G, act=lambda nu, alpha, psi: AbMap(G, G, [[2 if nu else 1]])
        )
        report = natsystem_verify(D)
        assert [(c.name, c.ok, c.witness) for c in report.checks] == [
            ("identity extension acts as the identity", True, None),
            ("extensions compose functorially", False, "(1, 0, 0) then (1, 0)"),
        ]

    def test_functoriality_is_truncated_at_the_triple_bound(self, monkeypatch):
        # 27 composable triples pass the count; 243 pairs of extensions
        # are more than the 30 checked
        C, D = cyclic_setup(3)
        assert C.count_chains(3) == 27
        monkeypatch.setattr(bwcoh, "MAX_COMPOSABLE_TRIPLES", 30)
        report = natsystem_verify(D)
        assert report.passed, report.render()
        assert report.notes == ["composition functoriality truncated at 30 cases"]


class TestMatrixBimodule:
    def test_natural_system_laws(self):
        _, D = dm_natural_system(2, 1)
        assert D.name == "bimodule Z/2 matrices"
        report = natsystem_verify(D)
        assert report.passed, report.render()
        # nu: 1 -> 1 cannot extend alpha: 0 -> 1 on the right
        one, row = (1, 1, ((1,),)), (1, 0, ((),))
        with pytest.raises(ShapeMismatch, match="do not align"):
            D.map_for(one, row, one)

    def test_cohomology_values(self):
        cat, D = dm_natural_system(2, 1)
        assert cohomology(cat, D, 0).group == FgAbGroup((2,))
        assert cohomology(cat, D, 1).group.is_trivial()
        assert cohomology(cat, D, 2).group.is_trivial()

    def test_coefficient_modulus_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            dm_natural_system(4, 1, 3)
        _, D = dm_natural_system(4, 1, 2)
        assert D.name == "bimodule Z/2 matrices"

    def test_verification_refuses_before_listing_extensions(self):
        # 693,195 composable triples, each one extension to check
        _, D = dm_natural_system(3, 2)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="693195 extensions exceed the verification cap"):
                natsystem_verify(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("modulus", [3, 4])
    def test_reduced_actions_are_functorial(self, modulus):
        # two-step actions such as 2 * 2 = 4 in Z/4 agree with one-step
        # ones only after reduction in the target
        assert natsystem_verify(dm_natural_system(modulus, 1)[1]).passed

    def test_two_factor_bimodule_adds_up(self):
        C = FinCat.mod_r(4, 1)
        diag = lambda r: [[r % 2, 0], [0, r % 4]]
        D = bimodule_system(C, FgAbGroup((2, 4)), diag, diag, "Z/2 + Z/4 matrices")
        assert natsystem_verify(D).passed
        assert D.group_at((1, 1, ((3,),))) == FgAbGroup((2, 4))
        expected = [(2, 4), (2, 2, 2, 2), (2, 2, 2, 2, 2, 4), (2,) * 13]
        for n in range(4):
            parts = [cohomology(*dm_natural_system(4, 1, c), n).invariant_factors for c in (2, 4)]
            got = cohomology(C, D, n)
            assert got.group == FgAbGroup.from_factors(parts[0] + parts[1]), n
            assert got.invariant_factors == expected[n], n
            for g in got.group.generators():
                assert got.class_of(got.representative(g)) == g


class TestExactPair:
    Z, Z2, Z3, ZERO = FgAbGroup.free(1), FgAbGroup((2,)), FgAbGroup((3,)), FgAbGroup.trivial()

    def test_accepts_exact_pairs(self):
        Z, Z2, Z3, ZERO = self.Z, self.Z2, self.Z3, self.ZERO
        assert exact_at(AbMap(Z, Z, [[2]]), AbMap(Z, Z2, [[1]])) == (True, None)
        assert exact_at(AbMap(Z2, Z2, [[1]]), AbMap.zero_map(Z2, ZERO)) == (True, None)
        assert exact_at(AbMap.zero_map(ZERO, ZERO), AbMap.zero_map(ZERO, Z3)) == (True, None)

    def test_rejects_a_nonzero_composite(self):
        ok, witness = exact_at(AbMap(self.Z, self.Z, [[1]]), AbMap(self.Z, self.Z2, [[1]]))
        assert not ok and witness

    def test_rejects_a_kernel_outside_the_image(self):
        Z, Z2 = self.Z, self.Z2
        for f, g in [
            (AbMap(Z, Z, [[4]]), AbMap(Z, Z2, [[1]])),
            (AbMap.zero_map(self.ZERO, Z2), AbMap.zero_map(Z2, self.ZERO)),
        ]:
            ok, witness = exact_at(f, g)
            assert not ok and witness


class TestArrow:
    def test_systems_are_natural(self):
        for top in (FgAbGroup.cyclic(6), FgAbGroup.trivial()):
            C, D = arrow_fixture(top)
            assert C.validate().passed
            assert natsystem_verify(D).passed, top
        C, K, p, D = pair_projection_fixture()
        assert K.validate().passed
        validate_projection(C, K, p)
        assert natsystem_verify(_pulled_system(K, D, p)).passed

    @pytest.mark.parametrize("normalized", [False, True])
    def test_groups(self, normalized):
        def groups(C, D):
            return [cohomology(C, D, n, normalized=normalized).group.describe() for n in range(4)]

        assert groups(*arrow_fixture()) == ["0", "0", "0", "0"]
        assert groups(*arrow_fixture(FgAbGroup.trivial())) == ["Z/6", "0", "0", "0"]
        C, K, p, D = pair_projection_fixture()
        assert groups(K, _pulled_system(K, D, p)) == ["0", "Z/6", "0", "0"]


class TestRelative:
    def test_projection_validates(self):
        C, K, p = projection_fixture()
        assert K.validate().passed
        assert C.validate().passed
        validate_projection(C, K, p)

    def test_relative_groups(self):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        assert relative_cohomology(C, K, p, D, 1).is_trivial()
        assert relative_cohomology(C, K, p, D, 2) == FgAbGroup((2,))
        assert relative_cohomology(C, K, p, D, 3) == FgAbGroup((2,))

    def test_long_exact_sequence(self):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        report = les_report(C, K, p, D, max_degree=2)
        assert report.passed, report.render()
        assert len(report.checks) == 7

    def test_cyclic_reduction(self):
        C, K, p = cyclic_projection_fixture()
        validate_projection(C, K, p)
        D = trivial_system(C, FgAbGroup.cyclic(2))
        groups = [relative_cohomology(C, K, p, D, j) for j in (1, 2, 3)]
        assert groups == [FgAbGroup.trivial(), FgAbGroup((2,)), FgAbGroup((2, 2))]
        report = les_report(C, K, p, D, max_degree=2)
        assert report.passed, report.render()
        assert len(report.checks) == 7
        assert "note: H^1(C, K) = 0" in report.render()
        assert "note: H^2(C, K) = Z/2" in report.render()

    def test_parallel_pair(self):
        C, K, p, D = pair_projection_fixture()
        groups = [relative_cohomology(C, K, p, D, j) for j in (1, 2, 3)]
        assert groups == [FgAbGroup.trivial(), FgAbGroup((6,)), FgAbGroup.trivial()]
        report = les_report(C, K, p, D, max_degree=2)
        assert report.passed, report.render()
        assert len(report.checks) == 7

    @pytest.mark.parametrize(
        "fixture, factors", [("projection", (2,)), ("cyclic", (2, 2)), ("pair", ())]
    )
    def test_degree_four_agrees_with_full_chains(self, fixture, factors):
        # degree 4 is the one relative degree computed on normalized chains
        if fixture == "pair":
            C, K, p, D = pair_projection_fixture()
        else:
            make = projection_fixture if fixture == "projection" else cyclic_projection_fixture
            C, K, p = make()
            D = trivial_system(C, FgAbGroup.cyclic(2))
        full = _QuotientComplex(C, K, p, D, False, DEFAULT_GENERATOR_CAP).homology(3).group
        assert relative_cohomology(C, K, p, D, 4) == full == FgAbGroup(factors)

    @pytest.mark.parametrize("fixture", ["projection", "pair"])
    def test_no_quotient_relations_are_factored_twice(self, monkeypatch, fixture):
        if fixture == "pair":
            C, K, p, D = pair_projection_fixture()
        else:
            C, K, p = projection_fixture()
            D = trivial_system(C, FgAbGroup.cyclic(2))

        def relations(rows, n):
            M = dense_rows(rows, n)
            return len(M), tuple(sorted(columns(M)))

        factored = Counter()
        smith_rows = abelian.smith_rows
        monkeypatch.setattr(
            abelian, "smith_rows", lambda A, n: factored.update([relations(A, n)]) or smith_rows(A, n)
        )
        les_report(C, K, p, D, max_degree=2)
        monkeypatch.undo()
        # the connecting maps solve against quotient levels 1 and 2
        cx = _QuotientComplex(C, K, p, D, False, DEFAULT_GENERATOR_CAP)
        assert [factored[relations(*cx.level(j).rels)] for j in (1, 2)] == [1, 1]

    def test_projection_guards(self):
        C, K, p = projection_fixture()
        K2 = FinCat.from_monoid((0, 1), lambda a, b: (a + b) % 2, 0, name="Z/2 additive")
        with pytest.raises(NotSurjective, match="without preimage"):
            validate_projection(C, K2, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="undefined on"):
            validate_projection(C, K2, {0: 1})
        with pytest.raises(ValueError, match="sends the identity"):
            validate_projection(C, K2, {0: 0, 1: 1})
        point = FinCat(
            objects=("a",),
            morphisms=("ia",),
            dom={"ia": "a"},
            cod={"ia": "a"},
            table={("ia", "ia"): "ia"},
            ids={"a": "ia"},
        )
        with pytest.raises(NotIdentityOnObjects):
            validate_projection(point, K2, {0: "ia", 1: "ia"})
        # the first composable pair that p does not preserve: 1 + 1 = 2 -> 1
        broken = {0: 0, 1: 1, 2: 1, 3: 0}
        with pytest.raises(ValueError, match=r"not a functor at \(1, 1\)"):
            validate_projection(one_object_cyclic(2), one_object_cyclic(4), broken)

    def test_degree_guards(self):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        with pytest.raises(ValueError, match="starts in degree 1"):
            relative_cohomology(C, K, p, D, 0)
        with pytest.raises(DegreeTooHigh):
            relative_cohomology(C, K, p, D, 5)

    def test_long_exact_sequence_rejects_a_negative_degree(self):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        with pytest.raises(ValueError, match="nonnegative"):
            les_report(C, K, p, D, max_degree=-1)

    def test_long_exact_sequence_degree_limit(self):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        with pytest.raises(DegreeTooHigh, match="degree <= 3, got 4"):
            les_report(C, K, p, D, max_degree=4)

    def test_relative_groups_build_no_differential_of_the_base(self, monkeypatch):
        C, K, p = projection_fixture()
        D = trivial_system(C, FgAbGroup.cyclic(2))
        built = []
        d_presented = bwcoh._d_presented
        monkeypatch.setattr(
            bwcoh, "_d_presented",
            lambda cat, *args: built.append(cat.name) or d_presented(cat, *args),
        )
        relative_cohomology(C, K, p, D, 2)
        assert built == [K.name, K.name]


class TestGuards:
    def test_absolute_degree_limits(self):
        C, D = cyclic_setup(2)
        with pytest.raises(ValueError, match="nonnegative"):
            cohomology(C, D, -1)
        with pytest.raises(DegreeTooHigh):
            cohomology(C, D, 4)
        with pytest.raises(DegreeTooHigh):
            bar_cohomology(2, 4)

    def test_generator_cap(self):
        C, D = cyclic_setup(4)
        with pytest.raises(TooLarge, match="cap 5"):
            cohomology(C, D, 2, max_generators=5)

    def test_generator_cap_is_checked_before_any_level_is_built(self):
        # level 3 (20,127 generators) is under the default cap and its
        # homology would need dense matrices of that size; level 4 (325,154)
        # is over it
        C, D = dm_natural_system(2, 2)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="level 4 needs 325154 generators"):
            cohomology(C, D, 3)
        assert time.perf_counter() - start < 5

    def test_a_level_is_counted_before_its_chains_are_listed(self, monkeypatch):
        cx = CochainComplex(*dm_natural_system(2, 2), True)

        def listed(*args):
            raise AssertionError("chains listed before the level was counted")

        monkeypatch.setattr(FinCat, "composable_tuples", listed)
        with pytest.raises(TooLarge, match=r"level 4 needs 325154 generators \(cap 24000\)"):
            cx.level(4)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_level_sizes_match_the_built_levels(self, normalized):
        for C, D in [cyclic_setup(4), dm_natural_system(4, 1)]:
            for n in range(4):
                assert _level_size(C, D, n, normalized) == _build_level(C, D, n, normalized).ngens
