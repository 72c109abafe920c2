"""Cohomology of finite categories, checked against the bar resolution."""
from __future__ import annotations

import random
import time

import pytest

from quadalg import bwcoh
from quadalg.abelian import FgAbGroup, mat_vec
from quadalg.bwcoh import (
    CochainComplex,
    FinCat,
    _build_level,
    _level_size,
    _canonical_map,
    _d_presented,
    bar_cohomology,
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
from quadalg.errors import (
    DegreeTooHigh,
    InfeasibleSize,
    NotIdentityOnObjects,
    NotSurjective,
    TooLarge,
)


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

    def test_matrix_category_growth_guard(self):
        with pytest.raises(TooLarge):
            FinCat.mod_r(2, 4)

    def test_rejects_a_nonpositive_cyclic_order(self):
        with pytest.raises(ValueError, match="must be positive"):
            one_object_cyclic(0)


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


class TestDifferential:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_squares_to_zero(self, m, normalized):
        C, D = cyclic_setup(m)
        levels = {n: _build_level(C, D, n, normalized, 100000) for n in range(4)}
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

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_dict_coboundary_matches_the_matrix_differential(self, degree):
        rng = random.Random(7)
        m = 4
        C, D = cyclic_setup(m)
        src = _build_level(C, D, degree, False, 100000)
        tgt = _build_level(C, D, degree + 1, False, 100000)
        dmat = _d_presented(C, D, src, tgt)
        for _ in range(12):
            cochain = {}
            for key in src.keys:
                if rng.random() < 0.7:
                    cochain[key] = tuple(
                        rng.randrange(m) for _ in range(src.block[key].ngens)
                    )
            image = coboundary(C, D, degree, cochain)
            via_matrix = mat_vec(dmat, src.assemble(cochain))
            for key in tgt.keys:
                block = tgt.block[key]
                off = tgt.offset[key]
                want = block.reduce(
                    tuple(via_matrix[off + i] for i in range(block.ngens))
                )
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


class TestMatrixBimodule:
    def test_natural_system_laws(self):
        _, D = dm_natural_system(2, 1)
        assert D.name == "bimodule Z/2 matrices"
        report = natsystem_verify(D)
        assert report.passed, report.render()

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
        with pytest.raises(InfeasibleSize, match="cap 5"):
            cohomology(C, D, 2, max_generators=5)

    def test_generator_cap_is_checked_before_any_level_is_built(self):
        # level 3 (20,127 generators) is under the default cap and would go
        # into a dense Smith form; level 4 (325,154) is not
        C, D = dm_natural_system(2, 2)
        start = time.perf_counter()
        with pytest.raises(InfeasibleSize, match="level 4 needs 325154 generators"):
            cohomology(C, D, 3)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("normalized", [False, True])
    def test_level_sizes_match_the_built_levels(self, normalized):
        for C, D in [cyclic_setup(4), dm_natural_system(4, 1)]:
            for n in range(4):
                assert _level_size(C, D, n, normalized) == _build_level(
                    C, D, n, normalized, 100000
                ).ngens
