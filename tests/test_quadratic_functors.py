"""Tests for the quadratic functor tables against the square-group tensor oracle."""
from __future__ import annotations

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.nil2 import SquareGroup, square_group_verify

from .oracles import (
    QUADRATIC_KINDS,
    QUADRATIC_MODULES,
    binary_functor,
    quadratic_functor,
    quadratic_on_decomposition,
    quadratic_tensor,
)


def small_groups(max_order: int) -> list[FgAbGroup]:
    groups = []
    for order in range(1, max_order + 1):
        seen = set()
        for parts in _factor_tuples(order):
            g = FgAbGroup.from_factors(list(parts))
            if g.invariant_factors not in seen:
                seen.add(g.invariant_factors)
                groups.append(g)
    return groups


def _factor_tuples(n: int, lo: int = 2):
    if n == 1:
        yield ()
        return
    for d in range(lo, n + 1):
        if n % d == 0:
            for rest in _factor_tuples(n // d, d):
                yield (d,) + rest


class TestTables:
    def test_known_values(self):
        Z = FgAbGroup.free(1)
        Z2 = FgAbGroup((2,))
        Z3 = FgAbGroup((3,))
        Z4 = FgAbGroup((4,))
        assert quadratic_functor("lambda2", Z).is_trivial()
        assert quadratic_functor("lambda2", Z2).is_trivial()
        assert quadratic_functor("sym2", Z) == Z
        assert quadratic_functor("sym2", Z4) == Z4
        assert quadratic_functor("gamma", Z) == Z
        assert quadratic_functor("gamma", Z2).invariant_factors == (4,)
        assert quadratic_functor("gamma", Z3).invariant_factors == (3,)
        assert quadratic_functor("gamma", Z4).invariant_factors == (8,)
        assert quadratic_functor("omega", Z).is_trivial()
        assert quadratic_functor("omega", Z4) == Z4
        assert quadratic_functor("whiteheadP", Z).invariant_factors == (0, 0)
        assert quadratic_functor("whiteheadP", Z2).invariant_factors == (4,)
        assert quadratic_functor("whiteheadP", Z3).invariant_factors == (3, 3)
        assert quadratic_functor("whiteheadP", Z4).invariant_factors == (2, 8)

    def test_rank_two_samples(self):
        g = FgAbGroup((2, 4))
        assert quadratic_functor("lambda2", g).invariant_factors == (2,)
        assert quadratic_functor("sym2", g).invariant_factors == (2, 2, 4)
        assert quadratic_functor("gamma", g).invariant_factors == (2, 4, 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            quadratic_functor("cube", FgAbGroup((2,)))


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", QUADRATIC_MODULES)
    def test_every_group_up_to_order_64(self, kind):
        groups = small_groups(64)
        assert len(groups) == 117
        for g in groups:
            assert quadratic_tensor(g, QUADRATIC_MODULES[kind]) == quadratic_functor(kind, g), g

    @pytest.mark.parametrize("kind", QUADRATIC_MODULES)
    def test_module_is_a_square_group(self, kind):
        report = square_group_verify(QUADRATIC_MODULES[kind])
        assert report.passed, report.render()

    def test_non_additive_h_rejected(self):
        Z = FgAbGroup.free(1)
        squaring = SquareGroup(Z, Z, lambda x: (x[0] * x[0],), lambda a: (0,), "squaring")
        with pytest.raises(ValueError, match="not additive"):
            quadratic_tensor(FgAbGroup((2,)), squaring)

    @pytest.mark.parametrize("kind", QUADRATIC_MODULES)
    def test_spot_groups(self, kind):
        # groups with free summands, which no finite enumeration reaches
        for factors in [(0,), (0, 0), (2, 0), (3, 6, 0)]:
            g = FgAbGroup(factors)
            assert quadratic_functor(kind, g) == quadratic_tensor(g, QUADRATIC_MODULES[kind]), (
                kind,
                factors,
            )


class TestExactSequences:
    def test_order_accounting(self):
        # |P(A)| = |A| |Sym2 A| and |A (x) A| = |Lambda2 A| |Sym2 A|, from
        # 0 -> Sym2 A -> P(A) -> A -> 0 and 0 -> Lambda2 A -> A (x) A -> Sym2 A -> 0
        for g in small_groups(64):
            p, s, lam = (
                quadratic_tensor(g, QUADRATIC_MODULES[kind]).order()
                for kind in ("whiteheadP", "sym2", "lambda2")
            )
            assert p == g.order() * s, g.invariant_factors
            assert binary_functor("tensor", g, g).order() == lam * s, g.invariant_factors


class TestOmegaInvariance:
    def test_decomposition_independence(self):
        # every multiset of cyclic factors presenting the same group gives
        # the same value, exercised over all orders up to 12 (for example
        # [6] against [2, 3], which present isomorphic groups)
        for order in range(1, 13):
            by_group: dict[tuple[int, ...], set[FgAbGroup]] = {}
            for parts in _factor_tuples(order):
                key = FgAbGroup.from_factors(list(parts)).invariant_factors
                by_group.setdefault(key, set()).add(
                    quadratic_on_decomposition("omega", list(parts))
                )
            for key, values in by_group.items():
                assert len(values) == 1, (order, key)

    def test_matches_invariant_form(self):
        for g in small_groups(12):
            direct = quadratic_on_decomposition("omega", list(g.invariant_factors))
            assert quadratic_functor("omega", g) == direct


class TestKindList:
    def test_registry(self):
        assert set(QUADRATIC_MODULES) <= set(QUADRATIC_KINDS)
        assert "omega" in QUADRATIC_KINDS and "omega" not in QUADRATIC_MODULES
