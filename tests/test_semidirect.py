"""Semidirect sums, split extensions, and crossed square groups."""
from __future__ import annotations

import random

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.errors import ActionShapeMismatch, NotASection, NotExact
from quadalg.nil2 import (
    SgMorphism,
    SquareGroup,
    crossed_square_group_verify,
    morphism_is_bijective,
    morphism_verify,
    semidirect,
    splitting_to_action,
    square_group_verify,
)


def flip_group() -> SquareGroup:
    """Z/2 with trivial quadratic part."""
    return SquareGroup(
        e=FgAbGroup((2,)),
        ee=FgAbGroup.trivial(),
        H=lambda g: (),
        P=lambda a: (0,),
        name="Z/2",
    )


def rotation_group() -> SquareGroup:
    """Z/4 with quadratic part Z/2, H zero, P the inclusion by doubling."""
    return SquareGroup(
        e=FgAbGroup((4,)),
        ee=FgAbGroup((2,)),
        H=lambda x: (0,),
        P=lambda a: ((2 * a[0]) % 4,),
        name="Z/4",
    )


def flip_action(x, g):
    return ((x[0] * g[0]) % 2,)


@pytest.fixture(scope="module")
def dihedral():
    return semidirect(flip_group(), rotation_group(), flip_action)


class TestSemidirect:
    def test_passes_the_square_group_axioms(self, dihedral):
        report = square_group_verify(dihedral, samples=200, seed=2)
        assert report.passed, report.render()

    def test_is_the_dihedral_group_of_order_eight(self, dihedral):
        e = dihedral.e
        elements = e.elements()
        assert len(elements) == 8
        a = ((1,), (1,))
        b = ((0,), (1,))
        assert e.add(a, b) != e.add(b, a)
        orders = sorted(
            next(n for n in range(1, 9) if e.is_zero(e.scalar(n, x))) for x in elements
        )
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_cross_effect_tracks_the_action(self, dihedral):
        rng = random.Random(3)
        A = rotation_group()
        for _ in range(100):
            gx = dihedral.e.sample(rng)
            hy = dihedral.e.sample(rng)
            (g, x), (h, y) = gx, hy
            first, second = dihedral.cross(gx, hy)
            assert first == ()
            expected = A.ee.add(
                A.cross(x, y),
                A.ee.sub(flip_action(x, h), A.tmap(flip_action(y, g))),
            )
            assert second == expected

    def test_rejects_an_action_that_is_not_biadditive(self):
        G, A = flip_group(), rotation_group()
        with pytest.raises(ActionShapeMismatch, match="module slot"):
            semidirect(G, A, lambda x, g: ((x[0] * (x[0] - 1) // 2 * g[0]) % 2,))

    def test_rejects_an_action_that_sees_p_images(self):
        # P: ee -> e is the identity on Z/2 here, so its image is all of
        # e and the multiplication action cannot factor through e/P(ee).
        torsion_pair = SquareGroup(
            e=FgAbGroup((2,)),
            ee=FgAbGroup((2,)),
            H=lambda x: (0,),
            P=lambda a: (a[0] % 2,),
            name="Z/2 with P = id",
        )
        assert square_group_verify(torsion_pair, samples=60, seed=0).passed
        with pytest.raises(ActionShapeMismatch, match="P-images"):
            semidirect(flip_group(), torsion_pair, lambda x, g: ((x[0] * g[0]) % 2,))


class TestSplittingToAction:
    def test_recovers_the_action_exactly(self, dihedral):
        G, A = flip_group(), rotation_group()
        include = SgMorphism(e=lambda x: ((0,), x), ee=lambda a: ((), a), name="include")
        section = SgMorphism(e=lambda g: (g, (0,)), ee=lambda u: (u, (0,)), name="section")
        retract = SgMorphism(e=lambda el: el[0], ee=lambda c: c[0], name="retract")
        split = splitting_to_action(dihedral, G, A, include, section, retract)
        for x in A.e.elements():
            for g in G.e.elements():
                assert split.action(x, g) == flip_action(x, g)
        report = morphism_verify(split.total, dihedral, split.iso, samples=120, seed=0)
        assert report.passed, report.render()
        assert morphism_is_bijective(split.total, dihedral, split.iso)

    def test_rejects_a_fake_section(self, dihedral):
        G, A = flip_group(), rotation_group()
        include = SgMorphism(e=lambda x: ((0,), x), ee=lambda a: ((), a))
        zero_section = SgMorphism(e=lambda g: ((0,), (0,)), ee=lambda u: ((), (0,)))
        retract = SgMorphism(e=lambda el: el[0], ee=lambda c: c[0])
        with pytest.raises(NotASection):
            splitting_to_action(dihedral, G, A, include, zero_section, retract)

    def test_rejects_a_non_exact_kernel(self, dihedral):
        G, A = flip_group(), rotation_group()
        doubled = SgMorphism(e=lambda x: ((0,), ((2 * x[0]) % 4,)), ee=lambda a: ((), a))
        section = SgMorphism(e=lambda g: (g, (0,)), ee=lambda u: (u, (0,)))
        retract = SgMorphism(e=lambda el: el[0], ee=lambda c: c[0])
        with pytest.raises(NotExact):
            splitting_to_action(dihedral, G, A, doubled, section, retract)


class TestCrossedSquareGroup:
    def test_identity_boundary_with_cross_action(self):
        from tests.test_nil2 import mod4_square_group

        sg = mod4_square_group()
        ident = SgMorphism(e=lambda x: x, ee=lambda a: a, name="id")
        report = crossed_square_group_verify(
            sg, sg, lambda x, g: sg.cross(x, g), ident, samples=80, seed=0
        )
        assert report.passed, report.render()

    def test_zero_boundary_breaks_the_cross_law(self):
        from tests.test_nil2 import mod4_square_group

        sg = mod4_square_group()
        zero = SgMorphism(e=lambda x: (0,), ee=lambda a: (0,), name="zero")
        report = crossed_square_group_verify(
            sg, sg, lambda x, g: sg.cross(x, g), zero, samples=80, seed=0
        )
        assert not report.passed
        names = [c.name for c in report.failures]
        assert "action along the boundary is the cross effect" in names
        assert all(c.witness for c in report.failures if c.witness is not None)
