"""Quadratic pair modules, their homology, and the groupoid dictionary."""
from __future__ import annotations

import dataclasses

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.crossed import ztilde_construction
from quadalg.errors import NotAQpm, NotEeAntidiscrete
from quadalg.nil2 import (
    Qpm,
    SgMorphism,
    groupoid_to_qpm,
    qpm_groupoid_roundtrip,
    qpm_homology,
    qpm_to_groupoid,
    qpm_verify,
    semidirect,
)
from quadalg.sqring import znil

from tests.test_semidirect import flip_action, flip_group, rotation_group


def z_mod(n: int) -> FgAbGroup:
    return FgAbGroup((n,))


def identity_pair_module() -> Qpm:
    """Zero boundary on Z/2 with H and P both the identity."""
    return Qpm(
        c0=z_mod(2),
        c1=z_mod(2),
        cee=z_mod(2),
        H=lambda x: (x[0] % 2,),
        P=lambda a: (a[0] % 2,),
        boundary=lambda x: (0,),
        name="identity pair module",
    )


def binomial_pair_module() -> Qpm:
    """Zero boundary with the binomial H on Z/4."""
    return Qpm(
        c0=z_mod(4),
        c1=z_mod(2),
        cee=z_mod(2),
        H=lambda x: (x[0] * (x[0] - 1) // 2 % 2,),
        P=lambda a: (a[0] % 2,),
        boundary=lambda x: (0,),
        name="binomial pair module",
    )


def doubling_pair_module() -> Qpm:
    """Injective boundary Z/2 -> Z/4 by doubling, H zero."""
    return Qpm(
        c0=z_mod(4),
        c1=z_mod(2),
        cee=z_mod(2),
        H=lambda x: (0,),
        P=lambda a: (a[0] % 2,),
        boundary=lambda x: ((2 * x[0]) % 4,),
        name="doubling pair module",
    )


class TestQpmVerify:
    @pytest.mark.parametrize(
        "make",
        [identity_pair_module, binomial_pair_module, doubling_pair_module],
    )
    def test_fixtures_pass(self, make):
        report = qpm_verify(make(), samples=300, seed=1)
        assert report.passed, report.render()

    def test_ztilde_over_znil_is_a_pair_module(self):
        Q = ztilde_construction(znil()).qpm()
        report = qpm_verify(Q, samples=120, seed=4)
        assert report.passed, report.render()

    def test_infinite_carriers_skip_the_kernel_scan(self):
        integers = FgAbGroup.free(1)
        trivial = FgAbGroup.trivial()
        Q = Qpm(
            c0=integers,
            c1=integers,
            cee=trivial,
            H=lambda x: (),
            P=lambda a: (0,),
            boundary=lambda x: x,
            name="integers on themselves",
        )
        report = qpm_verify(Q, samples=150, seed=2)
        assert report.passed, report.render()
        assert any("kernel centrality skipped" in n for n in report.notes)


class TestQpmHomology:
    def test_zero_boundary_keeps_both_levels(self):
        h0, h1 = qpm_homology(identity_pair_module())
        assert h0 == FgAbGroup((2,))
        assert h1 == FgAbGroup((2,))
        h0, h1 = qpm_homology(binomial_pair_module())
        assert h0 == FgAbGroup((4,))
        assert h1 == FgAbGroup((2,))

    def test_injective_boundary_kills_the_kernel(self):
        h0, h1 = qpm_homology(doubling_pair_module())
        assert h0 == FgAbGroup((2,))
        assert h1.is_trivial()

    def test_rejects_a_non_normal_image(self):
        dihedral = semidirect(flip_group(), rotation_group(), flip_action)
        Q = Qpm(
            c0=dihedral.e,
            c1=z_mod(2),
            cee=z_mod(2),
            H=lambda g: (0,),
            P=lambda a: (0,),
            boundary=lambda x: ((x[0] % 2,), (0,)),
            name="reflection image",
        )
        with pytest.raises(NotAQpm, match="not normal"):
            qpm_homology(Q)

    def test_rejects_a_nonabelian_cokernel(self):
        dihedral = semidirect(flip_group(), rotation_group(), flip_action)
        trivial = FgAbGroup.trivial()
        Q = Qpm(
            c0=dihedral.e,
            c1=trivial,
            cee=z_mod(2),
            H=lambda g: (0,),
            P=lambda a: (),
            boundary=lambda x: dihedral.e.zero(),
            name="dihedral cokernel",
        )
        with pytest.raises(NotAQpm, match="not abelian"):
            qpm_homology(Q)

    def test_rejects_a_noncentral_kernel(self):
        dihedral = semidirect(flip_group(), rotation_group(), flip_action)
        trivial = FgAbGroup.trivial()
        Q = Qpm(
            c0=trivial,
            c1=dihedral.e,
            cee=z_mod(2),
            H=lambda g: (0,),
            P=lambda a: dihedral.e.zero(),
            boundary=lambda x: (),
            name="dihedral kernel",
        )
        with pytest.raises(NotAQpm, match="not central"):
            qpm_homology(Q)


class TestGroupoidDictionary:
    def test_arrows_run_from_source_to_shifted_target(self):
        gpd = qpm_to_groupoid(doubling_pair_module())
        f = ((1,), (1,))
        assert gpd.source.e(f) == (1,)
        assert gpd.target.e(f) == (3,)
        g = ((3,), (1,))
        m = gpd.compose(f, g)
        assert gpd.source.e(m) == (1,)
        assert gpd.target.e(m) == gpd.target.e(g)
        with pytest.raises(ValueError, match="not composable"):
            gpd.compose(f, f)

    def test_units_are_identity_arrows(self):
        gpd = qpm_to_groupoid(doubling_pair_module())
        for g in gpd.obj.e.elements():
            u = gpd.unit.e(g)
            assert gpd.source.e(u) == g
            assert gpd.target.e(u) == g
            f = (g, (1,))
            assert gpd.compose(u, f) == f

    @pytest.mark.parametrize(
        "make",
        [identity_pair_module, binomial_pair_module, doubling_pair_module],
    )
    def test_roundtrip_recovers_the_pair_module(self, make):
        report = qpm_groupoid_roundtrip(make(), samples=200, seed=3)
        assert report.passed, report.render()
        names = [c.name for c in report.checks]
        assert "groupoid: composition additive" in names
        assert "boundary preserved" in names
        assert "kernel carrier matches" in names

    def test_rejects_a_groupoid_without_a_shared_quadratic_part(self):
        gpd = qpm_to_groupoid(identity_pair_module())
        collapsed = SgMorphism(
            e=gpd.target.e, ee=lambda c: c[0], name="collapsed target"
        )
        broken = dataclasses.replace(gpd, target=collapsed)
        with pytest.raises(NotEeAntidiscrete):
            groupoid_to_qpm(broken)
