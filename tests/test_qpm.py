"""Quadratic pair modules: the fixtures and the verifier's laws."""
from __future__ import annotations

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.crossed import ztilde_construction
from quadalg.nil2 import Qpm, qpm_verify
from quadalg.sqring import znil


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
