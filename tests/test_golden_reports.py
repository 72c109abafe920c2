"""Golden reports: the full rendered text of fixed-seed verifier runs.

Each case below builds one report and compares ``render()`` and
``render_jsonl()`` byte for byte with ``tests/golden/<case>.txt``. Failing
reports on sampled carriers are included on purpose: they pin the
witness strings and the order of random draws after a failure, which a
passing report cannot show.

After a deliberate change to a report, rewrite the files with
``PYTHONPATH=src python -m tests.test_golden_reports`` and review the diff.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from quadalg.crossed import (
    cyclic_ring_extension,
    pullback_extension,
    verify_crossed,
    ztilde_construction,
)
from quadalg.errors import ActionShapeMismatch, NotSurjective, PullbackDegenerate
from quadalg.abelian import FgAbGroup
from quadalg.nil2 import (
    Qpm,
    SgMorphism,
    SquareGroup,
    crossed_square_group_verify,
    groupoid_verify,
    morphism_verify,
    qpm_groupoid_roundtrip,
    qpm_to_groupoid,
    qpm_verify,
    semidirect,
    square_group_verify,
)
from quadalg.sqring import verify_ring, znil, znil_monoid

from tests.test_crossed import augmentation
from tests.test_nil2 import mod4_square_group
from tests.test_qpm import binomial_pair_module, doubling_pair_module
from tests.test_semidirect import flip_group, rotation_group

GOLDEN = Path(__file__).parent / "golden"


def _broken_p():
    sg = mod4_square_group()
    bad = SquareGroup(e=sg.e, ee=sg.ee, H=sg.H, P=lambda a: ((2 * a[0]) % 4,))
    return square_group_verify(bad, samples=50, seed=0)


def _integer_bad_p():
    sg = znil().square_group
    bad = dataclasses.replace(sg, P=lambda a: (a[0],), name="integers with P = id")
    return square_group_verify(bad, samples=40, seed=3)


def _non_additive_morphism():
    sg = mod4_square_group()
    broken = SgMorphism(e=lambda x: ((x[0] * x[0]) % 4,), ee=lambda a: a)
    return morphism_verify(sg, sg, broken, samples=60, seed=0)


def _augmentation_morphism():
    R = znil_monoid(["s"], length_bound=4, sample_length=1)
    return morphism_verify(R.square_group, znil().square_group, augmentation(),
                           samples=40, seed=2)


def _augmentation_doubled_on_ee():
    R = znil_monoid(["s"], length_bound=4, sample_length=1)
    doubled = SgMorphism(e=augmentation().e, ee=lambda a: (2 * augmentation().ee(a)[0],))
    return morphism_verify(R.square_group, znil().square_group, doubled, samples=40, seed=2)


def _crossed_identity():
    sg = mod4_square_group()
    ident = SgMorphism(e=lambda x: x, ee=lambda a: a, name="id")
    return crossed_square_group_verify(sg, sg, lambda x, g: sg.cross(x, g), ident,
                                       samples=80, seed=0)


def _crossed_zero_boundary():
    sg = mod4_square_group()
    zero = SgMorphism(e=lambda x: (0,), ee=lambda a: (0,), name="zero")
    return crossed_square_group_verify(sg, sg, lambda x, g: sg.cross(x, g), zero,
                                       samples=80, seed=0)


def _crossed_integers_zero_action():
    sg = znil().square_group
    ident = SgMorphism(e=lambda x: x, ee=lambda a: a, name="id")
    return crossed_square_group_verify(sg, sg, lambda x, g: (0,), ident, samples=40, seed=6)


def _qpm_doubling():
    return qpm_verify(doubling_pair_module(), samples=300, seed=1)


def _qpm_ztilde_integers():
    return qpm_verify(ztilde_construction(znil(), samples=30).qpm(), samples=40, seed=4)


def _qpm_integers_squaring_boundary():
    integers = FgAbGroup.free(1)
    Q = Qpm(c0=integers, c1=integers, cee=integers,
            H=lambda x: (x[0] * (x[0] - 1) // 2,), P=lambda a: (0,),
            boundary=lambda x: (x[0] * abs(x[0]),), name="squaring boundary")
    return qpm_verify(Q, samples=40, seed=8)


def _roundtrip_binomial():
    return qpm_groupoid_roundtrip(binomial_pair_module(), samples=200, seed=3)


def _groupoid_twisted_composition():
    integers = FgAbGroup.free(1)
    Q = Qpm(c0=integers, c1=integers, cee=FgAbGroup.trivial(),
            H=lambda x: (), P=lambda a: (0,), boundary=lambda x: x,
            name="integers on themselves")
    gpd = qpm_to_groupoid(Q)
    twisted = lambda f, g: (f[0], (f[1][0] + g[1][0] + f[0][0] % 2,))
    return groupoid_verify(dataclasses.replace(gpd, compose=twisted), samples=30, seed=1)


def _ring_znil_square():
    return verify_ring(znil(), samples=200, seed=0)


def _ring_znil_quadratic():
    return verify_ring(znil("quadratic"), samples=200, seed=1)


def _ring_znil_monoid():
    return verify_ring(znil_monoid(["s", "t"], 6), samples=30, seed=0)


def _ring_znil_broken_h():
    return verify_ring(dataclasses.replace(znil(), H=lambda x: (x[0] * x[0],)), samples=30, seed=5)


def _crossed_ztilde_integers():
    return verify_crossed(ztilde_construction(znil(), samples=30), samples=40, seed=0)


def _crossed_cyclic():
    return verify_crossed(cyclic_ring_extension(4, 2), samples=120, seed=0)


def _crossed_pullback():
    base = ztilde_construction(znil(), samples=30)
    ring_new = znil_monoid(["s"], length_bound=6, sample_length=2)
    section = lambda n: ring_new.e.make({(): n[0]}, {})
    pulled = pullback_extension(base, ring_new, augmentation(), section, samples=30, seed=5)
    return verify_crossed(pulled, samples=20, seed=6)


def _crossed_ztilde_bad_right_action():
    ext = ztilde_construction(znil(), samples=30)
    bad = dataclasses.replace(ext, act_right=lambda r, y: ext.c1.zero())
    return verify_crossed(bad, samples=30, seed=7)


CASES = {
    "square_group_broken_p": _broken_p,
    "square_group_integers_bad_p": _integer_bad_p,
    "morphism_non_additive": _non_additive_morphism,
    "morphism_augmentation": _augmentation_morphism,
    "morphism_augmentation_doubled_on_ee": _augmentation_doubled_on_ee,
    "crossed_square_group_identity": _crossed_identity,
    "crossed_square_group_zero_boundary": _crossed_zero_boundary,
    "crossed_square_group_integers_zero_action": _crossed_integers_zero_action,
    "qpm_doubling": _qpm_doubling,
    "qpm_ztilde_integers": _qpm_ztilde_integers,
    "qpm_integers_squaring_boundary": _qpm_integers_squaring_boundary,
    "groupoid_roundtrip_binomial": _roundtrip_binomial,
    "groupoid_twisted_composition": _groupoid_twisted_composition,
    "ring_znil_square": _ring_znil_square,
    "ring_znil_quadratic": _ring_znil_quadratic,
    "ring_znil_monoid": _ring_znil_monoid,
    "ring_znil_broken_h": _ring_znil_broken_h,
    "crossed_ztilde_integers": _crossed_ztilde_integers,
    "crossed_cyclic_4_2": _crossed_cyclic,
    "crossed_pullback": _crossed_pullback,
    "crossed_ztilde_bad_right_action": _crossed_ztilde_bad_right_action,
}


def _text(case: str) -> str:
    report = CASES[case]()
    return report.render() + "\n" + report.render_jsonl() + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_text(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert _text(case) == expected


class TestRaisedWitnesses:
    """Messages of the checks that raise instead of reporting."""

    def test_semidirect_module_slot(self):
        action = lambda x, g: ((x[0] * (x[0] - 1) // 2 * g[0]) % 2,)
        with pytest.raises(ActionShapeMismatch) as info:
            semidirect(flip_group(), rotation_group(), action)
        assert str(info.value) == EXPECTED["module slot"]

    def test_semidirect_group_slot(self):
        action = lambda x, g: ((x[0] * (g[0] * (g[0] - 1) // 2)) % 2,)
        with pytest.raises(ActionShapeMismatch) as info:
            semidirect(rotation_group(), rotation_group(), action)
        assert str(info.value) == EXPECTED["group slot"]

    def test_semidirect_p_images(self):
        torsion_pair = SquareGroup(
            e=flip_group().e,
            ee=flip_group().e,
            H=lambda x: (0,),
            P=lambda a: (a[0] % 2,),
        )
        action = lambda x, g: ((x[0] * g[0]) % 2,)
        with pytest.raises(ActionShapeMismatch) as info:
            semidirect(flip_group(), torsion_pair, action)
        assert str(info.value) == EXPECTED["left"]
        with pytest.raises(ActionShapeMismatch) as info:
            semidirect(torsion_pair, rotation_group(), action)
        assert str(info.value) == EXPECTED["right"]

    @pytest.fixture(scope="class")
    def parts(self):
        base = ztilde_construction(znil(), samples=30)
        ring_new = znil_monoid(["s"], length_bound=6, sample_length=2)
        section = lambda n: ring_new.e.make({(): n[0]}, {})
        return base, ring_new, section

    def test_pullback_section_misses(self, parts):
        base, ring_new, _ = parts
        stuck = lambda n: ring_new.e.make({(): 0}, {})
        with pytest.raises(NotSurjective) as info:
            pullback_extension(base, ring_new, augmentation(), stuck, samples=20, seed=5)
        assert str(info.value) == EXPECTED["section"]

    def test_pullback_not_additive(self, parts):
        base, ring_new, section = parts
        sees_commutators = SgMorphism(
            e=lambda x: (sum(n for _, n in x.linear) + (1 if x.comm else 0),),
            ee=augmentation().ee,
        )
        with pytest.raises(PullbackDegenerate) as info:
            pullback_extension(base, ring_new, sees_commutators, section, samples=20, seed=5)
        assert str(info.value) == EXPECTED["additive"]

    def test_pullback_not_multiplicative(self, parts):
        base, ring_new, section = parts
        added = dataclasses.replace(ring_new, mul=ring_new.e.add)
        with pytest.raises(PullbackDegenerate) as info:
            pullback_extension(base, added, augmentation(), section, samples=20, seed=5)
        assert str(info.value) == EXPECTED["multiplicative"]

    def test_pullback_unit(self, parts):
        base, ring_new, section = parts
        doubled_one = dataclasses.replace(ring_new, one=ring_new.two())
        with pytest.raises(PullbackDegenerate) as info:
            pullback_extension(base, doubled_one, augmentation(), section, samples=20, seed=5)
        assert str(info.value) == EXPECTED["unit"]

    def test_pullback_h_images(self, parts):
        base, ring_new, section = parts
        crushed = SgMorphism(e=augmentation().e, ee=lambda a: (0,))
        with pytest.raises(PullbackDegenerate) as info:
            pullback_extension(base, ring_new, crushed, section, samples=20, seed=5)
        assert str(info.value) == EXPECTED["H images"]


EXPECTED = {
    "module slot": "action not additive in the module slot: x=(1,) y=(1,) g=(1,)",
    "group slot": "action not additive in the group slot: x=(1,) g=(1,) h=(1,)",
    "left": "action does not kill P-images on the left: a=(1,) g=(1,)",
    "right": "action does not kill P-images on the right: x=(1,) u=(1,)",
    "section": "section misses (-1,)",
    "additive": (
        "f not additive at (Nil2Element(linear=(((), 2), (('s',), 1)), "
        "comm=((((), ('s',)), -1), (((), ('s', 's')), 2))), "
        "Nil2Element(linear=(), comm=((((), ('s',)), -2),)))"
    ),
    "multiplicative": (
        "f not multiplicative at (Nil2Element(linear=(((), -2), (('s',), 3)), comm=()), "
        "Nil2Element(linear=((('s', 's'), 1),), comm=((((), ('s', 's')), -3),)))"
    ),
    "unit": "f does not preserve the unit",
    "H images": "H images disagree at Nil2Element(linear=((('s',), 3),), comm=())",
}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN / f"{name}.txt").write_text(_text(name))
        print(f"wrote {name}")
