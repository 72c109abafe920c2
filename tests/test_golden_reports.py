"""Golden reports: the full rendered text of fixed-seed verifier runs.

Each case below builds one report of the square-group, pair-module,
ring or crossed-extension verifier and compares ``render()`` and
``render_jsonl()`` byte for byte with ``tests/golden/<case>.txt``. The
report files are exactly the cases' and the command line's program output
(``tests/test_cli.py``), so a dropped case takes its file with it. Failing
reports on sampled carriers are included on purpose: they pin the witness
strings and the order of random draws after a failure, which a passing
report cannot show. ``TestRaisedWitnesses`` pins the messages of the
pullback checks that raise instead of reporting.

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
from quadalg.errors import NotSurjective, PullbackDegenerate
from quadalg.abelian import FgAbGroup
from quadalg.nil2 import Qpm, SgMorphism, SquareGroup, qpm_verify, square_group_verify
from quadalg.sqring import verify_ring, znil, znil_monoid

from tests.test_cli import PROGRAM_GOLDEN
from tests.test_crossed import augmentation
from tests.test_nil2 import mod4_square_group
from tests.test_qpm import doubling_pair_module

GOLDEN = Path(__file__).parent / "golden"


def _broken_p():
    sg = mod4_square_group()
    bad = SquareGroup(e=sg.e, ee=sg.ee, H=sg.H, P=lambda a: ((2 * a[0]) % 4,))
    return square_group_verify(bad, samples=50, seed=0)


def _integer_bad_p():
    sg = znil().square_group
    bad = dataclasses.replace(sg, P=lambda a: (a[0],), name="integers with P = id")
    return square_group_verify(bad, samples=40, seed=3)


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
    "qpm_doubling": _qpm_doubling,
    "qpm_ztilde_integers": _qpm_ztilde_integers,
    "qpm_integers_squaring_boundary": _qpm_integers_squaring_boundary,
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


def test_golden_files_are_the_cases():
    """Every report file is a case's, besides the command line's program output."""
    files = sorted(path.name for path in GOLDEN.glob("*.txt"))
    assert files == sorted([*(f"{case}.txt" for case in CASES), PROGRAM_GOLDEN.name])


class TestRaisedWitnesses:
    """Messages of the checks that raise instead of reporting."""

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
