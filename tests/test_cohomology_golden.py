"""Golden cohomology: the values and witness classes of fixed computations.

Each cohomology case pins a sha256 digest of everything a change to the
solver must leave unchanged: the invariant factors, the kernel basis with
the basis and projection matrices of the homology witness, both
differentials, and the representative and class of every generator class.
One more case pins the rendered long exact sequence report of the
projection fixture in ``tests/test_bwcoh.py``.

After a deliberate change to these values, rewrite
``tests/golden/cohomology.json`` with
``PYTHONPATH=src python -m tests.test_cohomology_golden`` and review the diff.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from quadalg.abelian import FgAbGroup, mat_vec
from quadalg.bwcoh import cohomology, dm_natural_system, les_report, trivial_system

from tests.test_bwcoh import cyclic_setup, projection_fixture

GOLDEN = Path(__file__).parent / "golden" / "cohomology.json"

# name -> (category and coefficients, degree, normalized)
COHOMOLOGY_CASES = {
    **{f"dm4r1_h{n}": (lambda: dm_natural_system(4, 1), n, None) for n in range(4)},
    "cyc3_h3_full": (lambda: cyclic_setup(3), 3, False),
    "cyc10_h1": (lambda: cyclic_setup(10), 1, None),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def cochain_of(res, coords) -> dict:
    """The cochain ``{chain: block coordinates}`` lifting level coordinates."""
    level = res.level
    v = mat_vec(level.lift, coords)
    return {
        k: tuple(v[level.offset[k] : level.offset[k] + level.block[k].ngens])
        for k in level.keys
    }


def cohomology_witnesses(name: str) -> dict:
    setup, degree, normalized = COHOMOLOGY_CASES[name]
    C, D = setup()
    res = cohomology(C, D, degree, normalized=normalized)
    hom = res.hom
    reps = [hom.representative(g) for g in res.group.generators()]
    classes = [res.class_of(cochain_of(res, r)) for r in reps]
    assert classes == res.group.generators()
    return {
        "invariant_factors": res.invariant_factors,
        "kernel_basis": hom.kernel_basis,
        "basis_matrix": hom._basis_matrix,
        "project": hom._project,
        "d_in": res.d_in.matrix,
        "d_out": res.d_out.matrix,
        "representative": reps,
        "class_of": classes,
    }


def les_render() -> str:
    C, K, p = projection_fixture()
    return les_report(C, K, p, trivial_system(C, FgAbGroup.cyclic(2)), max_degree=2).render()


def digests() -> dict:
    out = {
        name: {key: digest(v) for key, v in cohomology_witnesses(name).items()}
        for name in COHOMOLOGY_CASES
    }
    out["les_projection"] = {"render": digest(les_render())}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_CASES))
def test_cohomology_witnesses(golden, name):
    got = {key: digest(v) for key, v in cohomology_witnesses(name).items()}
    assert got == golden[name]


def test_long_exact_sequence_report(golden):
    assert {"render": digest(les_render())} == golden["les_projection"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
