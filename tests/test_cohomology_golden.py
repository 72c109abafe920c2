"""Golden cohomology: the values and witness classes of fixed computations.

Each cohomology case pins a sha256 digest of everything a change to the
solver must leave unchanged: the invariant factors, the kernel basis with
the basis and projection matrices of the homology witness, both
differentials, and the representative and class of every generator class.
The projection cases pin, for each projection fixture in
``tests/test_bwcoh.py``, the rendered long exact sequence report and the
invariant factors of the relative groups in degrees 1 to 3.

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
from quadalg.bwcoh import (
    cohomology,
    dm_natural_system,
    les_report,
    relative_cohomology,
    trivial_system,
)

from tests.test_bwcoh import cyclic_projection_fixture, cyclic_setup, projection_fixture

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


# name -> projection fixture, each with constant Z/2 coefficients
PROJECTION_CASES = {
    "projection": projection_fixture,
    "cyclic_projection": cyclic_projection_fixture,
}


def projection_setup(name: str):
    C, K, p = PROJECTION_CASES[name]()
    return C, K, p, trivial_system(C, FgAbGroup.cyclic(2))


def les_render(name: str = "projection") -> str:
    C, K, p, D = projection_setup(name)
    return les_report(C, K, p, D, max_degree=2).render()


def relative_factors(name: str) -> dict:
    C, K, p, D = projection_setup(name)
    return {f"h{j}": relative_cohomology(C, K, p, D, j).invariant_factors for j in (1, 2, 3)}


def digests() -> dict:
    out = {
        name: {key: digest(v) for key, v in cohomology_witnesses(name).items()}
        for name in COHOMOLOGY_CASES
    }
    for name in PROJECTION_CASES:
        out[f"les_{name}"] = {"render": digest(les_render(name))}
        out[f"relative_{name}"] = {key: digest(v) for key, v in relative_factors(name).items()}
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


def test_cyclic_long_exact_sequence_report(golden):
    assert {"render": digest(les_render("cyclic_projection"))} == golden["les_cyclic_projection"]


@pytest.mark.parametrize("name", sorted(PROJECTION_CASES))
def test_relative_invariant_factors(golden, name):
    got = {key: digest(v) for key, v in relative_factors(name).items()}
    assert got == golden[f"relative_{name}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
