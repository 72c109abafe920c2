"""Golden cohomology: the values and witness classes of fixed computations.

Each cohomology case pins a sha256 digest of everything a change to the
solver must leave unchanged: the invariant factors, the kernel basis with
the basis and projection matrices of the homology witness, both
differentials, and the representative and class of every generator class.
The cases cover both chain kinds on the arrow of ``tests/test_bwcoh.py``,
whose level factors form no divisibility chain, on the parallel pair
with the arrow's coefficients pulled back, and on full chains of the
rank <= 1 lifting problem of ``cyclic_ring_extension(4, 2)``. The projection cases pin, for
each projection fixture with its coefficients, the rendered long exact
sequence report and the invariant factors of the relative groups in
degrees 1 to 3. ``cyc4_z2z4`` pins the invariant factors of constant
``Z/2 + Z/4`` coefficients on ``Z/4`` in degrees 0 to 3 on both chain kinds.

After a deliberate change to these values, rewrite
``tests/golden/cohomology.json`` with
``PYTHONPATH=src python -m tests.test_cohomology_golden`` and review the diff.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.crossed import cyclic_ring_extension
from quadalg.bwcoh import (
    CochainComplex,
    _pulled_system,
    coboundary,
    cohomology,
    dm_natural_system,
    les_report,
    one_object_cyclic,
    relative_cohomology,
    trivial_system,
)
from quadalg.errors import NotInKernel
from quadalg.modq import ModQTrackExtension

from tests.oracles import homology_basis
from tests.test_bwcoh import (
    arrow_fixture,
    cyclic_projection_fixture,
    cyclic_setup,
    pair_projection_fixture,
    projection_fixture,
)

GOLDEN = Path(__file__).parent / "golden" / "cohomology.json"

CHAIN_KINDS = {"full": False, "norm": True}


def pulled_pair():
    """The parallel pair with the arrow's coefficients pulled back."""
    C, K, p, D = pair_projection_fixture()
    return K, _pulled_system(K, D, p)


def modq42():
    """The base and kernel-module coefficients of ``cyclic_ring_extension(4, 2)``
    at rank <= 1."""
    te = ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=1)
    return te.base, te.system


# name -> (category and coefficients, degree, normalized)
COHOMOLOGY_CASES = {
    **{f"dm4r1_h{n}": (lambda: dm_natural_system(4, 1), n, None) for n in range(4)},
    "cyc3_h3_full": (lambda: cyclic_setup(3), 3, False),
    "cyc10_h1": (lambda: cyclic_setup(10), 1, None),
    **{f"modq42_h{n}": (modq42, n, False) for n in range(4)},
    **{
        f"{name}_h{n}_{kind}": (setup, n, normalized)
        for name, setup in (("arrow", arrow_fixture), ("pair", pulled_pair))
        for n in range(4)
        for kind, normalized in CHAIN_KINDS.items()
    },
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def cohomology_witnesses(name: str) -> dict:
    setup, degree, normalized = COHOMOLOGY_CASES[name]
    C, D = setup()
    res = cohomology(C, D, degree, normalized=normalized)
    hom = CochainComplex(C, D, res.normalized).homology(degree)
    reps = [hom.representative(g) for g in res.group.generators()]
    classes = [res.class_of(res.representative(g)) for g in res.group.generators()]
    assert classes == res.group.generators()
    kernel_basis, basis_matrix = homology_basis(hom)
    return {
        "invariant_factors": res.invariant_factors,
        "kernel_basis": kernel_basis,
        "basis_matrix": basis_matrix,
        "project": hom._project,
        "d_in": res.d_in.matrix,
        "d_out": res.d_out.matrix,
        "representative": reps,
        "class_of": classes,
    }


def constant_z2(fixture):
    """``fixture``'s projection with constant Z/2 coefficients."""
    def setup():
        C, K, p = fixture()
        return C, K, p, trivial_system(C, FgAbGroup.cyclic(2))
    return setup


# name -> (C, K, p, coefficients on C)
PROJECTION_CASES = {
    "projection": constant_z2(projection_fixture),
    "cyclic_projection": constant_z2(cyclic_projection_fixture),
    "pair_projection": pair_projection_fixture,
}


def projection_setup(name: str):
    return PROJECTION_CASES[name]()


def les_render(name: str = "projection") -> str:
    C, K, p, D = projection_setup(name)
    return les_report(C, K, p, D, max_degree=2).render()


def relative_factors(name: str) -> dict:
    C, K, p, D = projection_setup(name)
    return {f"h{j}": relative_cohomology(C, K, p, D, j).invariant_factors for j in (1, 2, 3)}


def z2z4_factors() -> dict:
    C = one_object_cyclic(4)
    D = trivial_system(C, FgAbGroup.from_factors([2, 4]))
    return {
        f"h{n}_{kind}": cohomology(C, D, n, normalized=normalized).invariant_factors
        for n in range(4)
        for kind, normalized in CHAIN_KINDS.items()
    }


def digests() -> dict:
    out = {
        name: {key: digest(v) for key, v in cohomology_witnesses(name).items()}
        for name in COHOMOLOGY_CASES
    }
    for name in PROJECTION_CASES:
        out[f"les_{name}"] = {"render": digest(les_render(name))}
        out[f"relative_{name}"] = {key: digest(v) for key, v in relative_factors(name).items()}
    out["cyc4_z2z4"] = {key: digest(v) for key, v in z2z4_factors().items()}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_keys_are_the_cases(golden):
    projection_keys = [f"{kind}_{name}" for name in PROJECTION_CASES for kind in ("les", "relative")]
    assert sorted(golden) == sorted([*COHOMOLOGY_CASES, *projection_keys, "cyc4_z2z4"])


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_CASES))
def test_cohomology_witnesses(golden, name):
    got = {key: digest(v) for key, v in cohomology_witnesses(name).items()}
    assert got == golden[name]


def chain_groups(C, D, n: int, normalized: bool) -> dict:
    """The coefficient group of each degree-``n`` chain (each object in
    degree zero)."""
    if n == 0:
        return {o: D.group_at(C.identity(o)) for o in C.objects}
    return {t: D.group_at(C.product(t)) for t in C.composable_tuples(n, normalized)}


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_CASES))
def test_cohomology_contract(name):
    """The contract of a cohomology result, read through its public names
    alone: representatives classify back to their classes, coboundaries of
    seeded random cochains (the dict route) are cocycles of class 0, and a
    cochain that is not a cocycle is refused."""
    setup, degree, normalized = COHOMOLOGY_CASES[name]
    C, D = setup()
    res = cohomology(C, D, degree, normalized=normalized)
    for g in res.group.generators():
        assert res.class_of(res.representative(g)) == g
    rng = random.Random(11)
    if degree:
        below = chain_groups(C, D, degree - 1, res.normalized)
        for _ in range(3):
            x = {k: G.sample(rng) for k, G in below.items()}
            z = coboundary(C, D, degree - 1, x, res.normalized)
            assert res.is_cocycle(z)
            assert res.class_of(z) == res.group.zero()
    units = (
        {k: G.generator(i)}
        for k, G in chain_groups(C, D, degree, res.normalized).items()
        for i in range(G.ngens)
    )
    broken = list(itertools.islice((u for u in units if not res.is_cocycle(u)), 3))
    assert bool(broken) != res.d_out.is_zero_map()
    for u in broken:
        with pytest.raises(NotInKernel):
            res.class_of(u)


def test_long_exact_sequence_report(golden):
    assert {"render": digest(les_render())} == golden["les_projection"]


def test_cyclic_long_exact_sequence_report(golden):
    assert {"render": digest(les_render("cyclic_projection"))} == golden["les_cyclic_projection"]


def test_pair_long_exact_sequence_report(golden):
    assert {"render": digest(les_render("pair_projection"))} == golden["les_pair_projection"]


@pytest.mark.parametrize("name", sorted(PROJECTION_CASES))
def test_relative_invariant_factors(golden, name):
    got = {key: digest(v) for key, v in relative_factors(name).items()}
    assert got == golden[f"relative_{name}"]


def test_multi_factor_coefficients(golden):
    assert {key: digest(v) for key, v in z2z4_factors().items()} == golden["cyc4_z2z4"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
