"""Property tests of Smith forms, factor-once solves and zero maps.

The oracle is ``sympy``'s ``smith_normal_form``, which shares no code with
``quadalg``; the certificates are checked against ``smith_reference``, the
eager Smith form that ``smith`` replaced. Lattice membership is decided from it by an index count: ``b``
lies in the column lattice of ``A`` exactly when appending ``b`` changes
neither the rank nor the product of the nonzero invariant factors.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from quadalg import abelian
from quadalg.abelian import (
    AbMap,
    Factorization,
    FgAbGroup,
    columns,
    identity,
    in_lattice,
    mat_vec,
    smith,
)
from quadalg.bwcoh import cohomology, one_object_cyclic, trivial_system
from quadalg.errors import ShapeMismatch

from .oracles import smith_reference

PROPERTY = settings(max_examples=150, deadline=None)
CERTIFICATES = ("U", "V", "Uinv", "Vinv")


@st.composite
def matrices(draw, min_dim=0, max_dim=5, bound=9):
    """``(A, m, n)`` for a random ``m`` by ``n`` integer matrix ``A``."""
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    entries = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return [draw(entries) for _ in range(m)], m, n


@st.composite
def smith_forms(draw, max_dim=6):
    """A random matrix already in Smith form, zero rows and columns included."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    diag, d = [], 1
    for _ in range(min(m, n)):
        d *= draw(st.sampled_from([0, 1, 1, 2, 3, 5]))
        diag.append(d)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]


def sympy_diagonal(A) -> list[int]:
    S = smith_normal_form(Matrix(A), domain=ZZ)
    return [int(S[i, i]) for i in range(min(S.shape))]


def sympy_in_lattice(A, b) -> bool:
    if not A or not A[0]:
        return not any(b)

    def index_data(M):
        d = [x for x in sympy_diagonal(M) if x]
        return len(d), math.prod(abs(x) for x in d)

    return index_data(A) == index_data([row + [x] for row, x in zip(A, b)])


class TestSmith:
    @PROPERTY
    @given(matrices(min_dim=1))
    def test_diagonal_matches_sympy_up_to_sign(self, case):
        A, _, _ = case
        assert smith(A).diagonal == [abs(d) for d in sympy_diagonal(A)]

    @PROPERTY
    @given(smith_forms())
    def test_smith_form_input_is_returned_with_identity_certificates(self, M):
        m, n = len(M), len(M[0]) if M else 0
        r = smith(M)
        assert r.S == M
        assert (r.U, r.Uinv) == (identity(m), identity(m))
        assert (r.V, r.Vinv) == (identity(n), identity(n))

    @PROPERTY
    @given(st.one_of(matrices(max_dim=8).map(lambda case: case[0]), smith_forms()), st.data())
    def test_agrees_with_the_eager_reference(self, M, data):
        ref = smith_reference(M)
        r = smith(M)
        assert r.S == ref.S
        order = data.draw(st.permutations(CERTIFICATES))
        for name in order[: data.draw(st.integers(1, len(order)))]:
            assert getattr(r, name) == getattr(ref, name), name

    def test_agrees_with_the_eager_reference_on_a_cohomology_kernel(self, monkeypatch):
        # The matrix whose kernel gives the 1-cocycles of Z/10 with trivial
        # Z/10 coefficients: d^1 beside the relations of the target level.
        seen = []

        def recording_kernel_basis(A, ncols=None):
            seen.append(A)
            return kernel_basis(A, ncols)

        kernel_basis = abelian.kernel_basis
        monkeypatch.setattr(abelian, "kernel_basis", recording_kernel_basis)
        cat = one_object_cyclic(10)
        cohomology(cat, trivial_system(cat, FgAbGroup((10,))), 1, normalized=False)
        (M,) = [A for A in seen if (len(A), len(A[0])) == (100, 110)]
        ref = smith_reference(M)
        r = smith(M)
        assert r.S == ref.S
        for name in CERTIFICATES:
            assert getattr(r, name) == getattr(ref, name), name

    def test_negative_or_unordered_diagonals_are_factored(self):
        assert smith([[-2, 0], [0, 4]]).S == [[2, 0], [0, 4]]
        assert smith([[4, 0], [0, 2]]).S == [[2, 0], [0, 4]]
        assert smith([[0, 0], [0, 3]]).S == [[3, 0], [0, 0]]


class TestFactorization:
    @PROPERTY
    @given(matrices(), st.data())
    def test_solves_every_consistent_right_hand_side(self, case, data):
        A, m, n = case
        f = Factorization(A)
        for _ in range(3):
            x = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
            b = mat_vec(A, x)
            y = f.solve(b)
            assert y is not None and len(y) == (n if A else 0)
            assert mat_vec(A, y) == b

    @PROPERTY
    @given(matrices(min_dim=1, bound=6), st.data())
    def test_contains_agrees_with_in_lattice_and_sympy(self, case, data):
        A, m, _ = case
        f = Factorization(A)
        for _ in range(3):
            b = tuple(data.draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))
            assert f.contains(b) == in_lattice(A, b) == sympy_in_lattice(A, b)

    def test_right_hand_side_of_the_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            Factorization([[1, 0], [0, 1]]).solve((1,))


def old_is_zero_map(f: AbMap) -> bool:
    """The per-column lattice test that ``is_zero_map`` used to run."""
    rel = f.target.relation_matrix()
    return all(
        in_lattice(rel, c) if rel else all(x == 0 for x in c) for c in columns(f.matrix)
    )


groups = st.lists(st.sampled_from([0, 0, 2, 3, 4, 6]), max_size=4).map(FgAbGroup.from_factors)


@st.composite
def maps(draw):
    """A random matrix between random groups; about half are zero maps."""
    source, target = draw(groups), draw(groups)
    zero = draw(st.booleans())
    rows = []
    for d in target.invariant_factors:
        if zero:
            row = [d * draw(st.integers(-3, 3)) for _ in range(source.ngens)]
        else:
            row = [draw(st.integers(-12, 12)) for _ in range(source.ngens)]
        rows.append(row)
    return AbMap(source, target, rows)


class TestZeroMap:
    @PROPERTY
    @given(maps())
    def test_agrees_with_the_per_column_lattice_test(self, f):
        expected = all(sympy_in_lattice(f.target.relation_matrix(), c) for c in columns(f.matrix))
        assert f.is_zero_map() == old_is_zero_map(f) == expected

    def test_free_summands_and_the_trivial_group(self):
        Z2, Z = FgAbGroup((2,)), FgAbGroup.free(1)
        trivial = FgAbGroup.trivial()
        assert AbMap(Z, FgAbGroup((2, 0)), [[4], [0]]).is_zero_map()
        assert not AbMap(Z, FgAbGroup((2, 0)), [[4], [1]]).is_zero_map()
        assert AbMap(Z2, trivial, []).is_zero_map()
        assert AbMap.zero_map(trivial, Z).is_zero_map()
        assert not AbMap(Z, Z, [[2]]).is_zero_map()
