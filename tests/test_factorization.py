"""Property tests of Smith forms, the solves of one Smith record and zero maps.

The oracle is ``sympy``'s ``smith_normal_form``, which shares no code with
``quadalg``; the certificates are checked against ``smith_reference``, the
eager Smith form that ``smith`` replaced, and the solves, which replay the
operation logs, against ``dense_solve``, which multiplies by the dense
certificates. Lattice membership is decided from ``sympy`` by an index
count: ``b`` lies in the column lattice of ``A`` exactly when appending
``b`` changes neither the rank nor the product of the nonzero invariant
factors.
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
    FgAbGroup,
    SnfResult,
    columns,
    homology_at,
    identity,
    mat_shape,
    mat_vec,
    smith,
    solve_integer,
    zeros,
)
from quadalg.bwcoh import (
    CochainComplex,
    cohomology,
    dm_natural_system,
    one_object_cyclic,
    trivial_system,
)
from quadalg.errors import ShapeMismatch

from .oracles import dense_rows, dense_solve, relation_matrix, smith_reference
from .test_abelian import stacked_relations

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


SPARSE_ENTRIES = (1, -1, 2, -2, 3, 4, 6, 14)


@st.composite
def sparse_matrices(draw, max_dim=24):
    """A matrix of up to ``max_dim`` rows and columns, about 85% zeros.

    Its few nonzero entries cancel to zero, fill in zeros and move with the
    swaps of sparse rows and columns while it is eliminated, which small
    dense matrices rarely do.
    """
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entry = st.integers(0, 99).map(
        lambda k: SPARSE_ENTRIES[k % len(SPARSE_ENTRIES)] if k >= 85 else 0
    )
    row = st.lists(entry, min_size=n, max_size=n)
    return [draw(row) for _ in range(m)]


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
    @given(
        st.one_of(matrices(max_dim=8).map(lambda case: case[0]), smith_forms(), sparse_matrices()),
        st.data(),
    )
    def test_agrees_with_the_eager_reference(self, M, data):
        ref = smith_reference(M)
        r = smith(M)
        assert r.S == ref.S
        order = data.draw(st.permutations(CERTIFICATES))
        for name in order[: data.draw(st.integers(1, len(order)))]:
            assert getattr(r, name) == getattr(ref, name), name

    def test_agrees_with_the_eager_reference_on_a_cohomology_kernel(self, monkeypatch):
        # The matrix whose kernel gives the 1-cocycles of Z/10 with trivial
        # Z/10 coefficients: d^1 beside the relations of the target level,
        # as the sparse rows handed to the Smith core, made dense.
        seen = []

        def recording_smith_rows(A, n):
            seen.append(dense_rows(A, n))
            return smith_rows(A, n)

        smith_rows = abelian.smith_rows
        monkeypatch.setattr(abelian, "smith_rows", recording_smith_rows)
        cat = one_object_cyclic(10)
        cohomology(cat, trivial_system(cat, FgAbGroup((10,))), 1, normalized=False)
        (M,) = [A for A in seen if mat_shape(A) == (100, 110)]
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
        f = smith(A)
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
        f = smith(A)
        for _ in range(3):
            b = tuple(data.draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))
            assert (f.column_coordinates([b])[0] is not None) == sympy_in_lattice(A, b)

    def test_contains_on_empty_matrices(self):
        # with no columns only zero lies in the lattice; with no rows the
        # empty vector does
        assert smith(zeros(2, 0)).column_coordinates([(0, 0)])[0] is not None
        assert smith(zeros(2, 0)).column_coordinates([(0, 1)])[0] is None
        assert smith([]).column_coordinates([()])[0] is not None

    def test_right_hand_side_of_the_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            smith([[1, 0], [0, 1]]).solve((1,))


class TestSolvesFromTheLogs:
    """``SnfResult`` answers from its operation logs what the dense
    certificates answered, and ``homology_at`` factors the kernel once."""

    @PROPERTY
    @given(
        st.one_of(matrices().map(lambda case: case[0]), sparse_matrices(), stacked_relations()),
        st.data(),
    )
    def test_solve_agrees_with_the_dense_solve(self, A, data):
        r = smith(A)
        m, n = len(A), len(A[0]) if A else 0
        for _ in range(3):
            if data.draw(st.booleans()):
                b = mat_vec(A, data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
            else:
                b = tuple(data.draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))
            assert r.solve(b) == dense_solve(r, b)

    @PROPERTY
    @given(matrices(min_dim=1, bound=6), st.data())
    def test_coordinates_invert_the_column_basis(self, case, data):
        A, m, _ = case
        r = smith(A)
        basis = r.column_basis()
        assert len(basis) == r.rank
        coords = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=r.rank, max_size=r.rank)))
        v = tuple(sum(c * u[i] for c, u in zip(coords, basis)) for i in range(m))
        b = tuple(data.draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))
        got, of_b = r.column_coordinates([v, b])
        assert got == coords
        assert (of_b is not None) == sympy_in_lattice(A, b)
        if of_b is not None:
            assert tuple(sum(c * u[i] for c, u in zip(of_b, basis)) for i in range(m)) == b
        assert None not in r.column_coordinates(columns(A))

    def test_no_answer_reads_a_certificate(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a certificate was built")

        for name in CERTIFICATES:
            monkeypatch.setattr(SnfResult, name, property(refuse))
        assert solve_integer([[2, 0], [0, 3]], (4, 9)) == (2, 3)
        C = one_object_cyclic(4)
        res = cohomology(C, trivial_system(C, FgAbGroup((4,))), 2)
        carry = {(a, b): ((a + b) // 4,) for a in range(4) for b in range(4)}
        assert res.group.element_order(res.class_of(carry)) == 4
        g = res.group.generator(0)
        assert res.class_of(res.representative(g)) == g

    def test_the_kernel_basis_is_listed_for_the_first_representative(self, monkeypatch):
        calls = []
        column_basis = SnfResult.column_basis
        monkeypatch.setattr(SnfResult, "column_basis", lambda r: calls.append(r) or column_basis(r))
        C = one_object_cyclic(4)
        res = cohomology(C, trivial_system(C, FgAbGroup((4,))), 2)
        carry = {(a, b): ((a + b) // 4,) for a in range(4) for b in range(4)}
        assert res.group.element_order(res.class_of(carry)) == 4
        assert calls == []
        g = res.group.generator(0)
        assert res.class_of(res.representative(g)) == g
        assert len(calls) == 1
        assert res.class_of(res.representative(res.group.scalar(3, g))) == res.group.scalar(3, g)
        assert len(calls) == 1

    def test_one_homology_makes_three_smith_forms(self, monkeypatch):
        # the kernel of d2, one Smith form of its spanning set for the basis
        # and every coordinate, and the relations among the image's
        # coordinates; the kernel basis used to be factored a second time
        cx = CochainComplex(*dm_natural_system(4, 1), False)
        d1, d2 = cx.d(1), cx.d(2)
        calls = []
        smith_rows = abelian.smith_rows
        monkeypatch.setattr(abelian, "smith_rows", lambda A, n: calls.append(A) or smith_rows(A, n))
        assert homology_at(d1, d2).group == FgAbGroup((2, 4))
        assert len(calls) == 3


def old_is_zero_map(f: AbMap) -> bool:
    """The per-column lattice test that ``is_zero_map`` used to run."""
    rel = relation_matrix(f.target)
    return all(
        smith(rel).column_coordinates([c])[0] is not None if rel else all(x == 0 for x in c)
        for c in columns(f.matrix)
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
        expected = all(sympy_in_lattice(relation_matrix(f.target), c) for c in columns(f.matrix))
        assert f.is_zero_map() == old_is_zero_map(f) == expected

    def test_free_summands_and_the_trivial_group(self):
        Z2, Z = FgAbGroup((2,)), FgAbGroup.free(1)
        trivial = FgAbGroup.trivial()
        assert AbMap(Z, FgAbGroup((2, 0)), [[4], [0]]).is_zero_map()
        assert not AbMap(Z, FgAbGroup((2, 0)), [[4], [1]]).is_zero_map()
        assert AbMap(Z2, trivial, []).is_zero_map()
        assert AbMap.zero_map(trivial, Z).is_zero_map()
        assert not AbMap(Z, Z, [[2]]).is_zero_map()
