"""Tests for exact abelian-group arithmetic."""
from __future__ import annotations

import math
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from quadalg import abelian
from quadalg.abelian import (
    AbMap,
    FgAbGroup,
    SnfResult,
    canonical_factors,
    columns,
    draw_below,
    draw_sample,
    exact_at,
    finite_abelian_invariants,
    from_columns,
    homology_at,
    identity,
    mat_vec,
    matmul,
    quotient_presentation,
    smith,
    smith_rows,
    solve_integer,
    stacked_rows,
    validate_factors,
    zeros,
)
from quadalg.bwcoh import cohomology, dm_natural_system, one_object_cyclic, trivial_system
from quadalg.errors import CompositionNonzero, NotInKernel, ShapeMismatch, TooLarge

from .oracles import (
    ReferenceGroupArithmetic,
    binary_functor,
    dense_rows,
    homology_basis,
    homology_oracle,
    group_from_order_counts,
    invariant_chains,
    kernel_basis,
    mat_hstack,
    reference_homology_at,
    reference_orders,
    reference_representative,
    relation_matrix,
    smith_sparse_reference,
    subgroup_closure,
)


class TestSmithNormalForm:
    def test_worked_example(self):
        r = smith([[2, 4], [6, 8]])
        assert r.S == [[2, 0], [0, 4]]
        assert matmul(matmul(r.U, [[2, 4], [6, 8]]), r.V) == r.S

    def test_zero_and_empty(self):
        assert smith([[0, 0], [0, 0]]).S == [[0, 0], [0, 0]]
        r = smith([])
        assert r.S == [] and r.U == [] and r.V == []

    def test_randomized_invariants(self):
        rng = random.Random(0)
        for _ in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            r = smith(M)
            assert matmul(matmul(r.U, M), r.V) == r.S
            d = r.diagonal
            assert all(x >= 0 for x in d)
            for i in range(len(d) - 1):
                assert d[i + 1] == 0 or (d[i] != 0 and d[i + 1] % d[i] == 0)
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert r.S[i][j] == 0
            assert matmul(r.U, r.Uinv) == identity(m)
            assert matmul(r.Vinv, r.V) == identity(n)

    def test_solve_and_kernel(self):
        rng = random.Random(1)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            b = tuple(sum(A[i][k] * x[k] for k in range(n)) for i in range(m))
            sol = solve_integer(A, b)
            assert sol is not None
            assert tuple(sum(A[i][k] * sol[k] for k in range(n)) for i in range(m)) == b
            for v in kernel_basis(A):
                assert all(sum(A[i][k] * v[k] for k in range(n)) == 0 for i in range(m))

    def test_lattice_basis_spans(self):
        A = [[2, 4], [0, 6]]
        basis = smith(A).column_basis()
        B = from_columns(basis, 2)
        for c in columns(A):
            assert smith(B).column_coordinates([c])[0] is not None
        for c in basis:
            assert smith(A).column_coordinates([c])[0] is not None


class TestFgAbGroup:
    def test_canonicalization(self):
        assert canonical_factors([2, 3]) == (6,)
        assert canonical_factors([4, 6]) == (2, 12)
        assert canonical_factors([0, 4, 2, 0]) == (2, 4, 0, 0)
        assert canonical_factors([1, 1, 5]) == (5,)
        assert canonical_factors([]) == ()

    def test_serialized_form_is_strict(self):
        assert validate_factors([2, 4, 0, 0]) == (2, 4, 0, 0)
        with pytest.raises(ValueError):
            validate_factors([0, 0, 4, 2])
        with pytest.raises(ValueError):
            validate_factors([4, 2])
        with pytest.raises(ValueError):
            validate_factors([3, 4])
        with pytest.raises(ValueError):
            validate_factors([1])

    def test_elements_and_arithmetic(self):
        g = FgAbGroup((2, 4))
        assert g.order() == 8
        els = g.elements()
        assert len(els) == len(set(els)) == 8
        a, b = (1, 3), (1, 2)
        assert g.add(a, b) == (0, 1)
        assert g.neg(a) == (1, 1)
        assert g.scalar(3, a) == (1, 1)
        assert g.element_order((0, 1)) == 4
        assert g.element_order((1, 2)) == 2

    def test_infinite_enumeration_guarded(self):
        with pytest.raises(TooLarge):
            FgAbGroup((0,)).elements()

    @pytest.mark.parametrize("factors", [(2, 2), (2, 0)])
    def test_over_long_operands_are_rejected(self, factors):
        g = FgAbGroup(factors)
        message = "element of length 3 in group with 2 generators"
        for call in (
            lambda: g.add((1, 0, 1), (1, 0)),
            lambda: g.add((1, 0), (1, 0, 1)),
            lambda: g.sub((1, 0, 1), (1, 0)),
            lambda: g.sub((1, 0), (1, 0, 1)),
            lambda: g.sum([(1, 0), (1, 0, 1)]),
            lambda: g.sum(iter([(1, 0, 1)])),
            lambda: g.reduce((1, 0, 1)),
            lambda: g.neg((1, 0, 1)),
        ):
            with pytest.raises(ShapeMismatch, match=message):
                call()
        with pytest.raises(ShapeMismatch, match="element of length 1 in group"):
            g.add((1,), (1,))


class TestAbMap:
    def test_respects_relations(self):
        src = FgAbGroup((2,))
        tgt = FgAbGroup((4,))
        ok, _ = AbMap(src, tgt, [[2]]).respects_relations()
        assert ok
        bad, witness = AbMap(src, tgt, [[1]]).respects_relations()
        assert not bad and witness

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            AbMap(FgAbGroup((2,)), FgAbGroup((2,)), [[1, 0]])

    def test_kernel(self):
        k, incl = AbMap(FgAbGroup((4,)), FgAbGroup((2,)), [[1]]).kernel()
        assert k.invariant_factors == (2,)
        assert incl.apply(k.generator(0)) == (2,)


class TestFiniteAbelianInvariants:
    def test_the_order_bound_is_read_at_call_time(self, monkeypatch):
        elements, add = list(range(6)), lambda a, b: (a + b) % 6
        monkeypatch.setattr(abelian, "MAX_ENUMERATED_ORDER", 6)
        assert finite_abelian_invariants(elements, add, 0) == (6,)
        monkeypatch.setattr(abelian, "MAX_ENUMERATED_ORDER", 5)
        with pytest.raises(TooLarge, match="group of order 6 is beyond the enumeration limit"):
            finite_abelian_invariants(elements, add, 0)

    @pytest.mark.parametrize("factors", [(4096,), (2, 2048)])
    def test_orders_are_found_by_doubling(self, factors):
        # a walk adds an unlabelled element to itself until zero and labels
        # its whole cyclic subgroup, so a generator of Z/4,096 is walked once;
        # adding each element to itself until zero made about 11 million
        # additions on Z/4,096
        additions = {(4096,): 4095, (2, 2048): 6131}[factors]
        g = FgAbGroup(factors)
        calls = 0

        def add(a, b):
            nonlocal calls
            calls += 1
            return g.add(a, b)

        elements = g.elements()
        assert finite_abelian_invariants(elements, add, g.zero()) == factors
        assert calls == additions

    def test_agrees_with_repeated_addition(self):
        # every group of order at most 64, and some of order up to 1,024,
        # against the oracle that adds each element to itself until zero
        chains = [c for n in range(1, 65) for c in invariant_chains(n)]
        chains += [(1024,), (2, 512), (32, 32), (2,) * 10, (3, 6, 54), (10, 100), (1000,)]
        for factors in chains:
            g = FgAbGroup(factors)
            elements = g.elements()
            expected = group_from_order_counts(elements, g.add, g.zero(), g.neg)
            got = finite_abelian_invariants(elements, g.add, g.zero())
            assert got == expected == factors, factors

    @pytest.mark.parametrize(
        "factors", [(4096,), (12, 60), (2,) * 10, (1000,), (3, 6, 54), (2, 4, 8, 8)]
    )
    def test_walks_find_the_orders_of_the_divisor_search(self, factors):
        g = FgAbGroup(factors)
        elements = g.elements()
        assert abelian._orders(elements, g.add, g.zero()) == reference_orders(
            elements, g.add, g.zero()
        )

    def test_one_walk_covers_a_cyclic_group(self):
        # the divisor search made 1,501,769 additions on Z/20,000
        calls = 0

        def add(a, b):
            nonlocal calls
            calls += 1
            return (a + b) % 20_000

        assert finite_abelian_invariants(list(range(20_000)), add, 0) == (20_000,)
        assert calls == 19_999

    def test_a_listing_that_is_not_a_group(self):
        def add(a, b):
            return (a + b) % 4

        # 3 * 1 is not zero mod 4
        with pytest.raises(ValueError, match="element 1 has no finite order in the listing"):
            finite_abelian_invariants([0, 1, 2], add, 0)
        # one element of order 1 and three of order 4 fit neither Z/4 nor Z/2 + Z/2
        with pytest.raises(ValueError, match="order profile matched 0 chains"):
            finite_abelian_invariants([0, 1, 3, 1], add, 0)


class TestHomology:
    def test_basic_example(self):
        Z = FgAbGroup.free(1)
        h = homology_at(AbMap(Z, Z, [[2]]), AbMap.zero_map(Z, Z))
        assert h.group.invariant_factors == (2,)
        assert h.express((1,)) != h.group.zero()
        assert h.express((2,)) == h.group.zero()

    def test_trivial_homology_with_a_nonzero_kernel(self):
        Z = FgAbGroup.free(1)
        h = homology_at(AbMap(Z, Z, [[1]]), AbMap.zero_map(Z, Z))
        assert h.group.is_trivial() and homology_basis(h)[0] == [(1,)]
        assert h.representative(()) == (0,)
        assert h.express((3,)) == ()

    def test_composition_guard(self):
        Z = FgAbGroup.free(1)
        with pytest.raises(CompositionNonzero):
            homology_at(AbMap(Z, Z, [[1]]), AbMap(Z, Z, [[1]]))

    def test_shape_guard(self):
        Z = FgAbGroup.free(1)
        with pytest.raises(ShapeMismatch):
            homology_at(AbMap(Z, Z, [[2]]), AbMap.zero_map(FgAbGroup((2,)), Z))
        # a cycle is expressed in the homology only when d2 kills it
        with pytest.raises(NotInKernel, match="is not in the kernel"):
            homology_at(AbMap.zero_map(Z, Z), AbMap(Z, Z, [[1]])).express((1,))

    def test_against_coset_enumeration_oracle(self):
        rng = random.Random(7)
        trials = 0
        while trials < 40:
            B = _random_finite_group(rng, max_order=200)
            C = _random_finite_group(rng, max_order=60)
            d2 = _random_map(rng, B, C)
            kernel = [
                b for b in B.elements() if d2.apply(b) == C.zero()
            ]
            a = rng.randint(0, 3)
            A = FgAbGroup.free(a)
            cols = [rng.choice(kernel) for _ in range(a)]
            d1 = AbMap.from_columns(A, B, cols) if a else AbMap.zero_map(A, B)
            h = homology_at(d1, d2)
            assert h.group.invariant_factors == homology_oracle(d1, d2)
            # the witness projection sends every kernel basis vector to a class
            for v in homology_basis(h)[0]:
                h.express(v)
            trials += 1

    def test_witness_classes_behave(self):
        Z2 = FgAbGroup((2, 2))
        d1 = AbMap.zero_map(FgAbGroup.trivial(), Z2)
        d2 = AbMap.zero_map(Z2, FgAbGroup.trivial())
        h = homology_at(d1, d2)
        assert h.group.invariant_factors == (2, 2)
        x = h.express((1, 0))
        y = h.express((0, 1))
        assert x != y and any(x) and any(y)


def _random_finite_group(rng: random.Random, max_order: int) -> FgAbGroup:
    while True:
        k = rng.randint(1, 3)
        fs = [rng.choice([2, 2, 3, 4, 5, 6, 8, 9]) for _ in range(k)]
        g = FgAbGroup.from_factors(fs)
        o = g.order()
        if o is not None and o <= max_order:
            return g


def _random_map(rng: random.Random, src: FgAbGroup, tgt: FgAbGroup) -> AbMap:
    from math import gcd

    cols = []
    for d in src.invariant_factors:
        col = []
        for e in tgt.invariant_factors:
            if d == 0:
                col.append(rng.randrange(e) if e else rng.randint(-3, 3))
            elif e == 0:
                col.append(0)
            else:
                step = e // gcd(e, d)
                col.append(step * rng.randrange(gcd(e, d)))
        cols.append(tuple(col))
    return AbMap.from_columns(src, tgt, cols)


@st.composite
def finite_groups(draw, min_size=0, max_order=48):
    """A sum of up to three small cyclic groups, of at most ``max_order`` elements."""
    factors = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=min_size, max_size=3))
    while math.prod(factors) > max_order:
        factors.pop()
    return FgAbGroup.from_factors(factors)


@st.composite
def homomorphisms(draw, src, tgt, into=None):
    """A homomorphism ``src -> tgt``, with images drawn from ``into`` when given."""
    pool = tgt.elements() if into is None else into
    cols = []
    for d in src.invariant_factors:
        killed = [x for x in pool if not any(tgt.scalar(d, x))]
        cols.append(draw(st.sampled_from(killed)))
    return AbMap.from_columns(src, tgt, cols)


@st.composite
def composable_pairs(draw):
    """``A --f--> B --g--> C``; half the time ``f`` lands in the kernel of ``g``."""
    A, B, C = draw(finite_groups()), draw(finite_groups(min_size=1)), draw(finite_groups())
    g = draw(homomorphisms(B, C))
    kernel = [b for b in B.elements() if not any(g.apply(b))]
    f = draw(homomorphisms(A, B, kernel if draw(st.booleans()) else None))
    return f, g


PROPERTY = settings(max_examples=150, deadline=None)


def _mismatch(method, *args) -> str:
    with pytest.raises(ShapeMismatch) as info:
        method(*args)
    return str(info.value)


@st.composite
def divisibility_chains(draw):
    """Invariant factors: a chain of finite factors, each dividing the
    next and some of them large, then up to two free factors."""
    factors = []
    d = 1
    for _ in range(draw(st.integers(0, 3))):
        d *= draw(st.sampled_from([1, 2, 3, 5, 2**61 - 1])) if factors else draw(
            st.integers(2, 12)
        )
        factors.append(d)
    return tuple(factors) + (0,) * draw(st.integers(0, 2))


class TestGroupArithmetic:
    """Element arithmetic against the frozen copy in ``ReferenceGroupArithmetic``."""

    @PROPERTY
    @given(divisibility_chains(), st.data())
    def test_matches_the_reference(self, factors, data):
        g, ref = FgAbGroup(factors), ReferenceGroupArithmetic(factors)
        coords = st.lists(
            st.integers(-(2**70), 2**70), min_size=g.ngens, max_size=g.ngens
        ).map(tuple)
        a, b = data.draw(coords), data.draw(coords)
        items = data.draw(st.lists(coords, max_size=4))
        assert g.zero() == ref.zero() and g.ngens == ref.ngens
        for name, args in [
            ("reduce", (a,)), ("reduce", (list(b),)), ("add", (a, b)), ("sub", (a, b)),
            ("neg", (a,)), ("sum", (items,)),
        ]:
            assert getattr(g, name)(*args) == getattr(ref, name)(*args), name
        assert g.sum(iter(items)) == ref.sum(items)
        assert g.is_zero(g.sub(a, a)) and g.is_finite() == (0 not in factors)
        too_long = a + (1,)
        assert _mismatch(g.reduce, too_long) == _mismatch(ref.reduce, too_long)

    @PROPERTY
    @given(divisibility_chains(), st.integers(0, 2**64), st.integers(0, 30))
    def test_sample_draws_like_the_reference(self, factors, seed, n):
        g, ref = FgAbGroup(factors), ReferenceGroupArithmetic(factors)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert [g.sample(rng) for _ in range(n)] == [ref.sample(ref_rng) for _ in range(n)]
        assert rng.getstate() == ref_rng.getstate()

    @PROPERTY
    @given(divisibility_chains(), st.data())
    def test_non_canonical_input_matches_the_reference(self, factors, data):
        g, ref = FgAbGroup(factors), ReferenceGroupArithmetic(factors)
        entry = st.one_of(st.integers(-(2**70), 2**70), st.booleans())
        coords = st.lists(entry, min_size=g.ngens, max_size=g.ngens).map(tuple)
        a, b = data.draw(coords), data.draw(coords)
        for name, args in [("reduce", (a,)), ("add", (a, b)), ("sub", (a, b)), ("neg", (a,))]:
            got, want = getattr(g, name)(*args), getattr(ref, name)(*args)
            assert got == want and list(map(type, got)) == list(map(type, want)), name

    @pytest.mark.parametrize("factors", [(0, 0), (2, 6), (3, 0), ()])
    def test_every_operation_checks_the_length(self, factors):
        g = FgAbGroup(factors)
        ok = g.zero()
        for bad in (ok + (1,), ok[:-1]) if ok else ((1,),):
            for method, args in [
                (g.reduce, (bad,)), (g.neg, (bad,)), (g.add, (bad, ok)), (g.add, (ok, bad)),
                (g.sub, (bad, ok)), (g.sub, (ok, bad)), (g.sum, ([ok, bad],)),
            ]:
                assert _mismatch(method, *args) == (
                    f"element of length {len(bad)} in group with {g.ngens} generators"
                )


def widths(top: int):
    """Widths ``1 .. 2**top``, half of them powers of two: there
    ``n.bit_length()`` and ``(n - 1).bit_length()`` part ways."""
    return st.one_of(st.integers(1, 2**top), st.integers(0, top).map(lambda k: 1 << k))


class TestDrawBelow:
    """``draw_below`` returns what ``randrange``, ``randint`` and ``choice``
    return and leaves the generator in the same state, so a Python whose
    ``_randbelow`` differs fails here before any golden digest does."""

    @PROPERTY
    @given(st.integers(0, 2**64), widths(80))
    def test_equals_randrange(self, seed, n):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert draw_below(rng, n) == ref.randrange(n)
            assert rng.getstate() == ref.getstate()

    @PROPERTY
    @given(st.integers(0, 2**64), st.integers(-(2**80), 2**80), widths(80))
    def test_shifted_equals_randint(self, seed, a, n):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert a + draw_below(rng, n) == ref.randint(a, a + n - 1)
            assert rng.getstate() == ref.getstate()

    @PROPERTY
    @given(st.integers(0, 2**64), widths(62))
    def test_index_equals_choice(self, seed, n):
        # len() of a sequence stops at sys.maxsize, so choice's widths do too
        seq = range(-n, 2 * n, 3)
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert seq[draw_below(rng, len(seq))] == ref.choice(seq)
            assert rng.getstate() == ref.getstate()


class TestDrawSample:
    """``draw_sample`` returns what ``random.Random.sample`` returns and
    leaves the generator in the same state, on pools on either side of the
    21 items where ``sample`` turns from its pool-swap branch to its set
    branch, and refuses a draw larger than its pool as ``sample`` does."""

    @PROPERTY
    @given(st.integers(0, 2**64), st.integers(0, 40), st.integers(0, 3))
    def test_equals_sample(self, seed, n, k):
        pool = [f"w{i}" for i in range(n)]
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            if k > n:
                with pytest.raises(ValueError, match="Sample larger than population"):
                    draw_sample(rng, pool, k)
                with pytest.raises(ValueError, match="Sample larger than population"):
                    ref.sample(pool, k)
            else:
                assert draw_sample(rng, pool, k) == ref.sample(pool, k)
            assert rng.getstate() == ref.getstate()

    @PROPERTY
    @given(st.integers(0, 2**64), st.integers(12, 90), st.integers(4, 12))
    def test_equals_sample_on_larger_draws(self, seed, n, k):
        # above 5 picks ``sample`` moves its branch point from 21 to 85 items
        pool = range(n)
        rng, ref = random.Random(seed), random.Random(seed)
        assert draw_sample(rng, pool, k) == ref.sample(pool, k)
        assert rng.getstate() == ref.getstate()


class TestKernelsAndExactness:
    @PROPERTY
    @given(composable_pairs())
    def test_exact_at_against_enumeration(self, pair):
        f, g = pair
        composite_zero = all(not any(g.apply(f.apply(a))) for a in f.source.generators())
        exact = composite_zero and homology_oracle(f, g) == ()
        ok, witness = exact_at(f, g)
        assert ok == exact
        assert (witness is None) == ok

    @PROPERTY
    @given(composable_pairs())
    def test_kernel_against_enumeration(self, pair):
        _, g = pair
        kernel = {b for b in g.source.elements() if not any(g.apply(b))}
        K, incl = g.kernel()
        assert K.order() == len(kernel)
        assert incl.respects_relations() == (True, None)
        images = {incl.apply(k) for k in K.elements()}
        assert len(images) == K.order() and images <= kernel


SMALL_ENTRIES = [-9, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9]


@st.composite
def sparse_integer_matrices(draw):
    """Up to 10 x 10, about 80% zeros."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entry = st.integers(0, 99).map(lambda k: SMALL_ENTRIES[k % len(SMALL_ENTRIES)] if k >= 80 else 0)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def stacked_relations(draw):
    """``[d | m I]``: a sparse map into ``(Z/m)^r`` beside the relations of
    its target, the matrix whose kernel ``homology_at`` takes."""
    m = draw(st.sampled_from([2, 3, 4, 6, 8, 9]))
    r, k = draw(st.integers(1, 30)), draw(st.integers(0, 10))
    entry = st.integers(0, 99).map(lambda x: x % (2 * m + 1) - m if x >= 80 else 0)
    d = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)]
    return [row + [m * (i == j) for j in range(r)] for i, row in enumerate(d)]


@st.composite
def multiples_of_a_modulus(draw):
    """Every entry a multiple of ``m``: the blocks where a sweep proves a
    divisor above 1, which then stops later searches and sweeps early."""
    m = draw(st.sampled_from([2, 3, 4, 5]))
    return [[m * x for x in row] for row in draw(sparse_integer_matrices())]


class TestSmithAgainstSparseReference:
    """``smith`` and ``kernel_basis`` against ``smith_sparse_reference``,
    the elimination before the divisor floor: the same logs, and the
    kernel basis read off its ``V``."""

    @PROPERTY
    @given(st.one_of(sparse_integer_matrices(), stacked_relations(), multiples_of_a_modulus()))
    def test_logs_and_kernel_basis_match(self, A):
        ref = smith_sparse_reference(A)
        r = smith(A)
        assert r.S == ref.S
        assert r.row_ops == ref.row_ops
        assert r.col_ops == ref.col_ops
        basis = kernel_basis(A)
        assert basis == list(zip(*ref.V))[ref.rank :]
        assert all(not any(mat_vec(A, k)) for k in basis)

    def test_no_dense_v_is_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("V was built")

        monkeypatch.setattr(SnfResult, "V", property(refuse))
        rng = random.Random(2)
        b, c = 16, 10
        d2 = [[rng.choice([0] * 5 + [1, 2, 3]) for _ in range(b)] for _ in range(c)]
        A = [row + [4 * (i == j) for j in range(c)] for i, row in enumerate(d2)]
        assert len(kernel_basis(A)) == b
        # a free middle group and a trivial source leave no image to solve
        # for, so only the kernel could have read V
        Z = FgAbGroup.free(b)
        h = homology_at(AbMap.zero_map(FgAbGroup.trivial(), Z), AbMap(Z, FgAbGroup((4,) * c), d2))
        assert h.group == FgAbGroup.free(b)
        assert all(x % 4 == 0 for k in homology_basis(h)[0] for x in mat_vec(d2, k))


@st.composite
def beside_a_group(draw):
    """``(M, rels, R)``: a sparse ``M`` on the generators of a group, the
    group's relations ``(i, d)`` in any order, as a level lists its block
    relations, and ``R``, their dense columns in that order. Half the time
    the group is ``(Z/m)^r``, so that the stack is ``[d | m I]``."""
    if draw(st.booleans()):
        G = FgAbGroup((draw(st.sampled_from([2, 3, 4, 6])),) * draw(st.integers(0, 10)))
    else:
        G = FgAbGroup.from_factors(draw(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8]), max_size=10)))
    k = draw(st.integers(0, 10))
    entry = st.integers(0, 99).map(lambda x: x % 13 - 6 if x >= 80 else 0)
    M = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(G.ngens)]
    rels = draw(st.permutations(G.relations()))
    R = zeros(G.ngens, len(rels))
    for j, (i, d) in enumerate(rels):
        R[i][j] = d
    return M, rels, R


def _groups(draw, top):
    return FgAbGroup.from_factors(draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6]), max_size=top)))


def _column(draw, d, target, pool=None):
    """A column that ``d`` times sends to zero in ``target``; an integer
    combination of ``pool`` when given and ``d`` is free."""
    if pool is not None:
        if d or not pool:
            return (0,) * target.ngens
        coefficients = [draw(st.integers(-2, 2)) for _ in pool]
        return target.reduce([sum(c * v[i] for c, v in zip(coefficients, pool)) for i in range(target.ngens)])
    col = []
    for e in target.invariant_factors:
        if not e:
            col.append(0 if d else draw(st.integers(-4, 4)))
        else:
            step = e // math.gcd(e, d) if d else 1
            col.append(step * draw(st.integers(0, e // step - 1)))
    return tuple(col)


@st.composite
def complexes(draw):
    """``A --d1--> B --d2--> C`` over groups with free, finite or mixed
    summands, trivial ones included. Half the time the free generators of
    ``A`` land in the kernel of ``d2`` and the finite ones go to zero, so
    that ``d2 d1 = 0``; otherwise ``d1`` is any homomorphism."""
    A, B, C = _groups(draw, 3), _groups(draw, 4), _groups(draw, 4)
    d2 = AbMap.from_columns(B, C, [_column(draw, d, C) for d in B.invariant_factors])
    pool = None
    if draw(st.booleans()):
        pool = [v[: B.ngens] for v in kernel_basis(mat_hstack(d2.matrix, relation_matrix(C)))]
        if not C.ngens:
            pool = B.generators()
    d1 = AbMap.from_columns(A, B, [_column(draw, d, B, pool) for d in A.invariant_factors])
    return d1, d2


TRIVIAL, Z2, Z = FgAbGroup.trivial(), FgAbGroup((2,)), FgAbGroup.free(1)


class TestSparseStacks:
    """The sparse relation stacks give the pivots, logs and homology of the
    dense ones they replaced, in far less memory."""

    @PROPERTY
    @given(beside_a_group(), st.booleans())
    def test_stacked_rows_factor_as_the_dense_stack(self, case, first):
        M, rels, R = case
        ref = smith_sparse_reference(mat_hstack(R, M) if first else mat_hstack(M, R))
        r = smith_rows(*stacked_rows(M, rels, first))
        assert r.S == ref.S
        assert r.row_ops == ref.row_ops
        assert r.col_ops == ref.col_ops
        n = r.shape[1]
        assert list(zip(*dense_rows(r.kernel_rows(), n - r.rank))) == list(zip(*ref.V))[ref.rank :]

    @PROPERTY
    @given(complexes())
    @example((AbMap.zero_map(TRIVIAL, TRIVIAL), AbMap.zero_map(TRIVIAL, Z2)))
    @example((AbMap.zero_map(TRIVIAL, Z2), AbMap.zero_map(Z2, Z)))
    @example((AbMap(Z, Z, [[2]]), AbMap.zero_map(Z, TRIVIAL)))
    def test_homology_agrees_with_the_dense_reference(self, pair):
        d1, d2 = pair
        try:
            ref = reference_homology_at(d1, d2)
        except CompositionNonzero as exc:
            with pytest.raises(CompositionNonzero, match=f"^{re.escape(str(exc))}$"):
                homology_at(d1, d2)
            return
        h = homology_at(d1, d2)
        assert h.group == ref.group
        assert homology_basis(h) == homology_basis(ref)
        assert h._project == ref._project
        for g in h.group.generators():
            assert h.representative(g) == reference_representative(ref, g)

    def test_a_sparse_kernel_stack_stays_small(self):
        # (Z/2)^40 into (Z/2)^2000 by a map with three entries per column,
        # twice over: the dense stack [d2 | 2 I] held 2000 x 2040 entries,
        # about 33 MB of list slots, and its dense S as many again (a
        # 64 MB peak); the sparse rows peak near 1.3 MB.
        rng = random.Random(5)
        b, c = 40, 2000
        d2 = zeros(c, b)
        for j in range(b // 2):
            for i in rng.sample(range(c), 3):
                d2[i][j] = d2[i][j + b // 2] = 1
        B = FgAbGroup((2,) * b)
        d1 = AbMap.zero_map(TRIVIAL, B)
        tracemalloc.start()
        try:
            h = homology_at(d1, AbMap(B, FgAbGroup((2,) * c), d2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.group == FgAbGroup((2,) * (b // 2))
        assert peak < 8 * 2**20


def _cyclic_system(m: int):
    C = one_object_cyclic(m)
    return C, trivial_system(C, FgAbGroup.cyclic(m))


class TestKernelStacks:
    """``smith_rows`` on the stacks that cohomology factors: the logs of
    ``smith_sparse_reference``, which swaps columns in place, and a cost
    that follows the stored nonzeros."""

    @pytest.mark.parametrize(
        "system, degree, normalized, shape",
        [
            (lambda: _cyclic_system(14), 1, False, (196, 210)),
            (lambda: _cyclic_system(5), 2, False, (125, 150)),
            (lambda: dm_natural_system(2, 2), 1, True, (77, 82)),
        ],
        ids=["cyclic14_h1", "cyclic5_h2", "dm22_normalized_h1_level1"],
    )
    def test_logs_match_the_reference(self, monkeypatch, system, degree, normalized, shape):
        class Captured(Exception):
            pass

        core = abelian.smith_rows

        def capture(A, n):
            if (len(A), n) == shape:
                raise Captured([dict(row) for row in A], n)
            return core(A, n)

        monkeypatch.setattr(abelian, "smith_rows", capture)
        with pytest.raises(Captured) as stack:
            cohomology(*system(), degree, normalized=normalized)
        monkeypatch.undo()
        A, n = stack.value.args
        ref = smith_sparse_reference(dense_rows(A, n))
        r = smith_rows(A, n)
        assert r.row_ops == ref.row_ops
        assert r.col_ops == ref.col_ops
        assert r.diagonal == ref.diagonal
        assert r.kernel_rows() == ref.kernel_rows()

    def test_a_long_sparse_stack_takes_no_row_scan_per_pivot(self):
        # (Z/2)^40 into (Z/2)^8000, built as in
        # test_a_sparse_kernel_stack_stays_small: the 8000 x 8040 stack
        # [d2 | 2 I] factors in about 0.04 s on a 2-CPU machine; an
        # elimination that scans the rows for each pivot's column, instead
        # of reading the column index, takes over a second.
        rng = random.Random(5)
        b, c = 40, 8000
        d2 = zeros(c, b)
        for j in range(b // 2):
            for i in rng.sample(range(c), 3):
                d2[i][j] = d2[i][j + b // 2] = 1
        rows, n = stacked_rows(d2, [(i, 2) for i in range(c)], False)
        start = time.process_time()
        r = smith_rows(rows, n)
        assert time.process_time() - start < 0.5
        assert r.rank == c


class TestQuotientPresentation:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(60):
            rank = rng.randint(1, 4)
            nrels = rng.randint(0, 5)
            rels = [[rng.randint(-6, 6) for _ in range(nrels)] for _ in range(rank)]
            grp, project, lift = quotient_presentation(rank, smith(rels))
            if grp.ngens:
                assert matmul(project, lift) == identity(grp.ngens)
            # every relation dies in the quotient
            for c in columns(rels if nrels else []):
                assert grp.reduce(
                    tuple(sum(project[i][k] * c[k] for k in range(rank))
                          for i in range(grp.ngens))
                ) == grp.zero()


class TestBinaryFunctor:
    def test_table(self):
        Z = FgAbGroup.free(1)
        Z4, Z6 = FgAbGroup((4,)), FgAbGroup((6,))
        assert binary_functor("tensor", Z, Z) == Z
        assert binary_functor("tensor", Z, Z6) == Z6
        assert binary_functor("tensor", Z4, Z6).invariant_factors == (2,)
        assert binary_functor("tor", Z, Z6).is_trivial()
        assert binary_functor("tor", Z4, Z6).invariant_factors == (2,)
        assert binary_functor("hom", Z, Z6) == Z6
        assert binary_functor("hom", Z4, Z).is_trivial()
        assert binary_functor("hom", Z4, Z6).invariant_factors == (2,)

    def test_against_enumeration(self):
        # Hom(A, B) counted by brute force on small groups.
        import itertools

        rng = random.Random(5)
        for _ in range(10):
            A = _random_finite_group(rng, 8)
            B = _random_finite_group(rng, 8)
            homs = 0
            gens = A.generators()
            for images in itertools.product(B.elements(), repeat=len(gens)):
                ok = all(
                    B.scalar(d, img) == B.zero()
                    for d, img in zip(A.invariant_factors, images)
                )
                homs += ok
            expected = binary_functor("hom", A, B).order()
            assert homs == expected

    def test_subgroup_closure_helper(self):
        g = FgAbGroup((4, 4))
        sub = subgroup_closure([(2, 0), (0, 2)], g.add, g.zero())
        assert len(sub) == 4
