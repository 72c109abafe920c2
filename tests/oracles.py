"""Independent oracles used by the test suite.

Most of this module is deliberately independent of the library's linear
algebra: no Smith normal form, no lattice solving. Structures are identified
by enumerating elements and counting, so these results cross-check the fast
implementations rather than restating them. The exceptions are
:func:`smith_reference`, a frozen copy of an earlier Smith normal form that
the current one must reproduce exactly, and :func:`smith_sparse_reference`,
a frozen copy of the sparse-row elimination before its divisor floor, whose
logs the current one must reproduce; :func:`reference_orders`, a frozen
copy of the divisor search for element orders, which the cyclic-subgroup
walks of ``finite_abelian_invariants`` must reproduce;
:func:`quadratic_tensor`, which computes quadratic functors from square
groups by a presentation of their own, and the table of values
(:func:`quadratic_functor`, :func:`binary_functor`) it is checked against;
:class:`CyclicTrackExtension`, a lifting problem written on integers that
the matrix track machinery is checked against, and
:func:`reference_obstruction_cocycle`, the obstruction cocycle with both
routes rebuilt for every triple, which the route-sharing one must
reproduce; :func:`monoid_mul_reference`, the free word model's product by the
recursion through law (ii), which its closed form must reproduce exactly;
and :class:`ReferenceGroupArithmetic`, :func:`reference_tuples`,
:func:`reference_counterexample` and :class:`ReferenceWordMake`, frozen
copies of the group arithmetic and sampler, the law driver's sampling loop,
the law driver that checked every drawn tuple, and the word normal forms
that their faster rewrites must reproduce; :func:`reference_homology_at`
and :func:`reference_representative`, the homology on dense relation
stacks (:func:`mat_hstack`, :func:`relation_matrix`) that the sparse
stacks must reproduce; and :func:`reference_chains` and
:func:`reference_matrix_table`, the endpoint scans that listed chains and
matrix composites before ``FinCat.into``, whose order every chain walk must
reproduce. :func:`quotient_matrix`,
:func:`track_tau` and :func:`track_invert` are matrix-category helpers
and :func:`kernel_basis` and :func:`homology_basis` lattice helpers that
only tests use.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from quadalg.abelian import (
    _ADD,
    _NEG,
    _SWAP,
    AbMap,
    FgAbGroup,
    HomologyResult,
    SnfResult,
    _columns_of,
    columns,
    from_columns,
    identity,
    mat_shape,
    mat_vec,
    quotient_presentation,
    smith,
    zeros,
)
from quadalg.bwcoh import FinCat, NatSystem
from quadalg.crossed import CrossedExtension
from quadalg.errors import (
    BasisMismatch,
    BoundaryMismatch,
    CompositionNonzero,
    SectionInvalid,
    ShapeMismatch,
)
from quadalg.modq import ModQMor, Track
from quadalg.nil2 import DEFAULT_ENUM_BOUND, Nil2Element, SquareGroup, _finite_elements
from quadalg.sqring import _comb2


def invariant_chains(n: int):
    """All canonical invariant-factor chains with product ``n``.

    >>> sorted(invariant_chains(8))
    [(2, 2, 2), (2, 4), (8,)]
    """
    if n == 1:
        yield ()
        return

    def rec(remaining: int, prev: int):
        if remaining == 1:
            yield ()
            return
        start = max(2, prev)
        for cand in range(start, remaining + 1):
            if remaining % cand == 0 and cand % prev == 0:
                for rest in rec(remaining // cand, cand):
                    yield (cand,) + rest

    yield from rec(n, 1)


def subgroup_closure(generators, add, zero):
    """All elements generated by ``generators`` under ``add``."""
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def quotient_invariants(kernel_elems, image_set, add) -> tuple[int, ...]:
    """Invariant factors of ``kernel / image`` by order counting.

    The multiset of annihilator counts ``N(k) = #{q : k q = 0}`` determines a
    finite abelian group, so the quotient is matched against every candidate
    chain of its order.
    """
    # Partition the kernel into cosets of the image.
    reps = []
    seen: set = set()
    for x in kernel_elems:
        if x in seen:
            continue
        coset = {add(x, i) for i in image_set}
        seen |= coset
        reps.append(x)
    q = len(reps)
    if q == 1:
        return ()

    def coset_order(x) -> int:
        acc = x
        m = 1
        while acc not in image_set:
            acc = add(acc, x)
            m += 1
        return m

    orders = [coset_order(x) for x in reps]

    def profile(chain: tuple[int, ...]) -> dict[int, int]:
        return {k: math.prod(gcd(k, d) for d in chain) for k in range(1, q + 1)}

    actual = {k: sum(1 for o in orders if k % o == 0) for k in range(1, q + 1)}
    matches = [c for c in invariant_chains(q) if profile(c) == actual]
    assert len(matches) == 1, f"order profile matched {len(matches)} groups"
    return matches[0]


def homology_oracle(d1: AbMap, d2: AbMap, bound: int = 200) -> tuple[int, ...]:
    """``ker(d2)/im(d1)`` for a finite middle group, by pure enumeration."""
    B = d1.target
    n = B.order()
    assert n is not None and n <= bound, "oracle needs a small finite middle group"
    zero_c = d2.target.zero()
    kernel = [b for b in B.elements() if d2.apply(b) == zero_c]
    img_gens = [
        B.reduce([d1.matrix[i][j] for i in range(B.ngens)])
        for j in range(d1.source.ngens)
    ]
    image = subgroup_closure(img_gens, B.add, B.zero())
    return quotient_invariants(kernel, image, B.add)


def group_from_order_counts(elements, add, zero, neg) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by its operations."""
    elems = list(elements)
    n = len(elems)
    if n == 1:
        return ()

    def order_of(x) -> int:
        acc = x
        m = 1
        while acc != zero:
            acc = add(acc, x)
            m += 1
        return m

    orders = [order_of(x) for x in elems]

    def profile(chain: tuple[int, ...]) -> dict[int, int]:
        return {k: math.prod(gcd(k, d) for d in chain) for k in range(1, n + 1)}

    actual = {k: sum(1 for o in orders if k % o == 0) for k in range(1, n + 1)}
    matches = [c for c in invariant_chains(n) if profile(c) == actual]
    assert len(matches) == 1
    return matches[0]


def _divisor_search_order(x, add, zero, divisors) -> int:
    """The least ``k`` in the ascending ``divisors`` with ``k x = 0``, or 0;
    ``k x`` is the sum of the doublings ``2^i x`` at the bits of ``k``."""
    doublings = [x]
    for k in divisors:
        while k >> len(doublings):
            doublings.append(add(doublings[-1], doublings[-1]))
        acc = None
        for i, y in enumerate(doublings):
            if k >> i & 1:
                acc = y if acc is None else add(acc, y)
        if acc == zero:
            return k
    return 0


def reference_orders(elements, add, zero) -> Counter:
    """The number of listed elements of each order, each order found by
    the divisor search that ``finite_abelian_invariants`` made before it
    walked cyclic subgroups, kept verbatim."""
    n = len(elements)
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    orders = Counter()
    for x in elements:
        o = _divisor_search_order(x, add, zero, divisors)
        if not o:
            raise ValueError(f"element {x!r} has no finite order in the listing")
        orders[o] += 1
    return orders


# ---------------------------------------------------------------------------
# Reference Smith normal form
# ---------------------------------------------------------------------------
#
# The Smith form that tracked all four certificates eagerly through the
# elimination, kept verbatim as the reference for the library's ``smith``,
# which logs the same elementary operations and builds each certificate on
# demand. Both must agree in ``S``, ``U``, ``V``, ``Uinv`` and ``Vinv``.

IntMatrix = list[list[int]]


@dataclass
class ReferenceSnf:
    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix


def _in_smith_form(M: IntMatrix) -> bool:
    """Whether ``M`` is diagonal with nonnegative entries, each dividing the
    next (so zeros come last)."""
    prev = 1
    for i, row in enumerate(M):
        d = row[i] if i < len(row) else 0
        if d < 0 or any(row[:i]) or any(row[i + 1 :]) or (d % prev if prev else d):
            return False
        prev = d
    return True


def smith_reference(M: IntMatrix) -> ReferenceSnf:
    """Full Smith normal form with tracked certificates.

    The pivot rule is deterministic: among nonzero entries of the working
    submatrix pick one of minimal absolute value, breaking ties by smallest
    row index, then smallest column index. A matrix already in Smith form
    is returned with identity certificates, which is what the elimination
    below would return after doing nothing.
    """
    A = mat_copy(M)
    m, n = mat_shape(A)
    U, Uinv = identity(m), identity(m)
    V, Vinv = identity(n), identity(n)
    if _in_smith_form(A):
        return ReferenceSnf(A, U, V, Uinv, Vinv)

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i: int, j: int, q: int) -> None:
        # row i += q * row j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] += q * Aj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] += q * Uj[k]
        for r in Uinv:
            r[j] -= q * r[i]

    def row_neg(i: int) -> None:
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def col_swap(i: int, j: int) -> None:
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_addmul(j: int, i: int, q: int) -> None:
        # col j += q * col i
        for r in A:
            r[j] += q * r[i]
        for r in V:
            r[j] += q * r[i]
        Vi, Vj = Vinv[i], Vinv[j]
        for k in range(n):
            Vi[k] -= q * Vj[k]

    t = 0
    while t < min(m, n):
        # Locate the pivot: minimal absolute value, ties by row then column.
        pivot = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
        while True:
            # Reduce column t below the pivot; on a leftover remainder swap it
            # into the pivot slot and restart so every later step reduces
            # against the smaller pivot (this keeps entries from blowing up).
            swapped = False
            for i in range(t + 1, m):
                x = A[i][t]
                if x:
                    q = x // A[t][t]
                    if q:
                        row_addmul(i, t, -q)
                    if A[i][t]:
                        row_swap(t, i)
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, n):
                x = A[t][j]
                if x:
                    q = x // A[t][t]
                    if q:
                        col_addmul(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        swapped = True
                        break
            if swapped:
                continue
            # Divisibility sweep: the pivot must divide the remaining block.
            stray = None
            p = A[t][t]
            for i in range(t + 1, m):
                row = A[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_addmul(t, stray, 1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1
    return ReferenceSnf(A, U, V, Uinv, Vinv)


# ---------------------------------------------------------------------------
# Reference sparse-row Smith elimination
# ---------------------------------------------------------------------------
#
# The library's sparse-row ``smith`` before it kept a divisor floor, copied
# verbatim: every pivot search that meets no unit and every divisibility
# sweep visits all remaining rows. The current ``smith`` must log exactly
# the same operations, and ``kernel_basis`` must equal this result's ``V``
# from column ``rank`` on.

def smith_sparse_reference(M: IntMatrix) -> SnfResult:
    """Smith normal form of ``M``, with certificates built on demand.

    This is the physical-swap oracle that ``abelian.smith_rows`` must match
    log for log: a column swap here rewrites every row holding either
    column, where the core only permutes its column keys; and every pivot
    here is reduced with remainder checks and, unless it is a unit, swept,
    where the core clears a pivot of the divisor floor's size in one exact
    pass. The same ``row_ops``, ``col_ops`` and ``diagonal`` give the same
    certificates and kernel rows.

    The elimination works on sparse rows, one ``{column: value}`` dict of
    nonzeros per row, with an index from each column to the set of rows
    holding it; every swap, row addition and column addition keeps both up
    to date, so the pivot search, the reductions and the divisibility sweep
    visit stored nonzeros only. ``S`` is made dense once, at the end. Each
    elementary row and column operation is logged; :class:`SnfResult`
    builds ``U``, ``V``, ``Uinv`` and ``Vinv`` from the logs when a caller
    first reads them.

    The pivot rule is deterministic: among nonzero entries of the working
    submatrix pick one of minimal absolute value, breaking ties by smallest
    row index, then smallest column index, and look at no row after the
    first one holding a unit. Column ``t`` is reduced in increasing row
    order and row ``t`` in increasing column order, so the logs, and with
    them the certificates, are exactly those of a dense elimination by the
    same rule. On a matrix already in Smith form every pivot is the
    diagonal entry in place and no operation is performed, so it comes back
    unchanged with identity certificates.
    """
    m, n = mat_shape(M)
    A = [{j: x for j, x in enumerate(row) if x} for row in M]
    rows_of: list[set[int]] = [set() for _ in range(n)]  # column -> rows holding it
    for i, row in enumerate(A):
        for j in row:
            rows_of[j].add(i)
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []

    def row_swap(i: int, j: int) -> None:
        # A column held by one of the two rows only moves to the other.
        for k in A[i].keys() ^ A[j].keys():
            rows_of[k] ^= {i, j}
        A[i], A[j] = A[j], A[i]
        row_ops.append((_SWAP, i, j, 0))

    def row_addmul(i: int, j: int, q: int) -> None:
        Ai = A[i]
        for k, x in A[j].items():
            y = Ai.get(k, 0) + q * x
            if y:
                if k not in Ai:
                    rows_of[k].add(i)
                Ai[k] = y
            else:
                del Ai[k]
                rows_of[k].remove(i)
        row_ops.append((_ADD, i, j, q))

    def row_neg(i: int) -> None:
        A[i] = {k: -x for k, x in A[i].items()}
        row_ops.append((_NEG, i, i, 0))

    def col_swap(i: int, j: int) -> None:
        for r in rows_of[i] | rows_of[j]:
            row = A[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        rows_of[i], rows_of[j] = rows_of[j], rows_of[i]
        col_ops.append((_SWAP, i, j, 0))

    def col_addmul(j: int, i: int, q: int) -> None:
        # col j += q * col i
        for r in rows_of[i]:
            row = A[r]
            y = row.get(j, 0) + q * row[i]
            if y:
                if j not in row:
                    rows_of[j].add(r)
                row[j] = y
            else:
                del row[j]
                rows_of[j].remove(r)
        col_ops.append((_ADD, j, i, q))

    # Rows before t hold only their diagonal entry and rows from t on hold
    # nothing left of column t, so a whole row from t on is its tail.
    t = 0
    while t < min(m, n):
        # Locate the pivot: minimal absolute value, ties by row then column,
        # and no row after the first one holding a unit is looked at.
        pivot = None
        best = 0
        for i in range(t, m):
            row = A[i]
            if not row:
                continue
            v = min(map(abs, row.values()))
            if not best or v < best:
                best = v
                pivot = (i, min(j for j, x in row.items() if abs(x) == v))
                if v == 1:
                    break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            # Reduce column t below the pivot; on a leftover remainder swap it
            # into the pivot slot and restart so every later step reduces
            # against the smaller pivot (this keeps entries from blowing up).
            # A row addition into row i changes column t in row i only, so
            # the rows are listed once, in increasing order.
            swapped = False
            p = A[t][t]
            for i in sorted(rows_of[t]):
                if i == t:
                    continue
                q = A[i][t] // p
                if q:
                    row_addmul(i, t, -q)
                if t in A[i]:
                    row_swap(t, i)
                    swapped = True
                    break
            if swapped:
                continue
            # Column t now holds the pivot alone, so a column addition from
            # it changes row t only.
            for j in sorted(A[t]):
                if j == t:
                    continue
                q = A[t][j] // p
                if q:
                    col_addmul(j, t, -q)
                if j in A[t]:
                    col_swap(t, j)
                    swapped = True
                    break
            if swapped:
                continue
            # Divisibility sweep: the pivot must divide the remaining block,
            # which below and left of the pivot is zero by now. A unit
            # divides everything, so it needs no sweep.
            if p in (1, -1):
                break
            rem = p.__rmod__  # rem(x) == x % p
            stray = next((i for i in range(t + 1, m) if any(map(rem, A[i].values()))), None)
            if stray is None:
                break
            row_addmul(t, stray, 1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1
    S = zeros(m, n)
    for Si, row in zip(S, A):
        for j, x in row.items():
            Si[j] = x
    return SnfResult((m, n), [S[i][i] for i in range(min(m, n))], row_ops, col_ops)


def dense_solve(r: SnfResult, b) -> tuple[int, ...] | None:
    """One integer solution of ``M @ x = b`` for the ``M`` that ``r`` is
    the Smith form of, or ``None``, through the dense certificates: solve
    ``S y = U b`` entry by entry and return ``V y``. This is the solve
    that ``SnfResult.solve`` replaced, which replays the logs instead."""
    if len(b) != len(r.U):
        raise ShapeMismatch("right-hand side length does not match row count")
    diag = r.diagonal
    y = [0] * len(r.V)
    for i, c in enumerate(mat_vec(r.U, tuple(b))):
        d = diag[i] if i < len(diag) else 0
        if d:
            if c % d:
                return None
            y[i] = c // d
        elif c:
            return None
    return mat_vec(r.V, tuple(y))


# ---------------------------------------------------------------------------
# Dense relation stacks and the homology built on them
# ---------------------------------------------------------------------------
#
# The library sets columns beside a group's relations as sparse rows, with
# ``abelian.stacked_rows``. These are the dense helpers it used before, and
# ``reference_homology_at`` and ``reference_representative`` are its
# ``homology_at`` and ``HomologyResult.representative`` on them, copied
# verbatim but for the helpers' new homes and the kernel basis, which a
# result lists only for a representative (read here by ``homology_basis``).
# The sparse ones must reproduce them exactly.

def kernel_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice ``{x : A @ x = 0}``: the columns
    of :meth:`SnfResult.kernel_rows` of ``smith(A)``.

    >>> kernel_basis([[1, 1]])
    [(-1, 1)]
    """
    r = smith(A)
    return _columns_of(r.kernel_rows(), r.shape[1] - r.rank)


def mat_copy(M: IntMatrix) -> IntMatrix:
    return [row[:] for row in M]


def mat_hstack(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Concatenate columns; the two blocks must have the same row count."""
    if not A:
        return mat_copy(B)
    if not B:
        return mat_copy(A)
    if len(A) != len(B):
        raise ShapeMismatch("hstack row counts differ")
    return [ra + rb for ra, rb in zip(A, B)]


def relation_matrix(G: FgAbGroup) -> IntMatrix:
    """One column ``d_i * e_i`` per finite factor of ``G``.

    >>> relation_matrix(FgAbGroup((2, 0)))
    [[2], [0]]
    """
    finite = [i for i, d in enumerate(G.invariant_factors) if d]
    M = zeros(G.ngens, len(finite))
    for k, i in enumerate(finite):
        M[i][k] = G.invariant_factors[i]
    return M


def dense_rows(rows, n: int) -> IntMatrix:
    """The dense matrix with sparse rows ``rows`` and ``n`` columns.

    >>> dense_rows([{1: 3}, {}], 2)
    [[0, 3], [0, 0]]
    """
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def reference_homology_at(d1: AbMap, d2: AbMap) -> HomologyResult:
    """Homology at the middle of ``A --d1--> B --d2--> C``.

    Raises :class:`ShapeMismatch` if the middle groups disagree and
    :class:`CompositionNonzero` (with a witness generator) if ``d2 . d1`` is
    not the zero homomorphism.
    """
    if d1.target != d2.source:
        raise ShapeMismatch(
            f"middle group mismatch: {d1.target.describe()} vs {d2.source.describe()}"
        )
    for j, col in enumerate(columns(d2.compose(d1).matrix)):
        image = d2.target.reduce(col)
        if any(image):
            raise CompositionNonzero(f"d2(d1(generator {j})) = {image} != 0")
    B = d1.target
    b = B.ngens
    A2 = mat_hstack(d2.matrix, relation_matrix(d2.target))
    if not A2 or b == 0:
        ker_span = [B.generator(i) for i in range(b)]
    else:
        ker_span = [v[:b] for v in kernel_basis(A2)]
    # one Smith form of a spanning set: the free basis, and coordinates in it
    kernel = smith(from_columns(ker_span, b))
    k = kernel.rank
    den = columns(mat_hstack(d1.matrix, relation_matrix(B)))
    rel_cols = kernel.column_coordinates(den)
    for c, sol in zip(den, rel_cols):
        if sol is None:
            raise CompositionNonzero(
                f"image element {c} does not lie in the kernel lattice"
            )
    rels = from_columns(rel_cols, k)
    grp, project, _lift = quotient_presentation(k, smith(rels))
    return HomologyResult(group=grp, _project=project, middle=B, _kernel=kernel)


def homology_basis(h: HomologyResult) -> tuple[list[tuple[int, ...]], IntMatrix]:
    """The kernel basis of ``h`` as ``homology_at`` once stored it: the
    basis vectors reduced in the middle group, and the dense matrix of the
    vectors as they are. ``h`` lists the basis itself, as ``_basis``, only
    for a representative; this is the one place the tests read it."""
    return [h.middle.reduce(v) for v in h._basis], from_columns(h._basis, h.middle.ngens)


def reference_representative(h: HomologyResult, class_coords) -> tuple[int, ...]:
    """A middle-group cocycle representing the given class of ``h``."""
    c = h.group.reduce(class_coords)
    if h.group.is_trivial():
        return h.middle.zero()
    sol = smith(mat_hstack(h._project, relation_matrix(h.group))).solve(c)
    if sol is None:
        raise ShapeMismatch(f"class {c} has no kernel representative")
    kernel_basis, basis_matrix = homology_basis(h)
    return h.middle.reduce(mat_vec(basis_matrix, sol[: len(kernel_basis)]))


# ---------------------------------------------------------------------------
# The integer route for track extensions
# ---------------------------------------------------------------------------

class CyclicTrackExtension:
    """Lifting problem for ``Z/m`` over its boundary-``d`` quotient.

    The base is the multiplicative monoid of ``Z/g`` with
    ``g = gcd(d, m)`` as a one-object category; lifts are residues mod
    ``m`` and tracks between lifts are boundary certificates. This is
    written directly on integers, independent of the matrix machinery.
    """

    def __init__(self, m: int, d: int):
        if m < 2:
            raise ValueError("the total ring needs order at least 2")
        self.m = m
        self.d = d % m
        self.g = math.gcd(self.d, m) if self.d else m
        self.stride = m // self.g
        self.base = FinCat.from_monoid(
            tuple(range(self.g)),
            lambda a, b: (a * b) % self.g,
            1 % self.g,
            name=f"Z/{self.g} multiplicative",
        )
        if self.g > 1:
            block = FgAbGroup((self.g,))
        else:
            block = FgAbGroup.trivial()

        def act(nu, alpha, psi):
            scale = (psi * nu) % self.g if self.g > 1 else 0
            return AbMap(block, block, [[scale]] if self.g > 1 else [])

        self.system = NatSystem(
            cat=self.base,
            group=lambda alpha: block,
            act=act,
            name=f"kernel Z/{self.g} with two-sided multiplication",
        )

    def section(self, phi: int) -> int:
        return phi % self.m

    def second_section(self, phi: int) -> int:
        return (phi + self.m - self.g) % self.m

    def compose_lifts(self, u: int, v: int) -> int:
        return (u * v) % self.m

    def first_track(self, F: int, G: int) -> "CycTrack":
        for r in range(self.m):
            if (self.d * r - (F - G)) % self.m == 0:
                return CycTrack(self.m, self.d, F, G, r)
        raise SectionInvalid(f"no track from {F} to {G} mod {self.m}")

    def vcomp(self, t1: "CycTrack", t2: "CycTrack") -> "CycTrack":
        if t1.f1 != t2.f0:
            raise ShapeMismatch("vertical composition needs matching middles")
        return CycTrack(self.m, self.d, t1.f0, t2.f1, (t1.r + t2.r) % self.m)

    def left_whisker(self, u: int, t: "CycTrack") -> "CycTrack":
        return CycTrack(
            self.m, self.d, (u * t.f0) % self.m, (u * t.f1) % self.m, (u * t.r) % self.m
        )

    def right_whisker(self, t: "CycTrack", v: int) -> "CycTrack":
        return CycTrack(
            self.m, self.d, (t.f0 * v) % self.m, (t.f1 * v) % self.m, (t.r * v) % self.m
        )

    def value(self, t: "CycTrack") -> tuple:
        if t.f0 != t.f1:
            raise ValueError("only automorphism tracks carry module values")
        return self._module_value(t.r)

    def loop_value(self, a: "CycTrack", b: "CycTrack") -> tuple:
        """``value(vcomp(invert(a), b))``, building no track."""
        if a.f0 != b.f0:
            raise ShapeMismatch("vertical composition needs matching middles")
        if a.f1 != b.f1:
            raise ValueError("only automorphism tracks carry module values")
        return self._module_value((b.r - a.r) % self.m)

    def _module_value(self, r: int) -> tuple:
        if r % self.stride:
            raise ValueError(f"track value {r} is not in the kernel module image")
        return ((r // self.stride) % self.g,) if self.g > 1 else ()


@dataclass(frozen=True)
class CycTrack:
    m: int
    d: int
    f0: int
    f1: int
    r: int

    def __post_init__(self):
        if (self.d * self.r - (self.f0 - self.f1)) % self.m:
            raise BoundaryMismatch(
                f"{self.d} * {self.r} does not bound {self.f0} - {self.f1} mod {self.m}"
            )


def track_invert(t):
    """The inverse ``f1 => f0`` of a matrix ``Track`` or a ``CycTrack``
    ``f0 => f1``: its entries negated.

    >>> t = CycTrack(4, 2, 3, 1, 1)
    >>> track_invert(t)
    CycTrack(m=4, d=2, f0=1, f1=3, r=3)
    """
    if isinstance(t, CycTrack):
        return CycTrack(t.m, t.d, t.f1, t.f0, (-t.r) % t.m)
    c1 = t.ext.c1
    h = tuple(tuple(c1.neg(v) for v in row) for row in t.h)
    return Track(t.ext, t.f1, t.f0, h)


def reference_obstruction_cocycle(te, section=None) -> dict:
    """The obstruction cocycle with both routes rebuilt for every triple,
    frozen from before :func:`~quadalg.modq.obstruction_cocycle` built each
    route once per distinct pair track, and with each value read from the
    pasted track ``vcomp(track_invert(route2), route1)`` rather than from
    ``loop_value``; the size guard is left out."""
    C = te.base
    s, mu = reference_pair_tracks(te, section)
    out = {}
    for T in C.composable_tuples(3):
        route1, route2 = reference_routes(te, s, mu, T)
        coords = te.value(te.vcomp(track_invert(route2), route1))
        if any(coords):
            out[T] = coords
    return out


def reference_pair_tracks(te, section=None) -> tuple:
    """The lifts ``s`` of a section and the first tracks ``mu[phi, psi]``
    from each composed pair of lifts to the lifted composite."""
    C = te.base
    s = {phi: (section(phi) if section else te.section(phi)) for phi in C.morphisms}
    mu = {}
    for phi, psi in C.composable_tuples(2):
        prod = te.compose_lifts(s[phi], s[psi])
        mu[(phi, psi)] = te.first_track(prod, s[C.compose(phi, psi)])
    return s, mu


def reference_routes(te, s, mu, T) -> tuple:
    """The routes ``(phi psi) chi`` and ``phi (psi chi)`` of a triple, both
    from the lifted triple product to the lifted composite."""
    C = te.base
    phi, psi, chi = T
    phipsi = C.compose(phi, psi)
    psichi = C.compose(psi, chi)
    route1 = te.vcomp(te.right_whisker(mu[(phi, psi)], s[chi]), mu[(phipsi, chi)])
    route2 = te.vcomp(te.left_whisker(s[phi], mu[(psi, chi)]), mu[(phi, psichi)])
    return route1, route2


def reference_chains(C: FinCat, n: int, normalized: bool = False) -> list[tuple]:
    """The composable ``n``-chains by the endpoint scan that
    :meth:`~quadalg.bwcoh.FinCat.composable_tuples` used before
    ``FinCat.into``: each chain is extended by every morphism of the pool,
    in ``morphisms`` order, whose codomain is its last morphism's domain."""
    if n == 0:
        return [()]
    pool = [f for f in C.morphisms if not (normalized and C.is_identity(f))]
    chains = [(f,) for f in pool]
    for _ in range(n - 1):
        chains = [t + (g,) for t in chains for g in pool if C.dom[t[-1]] == C.cod[g]]
    return chains


def reference_matrix_table(C: FinCat, dot) -> dict:
    """The composition table of a matrix category by the scan that
    :meth:`~quadalg.bwcoh.FinCat.matrices` used before ``FinCat.into``:
    ``a`` after every morphism, in ``morphisms`` order, with as many rows
    as ``a`` has columns."""
    cols = {
        m: tuple(tuple(m[2][k][j] for k in range(m[0])) for j in range(m[1]))
        for m in C.morphisms
    }
    table = {}
    for x, y, a in C.morphisms:
        for b in C.morphisms:
            if b[0] == y:
                table[((x, y, a), b)] = (x, b[1], tuple(tuple(dot(r, c) for c in cols[b]) for r in a))
    return table


def quotient_matrix(ext: CrossedExtension, f: ModQMor) -> tuple:
    """Entrywise image of a morphism in the quotient ring."""
    q = ext.quot.q
    return tuple(tuple(q(v) for v in row) for row in f.fi)


def track_tau(ext: CrossedExtension, f: ModQMor, m: tuple) -> Track:
    """The automorphism track of ``f`` attached to a kernel-module matrix."""
    x, y = f.nrows, f.ncols
    if len(m) != x or any(len(row) != y for row in m):
        raise ShapeMismatch(f"module matrix is not {x} by {y}")
    h = tuple(tuple(ext.include(v) for v in row) for row in m)
    return Track(ext, f, f, h)


# ---------------------------------------------------------------------------
# Quadratic functors as tensor products with square groups
# ---------------------------------------------------------------------------

def quadratic_tensor(A: FgAbGroup, sg: SquareGroup) -> FgAbGroup:
    """Baues's quadratic tensor product ``A (x) M`` of an abelian group with
    the quadratic Z-module ``M = (M_e --H--> M_ee --P--> M_e)`` of ``sg``.

    ``sg`` needs :class:`FgAbGroup` carriers and an additive ``H``;
    ``H`` and ``P`` are read off the generators ``mu_k`` of ``M_e`` and
    ``nu_l`` of ``M_ee``, and a nonzero cross effect of ``H`` on two
    generators raises :class:`ValueError`.

    ``A (x) M`` is generated by ``a (x) m`` and ``[a, b] (x) n`` for ``a, b``
    in ``A``, ``m`` in ``M_e`` and ``n`` in ``M_ee``, additive in ``m`` and
    ``n``, with ``[a, b] (x) n`` additive in ``a`` and in ``b``, subject to
    Baues's relations (Baues 1994, "Quadratic functors and metastable
    homotopy"; Baues-Pirashvili 1999 for square groups)::

        (a + b) (x) m = a (x) m + b (x) m + [a, b] (x) H(m)
        [a, a] (x) n  = a (x) P(n)

    For ``A = Z/d_1 + ... + Z/d_r`` (``d_i = 0`` for ``Z``) on generators
    ``e_i``, these leave the generators ``e_i (x) mu_k`` and, for ``i < j``,
    ``[e_i, e_j] (x) nu_l``. Since ``(d e) (x) m = d (e (x) m) + C(d, 2)
    [e, e] (x) H(m)``, the relations are

    * the orders of ``mu_k`` and ``nu_l``;
    * ``d_i (e_i (x) m) + C(d_i, 2) e_i (x) PH(m) = 0`` for ``m = mu_k``;
    * ``d_i (e_i (x) P(nu_l)) = 0``, from ``[d_i e_i, e_i] = 0``;
    * ``d_i`` and ``d_j`` kill ``[e_i, e_j] (x) nu_l``.

    >>> quadratic_tensor(FgAbGroup((2,)), QUADRATIC_MODULES["gamma"])
    FgAbGroup((4,))
    """
    e, ee = sg.e, sg.ee
    mus = e.generators()
    for x, y in itertools.combinations_with_replacement(mus, 2):
        if not ee.is_zero(sg.cross(x, y)):
            raise ValueError(f"H of {sg.name} is not additive: ({x} | {y})_H != 0")
    ph = [sg.P(sg.H(m)) for m in mus]
    p_nu = [sg.P(n) for n in ee.generators()]
    d = A.invariant_factors
    K, L = e.ngens, ee.ngens
    pairs = list(itertools.combinations(range(len(d)), 2))
    rank = len(d) * K + len(pairs) * L

    def tensor(i: int, m) -> list[int]:
        """``e_i (x) m`` for ``m`` in ``M_e`` coordinates."""
        v = [0] * rank
        v[i * K : (i + 1) * K] = m
        return v

    def bracket(p: int, l: int, c: int) -> list[int]:
        """``c ([e_i, e_j] (x) nu_l)`` for the ``p``-th pair ``i < j``."""
        v = [0] * rank
        v[len(d) * K + p * L + l] = c
        return v

    rels = []
    for i, di in enumerate(d):
        c2 = math.comb(di, 2)
        for mu, o, phm in zip(mus, e.invariant_factors, ph):
            rels.append(tensor(i, [o * x for x in mu]))
            rels.append(tensor(i, [di * x + c2 * y for x, y in zip(mu, phm)]))
        rels.extend(tensor(i, [di * x for x in n]) for n in p_nu)
    for p, (i, j) in enumerate(pairs):
        for l, o in enumerate(ee.invariant_factors):
            rels.extend(bracket(p, l, c) for c in (o, d[i], d[j]))
    return quotient_presentation(rank, smith(from_columns([r for r in rels if any(r)], rank)))[0]


def _linear_module(name: str, e: FgAbGroup, ee: FgAbGroup, H, P) -> SquareGroup:
    """The square group with additive ``H`` and ``P`` given by matrices."""
    return SquareGroup(e, ee, AbMap(e, ee, H).apply, AbMap(ee, e, P).apply, name)


_Z = FgAbGroup.free(1)

# The quadratic Z-modules whose tensor products are the tabulated quadratic
# functors. ``omega`` is a torsion product, not right exact, so it has none.
QUADRATIC_MODULES = {
    "gamma": _linear_module("Z^Gamma", _Z, _Z, [[1]], [[2]]),
    "sym2": _linear_module("Z^Sym2", _Z, _Z, [[2]], [[1]]),
    "lambda2": _linear_module("Z^Lambda2", FgAbGroup.trivial(), _Z, [[]], []),
    "whiteheadP": _linear_module("Z^P", FgAbGroup.free(2), _Z, [[1, 4]], [[-2], [1]]),
}


# ---------------------------------------------------------------------------
# Binary functors on groups
# ---------------------------------------------------------------------------

BINARY_KINDS = ("tensor", "tor", "hom")


def binary_functor(kind: str, A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    """Tensor product, torsion product, or homomorphism group.

    >>> binary_functor("tensor", FgAbGroup((4,)), FgAbGroup((6,)))
    FgAbGroup((2,))
    >>> binary_functor("hom", FgAbGroup((4,)), FgAbGroup((0,)))
    FgAbGroup(())
    >>> binary_functor("tor", FgAbGroup((4,)), FgAbGroup((6,)))
    FgAbGroup((2,))
    """
    if kind not in BINARY_KINDS:
        raise ValueError(f"unknown binary functor kind: {kind!r}")
    out: list[int] = []
    for d in A.invariant_factors:
        for e in B.invariant_factors:
            if kind == "tensor":
                if d == 0 and e == 0:
                    out.append(0)
                elif d == 0:
                    out.append(e)
                elif e == 0:
                    out.append(d)
                else:
                    out.append(math.gcd(d, e))
            elif kind == "tor":
                if d and e:
                    out.append(math.gcd(d, e))
            else:  # hom
                if d == 0:
                    out.append(e)
                elif e == 0:
                    pass  # Hom(Z/d, Z) = 0
                else:
                    out.append(math.gcd(d, e))
    return FgAbGroup.from_factors(out)


# ---------------------------------------------------------------------------
# Quadratic functors: structural values
# ---------------------------------------------------------------------------

QUADRATIC_KINDS = ("lambda2", "sym2", "gamma", "whiteheadP", "omega")


def _cyclic_value(kind: str, d: int) -> list[int]:
    """Value of the functor on one cyclic group ``Z/d`` (``d = 0`` is ``Z``)."""
    if kind == "lambda2":
        return []
    if kind == "sym2":
        return [d]
    if kind == "gamma":
        if d == 0:
            return [0]
        return [2 * d] if d % 2 == 0 else [d]
    if kind == "whiteheadP":
        if d == 0:
            return [0, 0]
        if d % 2:
            return [d, d]
        return [d // 2, 2 * d]
    if kind == "omega":
        return [] if d == 0 else [d]
    raise ValueError(f"unknown quadratic functor kind: {kind!r}")


def quadratic_functor(kind: str, A: FgAbGroup) -> FgAbGroup:
    """Structural value of a quadratic functor on an abelian group.

    The value on a direct sum is the sum of the values on the summands plus
    one cross term per pair of summands; the cross term is the tensor product
    except for ``omega``, where it is the torsion product.

    >>> quadratic_functor("gamma", FgAbGroup((2,)))
    FgAbGroup((4,))
    >>> quadratic_functor("whiteheadP", FgAbGroup((2,)))
    FgAbGroup((4,))
    >>> quadratic_functor("lambda2", FgAbGroup((0, 0)))
    FgAbGroup((0,))
    >>> quadratic_functor("sym2", FgAbGroup((3,)))
    FgAbGroup((3,))
    """
    return quadratic_on_decomposition(kind, A.invariant_factors)


def quadratic_on_decomposition(kind: str, orders: Sequence[int]) -> FgAbGroup:
    """The quadratic-functor rule applied to a raw cyclic decomposition.

    Used to check that the structural rule is independent of the chosen
    decomposition (e.g. ``[2, 3]`` against ``[6]``).

    >>> quadratic_on_decomposition("omega", [2, 3]) == quadratic_on_decomposition("omega", [6])
    True
    """
    if kind not in QUADRATIC_KINDS:
        raise ValueError(f"unknown quadratic functor kind: {kind!r}")
    parts: list[int] = []
    for d in orders:
        parts.extend(_cyclic_value(kind, d))
    cross = "tor" if kind == "omega" else "tensor"
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            parts.extend(
                binary_functor(
                    cross,
                    FgAbGroup.from_factors([orders[i]]),
                    FgAbGroup.from_factors([orders[j]]),
                ).invariant_factors
            )
    return FgAbGroup.from_factors(parts)


# ---------------------------------------------------------------------------
# Products in the free word model by the recursion through law (ii)
# ---------------------------------------------------------------------------

def monoid_mul_reference(core, x: Nil2Element, y: Nil2Element) -> Nil2Element:
    """The product of the free word model folded through the twisted right
    distributivity, one linear term at a time.

    ``core`` is the word model behind ``znil_monoid`` (the object whose
    bound ``mul`` the ring carries). This is the product the word model
    computed before its closed form, kept as that form's oracle.

    >>> from quadalg.sqring import znil_monoid
    >>> R = znil_monoid(["s", "t"], length_bound=6)
    >>> x = R.e.make({("s",): 2, ("t",): -1}); y = R.e.make({("t",): 3})
    >>> monoid_mul_reference(R.mul.__self__, x, y) == R.mul(x, y)
    True
    """
    if not x.linear:
        # a purely central element P(c) multiplies by the right action
        c = core.ee.make({(u, v): n for (u, v), n in x.comm})
        return core.P(core.act_right(c, y))
    (s, n), rest_linear = x.linear[0], x.linear[1:]
    head = core.e.make({s: n})
    rest = Nil2Element(rest_linear, x.comm)
    hy = core.H(y)
    out = _mul_single(core, s, n, y)
    out = core.e.add(out, monoid_mul_reference(core, rest, y))
    return core.e.add(out, core.P(core.act_pair(head, rest, hy)))


def _mul_single(core, s: tuple, n: int, y: Nil2Element) -> Nil2Element:
    base = _mul_word(core, s, y)
    out = core.e.scalar(n, base)
    if n:
        diag = core.act_pair(core.e.atom(s), core.e.atom(s), core.H(y))
        out = core.e.add(out, core.P(core.ee.make({k: _comb2(n) * v for k, v in diag})))
    return out


def _mul_word(core, s: tuple, y: Nil2Element) -> Nil2Element:
    lin = {}
    for t, m in y.linear:
        w = core.concat(s, t)
        lin[w] = lin.get(w, 0) + m
    out = core.e.make(lin)
    if y.comm:
        c = core.ee.make({(u, v): m for (u, v), m in y.comm})
        shifted = core.act_pair(core.e.atom(s), core.e.atom(s), c)
        out = core.e.add(out, core.P(shifted))
    return out


# ---------------------------------------------------------------------------
# Element arithmetic and word-carrier normal forms, as first written
# ---------------------------------------------------------------------------

class ReferenceGroupArithmetic:
    """``FgAbGroup``'s element arithmetic and sampler before their
    precomputed and shape-specialised fast paths, copied method for
    method, which the current methods must reproduce on operands of the
    right length, draw for draw.

    >>> ReferenceGroupArithmetic((2, 4, 0)).add((1, 3, -5), (1, 2, 7))
    (0, 1, 2)
    """

    def __init__(self, invariant_factors: tuple[int, ...]):
        self.invariant_factors = tuple(invariant_factors)

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    def reduce(self, coords) -> tuple[int, ...]:
        if len(coords) != self.ngens:
            raise ShapeMismatch(
                f"element of length {len(coords)} in group with {self.ngens} generators"
            )
        return tuple(
            c % d if d else int(c) for c, d in zip(coords, self.invariant_factors)
        )

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a) -> tuple[int, ...]:
        return self.reduce([-x for x in a])

    def sub(self, a, b) -> tuple[int, ...]:
        return self.reduce([x - y for x, y in zip(a, b)])

    def sum(self, items) -> tuple[int, ...]:
        return self.reduce([sum(c) for c in zip(self.zero(), *items)])

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(
            rng.randrange(d) if d else rng.randint(-9, 9) for d in self.invariant_factors
        )


def reference_tuples(carriers: Sequence, samples: int, rng: random.Random) -> list[tuple]:
    """``nil2._tuples`` before its flat sampling loop, copied verbatim."""
    pools = [_finite_elements(c) for c in carriers]
    total = 1
    for p in pools:
        total = total * len(p) if p is not None else 0
    if all(p is not None for p in pools) and 0 < total <= DEFAULT_ENUM_BOUND:
        return list(itertools.product(*pools))
    return [tuple(c.sample(rng) for c in carriers) for _ in range(samples)]


def reference_counterexample(carriers: Sequence, holds, samples: int, rng: random.Random):
    """``nil2.counterexample`` before it checked each distinct tuple once,
    copied verbatim but for ``reference_tuples`` in place of the list that
    ``nil2._tuples`` returned then."""
    return next((t for t in reference_tuples(carriers, samples, rng) if not holds(*t)), None)


class ReferenceWordMake:
    """The ``make`` methods of ``FreeNil2Carrier``, ``FreeAbelianCarrier``
    and ``FreePairsCarrier`` before their one-pass rewrite, copied
    verbatim (as ``nil2_make``, ``abelian_make`` and ``pairs_make``) over
    the same symbol ranks.

    >>> ReferenceWordMake(["s", "t"]).pairs_make({("t", "s"): 2, ("s", "s"): 0})
    ((('t', 's'), 2),)
    """

    def __init__(self, symbols: Sequence):
        self._rank = {s: i for i, s in enumerate(symbols)}

    def _key_linear(self, item):
        return self._rank[item[0]]

    def _key_comm(self, item):
        return (self._rank[item[0][0]], self._rank[item[0][1]])

    def nil2_make(self, linear: dict | None = None, comm: dict | None = None) -> Nil2Element:
        lin = {}
        for s, n in (linear or {}).items():
            if s not in self._rank:
                raise BasisMismatch(f"unknown symbol {s!r}")
            if n:
                lin[s] = n
        cm = {}
        for (u, v), n in (comm or {}).items():
            if u not in self._rank or v not in self._rank:
                raise BasisMismatch(f"unknown symbol pair ({u!r}, {v!r})")
            if self._rank[u] >= self._rank[v]:
                raise BasisMismatch(f"pair ({u!r}, {v!r}) is not strictly ordered")
            if n:
                cm[(u, v)] = n
        return Nil2Element(
            tuple(sorted(lin.items(), key=self._key_linear)),
            tuple(sorted(cm.items(), key=self._key_comm)),
        )

    def abelian_make(self, coeffs: dict) -> tuple:
        for s in coeffs:
            if s not in self._rank:
                raise BasisMismatch(f"unknown symbol {s!r}")
        return tuple(
            sorted(((s, n) for s, n in coeffs.items() if n), key=lambda kv: self._rank[kv[0]])
        )

    def pairs_make(self, coeffs: dict) -> tuple:
        out = {}
        for (u, v), n in coeffs.items():
            if u not in self._rank or v not in self._rank:
                raise BasisMismatch(f"unknown symbol pair ({u!r}, {v!r})")
            if n:
                out[(u, v)] = n
        return tuple(
            sorted(out.items(), key=lambda kv: (self._rank[kv[0][0]], self._rank[kv[0][1]]))
        )
