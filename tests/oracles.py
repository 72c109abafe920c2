"""Brute-force oracles used by the test suite.

Everything in this module is deliberately independent of the library's linear
algebra: no Smith normal form, no lattice solving. Structures are identified
by enumerating elements and counting, so these results cross-check the fast
implementations rather than restating them. The one exception is
:func:`smith_reference`, a frozen copy of an earlier Smith normal form that
the current one must reproduce exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from quadalg.abelian import AbMap, FgAbGroup, identity, mat_copy, mat_shape


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
    kernel = [b for b in B.elements(bound) if d2.apply(b) == zero_c]
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
