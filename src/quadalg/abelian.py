"""Exact arithmetic for finitely generated abelian groups.

Everything here is integer arithmetic on plain list-of-list matrices: Smith
normal form with unimodular certificates, groups in invariant-factor form,
maps, kernels, cokernels, homology of two-step complexes, and the quadratic
functors (exterior and symmetric squares, the divided-power functor, the
quadratic construction, and the torsion variant) together with independent
presentation-level oracles for them.

Conventions
-----------
* Vectors are tuples, read as column vectors.
* A matrix is a list of rows; ``M[i][j]`` is row ``i``, column ``j``.
* A map is stored by the matrix whose column ``j`` is the image of the
  ``j``-th generator of the source.
* A relation matrix for a presentation has one column per relation.

Linear solves go through :class:`Factorization`, which computes the Smith
normal form of one matrix once and then answers ``solve(b)`` and
``contains(b)`` for any number of right-hand sides. A matrix that is
already in Smith form (diagonal, nonnegative, each entry dividing the next)
is not re-factored: :func:`smith` returns it with identity certificates.
:func:`smith` eliminates on the matrix alone and logs its elementary
operations; each of the certificates ``U``, ``V``, ``Uinv`` and ``Vinv`` is
built from that log the first time a caller reads it, so a caller pays only
for the certificates it uses.
Membership in the relation lattice of a group in invariant-factor form
needs no factorization at all; it is :meth:`FgAbGroup.reduce` to zero.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .errors import CompositionNonzero, ShapeMismatch, TooLarge

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------

def zeros(m: int, n: int) -> IntMatrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(M: IntMatrix) -> IntMatrix:
    return [row[:] for row in M]


def mat_shape(M: IntMatrix) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Matrix product ``A @ B``; zero entries of ``A`` cost nothing.

    >>> matmul([[1, 2]], [[3], [4]])
    [[11]]
    """
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    n = len(B[0])
    out = []
    for row in A:
        if len(row) != len(B):
            raise ShapeMismatch(f"cannot multiply {mat_shape(A)} by {mat_shape(B)}")
        acc = [0] * n
        for a, brow in zip(row, B):
            if a:
                acc = [s + a * x for s, x in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(A: IntMatrix, v: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    if A and len(A[0]) != len(v):
        raise ShapeMismatch(f"matrix {mat_shape(A)} times vector of length {len(v)}")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in A)


def mat_hstack(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Concatenate columns; the two blocks must have the same row count."""
    if not A:
        return mat_copy(B)
    if not B:
        return mat_copy(A)
    if len(A) != len(B):
        raise ShapeMismatch("hstack row counts differ")
    return [ra + rb for ra, rb in zip(A, B)]


def columns(M: IntMatrix) -> list[tuple[int, ...]]:
    m, n = mat_shape(M)
    return [tuple(M[i][j] for i in range(m)) for j in range(n)]


def from_columns(cols: list[tuple[int, ...]] | list[list[int]], nrows: int) -> IntMatrix:
    M = zeros(nrows, len(cols))
    for j, c in enumerate(cols):
        if len(c) != nrows:
            raise ShapeMismatch("column length does not match row count")
        for i in range(nrows):
            M[i][j] = c[i]
    return M


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

# Kinds of logged elementary operation, each acting on the rows of an
# identity matrix when a certificate is built: ``(_SWAP, i, j, 0)`` swaps rows
# ``i`` and ``j``, ``(_ADD, i, j, q)`` adds ``q`` times row ``j`` to row ``i``
# and ``(_NEG, i, i, 0)`` negates row ``i``.
_SWAP, _ADD, _NEG = range(3)


def _add_row(M: IntMatrix, i: int, j: int, q: int) -> None:
    """Row ``i`` of ``M`` += ``q`` times row ``j``, in place; the zero
    entries of row ``j``, most of them in a sparse matrix, cost nothing."""
    Mi, Mj = M[i], M[j]
    for k in itertools.compress(range(len(Mj)), Mj):
        Mi[k] += q * Mj[k]


def _replay(ops: list[tuple[int, int, int, int]], n: int, inverse_transpose: bool) -> IntMatrix:
    """``identity(n)`` with the logged row operations applied in order.

    With ``inverse_transpose`` each operation is replaced by its inverse
    transpose: a swap or a negation is its own, and adding ``q`` times row
    ``j`` to row ``i`` becomes subtracting ``q`` times row ``i`` from row ``j``.
    """
    M = identity(n)
    for kind, i, j, q in ops:
        if kind == _ADD:
            if inverse_transpose:
                i, j, q = j, i, -q
            _add_row(M, i, j, q)
        elif kind == _SWAP:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


def _transpose(M: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*M)]


@dataclass
class SnfResult:
    """Smith normal form ``S = U @ M @ V`` with both certificates invertible.

    ``smith`` records its row operations in ``row_ops`` and its column
    operations in ``col_ops``. ``U``, ``V`` and their integer inverses
    ``Uinv`` and ``Vinv`` are built from these logs the first time each is
    read, and kept. ``diagonal`` lists the diagonal entries of ``S`` and
    ``rank`` counts the nonzero ones.
    """

    S: IntMatrix
    row_ops: list[tuple[int, int, int, int]] = field(repr=False)
    col_ops: list[tuple[int, int, int, int]] = field(repr=False)

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self.row_ops, len(self.S), False)

    @cached_property
    def Uinv(self) -> IntMatrix:
        return _transpose(_replay(self.row_ops, len(self.S), True))

    @cached_property
    def V(self) -> IntMatrix:
        # A column operation on V is the same operation on the rows of V^T.
        return _transpose(_replay(self.col_ops, mat_shape(self.S)[1], False))

    @cached_property
    def Vinv(self) -> IntMatrix:
        return _replay(self.col_ops, mat_shape(self.S)[1], True)

    @property
    def diagonal(self) -> list[int]:
        m, n = mat_shape(self.S)
        return [self.S[i][i] for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


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


def smith(M: IntMatrix) -> SnfResult:
    """Smith normal form of ``M``, with certificates built on demand.

    The elimination works on a copy of ``M`` only and logs each elementary
    row and column operation; :class:`SnfResult` builds ``U``, ``V``,
    ``Uinv`` and ``Vinv`` from the logs when a caller first reads them.

    The pivot rule is deterministic: among nonzero entries of the working
    submatrix pick one of minimal absolute value, breaking ties by smallest
    row index, then smallest column index. A matrix already in Smith form
    is returned with empty logs, and so with identity certificates: what
    the elimination below would return after doing nothing.
    """
    A = mat_copy(M)
    m, n = mat_shape(A)
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []
    if _in_smith_form(A):
        return SnfResult(A, row_ops, col_ops)

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        row_ops.append((_SWAP, i, j, 0))

    def row_addmul(i: int, j: int, q: int) -> None:
        _add_row(A, i, j, q)
        row_ops.append((_ADD, i, j, q))

    def row_neg(i: int) -> None:
        A[i] = [-x for x in A[i]]
        row_ops.append((_NEG, i, i, 0))

    def col_swap(i: int, j: int) -> None:
        for r in A:
            r[i], r[j] = r[j], r[i]
        col_ops.append((_SWAP, i, j, 0))

    def col_addmul(j: int, i: int, q: int) -> None:
        # col j += q * col i
        for r in A:
            x = r[i]
            if x:
                r[j] += q * x
        col_ops.append((_ADD, j, i, q))

    t = 0
    while t < min(m, n):
        # Locate the pivot: minimal absolute value, ties by row then column,
        # and no row after the first one holding a unit is looked at.
        pivot = None
        best = 0
        for i in range(t, m):
            tail = A[i][t:]
            if not any(tail):
                continue
            v = min(map(abs, filter(None, tail)))
            if not best or v < best:
                best = v
                pivot = (i, t + list(map(abs, tail)).index(v))
                if v == 1:
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
            # A unit divides everything, so it needs no sweep.
            p = A[t][t]
            if p in (1, -1):
                break
            rem = p.__rmod__  # rem(x) == x % p
            stray = next(
                (i for i in range(t + 1, m) if any(map(rem, filter(None, A[i][t + 1 :])))),
                None,
            )
            if stray is None:
                break
            row_addmul(t, stray, 1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1
    return SnfResult(A, row_ops, col_ops)


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns ``(S, U, V)`` with ``U @ M @ V == S``.

    ``S`` is diagonal with nonnegative entries, each dividing the next, and
    ``U``, ``V`` are unimodular.

    >>> S, U, V = smith_normal_form([[2, 4], [6, 8]])
    >>> S
    [[2, 0], [0, 4]]
    >>> matmul(matmul(U, [[2, 4], [6, 8]]), V) == S
    True
    """
    r = smith(M)
    return r.S, r.U, r.V


class Factorization:
    """The Smith normal form of one matrix ``A``, reused for every solve.

    Each :meth:`solve` or :meth:`contains` costs two matrix-vector
    products; the factorization itself is computed once, here.

    >>> f = Factorization([[2, 0], [0, 3]])
    >>> f.solve((4, 9))
    (2, 3)
    >>> f.contains((3, 0)), f.contains((0, 3))
    (False, True)
    """

    __slots__ = ("snf", "_diagonal")

    def __init__(self, A: IntMatrix):
        self.snf = smith(A)
        self._diagonal = self.snf.diagonal

    def solve(self, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
        """One integer solution ``x`` of ``A @ x = b``, or ``None``."""
        r, diag = self.snf, self._diagonal
        if len(b) != len(r.U):
            raise ShapeMismatch("right-hand side length does not match row count")
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

    def contains(self, b: tuple[int, ...] | list[int]) -> bool:
        """Whether ``b`` lies in the lattice spanned by the columns of ``A``."""
        return self.solve(b) is not None


def solve_integer(A: IntMatrix, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
    """One integer solution ``x`` of ``A @ x = b``, or ``None``.

    Factors ``A`` on every call; use :class:`Factorization` for many ``b``.

    >>> solve_integer([[2, 0], [0, 3]], (4, 9))
    (2, 3)
    >>> solve_integer([[2]], (3,)) is None
    True
    """
    return Factorization(A).solve(b)


def kernel_basis(A: IntMatrix, ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice ``{x : A @ x = 0}``.

    The basis is the last ``n - rank`` columns of the Smith certificate
    ``V``, the only certificate this builds.

    >>> kernel_basis([[1, 1]])
    [(-1, 1)]
    """
    m, n = mat_shape(A)
    if n == 0:
        n = ncols or 0
        return [tuple(int(i == j) for i in range(n)) for j in range(n)] if m == 0 else []
    r = smith(A)
    return list(zip(*r.V))[r.rank :]


def lattice_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice spanned by the columns of ``A``."""
    m, _ = mat_shape(A)
    r = smith(A)
    Uinv = r.Uinv
    out = []
    for j in range(r.rank):
        d = r.S[j][j]
        out.append(tuple(d * Uinv[i][j] for i in range(m)))
    return out


def in_lattice(A: IntMatrix, v: tuple[int, ...] | list[int]) -> bool:
    """Whether ``v`` lies in the lattice spanned by the columns of ``A``."""
    if not A:
        return all(x == 0 for x in v)
    return Factorization(A).contains(v)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

def canonical_factors(factors) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the given cyclic groups.

    Accepts arbitrary nonnegative cyclic orders (0 meaning infinite cyclic)
    and returns the canonical form: finite factors first, each at least 2 and
    dividing the next, then zeros.

    >>> canonical_factors([2, 3])
    (6,)
    >>> canonical_factors([0, 4, 2, 0])
    (2, 4, 0, 0)
    >>> canonical_factors([1, 1])
    ()
    """
    fs = [abs(int(d)) for d in factors]
    if any(d == 1 for d in fs):
        fs = [d for d in fs if d != 1]
    if not fs:
        return ()
    n = len(fs)
    D = [[fs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    diag = smith(D).diagonal
    finite = sorted(d for d in diag if d not in (0, 1))
    nfree = sum(1 for d in diag if d == 0)
    return tuple(finite) + (0,) * nfree


def validate_factors(factors) -> tuple[int, ...]:
    """Check a serialized factor list is already canonical; return it.

    >>> validate_factors([2, 4, 0, 0])
    (2, 4, 0, 0)
    >>> validate_factors([0, 0, 4, 2])
    Traceback (most recent call last):
        ...
    ValueError: invariant factors must list finite factors first: [0, 0, 4, 2]
    """
    fs = tuple(int(d) for d in factors)
    seen_zero = False
    prev = None
    for d in fs:
        if d < 0 or d == 1:
            raise ValueError(f"invalid invariant factor {d} in {list(fs)}")
        if d == 0:
            seen_zero = True
            continue
        if seen_zero:
            raise ValueError(
                f"invariant factors must list finite factors first: {list(fs)}"
            )
        if prev is not None and d % prev:
            raise ValueError(
                f"invariant factors must form a divisibility chain: {list(fs)}"
            )
        prev = d
    return fs


class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    The group is ``Z/d_1 + ... + Z/d_k`` with each finite ``d_i >= 2``
    dividing the next and ``d_i = 0`` meaning an infinite cyclic summand;
    zeros come last. Elements are coordinate tuples, stored reduced
    (``0 <= c_i < d_i`` on finite coordinates).

    >>> FgAbGroup.from_factors([2, 3])
    FgAbGroup((6,))
    >>> FgAbGroup.from_factors([4, 6]).order()
    24
    >>> FgAbGroup.free(2)
    FgAbGroup((0, 0))
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        self.invariant_factors = validate_factors(invariant_factors)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_factors(cls, factors) -> "FgAbGroup":
        return cls(canonical_factors(factors))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        return cls.from_factors([n])

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls((0,) * rank)

    # -- basic data --------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def order(self) -> int | None:
        if not self.is_finite():
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def relation_matrix(self) -> IntMatrix:
        """One column ``d_i * e_i`` per finite factor."""
        cols = []
        for i, d in enumerate(self.invariant_factors):
            if d:
                cols.append(tuple(d if j == i else 0 for j in range(self.ngens)))
        return from_columns(cols, self.ngens)

    # -- element arithmetic -------------------------------------------------

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

    def scalar(self, n: int, a) -> tuple[int, ...]:
        return self.reduce([n * x for x in a])

    def generator(self, i: int) -> tuple[int, ...]:
        return tuple(int(i == j) for j in range(self.ngens))

    def generators(self) -> list[tuple[int, ...]]:
        return [self.generator(i) for i in range(self.ngens)]

    def elements(self, bound: int = 4096) -> list[tuple[int, ...]]:
        n = self.order()
        if n is None:
            raise TooLarge("cannot enumerate an infinite group")
        if n > bound:
            raise TooLarge(f"group of order {n} exceeds enumeration bound {bound}")
        ranges = [range(d) for d in self.invariant_factors]
        return [tuple(t) for t in itertools.product(*ranges)]

    def sample(self, rng: random.Random, free_bound: int = 9) -> tuple[int, ...]:
        return tuple(
            rng.randrange(d) if d else rng.randint(-free_bound, free_bound)
            for d in self.invariant_factors
        )

    def element_order(self, a) -> int | None:
        a = self.reduce(a)
        if any(c and not d for c, d in zip(a, self.invariant_factors)):
            return None
        n = 1
        for c, d in zip(a, self.invariant_factors):
            if d and c:
                n = math.lcm(n, d // math.gcd(d, c))
        return n

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FgAbGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self) -> int:
        return hash(("FgAbGroup", self.invariant_factors))

    def __repr__(self) -> str:
        return f"FgAbGroup({self.invariant_factors!r})"

    def describe(self) -> str:
        """Readable name such as ``Z/2 + Z/4 + Z^2`` (``0`` for trivial).

        >>> FgAbGroup((2, 4, 0, 0)).describe()
        'Z/2 + Z/4 + Z^2'
        """
        if self.is_trivial():
            return "0"
        parts = [f"Z/{d}" for d in self.invariant_factors if d]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts)


@dataclass(frozen=True)
class AbElement:
    """An element of an :class:`FgAbGroup`, stored in reduced coordinates."""

    group: FgAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce(self.coords))

    def __add__(self, other: "AbElement") -> "AbElement":
        self._check(other)
        return AbElement(self.group, self.group.add(self.coords, other.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        self._check(other)
        return AbElement(self.group, self.group.sub(self.coords, other.coords))

    def __neg__(self) -> "AbElement":
        return AbElement(self.group, self.group.neg(self.coords))

    def __rmul__(self, n: int) -> "AbElement":
        return AbElement(self.group, self.group.scalar(n, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "AbElement") -> None:
        if self.group != other.group:
            raise ShapeMismatch("elements of different groups")


# ---------------------------------------------------------------------------
# Maps between groups
# ---------------------------------------------------------------------------

@dataclass
class AbMap:
    """A homomorphism given by its matrix on generators.

    Column ``j`` of ``matrix`` is the image of the ``j``-th source generator,
    in target coordinates.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        m, n = mat_shape(self.matrix)
        if len(self.matrix) != self.target.ngens or (
            self.target.ngens and n != self.source.ngens
        ):
            if not (self.target.ngens == 0 and not self.matrix):
                raise ShapeMismatch(
                    f"matrix {m}x{n} for map with {self.source.ngens} source and "
                    f"{self.target.ngens} target generators"
                )

    @classmethod
    def from_columns(cls, source: FgAbGroup, target: FgAbGroup, cols) -> "AbMap":
        return cls(source, target, from_columns(list(cols), target.ngens))

    @classmethod
    def zero_map(cls, source: FgAbGroup, target: FgAbGroup) -> "AbMap":
        return cls(source, target, zeros(target.ngens, source.ngens))

    def respects_relations(self) -> tuple[bool, str | None]:
        """Each finite source factor must annihilate its image column."""
        for j, d in enumerate(self.source.invariant_factors):
            if d:
                col = [d * self.matrix[i][j] for i in range(self.target.ngens)]
                if any(self.target.reduce(col)):
                    return False, (
                        f"generator {j} of order {d} maps to element of infinite or "
                        f"incompatible order: column {[self.matrix[i][j] for i in range(self.target.ngens)]}"
                    )
        return True, None

    def verify(self) -> "tuple[bool, str | None]":
        return self.respects_relations()

    def apply(self, coords) -> tuple[int, ...]:
        if isinstance(coords, AbElement):
            coords = coords.coords
        return self.target.reduce(mat_vec(self.matrix, tuple(coords)))

    def compose(self, first: "AbMap") -> "AbMap":
        """``self`` after ``first``."""
        if first.target != self.source:
            raise ShapeMismatch("composition source/target mismatch")
        if self.source.ngens == 0:
            # A trivial middle group forces the zero composite; matmul
            # cannot recover the column count through an empty matrix.
            return AbMap.zero_map(first.source, self.target)
        return AbMap(first.source, self.target, matmul(self.matrix, first.matrix))

    def add(self, other: "AbMap") -> "AbMap":
        if other.source != self.source or other.target != self.target:
            raise ShapeMismatch("sum of maps with different ends")
        M = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.matrix, other.matrix)
        ]
        return AbMap(self.source, self.target, M)

    def is_zero_map(self) -> bool:
        """Whether the map is zero as a homomorphism (not just as a matrix).

        A column lies in the target's relation lattice exactly when it
        reduces to zero modulo the invariant factors.
        """
        return not any(any(self.target.reduce(c)) for c in columns(self.matrix))

    def image_contains(self, coords) -> tuple[int, ...] | None:
        """A source solution of ``f(x) = v``, or ``None``."""
        A = mat_hstack(self.matrix, self.target.relation_matrix())
        if not A:
            return None if any(coords) else self.source.zero()
        sol = solve_integer(A, tuple(coords))
        if sol is None:
            return None
        return self.source.reduce(sol[: self.source.ngens])

    def kernel(self) -> "tuple[FgAbGroup, AbMap]":
        """The kernel subgroup with its inclusion into the source."""
        A = mat_hstack(self.matrix, self.target.relation_matrix())
        b = self.source.ngens
        if not A:
            ker_cols = [self.source.generator(i) for i in range(b)]
        else:
            ker_cols = [v[:b] for v in kernel_basis(A)]
        span = from_columns(ker_cols, b) if ker_cols else zeros(b, 0)
        basis = lattice_basis(span) if ker_cols else []
        B = from_columns(basis, b) if basis else zeros(b, 0)
        k = len(basis)
        # Relations among the basis: coefficient vectors landing in the
        # source relation lattice.
        rel_src = self.source.relation_matrix()
        A2 = mat_hstack(B, rel_src)
        rel_cols = []
        if A2 and k:
            for v in kernel_basis(A2):
                rel_cols.append(v[:k])
        rels = from_columns(rel_cols, k) if rel_cols else zeros(k, 0)
        grp, _project, lift = quotient_presentation(k, rels)
        incl_cols = [
            self.source.reduce(mat_vec(B, lc)) if k else self.source.zero()
            for lc in columns(lift)
        ]
        return grp, AbMap.from_columns(grp, self.source, incl_cols)

    def cokernel(self) -> "tuple[FgAbGroup, AbMap]":
        """The cokernel with the projection from the target."""
        rels = mat_hstack(self.matrix, self.target.relation_matrix())
        grp, project, _lift = quotient_presentation(self.target.ngens, rels)
        proj_cols = [mat_vec(project, self.target.generator(i))
                     for i in range(self.target.ngens)]
        proj_cols = [grp.reduce(c) for c in proj_cols]
        return grp, AbMap.from_columns(self.target, grp, proj_cols)


def quotient_presentation(
    rank: int, rels: IntMatrix
) -> tuple[FgAbGroup, IntMatrix, IntMatrix]:
    """Structure of ``Z^rank`` modulo the column lattice of ``rels``.

    Returns ``(group, project, lift)`` where ``project`` maps old coordinates
    onto the group's invariant coordinates and ``lift`` sends each new
    generator to an old-coordinate representative; ``project @ lift`` is the
    identity.

    >>> g, p, l = quotient_presentation(2, [[2, 0], [0, 3]])
    >>> g
    FgAbGroup((6,))
    """
    if rank == 0:
        return FgAbGroup.trivial(), [], []
    rels = rels if rels else zeros(rank, 0)
    r = smith(rels)
    nrels = len(rels[0]) if rels and rels[0] else 0
    diag = [r.S[i][i] if i < min(rank, nrels) else 0 for i in range(rank)]
    kept = [i for i, d in enumerate(diag) if d != 1]
    factors = tuple(diag[i] for i in kept)
    group = FgAbGroup(factors)
    U, Uinv = r.U, r.Uinv
    project = [U[i][:] for i in kept]
    lift = [[Uinv[i][j] for j in kept] for i in range(rank)]
    return group, project, lift


# ---------------------------------------------------------------------------
# Homology of a two-step complex
# ---------------------------------------------------------------------------

@dataclass
class HomologyResult:
    """``ker(d2)/im(d1)`` together with a witness.

    ``kernel_basis`` lists middle-group coordinate tuples generating the
    kernel; :meth:`express` sends a kernel element to its class. Both
    directions solve against one factorization each, made at most once per
    result.
    """

    group: FgAbGroup
    kernel_basis: list[tuple[int, ...]]
    _basis_matrix: IntMatrix
    _project: IntMatrix
    middle: FgAbGroup
    _kernel: Factorization = field(repr=False, compare=False)
    _classes: Factorization | None = field(default=None, repr=False, compare=False)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.group.invariant_factors

    def express(self, coords) -> tuple[int, ...]:
        """Class of a kernel element in homology coordinates."""
        if isinstance(coords, AbElement):
            coords = coords.coords
        v = self.middle.reduce(coords)
        sol = self._kernel.solve(v)
        if sol is None:
            raise ShapeMismatch(f"element {v} is not in the kernel")
        return self.group.reduce(mat_vec(self._project, sol))

    def representative(self, class_coords) -> tuple[int, ...]:
        """A middle-group cocycle representing the given class.

        Inverse to :meth:`express` up to coboundaries: the returned
        coordinates express back to ``class_coords``.
        """
        h = self.group.reduce(class_coords)
        if self.group.is_trivial():
            return self.middle.zero()
        if self._classes is None:
            self._classes = Factorization(
                mat_hstack(self._project, self.group.relation_matrix())
            )
        sol = self._classes.solve(h)
        if sol is None:
            raise ShapeMismatch(f"class {h} has no kernel representative")
        return self.middle.reduce(mat_vec(self._basis_matrix, sol[: len(self.kernel_basis)]))


def homology_at(d1: AbMap, d2: AbMap) -> HomologyResult:
    """Homology at the middle of ``A --d1--> B --d2--> C``.

    Raises :class:`ShapeMismatch` if the middle groups disagree and
    :class:`CompositionNonzero` (with a witness generator) if ``d2 . d1`` is
    not the zero homomorphism.

    >>> Z = FgAbGroup.free(1)
    >>> d1 = AbMap(Z, Z, [[2]])
    >>> d2 = AbMap.zero_map(Z, Z)
    >>> homology_at(d1, d2).group
    FgAbGroup((2,))
    """
    if d1.target != d2.source:
        raise ShapeMismatch(
            f"middle group mismatch: {d1.target.describe()} vs {d2.source.describe()}"
        )
    comp = d2.compose(d1)
    if not comp.is_zero_map():
        for j, col in enumerate(columns(comp.matrix)):
            if any(d2.target.reduce(col)):
                raise CompositionNonzero(
                    f"d2(d1(generator {j})) = {d2.target.reduce(col)} != 0"
                )
    B = d1.target
    b = B.ngens
    A2 = mat_hstack(d2.matrix, d2.target.relation_matrix())
    if not A2 or b == 0:
        ker_span = [B.generator(i) for i in range(b)]
    else:
        ker_span = [v[:b] for v in kernel_basis(A2)]
    span = from_columns(ker_span, b) if ker_span else zeros(b, 0)
    basis = lattice_basis(span) if ker_span else []
    BK = from_columns(basis, b) if basis else zeros(b, 0)
    k = len(basis)
    kernel = Factorization(BK)
    den = mat_hstack(d1.matrix, B.relation_matrix())
    rel_cols = []
    for c in columns(den):
        sol = kernel.solve(c)
        if sol is None:
            raise CompositionNonzero(
                f"image element {c} does not lie in the kernel lattice"
            )
        rel_cols.append(sol)
    rels = from_columns(rel_cols, k) if rel_cols else zeros(k, 0)
    grp, project, _lift = quotient_presentation(k, rels)
    return HomologyResult(
        group=grp,
        kernel_basis=[B.reduce(v) for v in basis],
        _basis_matrix=BK,
        _project=project,
        middle=B,
        _kernel=kernel,
    )


# ---------------------------------------------------------------------------
# Presented groups (generators and explicit relation columns)
# ---------------------------------------------------------------------------

@dataclass
class PresentedAb:
    """``Z^ngens`` modulo the column lattice of ``rels``."""

    ngens: int
    rels: IntMatrix

    def group(self) -> FgAbGroup:
        return quotient_presentation(self.ngens, self.rels)[0]

    def rel_matrix(self) -> IntMatrix:
        return self.rels if self.rels else zeros(self.ngens, 0)


@dataclass
class PresentedMap:
    """A map of presented groups by its matrix on generators."""

    src: PresentedAb
    dst: PresentedAb
    matrix: IntMatrix

    def well_defined(self) -> tuple[bool, str | None]:
        relations = Factorization(self.dst.rel_matrix())
        for j, c in enumerate(columns(self.src.rel_matrix())):
            img = mat_vec(self.matrix, c)
            if not relations.contains(img):
                return False, f"relation {j} maps to {img}, outside the relations"
        return True, None

    def kernel_lattice(self) -> IntMatrix:
        """Columns spanning ``{v : M v in dst relations}``."""
        A = mat_hstack(self.matrix, self.dst.rel_matrix())
        if not A:
            return identity(self.src.ngens)
        ker = kernel_basis(A)
        cols = [v[: self.src.ngens] for v in ker]
        return from_columns(cols, self.src.ngens) if cols else zeros(self.src.ngens, 0)

    def image_lattice(self) -> IntMatrix:
        return self.matrix if self.matrix else zeros(self.dst.ngens, 0)


def exact_at(
    f: PresentedMap, g: PresentedMap
) -> tuple[bool, str | None]:
    """Exactness of ``. --f--> B --g--> .`` at ``B`` (as presented groups)."""
    if f.dst is not g.src and f.dst != g.src:
        return False, "maps do not share the middle presentation"
    mid_rels = f.dst.rel_matrix()
    image, kernel = f.image_lattice(), g.kernel_lattice()
    in_kernel = Factorization(mat_hstack(kernel, mid_rels))
    for c in columns(image):
        if not in_kernel.contains(c):
            return False, f"image generator {c} is not in the kernel"
    in_image = Factorization(mat_hstack(image, mid_rels))
    for c in columns(kernel):
        if not in_image.contains(c):
            return False, f"kernel generator {c} is not in the image"
    return True, None


def injective_presented(f: PresentedMap) -> tuple[bool, str | None]:
    relations = Factorization(f.src.rel_matrix())
    for c in columns(f.kernel_lattice()):
        if not relations.contains(c):
            return False, f"kernel element {c} is nonzero in the source"
    return True, None


def surjective_presented(f: PresentedMap) -> tuple[bool, str | None]:
    span = Factorization(mat_hstack(f.image_lattice(), f.dst.rel_matrix()))
    for i in range(f.dst.ngens):
        e = tuple(int(i == j) for j in range(f.dst.ngens))
        if not span.contains(e):
            return False, f"generator {i} of the target is not hit"
    return True, None


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


# ---------------------------------------------------------------------------
# Quadratic functors: presentation-level oracles
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("lambda2", "sym2", "gamma", "whiteheadP")

DEFAULT_ORACLE_BOUND = 64


def _dedupe_columns(cols: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for c in cols:
        if any(c) and c not in seen:
            seen.add(c)
            out.append(c)
    return out


def gamma_presentation(A: FgAbGroup, bound: int = DEFAULT_ORACLE_BOUND) -> PresentedAb:
    """Element-level presentation of the divided-power functor.

    One generator ``gamma(a)`` per element; relations say ``gamma(0) = 0``,
    ``gamma(-a) = gamma(a)``, and the third cross effect of ``gamma``
    vanishes on every triple.
    """
    elems = _oracle_elements(A, bound)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)

    def vec(pairs: list[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
        v = [0] * n
        for e, c in pairs:
            v[index[e]] += c
        return tuple(v)

    rels: list[tuple[int, ...]] = [vec([(A.zero(), 1)])]
    for a in elems:
        rels.append(vec([(A.neg(a), 1), (a, -1)]))
    for a in elems:
        for b in elems:
            ab = A.add(a, b)
            for c in elems:
                rels.append(
                    vec(
                        [
                            (A.add(ab, c), 1),
                            (ab, -1),
                            (A.add(a, c), -1),
                            (A.add(b, c), -1),
                            (a, 1),
                            (b, 1),
                            (c, 1),
                        ]
                    )
                )
    cols = _dedupe_columns(rels)
    return PresentedAb(n, from_columns(cols, n) if cols else zeros(n, 0))


def whiteheadP_presentation(A: FgAbGroup, bound: int = DEFAULT_ORACLE_BOUND) -> PresentedAb:
    """Element-level presentation of the quadratic construction.

    Generators ``t_a`` for nonzero ``a``, one relation per triple expressing
    that triple products of the ``t``'s vanish:
    ``t(a+b+c) - t(a+b) - t(a+c) - t(b+c) + t(a) + t(b) + t(c) = 0``
    (``t`` of zero reads as 0).
    """
    elems = _oracle_elements(A, bound)
    nz = [e for e in elems if any(e)]
    index = {e: i for i, e in enumerate(nz)}
    n = len(nz)

    def vec(pairs: list[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
        v = [0] * n
        for e, c in pairs:
            if any(e):
                v[index[e]] += c
        return tuple(v)

    rels: list[tuple[int, ...]] = []
    for a in nz:
        for b in nz:
            ab = A.add(a, b)
            for c in nz:
                rels.append(
                    vec(
                        [
                            (A.add(ab, c), 1),
                            (ab, -1),
                            (A.add(a, c), -1),
                            (A.add(b, c), -1),
                            (a, 1),
                            (b, 1),
                            (c, 1),
                        ]
                    )
                )
    cols = _dedupe_columns(rels)
    return PresentedAb(n, from_columns(cols, n) if cols else zeros(n, 0))


def tensor_square_presentation(A: FgAbGroup) -> PresentedAb:
    """``A (x) A`` on generator pairs ``e_(i,j)``."""
    fs = A.invariant_factors
    k = len(fs)
    n = k * k

    def idx(i: int, j: int) -> int:
        return i * k + j

    rels: list[tuple[int, ...]] = []
    for i in range(k):
        for j in range(k):
            for d in (fs[i], fs[j]):
                if d:
                    v = [0] * n
                    v[idx(i, j)] = d
                    rels.append(tuple(v))
    cols = _dedupe_columns(rels)
    return PresentedAb(n, from_columns(cols, n) if cols else zeros(n, 0))


def sym2_presentation(A: FgAbGroup) -> PresentedAb:
    """Symmetric square: tensor square modulo ``e_(i,j) = e_(j,i)``."""
    base = tensor_square_presentation(A)
    fs = A.invariant_factors
    k = len(fs)
    extra: list[tuple[int, ...]] = []
    for i in range(k):
        for j in range(i + 1, k):
            v = [0] * base.ngens
            v[i * k + j] = 1
            v[j * k + i] = -1
            extra.append(tuple(v))
    cols = _dedupe_columns(columns(base.rel_matrix()) + extra)
    return PresentedAb(base.ngens, from_columns(cols, base.ngens) if cols else zeros(base.ngens, 0))


def lambda2_presentation(A: FgAbGroup) -> PresentedAb:
    """Exterior square: tensor square modulo the diagonal.

    The subgroup generated by all ``a (x) a`` is spanned by the
    ``e_(i,i)`` and the ``e_(i,j) + e_(j,i)``, by bilinear expansion of
    ``(sum a_i g_i) (x) (sum a_j g_j)``.
    """
    base = tensor_square_presentation(A)
    fs = A.invariant_factors
    k = len(fs)
    extra: list[tuple[int, ...]] = []
    for i in range(k):
        v = [0] * base.ngens
        v[i * k + i] = 1
        extra.append(tuple(v))
        for j in range(i + 1, k):
            w = [0] * base.ngens
            w[i * k + j] = 1
            w[j * k + i] = 1
            extra.append(tuple(w))
    cols = _dedupe_columns(columns(base.rel_matrix()) + extra)
    return PresentedAb(base.ngens, from_columns(cols, base.ngens) if cols else zeros(base.ngens, 0))


def _oracle_elements(A: FgAbGroup, bound: int) -> list[tuple[int, ...]]:
    n = A.order()
    if n is None:
        raise TooLarge("element-level oracle needs a finite group")
    if n > bound:
        raise TooLarge(f"group of order {n} exceeds the oracle bound {bound}")
    return A.elements(bound=max(bound, n))


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


def _element_presentation(A: FgAbGroup) -> PresentedAb:
    return PresentedAb(A.ngens, A.relation_matrix())


def whitehead_sequence(
    A: FgAbGroup, bound: int = DEFAULT_ORACLE_BOUND
) -> tuple[PresentedMap, PresentedMap]:
    """The sequence ``0 -> Sym2(A) -> P(A) -> A -> 0`` on presentations.

    The first map sends a generator pair to the cross effect
    ``t(g_i + g_j) - t(g_i) - t(g_j)``; the second sends ``t_a`` to ``a``.
    """
    sym = sym2_presentation(A)
    P = whiteheadP_presentation(A, bound)
    elems = _oracle_elements(A, bound)
    nz = [e for e in elems if any(e)]
    index = {e: i for i, e in enumerate(nz)}
    k = A.ngens

    def tvec(pairs: list[tuple[tuple[int, ...], int]]) -> list[int]:
        v = [0] * len(nz)
        for e, c in pairs:
            if any(e):
                v[index[e]] += c
        return v

    cols = []
    for i in range(k):
        for j in range(k):
            gi, gj = A.generator(i), A.generator(j)
            cols.append(tvec([(A.add(gi, gj), 1), (gi, -1), (gj, -1)]))
    first = PresentedMap(sym, P, from_columns(cols, len(nz)) if cols else zeros(len(nz), 0))
    second = PresentedMap(
        P, _element_presentation(A), from_columns([list(e) for e in nz], A.ngens)
    )
    return first, second


def tensor_sequence(A: FgAbGroup) -> tuple[PresentedMap, PresentedMap]:
    """The sequence ``0 -> Lambda2(A) -> A (x) A -> Sym2(A) -> 0``.

    The first map sends the class of ``e_(i,j)`` to ``e_(i,j) - e_(j,i)``;
    the second is the projection onto the symmetric square.
    """
    lam = lambda2_presentation(A)
    ten = tensor_square_presentation(A)
    sym = sym2_presentation(A)
    k = A.ngens
    n = k * k
    cols = []
    for i in range(k):
        for j in range(k):
            v = [0] * n
            v[i * k + j] += 1
            v[j * k + i] -= 1
            cols.append(v)
    first = PresentedMap(lam, ten, from_columns(cols, n) if cols else zeros(n, 0))
    second = PresentedMap(ten, sym, identity(n))
    return first, second


def short_exact_checks(
    f: PresentedMap, g: PresentedMap
) -> list[tuple[str, bool, str | None]]:
    """Named checks that ``0 -> . --f--> . --g--> . -> 0`` is short exact."""
    out: list[tuple[str, bool, str | None]] = []
    ok, w = f.well_defined()
    out.append(("first map well defined", ok, w))
    ok, w = g.well_defined()
    out.append(("second map well defined", ok, w))
    comp = matmul(g.matrix, f.matrix) if f.matrix and g.matrix else []
    relations = Factorization(g.dst.rel_matrix())
    zero = all(relations.contains(c) for c in columns(comp))
    out.append(("composite is zero", zero, None if zero else "nonzero composite"))
    ok, w = injective_presented(f)
    out.append(("first map injective", ok, w))
    ok, w = exact_at(f, g)
    out.append(("exact at the middle", ok, w))
    ok, w = surjective_presented(g)
    out.append(("second map surjective", ok, w))
    return out


def quadratic_oracle(kind: str, A: FgAbGroup, bound: int = DEFAULT_ORACLE_BOUND) -> FgAbGroup:
    """Independent presentation-level computation of a quadratic functor.

    ``gamma`` and ``whiteheadP`` work on one generator per group element;
    ``sym2`` and ``lambda2`` work on the tensor square of the invariant-factor
    generators. Raises :class:`TooLarge` beyond ``bound``.

    >>> quadratic_oracle("gamma", FgAbGroup((2,)))
    FgAbGroup((4,))
    >>> quadratic_oracle("whiteheadP", FgAbGroup((2,)))
    FgAbGroup((4,))
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"no oracle for quadratic functor kind: {kind!r}")
    if kind == "gamma":
        pres = gamma_presentation(A, bound)
    elif kind == "whiteheadP":
        pres = whiteheadP_presentation(A, bound)
    elif kind == "sym2":
        pres = sym2_presentation(A)
    else:
        pres = lambda2_presentation(A)
    return pres.group()


# ---------------------------------------------------------------------------
# Recognizing a finite abelian group from its elements
# ---------------------------------------------------------------------------

def _divisibility_chains(n: int, lo: int = 2):
    """All tuples ``(d_1, ..., d_r)`` with ``d_1 | d_2 | ...`` and product ``n``."""
    if n == 1:
        yield ()
        return
    for d in range(lo, n + 1):
        if n % d == 0:
            for rest in _divisibility_chains(n // d, d):
                if all(r % d == 0 for r in rest[:1]):
                    yield (d,) + rest


def finite_abelian_invariants(elements, add, zero) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by enumeration.

    ``elements`` is the full element list and ``add`` the group law. The
    factors are recovered from the order profile: the number of elements
    killed by ``k`` equals the product of ``gcd(k, d_i)``, and that
    profile pins down the chain uniquely.

    >>> finite_abelian_invariants(list(range(6)), lambda a, b: (a + b) % 6, 0)
    (6,)
    >>> g = FgAbGroup((2, 4))
    >>> finite_abelian_invariants(g.elements(), g.add, g.zero())
    (2, 4)
    """
    n = len(elements)
    if n > 20000:
        raise TooLarge(f"group of order {n} is beyond the enumeration limit")
    if n == 1:
        return ()
    orders = []
    for x in elements:
        acc = x
        o = 1
        while acc != zero:
            acc = add(acc, x)
            o += 1
            if o > n:
                raise ValueError(f"element {x!r} has no finite order in the listing")
        orders.append(o)
    exponent = 1
    for o in orders:
        exponent = exponent * o // math.gcd(exponent, o)
    matches = []
    for chain in _divisibility_chains(n):
        ok = True
        for k in range(1, exponent + 1):
            profile = 1
            for d in chain:
                profile *= math.gcd(k, d)
            if profile != sum(1 for o in orders if k % o == 0):
                ok = False
                break
        if ok:
            # ascending divisibility convention (largest factor last)
            matches.append(tuple(chain))
    if len(matches) != 1:
        raise ValueError(f"order profile matched {len(matches)} chains: {matches!r}")
    return matches[0]
