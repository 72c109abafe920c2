"""Exact arithmetic for finitely generated abelian groups.

Everything here is integer arithmetic on matrices passed and returned as
plain lists of lists: Smith normal form with unimodular certificates,
groups in invariant-factor form, maps, and homology of two-step
complexes.

Conventions
-----------
* Vectors are tuples, read as column vectors.
* A matrix is a list of rows; ``M[i][j]`` is row ``i``, column ``j``.
* A map is stored by the matrix whose column ``j`` is the image of the
  ``j``-th generator of the source.
* A relation matrix for a presentation has one column per relation.

One Smith record, :class:`SnfResult`, answers every lattice question
about a matrix: ``solve(b)``, the kernel, and the free basis of the
column lattice with the coordinates in it (``None`` outside it). One core,
:func:`smith_rows`, eliminates on the sparse rows it is handed and logs
its elementary operations. Rows keep their column keys: a column swap
exchanges two entries of a logical-column permutation, and an index from
each key to the rows holding it lets every reduction visit stored
nonzeros only. A pivot that the divisor floor shows to divide its whole
row and column is cleared in one exact pass with no remainder checks.
Answers replay the logs on sparse rows of the vectors asked about, and
``S`` and each certificate ``U``, ``V``, ``Uinv`` or ``Vinv`` are built
only when read.
:func:`smith` is its wrapper for a dense matrix, and
:func:`stacked_rows` sets columns beside a group's relations as sparse
rows, without the dense stack.
Membership in the relation lattice of a group in invariant-factor form
needs no factorization at all; it is :meth:`FgAbGroup.reduce` to zero.
Kernels (:meth:`AbMap.kernel`) and exactness (:func:`exact_at`) are read off
:func:`homology_at`, whose result lists a kernel basis only for a representative.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CompositionNonzero, NotInKernel, ShapeMismatch, TooLarge

IntMatrix = list[list[int]]

DEFAULT_ENUM_BOUND = 4096
# finite_abelian_invariants on a 2-vCPU container: Z/20,000 takes 0.04 s
# (19,999 additions) and Z/20 + Z/1,000 0.09 s; its callers list carriers,
# which refuse more than DEFAULT_ENUM_BOUND elements
MAX_ENUMERATED_ORDER = 20_000


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------

def zeros(m: int, n: int) -> IntMatrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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

# Kinds of logged elementary operation. Each is read as a row operation:
# ``(_SWAP, i, j, 0)`` swaps rows ``i`` and ``j``, ``(_ADD, i, j, q)`` adds
# ``q`` times row ``j`` to row ``i`` and ``(_NEG, i, i, 0)`` negates row ``i``.
_SWAP, _ADD, _NEG = range(3)


def _apply(ops: list, X: list[dict[int, int]], inverse: bool, transpose: bool) -> list[dict]:
    """``X`` times ``P``, ``P^-1``, ``P^T`` or ``P^-T`` on the left, in place,
    for ``P = E_k ... E_1`` the logged row operations: each operation, its
    inverse (``-q``), transpose (``i <-> j``) or inverse transpose, first to
    last for ``P`` and ``P^-T``, last to first otherwise. ``X`` is held as
    sparse rows, one ``{column: value}`` dict of nonzeros per row, and its
    columns are the vectors multiplied.
    """
    sign = -1 if inverse else 1
    for kind, i, j, q in reversed(ops) if inverse != transpose else ops:
        if kind == _ADD:
            if transpose:
                i, j = j, i
            Xi = X[i]
            q *= sign
            for k, x in X[j].items():
                y = Xi.get(k, 0) + q * x
                if y:
                    Xi[k] = y
                else:
                    del Xi[k]
        elif kind == _SWAP:
            X[i], X[j] = X[j], X[i]
        else:
            X[i] = {k: -x for k, x in X[i].items()}
    return X


def _units(n: int, cols) -> list[dict[int, int]]:
    """Sparse rows of the ``n``-row matrix whose ``k``-th column is ``e_c``,
    for ``c`` the ``k``-th of ``cols``."""
    X: list[dict[int, int]] = [{} for _ in range(n)]
    for k, c in enumerate(cols):
        X[c][k] = 1
    return X


def _columns_of(X: list[dict[int, int]], width: int) -> list[tuple[int, ...]]:
    """The first ``width`` columns of the sparse rows ``X``."""
    return [tuple(row.get(c, 0) for row in X) for c in range(width)]


def _dense(X: list[dict[int, int]], width: int) -> IntMatrix:
    return [[row.get(c, 0) for c in range(width)] for row in X]


@dataclass
class SnfResult:
    """Smith normal form ``S = U @ M @ V`` of an ``m x n`` matrix ``M``, and
    every solve against it.

    It stores the ``shape`` ``(m, n)``, the ``diagonal`` of ``S`` (its
    ``min(m, n)`` entries ``d_j``, the ``rank`` nonzero ones first) and the
    two operation logs. ``U`` is the product of the row log ``row_ops`` and
    ``V`` the transpose of that of the column log ``col_ops``. ``S`` and
    each certificate are built the first time they are read, and no answer
    reads one. The column lattice of ``M`` is that of ``M V = Uinv S``, with
    free basis ``d_j Uinv e_j``, ``j < rank``, in which ``b`` has the
    coordinates ``(U b)_j / d_j``.

    >>> r = smith([[2, 4], [0, 6]])
    >>> r.solve((4, 12)), r.column_basis()
    ((-2, 2), [(2, 0), (0, 6)])
    >>> r.column_coordinates([(4, 6), (1, 0)])
    [(2, 1), None]
    """

    shape: tuple[int, int]
    diagonal: list[int]
    row_ops: list[tuple[int, int, int, int]] = field(repr=False)
    col_ops: list[tuple[int, int, int, int]] = field(repr=False)

    @cached_property
    def S(self) -> IntMatrix:
        S = zeros(*self.shape)
        for i, d in enumerate(self.diagonal):
            S[i][i] = d
        return S

    @cached_property
    def U(self) -> IntMatrix:
        m = self.shape[0]
        return _dense(_apply(self.row_ops, _units(m, range(m)), False, False), m)

    @cached_property
    def Uinv(self) -> IntMatrix:
        m = self.shape[0]
        return _dense(_apply(self.row_ops, _units(m, range(m)), True, False), m)

    @cached_property
    def V(self) -> IntMatrix:
        n = self.shape[1]
        return _dense(_apply(self.col_ops, _units(n, range(n)), False, True), n)

    @cached_property
    def Vinv(self) -> IntMatrix:
        n = self.shape[1]
        return _dense(_apply(self.col_ops, _units(n, range(n)), True, True), n)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def column_basis(self) -> list[tuple[int, ...]]:
        """The free basis ``d_j Uinv e_j``, ``j < rank``, of the column lattice."""
        rank = self.rank
        X = _apply(self.row_ops, _units(self.shape[0], range(rank)), True, False)
        return [tuple(d * x for x in col) for d, col in zip(self.diagonal, _columns_of(X, rank))]

    def kernel_rows(self) -> list[dict[int, int]]:
        """Sparse rows of the ``n x (n - rank)`` matrix whose columns, the
        last ``n - rank`` columns of ``V``, are a basis of the kernel lattice
        ``{x : M @ x = 0}``. ``V`` is never built: the column log is applied
        to those ``n - rank`` unit vectors alone."""
        n, rank = self.shape[1], self.rank
        return _apply(self.col_ops, _units(n, range(rank, n)), False, True)

    def coordinate_rows(self, B: list[dict[int, int]]) -> tuple[list[dict[int, int]], set[int]]:
        """The coordinates in :meth:`column_basis` of the columns of the
        sparse rows ``B``, which are consumed, as sparse rows, one per basis
        vector, and the set of columns outside the lattice: ``U b`` must be
        ``c_j d_j`` at each ``j < rank`` and zero after. The coordinate
        rows mean nothing in the columns outside."""
        rank = self.rank
        UB = _apply(self.row_ops, B, False, False)
        outside = set().union(*UB[rank:])
        coords = []
        for row, d in zip(UB[:rank], self.diagonal):
            q = {}
            for c, x in row.items():
                q[c], r = divmod(x, d)
                if r:
                    outside.add(c)
            coords.append(q)
        return coords, outside

    def column_coordinates(self, vectors) -> list[tuple[int, ...] | None]:
        """The unique coordinates in :meth:`column_basis` of each of
        ``vectors``, or ``None`` outside the lattice."""
        m = self.shape[0]
        if any(len(b) != m for b in vectors):
            raise ShapeMismatch("right-hand side length does not match row count")
        coords, outside = self.coordinate_rows(
            [{c: b[i] for c, b in enumerate(vectors) if b[i]} for i in range(m)]
        )
        return [
            None if c in outside else col
            for c, col in enumerate(_columns_of(coords, len(vectors)))
        ]

    def solve(self, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
        """One integer solution ``x`` of ``M @ x = b``, or ``None``: ``V y``
        for ``y`` the coordinates of ``b``, padded with zeros."""
        (y,) = self.column_coordinates([b])
        if y is None:
            return None
        Y = [{0: c} if c else {} for c in y] + [{} for _ in range(self.shape[1] - len(y))]
        return _columns_of(_apply(self.col_ops, Y, False, True), 1)[0]


def stacked_rows(M: IntMatrix, rels, first: bool) -> tuple[list[dict[int, int]], int]:
    """Sparse rows and column count of ``[M | R]``, or of ``[R | M]`` when
    ``first``, for ``R`` the relation columns ``d e_i``, one per ``(i, d)``
    of ``rels``, in order. This is the one place where columns are set
    beside a group's relations; the dense stack is never built.

    >>> stacked_rows([[0, 3], [1, 0]], [(0, 2)], False)
    ([{1: 3, 2: 2}, {0: 1}], 3)
    """
    n = len(M[0]) if M else 0
    at, shift = (0, len(rels)) if first else (n, 0)
    rows = [{j: x for j, x in enumerate(row, shift) if x} for row in M]
    for k, (i, d) in enumerate(rels, at):
        rows[i][k] = d
    return rows, n + len(rels)


def smith(M: IntMatrix) -> SnfResult:
    """Smith normal form of the dense matrix ``M``: :func:`smith_rows` of
    its nonzero entries. It serves callers that hold a dense matrix (the
    ``quadalg snf`` command, :func:`solve_integer`, the tests); the library's
    stacks and :func:`canonical_factors`' diagonal go to :func:`smith_rows`.
    """
    return smith_rows([{j: x for j, x in enumerate(row) if x} for row in M], mat_shape(M)[1])


def smith_rows(A: list[dict[int, int]], n: int) -> SnfResult:
    """Smith normal form of the ``len(A) x n`` matrix with sparse rows ``A``,
    one ``{column: value}`` dict of nonzeros per row; ``A`` is consumed.

    The pivot rule is deterministic: among nonzero entries of the working
    submatrix pick one of minimal absolute value, breaking ties by smallest
    row index, then smallest column index, and look at no row after the
    first one holding a unit. Column ``t`` is reduced in increasing row
    order and row ``t`` in increasing column order, so the logs, and with
    them the certificates, are exactly those of a dense elimination by the
    same rule, which swaps columns in place (``tests/oracles.py``'s
    ``smith_sparse_reference``). On a matrix already in Smith form every
    pivot is the diagonal entry in place and no operation is performed, so
    it comes back unchanged with identity certificates. Each elementary
    row and column operation is logged; only the diagonal is read off at
    the end, and :class:`SnfResult` builds ``S``, ``U``, ``V``, ``Uinv``
    and ``Vinv`` when a caller first reads them.

    Rows keep the column keys they came with. A column permutation maps
    each logical column, the index the pivot rule, the logs and the
    diagonal speak of, to its key (``key``) and back (``col``), so a column
    swap exchanges two entries of it and touches no row. An index from each
    key to the set of rows holding it is kept up to date by every row
    operation, so the reductions visit stored nonzeros only, and no row is
    scanned to find a column.

    A divisor floor saves work. Once the divisibility sweep at a pivot
    ``p`` finds no stray row, every entry of the remaining block is a
    multiple of ``floor = |p|``, and later row and column additions within
    the block keep it so. No entry is then smaller than ``floor``: the
    pivot search stops at the first row holding an entry of size
    ``floor``, as it stops at a unit. A pivot of size ``floor`` divides
    every entry of its row and column, so each reduction is exact: the
    exact-pivot step clears column ``t`` in one pass over the rows that
    the index lists, logs row ``t``'s other entries as column additions in
    one go, and needs no remainder check, swap or sweep. None of this
    changes a pivot or a logged operation.

    Below, the first pivot, 3, needs a column swap, and its sweep proves
    the floor 3. The second pivot, of size 3, takes the exact-pivot step:
    one row addition clears its column and one column addition its row.

    >>> r = smith_rows([{1: 3}, {0: 3, 2: 3}, {0: 6, 2: 6}], 3)
    >>> r.row_ops, r.col_ops, r.diagonal
    ([(1, 2, 1, -2)], [(0, 0, 1, 0), (1, 2, 1, -1)], [3, 3, 0])
    """
    m = len(A)
    rows_of: list[set[int]] = [set() for _ in range(n)]  # key -> rows holding it
    for i, row in enumerate(A):
        for k in row:
            rows_of[k].add(i)
    key = list(range(n))  # logical column -> key
    col = list(range(n))  # key -> logical column
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []

    def row_swap(i: int, j: int) -> None:
        # A key held by one of the two rows only moves to the other.
        for k in A[i].keys() ^ A[j].keys():
            rows_of[k] ^= {i, j}
        A[i], A[j] = A[j], A[i]
        row_ops.append((_SWAP, i, j, 0))

    def row_addmul(i: int, j: int, q: int) -> None:
        # row i += q * row j, for q nonzero
        Ai = A[i]
        for k, x in A[j].items():
            y = Ai.get(k)
            if y is None:
                Ai[k] = q * x
                rows_of[k].add(i)
            else:
                y += q * x
                if y:
                    Ai[k] = y
                else:
                    del Ai[k]
                    rows_of[k].remove(i)
        row_ops.append((_ADD, i, j, q))

    def row_neg(i: int) -> None:
        A[i] = {k: -x for k, x in A[i].items()}
        row_ops.append((_NEG, i, i, 0))

    def col_swap(i: int, j: int) -> None:
        a, b = key[i], key[j]
        key[i], key[j] = b, a
        col[a], col[b] = j, i
        col_ops.append((_SWAP, i, j, 0))

    def col_addmul(j: int, q: int) -> None:
        # col j += q * col t, where column t holds the pivot alone and row t
        # holds column j
        k, row = key[j], A[t]
        y = row[k] + q * row[key[t]]
        if y:
            row[k] = y
        else:
            del row[k]
            rows_of[k].remove(t)
        col_ops.append((_ADD, j, t, q))

    def exact_step(kt: int, p: int) -> None:
        # The pivot p at key kt divides every entry of row t and column t, so
        # every reduction leaves no remainder; a pivot alone in its row and
        # column needs none.
        At, held = A[t], rows_of[kt]
        if len(At) == 1 and len(held) == 1:
            return
        items = [(k, x) for k, x in At.items() if k != kt]
        # The loop repeats row_addmul's body: a call per row costs about 5%
        # of the time on a 196 x 210 kernel stack.
        index = rows_of
        for i in sorted(held):
            if i != t:
                Ai = A[i]
                q = -(Ai.pop(kt) // p)
                for k, x in items:
                    y = Ai.get(k)
                    if y is None:
                        Ai[k] = q * x
                        index[k].add(i)
                    else:
                        y += q * x
                        if y:
                            Ai[k] = y
                        else:
                            del Ai[k]
                            index[k].remove(i)
                row_ops.append((_ADD, i, t, q))
        rows_of[kt] = {t}
        for k, _ in items:
            rows_of[k].remove(t)
        col_ops.extend(sorted((_ADD, col[k], t, -(x // p)) for k, x in items))
        A[t] = {kt: p}

    # Rows before t hold only their diagonal entry and rows from t on hold
    # nothing left of column t, so a whole row from t on is its tail.
    # Every entry of the remaining block is a multiple of ``floor``.
    t = 0
    floor = 1
    while t < min(m, n):
        # Locate the pivot: minimal absolute value, ties by row then column,
        # and no row after the first one holding an entry of size ``floor``
        # is looked at, since no entry is smaller.
        pivot = None
        best = 0
        for i in range(t, m):
            row = A[i]
            if not row:
                continue
            v = min(map(abs, row.values()))
            if not best or v < best:
                best = v
                pivot = (i, min(col[k] for k, x in row.items() if abs(x) == v))
                if v == floor:
                    break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            kt = key[t]
            At = A[t]
            p = At[kt]
            if abs(p) == floor:
                exact_step(kt, p)
                break
            # Reduce column t below the pivot; on a leftover remainder swap it
            # into the pivot slot and restart so every later step reduces
            # against the smaller pivot (this keeps entries from blowing up).
            # A row addition into row i changes column t in row i only, so
            # the rows are listed once, in increasing order.
            swapped = False
            for i in sorted(rows_of[kt]):
                if i == t:
                    continue
                q = A[i][kt] // p
                if q:
                    row_addmul(i, t, -q)
                if kt in A[i]:
                    row_swap(t, i)
                    swapped = True
                    break
            if swapped:
                continue
            # Column t now holds the pivot alone, so a column addition from
            # it changes row t only.
            for j in sorted(map(col.__getitem__, At)):
                if j == t:
                    continue
                q = At[key[j]] // p
                if q:
                    col_addmul(j, -q)
                if key[j] in At:
                    col_swap(t, j)
                    swapped = True
                    break
            if swapped:
                continue
            # Divisibility sweep: the pivot must divide the remaining block,
            # which below and left of the pivot is zero by now.
            rem = p.__rmod__  # rem(x) == x % p
            stray = next((i for i in range(t + 1, m) if any(map(rem, A[i].values()))), None)
            if stray is None:
                floor = abs(p)
                break
            row_addmul(t, stray, 1)
        if A[t][key[t]] < 0:
            row_neg(t)
        t += 1
    diagonal = [A[i].get(key[i], 0) for i in range(min(m, n))]
    return SnfResult((m, n), diagonal, row_ops, col_ops)


def solve_integer(A: IntMatrix, b: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
    """One integer solution ``x`` of ``A @ x = b``, or ``None``.

    Factors ``A`` on every call; use ``smith(A).solve`` for many ``b``.

    >>> solve_integer([[2, 0], [0, 3]], (4, 9))
    (2, 3)
    >>> solve_integer([[2]], (3,)) is None
    True
    """
    return smith(A).solve(b)


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
    diag = smith_rows([{i: d} if d else {} for i, d in enumerate(fs)], len(fs)).diagonal
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


def draw_below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, bit for bit, read straight from
    ``rng.getrandbits``: ``n.bit_length()`` bits, drawn again while at
    least ``n``. The carriers' bounded draws go through here or through
    the copies of the loop in :meth:`FgAbGroup.sample` and in the law
    driver's draw of a tuple of one-coordinate groups (in
    :mod:`quadalg.nil2`).

    >>> [draw_below(random.Random(7), n) for n in (1, 8, 10**20)] == [
    ...     random.Random(7).randrange(n) for n in (1, 8, 10**20)]
    True
    >>> draw_below(random.Random(7), 0)
    Traceback (most recent call last):
    ...
    ValueError: cannot draw below 0
    """
    if n < 1:
        raise ValueError(f"cannot draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def draw_sample(rng: random.Random, pool, k: int) -> list:
    """``rng.sample(pool, k)``, bit for bit, with each index drawn by
    :func:`draw_below`: on a pool of at most ``setsize`` items (21, more
    for ``k`` above 5) a pool copy from which each pick is swapped out, and
    on a larger pool picks drawn again while already taken.

    >>> pool = [chr(97 + i) for i in range(25)]
    >>> all(draw_sample(random.Random(s), pool[:n], 3) == random.Random(s).sample(pool[:n], 3)
    ...     for s in range(20) for n in (3, 21, 22, 25))
    True
    >>> draw_sample(random.Random(7), "ab", 3)
    Traceback (most recent call last):
    ...
    ValueError: Sample larger than population or is negative
    """
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    out = []
    if n <= setsize:
        rest = list(pool)
        for i in range(k):
            j = draw_below(rng, n - i)
            out.append(rest[j])
            rest[j] = rest[n - i - 1]
    else:
        taken = set()
        for _ in range(k):
            j = draw_below(rng, n)
            while j in taken:
                j = draw_below(rng, n)
            taken.add(j)
            out.append(pool[j])
    return out


class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    The group is ``Z/d_1 + ... + Z/d_k`` with each finite ``d_i >= 2``
    dividing the next and ``d_i = 0`` meaning an infinite cyclic summand;
    zeros come last. Elements are coordinate tuples, stored reduced
    (``0 <= c_i < d_i`` on finite coordinates). ``sample`` draws each
    coordinate in order and reads the same bits as
    ``rng.randrange(0, d_i)``, or as ``rng.randrange(-9, 10)`` on a free
    one; the law driver draws a tuple of one-coordinate groups from the
    same ``_draws`` in one loop, without calling ``sample``.

    >>> FgAbGroup.from_factors([2, 3])
    FgAbGroup((6,))
    >>> FgAbGroup.from_factors([4, 6]).order()
    24
    >>> FgAbGroup.free(2)
    FgAbGroup((0, 0))
    """

    __slots__ = ("invariant_factors", "ngens", "_zero", "_finite", "_free", "_draws")

    def __init__(self, invariant_factors: tuple[int, ...]):
        factors = self.invariant_factors = validate_factors(invariant_factors)
        self.ngens = len(factors)
        self._zero = (0,) * self.ngens
        self._finite = 0 not in factors
        self._free = not any(factors)
        # the (start, width, bits) of ``sample``'s draw, one per coordinate
        self._draws = tuple(
            (start, width, width.bit_length())
            for start, width in ((0, d) if d else (-9, 19) for d in factors)
        )

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
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_finite(self) -> bool:
        return self._finite

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def order(self) -> int | None:
        if not self.is_finite():
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def relations(self) -> list[tuple[int, int]]:
        """The relation column ``d_i e_i`` of each finite factor, as
        ``(i, d_i)``, for :func:`stacked_rows`."""
        return [(i, d) for i, d in enumerate(self.invariant_factors) if d]

    # -- element arithmetic -------------------------------------------------

    def reduce(self, coords) -> tuple[int, ...]:
        if len(coords) != self.ngens:
            raise self._mismatch(coords)
        return self._reduce(coords)

    def _reduce(self, coords) -> tuple[int, ...]:
        """``reduce`` of ``ngens`` coordinates, given as any iterable."""
        if self._free:
            return tuple(map(int, coords))
        if self._finite:
            return tuple(map(operator.mod, coords, self.invariant_factors))
        return tuple(
            c % d if d else int(c) for c, d in zip(coords, self.invariant_factors)
        )

    def _mismatch(self, *operands) -> ShapeMismatch:
        bad = next(len(a) for a in operands if len(a) != self.ngens)
        return ShapeMismatch(f"element of length {bad} in group with {self.ngens} generators")

    def zero(self) -> tuple[int, ...]:
        return self._zero

    def add(self, a, b) -> tuple[int, ...]:
        if len(a) != self.ngens or len(b) != self.ngens:
            raise self._mismatch(a, b)
        return self._reduce(map(operator.add, a, b))

    def neg(self, a) -> tuple[int, ...]:
        if len(a) != self.ngens:
            raise self._mismatch(a)
        return self._reduce(map(operator.neg, a))

    def sub(self, a, b) -> tuple[int, ...]:
        if len(a) != self.ngens or len(b) != self.ngens:
            raise self._mismatch(a, b)
        return self._reduce(map(operator.sub, a, b))

    def scalar(self, n: int, a) -> tuple[int, ...]:
        return self.reduce([n * x for x in a])

    def generator(self, i: int) -> tuple[int, ...]:
        return tuple(int(i == j) for j in range(self.ngens))

    def generators(self) -> list[tuple[int, ...]]:
        return [self.generator(i) for i in range(self.ngens)]

    def elements(self) -> list[tuple[int, ...]]:
        n = self.order()
        if n is None:
            raise TooLarge("cannot enumerate an infinite group")
        if n > DEFAULT_ENUM_BOUND:
            raise TooLarge(f"group of order {n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
        ranges = [range(d) for d in self.invariant_factors]
        return [tuple(t) for t in itertools.product(*ranges)]

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        """A random element; free coordinates come from ``-9..9``. Each
        coordinate is ``start + draw_below(rng, width)``, written out."""
        getrandbits = rng.getrandbits
        out = []
        for start, width, bits in self._draws:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            out.append(start + r)
        return tuple(out)

    # -- the rest of the nil2 carrier interface -----------------------------

    def is_zero(self, a) -> bool:
        return a == self._zero

    def commutator(self, a, b) -> tuple[int, ...]:
        """Always zero: the group is abelian."""
        return self._zero

    def sum(self, items) -> tuple[int, ...]:
        items = list(items)
        if any(len(a) != self.ngens for a in items):
            raise self._mismatch(*items)
        return self._reduce(map(sum, zip(self._zero, *items)))

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
                image = self.target.reduce([d * row[j] for row in self.matrix])
                if any(image):
                    return False, (
                        f"generator {j} has order {d} but {d} times its image is {image}"
                    )
        return True, None

    def apply(self, coords) -> tuple[int, ...]:
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

    def is_zero_map(self) -> bool:
        """Whether the map is zero as a homomorphism (not just as a matrix).

        A column lies in the target's relation lattice exactly when it
        reduces to zero modulo the invariant factors.
        """
        return not any(any(self.target.reduce(c)) for c in columns(self.matrix))

    def kernel(self) -> "tuple[FgAbGroup, AbMap]":
        """The kernel subgroup with its inclusion into the source: the
        homology of ``0 -> source -> target``, each generator included as
        its representative."""
        h = homology_at(AbMap.zero_map(FgAbGroup.trivial(), self.source), self)
        incl = [h.representative(g) for g in h.group.generators()]
        return h.group, AbMap.from_columns(h.group, self.source, incl)


def quotient_presentation(
    rank: int, rels: SnfResult
) -> tuple[FgAbGroup, IntMatrix, IntMatrix]:
    """Structure of ``Z^rank`` modulo the column lattice of a ``rank``-row
    matrix, given by its :func:`smith` record ``rels``.

    Returns ``(group, project, lift)`` where ``project`` maps old coordinates
    onto the group's invariant coordinates and ``lift`` sends each new
    generator to an old-coordinate representative; ``project @ lift`` is the
    identity. They are the rows of ``U`` and columns of ``Uinv`` kept.

    >>> g, p, l = quotient_presentation(2, smith([[2, 0], [0, 3]]))
    >>> g
    FgAbGroup((6,))
    """
    if rank == 0:
        return FgAbGroup.trivial(), [], []
    diag = rels.diagonal + [0] * (rank - len(rels.diagonal))
    kept = [i for i, d in enumerate(diag) if d != 1]
    group = FgAbGroup(tuple(diag[i] for i in kept))
    X = _apply(rels.row_ops, _units(rank, kept), False, True)
    project = [list(col) for col in _columns_of(X, len(kept))]
    lift = _dense(_apply(rels.row_ops, _units(rank, kept), True, False), len(kept))
    return group, project, lift


# ---------------------------------------------------------------------------
# Homology of a two-step complex
# ---------------------------------------------------------------------------

@dataclass
class HomologyResult:
    """``ker(d2)/im(d1)`` together with a witness, read through ``group``,
    :meth:`express` and :meth:`representative`. :meth:`express` sends a
    kernel element to its class through its coordinates in the kernel's free
    basis, read off ``_kernel``, the Smith record of a spanning set; on its
    first call :meth:`representative` lists that basis (``_basis``) and makes
    one more record, of ``[_project | relations of group]``, to solve against.
    """

    group: FgAbGroup
    _project: IntMatrix
    middle: FgAbGroup
    _kernel: SnfResult = field(repr=False, compare=False)
    _classes: SnfResult | None = field(default=None, repr=False, compare=False)

    def express(self, coords) -> tuple[int, ...]:
        """Class of a kernel element in homology coordinates."""
        v = self.middle.reduce(coords)
        (sol,) = self._kernel.column_coordinates([v])
        if sol is None:
            raise NotInKernel(f"element {v} is not in the kernel")
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
            self._classes = smith_rows(*stacked_rows(self._project, self.group.relations(), False))
        sol = self._classes.solve(h)
        if sol is None:
            raise ShapeMismatch(f"class {h} has no kernel representative")
        basis = from_columns(self._basis, self.middle.ngens)
        return self.middle.reduce(mat_vec(basis, sol[: len(self._basis)]))

    @cached_property
    def _basis(self) -> list[tuple[int, ...]]:
        return self._kernel.column_basis()


def homology_at(d1: AbMap, d2: AbMap) -> HomologyResult:
    """Homology at the middle of ``A --d1--> B --d2--> C``.

    Three :func:`smith_rows` forms, each of sparse rows that no dense matrix
    precedes: the kernel stack ``[d2 | relations of C]`` from
    :func:`stacked_rows`, whose kernel rows, cut to the first ``b``, span
    ``ker d2``; that spanning set, whose record gives coordinates in the
    kernel's free basis without listing it; and the coordinate rows of
    ``[d1 | relations of B]`` in that basis, which present the homology.

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
    for j, col in enumerate(columns(d2.compose(d1).matrix)):
        image = d2.target.reduce(col)
        if any(image):
            raise CompositionNonzero(f"d2(d1(generator {j})) = {image} != 0")
    B, C = d1.target, d2.target
    b = B.ngens
    if C.ngens == 0 or b == 0:
        kernel = smith_rows(_units(b, range(b)), b)
    else:
        stack = smith_rows(*stacked_rows(d2.matrix, C.relations(), False))
        kernel = smith_rows(stack.kernel_rows()[:b], stack.shape[1] - stack.rank)
    k = kernel.rank
    image, width = stacked_rows(d1.matrix, B.relations(), False)
    rel_rows, outside = kernel.coordinate_rows(image)
    if outside:
        j = min(outside)
        column = _columns_of(stacked_rows(d1.matrix, B.relations(), False)[0], j + 1)[j]
        raise CompositionNonzero(f"image element {column} does not lie in the kernel lattice")
    grp, project, _lift = quotient_presentation(k, smith_rows(rel_rows, width))
    return HomologyResult(
        group=grp,
        _project=project,
        middle=B,
        _kernel=kernel,
    )


def exact_at(f: AbMap, g: AbMap) -> tuple[bool, str | None]:
    """Exactness of ``A --f--> B --g--> C`` at ``B``, with a witness.

    Exact means that ``g . f`` is zero and that ``ker(g) / im(f)``, from
    :func:`homology_at`, is trivial.

    >>> Z = FgAbGroup.free(1)
    >>> exact_at(AbMap(Z, Z, [[2]]), AbMap(Z, FgAbGroup((2,)), [[1]]))
    (True, None)
    >>> exact_at(AbMap(Z, Z, [[4]]), AbMap(Z, FgAbGroup((2,)), [[1]]))
    (False, 'kernel element (2,) is not in the image')
    """
    try:
        h = homology_at(f, g)
    except CompositionNonzero as exc:
        return False, str(exc)
    if h.group.is_trivial():
        return True, None
    return False, f"kernel element {h.representative(h.group.generator(0))} is not in the image"


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


def _orders(elements, add, zero) -> Counter:
    """The number of listed elements of each order.

    Each element not yet labelled walks its cyclic subgroup, adding
    itself until it reaches zero, and labels its multiple ``j x`` with
    ``ord / gcd(j, ord)``; a walk longer than the listing, or an order
    that does not divide its length, is refused.
    """
    n = len(elements)
    label: dict = {}
    for x in elements:
        if x in label:
            continue
        walk = [x]
        while walk[-1] != zero and len(walk) < n:
            walk.append(add(walk[-1], x))
        o = len(walk)
        if walk[-1] != zero or n % o:
            raise ValueError(f"element {x!r} has no finite order in the listing")
        for j, y in enumerate(walk, 1):
            label.setdefault(y, o // math.gcd(j, o))
    return Counter(label[x] for x in elements)


def finite_abelian_invariants(elements, add, zero) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by enumeration.

    ``elements`` is the full element list and ``add`` the group law. The
    factors are recovered from the order profile: the number of elements
    killed by ``k`` equals the product of ``gcd(k, d_i)``, and that
    profile pins down the chain uniquely. Orders divide ``len(elements)``,
    and a chain matches at every ``k`` if it does at the divisors of the
    exponent, which each ``d_i`` must divide.

    >>> finite_abelian_invariants(list(range(6)), lambda a, b: (a + b) % 6, 0)
    (6,)
    >>> g = FgAbGroup((2, 4))
    >>> finite_abelian_invariants(g.elements(), g.add, g.zero())
    (2, 4)
    """
    n = len(elements)
    if n > MAX_ENUMERATED_ORDER:
        raise TooLarge(f"group of order {n} is beyond the enumeration limit")
    if n == 1:
        return ()
    orders = _orders(elements, add, zero)
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    exponent = math.lcm(*orders)
    profile = {k: sum(c for o, c in orders.items() if not k % o) for k in divisors if not exponent % k}
    # ascending divisibility convention (largest factor last)
    matches = [
        chain
        for chain in _divisibility_chains(n)
        if all(math.prod(math.gcd(k, d) for d in chain) == p for k, p in profile.items())
    ]
    if len(matches) != 1:
        raise ValueError(f"order profile matched {len(matches)} chains: {matches!r}")
    return matches[0]
