"""Matrices over a square ring, with tracks and obstruction cocycles.

A morphism ``y -> x`` over a square ring ``Q`` is an ``x`` by ``y``
matrix of ring elements together with a strictly upper-triangular layer
of quadratic entries recording how the rows of each column interfere.
Composition has a closed form whose correction terms are forced by the
ring axioms. An independent route evaluates the same composite by
substituting columns into free-module arithmetic, using only the
element-level operations, so the two can be compared on random input.

Tracks are homotopies between parallel morphisms through a crossed
extension of the ring. They compose vertically, whisker on both sides,
and the automorphism tracks of any morphism form a group isomorphic to
a matrix group over the extension's kernel module. For a finite
extension, choosing lifts of the quotient matrices produces a
degree-three obstruction cocycle on the quotient's matrix category.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .abelian import draw_below, from_columns
from .bwcoh import MAX_COMPOSABLE_TRIPLES, FinCat, bimodule_system
from .crossed import CrossedExtension
from .errors import (
    BoundaryMismatch,
    NotExact,
    NotFinite,
    NotInKernel,
    SectionInvalid,
    ShapeMismatch,
    TooLarge,
)
from .nil2 import Law, check_laws
from .reports import Report
from .sqring import SquareRing


# ---------------------------------------------------------------------------
# Free-module elements
# ---------------------------------------------------------------------------

@dataclass
class FreeModElement:
    """An element of the rank-``n`` free module over a square ring.

    ``coords[i]`` are the coordinates; ``pairs[(i, j)]`` for ``i < j``
    are quadratic cross terms between coordinates. Addition is twisted
    by the cross effect of the ring, so the module is a square group
    rather than a plain abelian group.
    """

    ring: SquareRing
    rank: int
    coords: tuple
    pairs: dict

    def __post_init__(self):
        if len(self.coords) != self.rank:
            raise ShapeMismatch(f"{len(self.coords)} coordinates for rank {self.rank}")
        ee = self.ring.ee
        clean = {}
        for (i, j), v in self.pairs.items():
            if not (0 <= i < j < self.rank):
                raise ShapeMismatch(f"pair index {(i, j)} out of range for rank {self.rank}")
            if v != ee.zero():
                clean[(i, j)] = v
        self.pairs = clean

    @classmethod
    def zero(cls, ring: SquareRing, rank: int) -> "FreeModElement":
        return cls(ring, rank, tuple(ring.e.zero() for _ in range(rank)), {})

    def pair(self, i: int, j: int):
        return self.pairs.get((i, j), self.ring.ee.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeModElement)
            and self.rank == other.rank
            and self.coords == other.coords
            and self.pairs == other.pairs
        )

    def add(self, other: "FreeModElement") -> "FreeModElement":
        if other.rank != self.rank:
            raise ShapeMismatch("rank mismatch in module addition")
        Q, e, ee = self.ring, self.ring.e, self.ring.ee
        h2 = Q.h_two
        coords = tuple(e.add(a, b) for a, b in zip(self.coords, other.coords))
        pairs = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                v = ee.add(self.pair(i, j), other.pair(i, j))
                v = ee.add(v, Q.act_pair(other.coords[i], self.coords[j], h2))
                pairs[(i, j)] = v
        return FreeModElement(Q, self.rank, coords, pairs)

    def neg(self) -> "FreeModElement":
        Q, e, ee = self.ring, self.ring.e, self.ring.ee
        h2 = Q.h_two
        coords = tuple(e.neg(a) for a in self.coords)
        pairs = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                v = ee.neg(self.pair(i, j))
                v = ee.add(v, Q.act_pair(self.coords[i], self.coords[j], h2))
                pairs[(i, j)] = v
        return FreeModElement(Q, self.rank, coords, pairs)

    def sub(self, other: "FreeModElement") -> "FreeModElement":
        return self.add(other.neg())

    def act(self, x) -> "FreeModElement":
        """The right action of a ring element."""
        Q, ee = self.ring, self.ring.ee
        hx = Q.H(x)
        coords = tuple(Q.mul(a, x) for a in self.coords)
        pairs = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                v = Q.act_right(self.pair(i, j), x)
                v = ee.add(v, Q.act_pair(self.coords[i], self.coords[j], hx))
                pairs[(i, j)] = v
        return FreeModElement(Q, self.rank, coords, pairs)

    def bracket(self, other: "FreeModElement", a) -> "FreeModElement":
        """The pairing ``[self, other]_a`` for a quadratic entry ``a``.

        Off-diagonal contributions land in the cross-term layer; the
        diagonal ones are central, so the result adds to any element
        without further corrections.
        """
        if other.rank != self.rank:
            raise ShapeMismatch("rank mismatch in module bracket")
        Q, e, ee = self.ring, self.ring.e, self.ring.ee
        tmap = Q.square_group.tmap
        coords = [e.zero() for _ in range(self.rank)]
        pairs: dict = {}
        for i in range(self.rank):
            for j in range(self.rank):
                b = Q.act_pair(self.coords[i], other.coords[j], a)
                if i < j:
                    pairs[(i, j)] = ee.add(pairs.get((i, j), ee.zero()), b)
                elif i > j:
                    pairs[(j, i)] = ee.add(pairs.get((j, i), ee.zero()), tmap(b))
                else:
                    coords[i] = e.add(coords[i], Q.P(b))
        return FreeModElement(Q, self.rank, tuple(coords), pairs)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass
class ModQMor:
    """A morphism ``ncols -> nrows`` in the matrix category of ``ring``.

    ``fi[i][k]`` is the ring entry in row ``i``, column ``k``;
    ``fij[(i, j)][k]`` for ``i < j`` is the quadratic entry of column
    ``k`` between rows ``i`` and ``j``.
    """

    ring: SquareRing
    nrows: int
    ncols: int
    fi: tuple
    fij: dict

    def __post_init__(self):
        if len(self.fi) != self.nrows or any(len(row) != self.ncols for row in self.fi):
            raise ShapeMismatch(
                f"entry matrix is not {self.nrows} by {self.ncols}"
            )
        if not self.fij:
            return
        ee = self.ring.ee
        zero_col = tuple(ee.zero() for _ in range(self.ncols))
        clean = {}
        for (i, j), col in self.fij.items():
            if not (0 <= i < j < self.nrows):
                raise ShapeMismatch(f"pair index {(i, j)} out of range for {self.nrows} rows")
            if len(col) != self.ncols:
                raise ShapeMismatch(f"pair row {(i, j)} has {len(col)} columns, wanted {self.ncols}")
            col = tuple(col)
            if col != zero_col:
                clean[(i, j)] = col
        self.fij = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModQMor)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.fi == other.fi
            and self.fij == other.fij
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.fi))

    def pair_entry(self, i: int, j: int, k: int):
        col = self.fij.get((i, j))
        return col[k] if col is not None else self.ring.ee.zero()

    @classmethod
    def zero(cls, ring: SquareRing, nrows: int, ncols: int) -> "ModQMor":
        row = tuple(ring.e.zero() for _ in range(ncols))
        return cls(ring, nrows, ncols, tuple(row for _ in range(nrows)), {})

    @classmethod
    def identity(cls, ring: SquareRing, n: int) -> "ModQMor":
        fi = tuple(
            tuple(ring.one if i == k else ring.e.zero() for k in range(n))
            for i in range(n)
        )
        return cls(ring, n, n, fi, {})

    @classmethod
    def from_columns(cls, ring: SquareRing, nrows: int, cols) -> "ModQMor":
        cols = list(cols)
        for c in cols:
            if c.rank != nrows:
                raise ShapeMismatch("column rank does not match the row count")
        fi = tuple(tuple(c.coords[i] for c in cols) for i in range(nrows))
        fij: dict = {}
        for k, c in enumerate(cols):
            for (i, j), v in c.pairs.items():
                col = fij.setdefault(
                    (i, j), [ring.ee.zero() for _ in range(len(cols))]
                )
                col[k] = v
        return cls(ring, nrows, len(cols), fi, {k: tuple(v) for k, v in fij.items()})

    def column(self, k: int) -> FreeModElement:
        coords = tuple(self.fi[i][k] for i in range(self.nrows))
        pairs = {key: col[k] for key, col in self.fij.items() if col[k] != self.ring.ee.zero()}
        return FreeModElement(self.ring, self.nrows, coords, pairs)

    def columns(self) -> list[FreeModElement]:
        return [self.column(k) for k in range(self.ncols)]

    def add(self, other: "ModQMor") -> "ModQMor":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("sum of morphisms with different shapes")
        return ModQMor.from_columns(
            self.ring, self.nrows,
            (a.add(b) for a, b in zip(self.columns(), other.columns())),
        )

    def neg(self) -> "ModQMor":
        return ModQMor.from_columns(self.ring, self.nrows, (c.neg() for c in self.columns()))


def random_morphism(ring: SquareRing, nrows: int, ncols: int, rng) -> ModQMor:
    """Random ring entries, each quadratic row present with chance 0.8."""
    fi = tuple(tuple(ring.e.sample(rng) for _ in range(ncols)) for _ in range(nrows))
    fij = {}
    for i in range(nrows):
        for j in range(i + 1, nrows):
            if rng.random() < 0.8:
                fij[(i, j)] = tuple(ring.ee.sample(rng) for _ in range(ncols))
    return ModQMor(ring, nrows, ncols, fi, fij)


@dataclass(frozen=True)
class _Morphisms:
    """A law slot holding ``count`` random morphisms, composable in a chain
    or all parallel; the shapes are drawn first, each from ``1..max_dim``."""

    ring: SquareRing
    max_dim: int
    count: int
    parallel: bool = False

    def sample(self, rng) -> tuple:
        """The morphisms; each dimension draw equals ``rng.randint(1, max_dim)``."""
        ndims = 2 if self.parallel else self.count + 1
        dims = [1 + draw_below(rng, self.max_dim) for _ in range(ndims)]
        shapes = [dims] * self.count if self.parallel else zip(dims, dims[1:])
        return tuple(random_morphism(self.ring, x, y, rng) for x, y in shapes)

    def elements(self) -> list:
        raise NotFinite("random morphisms are sampled, not enumerated")


# ---------------------------------------------------------------------------
# Composition: closed form and substitution oracle
# ---------------------------------------------------------------------------

def modq_compose(f: ModQMor, g: ModQMor, mode: str = "closed") -> ModQMor:
    """The composite ``f . g`` (``g`` first), by either route.

    ``closed`` expands every correction term explicitly; ``oracle``
    substitutes the columns of ``f`` into module arithmetic and never
    touches the closed formula. Both return the same morphism.
    """
    if f.ncols != g.nrows:
        raise ShapeMismatch(
            f"cannot compose {f.nrows}x{f.ncols} with {g.nrows}x{g.ncols}"
        )
    if mode == "closed":
        return _compose_closed(f, g)
    if mode == "oracle":
        return _compose_oracle(f, g)
    raise ValueError(f"unknown composition mode: {mode!r}")


def _compose_closed(f: ModQMor, g: ModQMor) -> ModQMor:
    Q = f.ring
    e, ee = Q.e, Q.ee
    tmap = Q.square_group.tmap
    h2 = Q.h_two
    x, y, z = f.nrows, f.ncols, g.ncols
    g_pairs = sorted(g.fij.items())
    # prod[i][k][s] = f_ik . g_ks, read by both layers
    prod = [[[Q.mul(a, b) for b in g.fi[k]] for k, a in enumerate(row)] for row in f.fi]

    # each entry lists its closed-formula terms in order and sums them once
    fi = []
    for i in range(x):
        row = []
        for s in range(z):
            terms = [prod[i][k][s] for k in range(y)]
            for (k, l), col in g_pairs:
                terms.append(Q.P(Q.act_pair(f.fi[i][k], f.fi[i][l], col[s])))
            row.append(e.sum(terms))
        fi.append(tuple(row))

    fij = {}
    for i in range(x):
        for j in range(i + 1, x):
            col_out = []
            for s in range(z):
                terms = []
                for k in range(y):
                    terms.append(Q.act_right(f.pair_entry(i, j, k), g.fi[k][s]))
                    terms.append(Q.act_pair(f.fi[i][k], f.fi[j][k], Q.H(g.fi[k][s])))
                for (k, l), col in g_pairs:
                    terms.append(Q.act_pair(f.fi[i][k], f.fi[j][l], col[s]))
                    terms.append(Q.act_pair(f.fi[i][l], f.fi[j][k], tmap(col[s])))
                for k in range(y):
                    for l in range(k + 1, y):
                        terms.append(Q.act_pair(prod[i][l][s], prod[j][k][s], h2))
                col_out.append(ee.sum(terms))
            fij[(i, j)] = tuple(col_out)
    return ModQMor(Q, x, z, tuple(fi), fij)


def _compose_oracle(f: ModQMor, g: ModQMor) -> ModQMor:
    cols_f = f.columns()
    out = []
    for s in range(g.ncols):
        acc = FreeModElement.zero(f.ring, f.nrows)
        for k in range(g.nrows):
            acc = acc.add(cols_f[k].act(g.fi[k][s]))
        for (k, l), col in sorted(g.fij.items()):
            acc = acc.add(cols_f[k].bracket(cols_f[l], col[s]))
        out.append(acc)
    return ModQMor.from_columns(f.ring, f.nrows, out)


def composition_report(
    ring: SquareRing, samples: int = 200, seed: int = 0, max_dim: int = 3
) -> Report:
    """Random agreement of the two composition routes, plus category laws.

    Each law draws ``samples`` tuples of matrices with 1 to ``max_dim``
    rows and columns; both must be at least 1 (``samples`` is checked by
    the law driver, :func:`~quadalg.nil2.counterexample`).
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    rng = random.Random(seed)
    r = Report(title=f"matrix category over {ring.name}", samples=samples, seed=seed)

    def routes_agree(fg):
        return modq_compose(*fg, "closed") == modq_compose(*fg, "oracle")

    def neutral(fs):
        (f,) = fs
        left, right = ModQMor.identity(ring, f.nrows), ModQMor.identity(ring, f.ncols)
        return modq_compose(left, f) == f == modq_compose(f, right)

    def associative(fgh):
        f, g, h = fgh
        return modq_compose(modq_compose(f, g), h) == modq_compose(f, modq_compose(g, h))

    def additive_group(mnp):
        m, n, p = mnp
        zero = ModQMor.zero(ring, m.nrows, m.ncols)
        return m.add(n).add(p) == m.add(n.add(p)) and m.add(m.neg()) == zero

    def distributes(mn, v):
        m, n = mn
        return all(
            s.act(v) == a.act(v).add(b.act(v)).add(a.bracket(b, ring.H(v)))
            for s, a, b in zip(m.add(n).columns(), m.columns(), n.columns())
        )

    morphisms = functools.partial(_Morphisms, ring, max_dim)
    check_laws(r, [
        Law("closed composition matches the substitution route",
            [morphisms(2)], routes_agree, "(f,g)"),
        Law("identity morphisms are neutral", [morphisms(1)], neutral, "(f,)"),
        Law("composition is associative", [morphisms(3)], associative, "(f,g,h)"),
        Law("morphism addition is a group",
            [morphisms(3, parallel=True)], additive_group, "(m,n,p)"),
        Law("module action distributes with the bracket correction",
            [morphisms(2, parallel=True), ring.e], distributes, "(m,n) v"),
    ], samples, rng)
    return r


# ---------------------------------------------------------------------------
# Tracks
# ---------------------------------------------------------------------------

@dataclass
class Track:
    """A homotopy ``f0 => f1`` through the extension's degree one.

    ``h[i][k]`` bounds the difference of the ring entries; the
    quadratic layers of ``f0`` and ``f1`` are not constrained. The
    constructor checks every boundary, so any operation that builds a
    track re-certifies its own correction terms, also a whisker whose
    target composite was read from a lifting problem's products. Tracks
    are hashable on their source and entries, which equal tracks share.

    One composite is read without being built: the loop ``a^-1``
    then ``b`` of two parallel certified tracks, whose boundary condition
    follows from theirs (see :meth:`ModQTrackExtension.loop_value`).
    """

    ext: CrossedExtension
    f0: ModQMor
    f1: ModQMor
    h: tuple

    def __post_init__(self):
        if (self.f0.nrows, self.f0.ncols) != (self.f1.nrows, self.f1.ncols):
            raise ShapeMismatch("track between morphisms of different shapes")
        x, y = self.f0.nrows, self.f0.ncols
        if len(self.h) != x or any(len(row) != y for row in self.h):
            raise ShapeMismatch(f"track matrix is not {x} by {y}")
        c0 = self.ext.c0
        for i in range(x):
            for k in range(y):
                want = c0.sub(self.f0.fi[i][k], self.f1.fi[i][k])
                got = self.ext.boundary(self.h[i][k])
                if got != want:
                    raise BoundaryMismatch(
                        f"entry ({i}, {k}): boundary {got!r} does not bound the "
                        f"difference {want!r}"
                    )

    def __hash__(self) -> int:
        return hash((self.f0, self.h))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.f0.nrows, self.f0.ncols)


def track_vcomp(first: Track, second: Track) -> Track:
    """Paste ``first: f => g`` with ``second: g => e``."""
    if first.f1 != second.f0:
        raise ShapeMismatch("vertical composition needs matching middle morphisms")
    c1 = first.ext.c1
    h = tuple(
        tuple(c1.add(a, b) for a, b in zip(ra, rb))
        for ra, rb in zip(first.h, second.h)
    )
    return Track(first.ext, first.f0, second.f1, h)


def _pair_keys(f: ModQMor, g: ModQMor):
    return sorted(set(f.fij) | set(g.fij))


def track_left_whisker(u: ModQMor, t: Track, compose_f1: Callable) -> Track:
    """The track ``u . f0 => u . f1`` induced on composites.

    The main term pushes the homotopy through the left action; the
    correction collects the quadratic entries of the two targets and
    the cross effects produced by reordering the entrywise differences.
    The target ``u . f1`` is ``compose_f1(u, f1)``: ``modq_compose``, or
    ``ModQTrackExtension.compose_lifts``, which reuses the products it kept.
    """
    if u.ncols != t.f0.nrows:
        raise ShapeMismatch("whiskering morphism does not compose")
    ext, Q = t.ext, t.ext.ring
    c1, ee = ext.c1, Q.ee
    cross = Q.square_group.cross
    x2, x, y = u.nrows, u.ncols, t.f0.ncols
    h = []
    for i in range(x2):
        row = []
        for s in range(y):
            main = c1.sum(ext.act_left(u.fi[i][k], t.h[k][s]) for k in range(x))
            corr = ee.zero()
            for (k, l) in _pair_keys(t.f0, t.f1):
                diff = ee.sub(t.f0.pair_entry(k, l, s), t.f1.pair_entry(k, l, s))
                corr = ee.add(corr, Q.act_pair(u.fi[i][k], u.fi[i][l], diff))
            for k in range(x):
                for l in range(k + 1, x):
                    d_l = ext.boundary(ext.act_left(u.fi[i][l], t.h[l][s]))
                    b_k = Q.mul(u.fi[i][k], t.f1.fi[k][s])
                    corr = ee.sub(corr, cross(d_l, b_k))
            row.append(c1.add(main, ext.P(corr)))
        h.append(tuple(row))
    return Track(ext, modq_compose(u, t.f0), compose_f1(u, t.f1), tuple(h))


def track_right_whisker(t: Track, g: ModQMor, compose_f1: Callable) -> Track:
    """The track ``f0 . g => f1 . g`` induced on composites, with the
    target ``f1 . g`` taken from ``compose_f1(f1, g)``."""
    if t.f0.ncols != g.nrows:
        raise ShapeMismatch("whiskering morphism does not compose")
    ext, Q = t.ext, t.ext.ring
    c1, ee = ext.c1, Q.ee
    cross = Q.square_group.cross
    x, y, z = t.f0.nrows, t.f0.ncols, g.ncols
    g_pairs = sorted(g.fij.items())
    h = []
    for i in range(x):
        row = []
        for s in range(z):
            main = c1.sum(ext.act_right(t.h[i][k], g.fi[k][s]) for k in range(y))
            corr = ee.zero()
            for (k, l), col in g_pairs:
                corr = ee.add(corr, Q.act_pair(t.f0.fi[i][k], t.f0.fi[i][l], col[s]))
                corr = ee.sub(corr, Q.act_pair(t.f1.fi[i][k], t.f1.fi[i][l], col[s]))
            for k in range(y):
                corr = ee.add(
                    corr,
                    Q.act_pair(
                        ext.boundary(t.h[i][k]), t.f1.fi[i][k], Q.H(g.fi[k][s])
                    ),
                )
            for k in range(y):
                for l in range(k + 1, y):
                    d_l = ext.boundary(ext.act_right(t.h[i][l], g.fi[l][s]))
                    b_k = Q.mul(t.f1.fi[i][k], g.fi[k][s])
                    corr = ee.sub(corr, cross(d_l, b_k))
            row.append(c1.add(main, ext.P(corr)))
        h.append(tuple(row))
    return Track(ext, modq_compose(t.f0, g), compose_f1(t.f1, g), tuple(h))


# ---------------------------------------------------------------------------
# Track extensions and the obstruction cocycle
# ---------------------------------------------------------------------------

class ModQTrackExtension:
    """Lifting problem for the matrix category of a finite extension.

    The base is the matrix category of the quotient ring up to
    ``max_rank``; lifts are matrix morphisms over the total ring with
    entrywise preimages and no quadratic layer, and tracks come from
    the extension's degree one. The whiskers take their targets'
    composites from ``compose_lifts``, which keeps every lift product,
    and still build certified tracks.

    The constructor checks once that ``include`` is injective on the
    kernel module and lands in the kernel of the boundary (else
    ``NotExact`` or ``NotInKernel``), so a track entry found in its
    image has boundary zero and reads back to one module element.
    """

    def __init__(self, ext: CrossedExtension, max_rank: int = 1):
        if not isinstance(ext.ring, SquareRing):
            raise TypeError("matrix tracks need a square-ring extension")
        self.ext = ext
        self.ring = ext.ring
        relems = ext.quot.carrier.elements()
        car, mul = ext.quot.carrier, ext.quot.mul
        self.base = FinCat.matrices(
            relems, lambda row, col: car.sum(map(mul, row, col)),
            ext.quot.one, car.zero(), max_rank,
            f"matrices over the quotient of {ext.name}",
        )

        mg = ext.module
        if not mg.is_finite():
            raise NotFinite("the kernel module must be finite for track values")
        self._mg = mg
        self._inc: dict = {}
        zero = ext.c0.zero()
        for m in mg.elements():
            c = ext.include(m)
            if c in self._inc:
                raise NotExact(
                    f"include is not injective: {m!r} and {self._inc[c]!r} both map to {c!r}"
                )
            if ext.boundary(c) != zero:
                raise NotInKernel(
                    f"include sends {m!r} to {c!r}, whose boundary {ext.boundary(c)!r} is not zero"
                )
            self._inc[c] = m

        self._pre: dict = {}
        for v in ext.c0.elements():
            self._pre.setdefault(ext.quot.q(v), []).append(v)
        for rv in relems:
            if rv not in self._pre:
                raise SectionInvalid(f"quotient element {rv!r} has no ring preimage")
        self._bnd: dict = {}
        for c in ext.c1.elements():
            self._bnd.setdefault(ext.boundary(c), c)
        self._products: dict = {}

        left = {rv: self._module_action(rv, left=True) for rv in relems}
        right = {rv: self._module_action(rv, left=False) for rv in relems}
        self.system = bimodule_system(
            self.base, mg, left.__getitem__, right.__getitem__,
            f"kernel module matrices over {ext.name}",
        )

    def _module_action(self, rv, left: bool) -> list:
        """The matrix of ``m -> rv m`` (``left``) or ``m -> m rv`` on the module."""
        lift, ext = self._pre[rv][0], self.ext
        cols = []
        for g in self._mg.generators():
            c = ext.include(g)
            c = ext.act_left(lift, c) if left else ext.act_right(c, lift)
            cols.append(self._inc[c])
        return from_columns(cols, self._mg.ngens)

    def section(self, phi) -> ModQMor:
        return self._lift(phi, 0)

    def second_section(self, phi) -> ModQMor:
        return self._lift(phi, -1)

    def _lift(self, phi, which: int) -> ModQMor:
        x, y, rows = phi
        fi = tuple(tuple(self._pre[rows[i][k]][which] for k in range(y)) for i in range(x))
        return ModQMor(self.ring, x, y, fi, {})

    def compose_lifts(self, F: ModQMor, G: ModQMor) -> ModQMor:
        """``F . G``: the kept product, or composed now and kept."""
        prod = self._products.get((F, G))
        if prod is None:
            prod = self._products[F, G] = modq_compose(F, G)
        return prod

    def first_track(self, F: ModQMor, G: ModQMor) -> Track:
        """The track ``F => G`` of first boundary preimages; one exists
        exactly when the quotient matrices agree."""
        if (F.nrows, F.ncols) != (G.nrows, G.ncols):
            raise ShapeMismatch("parallel morphisms needed")
        c0 = self.ext.c0
        h = []
        for i in range(F.nrows):
            row = []
            for k in range(F.ncols):
                diff = c0.sub(F.fi[i][k], G.fi[i][k])
                if diff not in self._bnd:
                    raise SectionInvalid(f"no track at entry ({i}, {k})")
                row.append(self._bnd[diff])
            h.append(tuple(row))
        return Track(self.ext, F, G, tuple(h))

    def vcomp(self, t1: Track, t2: Track) -> Track:
        return track_vcomp(t1, t2)

    def left_whisker(self, F: ModQMor, t: Track) -> Track:
        return track_left_whisker(F, t, self.compose_lifts)

    def right_whisker(self, t: Track, G: ModQMor) -> Track:
        return track_right_whisker(t, G, self.compose_lifts)

    def value(self, t: Track) -> tuple:
        """The kernel-module matrix of an automorphism track, flattened as in
        :func:`~quadalg.bwcoh.bimodule_system`."""
        if t.f0 != t.f1:
            raise ValueError("only automorphism tracks carry module values")
        return self._module_value(t.shape, [v for row in t.h for v in row])

    def loop_value(self, a: Track, b: Track) -> tuple:
        """``value(vcomp(a^-1, b))`` for parallel tracks ``a`` and ``b``,
        where ``a^-1`` is ``a`` with its entries negated and its ends
        swapped, with the same exceptions, but building no track.

        The entries are ``-a + b``. The paste's certificate would check
        that their boundary is ``a.f1 - b.f1``, which is zero here. Since
        the boundary is a homomorphism and ``a`` and ``b`` are certified
        with ``a.f0 = b.f0``, it is ``-(a.f0 - a.f1) + (b.f0 - b.f1) =
        a.f1 - b.f1`` already. Each entry is then looked up in the image
        of ``include``, which the constructor showed to be injective and
        to lie in the kernel of the boundary, as :meth:`value` does.
        """
        if a.f0 != b.f0:
            raise ShapeMismatch("vertical composition needs matching middle morphisms")
        if a.f1 != b.f1:
            raise ValueError("only automorphism tracks carry module values")
        c1 = self.ext.c1
        cells = [
            c1.add(c1.neg(u), v) for ra, rb in zip(a.h, b.h) for u, v in zip(ra, rb)
        ]
        return self._module_value(a.shape, cells)

    def _module_value(self, shape: tuple, cells: list) -> tuple:
        inc = self._inc
        for v in cells:
            if v not in inc:
                raise ValueError(f"track entry {v!r} is not in the kernel module image")
        # module elements are listed reduced, and the group at a y -> x
        # morphism is M^(x*y) with generator j of cell c at j*x*y + c
        return tuple([inc[v][j] for j in range(self._mg.ngens) for v in cells])


def obstruction_cocycle(te, section: Callable | None = None) -> dict:
    """The degree-three obstruction of a section of the lifting problem.

    For each base morphism a lift is chosen (the extension's own
    section unless one is passed in), and for each composable pair a
    first track from the composed lifts to the lifted composite. The
    two ways of rebracketing a triple then differ by an automorphism
    track whose value is the cochain. Missing keys are zero.

    Each distinct pair track gets an integer id, kept with the pair's
    composite, so ``te``'s tracks must be hashable. The route
    ``(phi psi) chi`` is built once per key ``(id of mu[phi, psi], phi psi,
    chi)`` and the route ``phi (psi chi)`` once per ``(phi, id of
    mu[psi, chi], psi chi)``; each key holds the composites because the
    route reads the pair tracks there, so it is right for any section. The
    pair tracks, whiskers and routes are certified tracks. Per triple
    only the two key lookups and ``te.loop_value(route2, route1)`` are
    left, which reads ``value(vcomp(route2^-1, route1))`` from the
    two routes without building the paste, whose certificate theirs
    imply. The whiskers' targets ``s[phi psi] s[chi]`` and ``s[phi] s[psi chi]`` are
    lift products of the pair loop, which ``te`` may reuse. A base with
    more than ``MAX_COMPOSABLE_TRIPLES`` composable triples raises
    ``TooLarge`` before any lift is chosen.

    >>> from quadalg.crossed import cyclic_ring_extension
    >>> te = ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=1)
    >>> obstruction_cocycle(te)
    {}
    >>> sorted(set(obstruction_cocycle(te, te.second_section).values()))
    [(1,)]
    """
    C = te.base
    triples = C.count_chains(3)
    if triples > MAX_COMPOSABLE_TRIPLES:
        raise TooLarge(f"{triples} composable triples exceed the cap {MAX_COMPOSABLE_TRIPLES}")
    s = {phi: (section(phi) if section else te.section(phi)) for phi in C.morphisms}
    pairs = C.composable_tuples(2)
    mu, pair_ids, ids = {}, {}, {}
    for phi, psi in pairs:
        phipsi = C.compose(phi, psi)
        prod = te.compose_lifts(s[phi], s[psi])
        t = mu[(phi, psi)] = te.first_track(prod, s[phipsi])
        pair_ids[(phi, psi)] = (phipsi, ids.setdefault(t, len(ids)))
    routes1, routes2, out = {}, {}, {}
    for phi, psi in pairs:
        phipsi, id12 = pair_ids[(phi, psi)]
        for chi in C.into[C.dom[psi]]:
            psichi, id23 = pair_ids[(psi, chi)]
            key = (id12, phipsi, chi)
            route1 = routes1.get(key)
            if route1 is None:
                route1 = routes1[key] = te.vcomp(
                    te.right_whisker(mu[(phi, psi)], s[chi]), mu[(phipsi, chi)]
                )
            key = (phi, id23, psichi)
            route2 = routes2.get(key)
            if route2 is None:
                route2 = routes2[key] = te.vcomp(
                    te.left_whisker(s[phi], mu[(psi, chi)]), mu[(phi, psichi)]
                )
            coords = te.loop_value(route2, route1)
            if any(coords):
                out[(phi, psi, chi)] = coords
    return out
