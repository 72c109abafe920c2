"""Cohomology of finite categories with natural-system coefficients.

A natural system assigns an abelian group to every morphism and a map
``D(alpha) -> D(psi . alpha . nu)`` to every way of extending a morphism
on both sides. Cochains in degree ``n`` are families indexed by
composable ``n``-tuples with values in the group of the composite; the
coboundary pushes through the outer morphisms and merges inner pairs
with alternating signs. On a matrix category (:meth:`FinCat.matrices`),
:func:`bimodule_system` gives the coefficients ``M^(x*y)`` of a finite
bimodule ``M`` at a morphism ``y -> x``, generator ``j`` of ``M`` in cell
``(i, k)`` at coordinate ``j*x*y + i*y + k``; the ``dm`` system (``M = Z/c``)
and the kernel-module systems of :mod:`quadalg.modq` are built with it.

Everything is exact integer arithmetic: a cochain level is a sum of cyclic
groups, in invariant-factor form when their orders sort into a divisibility
chain and presented by its relations otherwise, differentials are integer
matrices, and cohomology comes out of Smith normal form with certified
witnesses. One :class:`CochainComplex` per category and coefficients
builds each level and differential once;
absolute cohomology, relative cohomology (over the quotient complex of a
projection) and the long exact sequence all read theirs from one.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Hashable, Sequence

from . import abelian
from .abelian import (
    AbMap,
    FgAbGroup,
    HomologyResult,
    SnfResult,
    exact_at,
    homology_at,
    identity as identity_matrix,
    mat_vec,
    matmul,
    quotient_presentation,
    stacked_rows,
    zeros,
)
from .errors import DegreeTooHigh, NotIdentityOnObjects, NotSurjective, ShapeMismatch, TooLarge
from .reports import Report

MAX_ABSOLUTE_DEGREE = 3
MAX_RELATIVE_DEGREE = 4
DEFAULT_GENERATOR_CAP = 24000
# one composable triple per cocycle entry of modq.obstruction_cocycle and per
# extension natsystem_verify checks: the rank <= 2 base over Z/2 (8,507
# triples) takes 1.5 s for a shifted section and is admitted; over Z/4
# (19.3 M) it would take about 55 min (extrapolated), and is refused
MAX_COMPOSABLE_TRIPLES = 20_000
# one table entry per composable pair: rank <= 3 mod 2 (349,691 pairs) builds
# in 4 s at a 193 MB peak and is admitted; rank <= 1 mod 1,024 (1.05 M) took
# 4.9 s at 466 MB, and it and rank <= 2 mod 6 (1.78 M) are refused
MAX_COMPOSABLE_PAIRS = 500_000
# composable pairs times morphisms, a bound on the triples FinCat.validate's
# associativity pass walks: one_object_cyclic(125) (1.95 M) validates in
# 2.2 s at a 19 MB peak and is admitted; one_object_cyclic(126) is refused
MAX_ASSOCIATIVITY_CASES = 2_000_000


# ---------------------------------------------------------------------------
# Finite categories
# ---------------------------------------------------------------------------

@dataclass
class FinCat:
    """A finite category as explicit tables.

    ``table[(f, g)]`` is the composite ``f . g`` (``g`` applied first),
    defined exactly when ``dom[f] == cod[g]``. :attr:`into` and
    :attr:`out_of` list the morphisms into and out of each object in
    ``morphisms`` order, and every chain walk reads ``into``: a chain
    ``(a_1, ..., a_n)`` extends through ``into[dom(a_n)]``, so chains come
    in the lexicographic order of ``morphisms``.
    """

    objects: tuple
    morphisms: tuple
    dom: dict
    cod: dict
    table: dict
    ids: dict
    name: str = "category"

    @cached_property
    def into(self) -> dict:
        """The morphisms into each object, in ``morphisms`` order."""
        into: dict = {o: [] for o in self.objects}
        for f in self.morphisms:
            into[self.cod[f]].append(f)
        return into

    @cached_property
    def out_of(self) -> dict:
        """The morphisms out of each object, in ``morphisms`` order."""
        out: dict = {o: [] for o in self.objects}
        for f in self.morphisms:
            out[self.dom[f]].append(f)
        return out

    def identity(self, obj: Hashable):
        return self.ids[obj]

    def is_identity(self, f: Hashable) -> bool:
        return f == self.ids[self.dom[f]]

    def compose(self, f: Hashable, g: Hashable):
        """The composite ``f . g``; ``g`` acts first."""
        if self.dom[f] != self.cod[g]:
            raise ValueError(f"morphisms {f!r} and {g!r} are not composable")
        return self.table[(f, g)]

    def product(self, chain: Sequence) -> Hashable:
        out = chain[0]
        for f in chain[1:]:
            out = self.compose(out, f)
        return out

    def composable_tuples(self, n: int, normalized: bool = False) -> list[tuple]:
        """All chains ``(a_1, ..., a_n)`` with ``dom(a_i) = cod(a_(i+1))``."""
        if n == 0:
            return [()]
        into = self.into
        if normalized:
            into = {o: [g for g in fs if not self.is_identity(g)] for o, fs in into.items()}
        chains = [(f,) for f in self.morphisms if not (normalized and self.is_identity(f))]
        for _ in range(n - 1):
            chains = [t + (g,) for t in chains for g in into[self.dom[t[-1]]]]
        return chains

    def count_chains(self, n: int) -> int:
        """``len(composable_tuples(n))``, counted by the domain of each
        chain's last morphism without listing a chain.

        >>> C = FinCat.mod_r(2, 1)
        >>> C.count_chains(3), len(C.composable_tuples(3))
        (34, 34)
        """
        if n == 0:
            return 1
        ends = Counter(self.dom[f] for f in self.morphisms)
        for _ in range(n - 1):
            longer: Counter = Counter()
            for c, k in ends.items():
                for g in self.into[c]:
                    longer[self.dom[g]] += k
            ends = longer
        return sum(ends.values())

    def validate(self) -> Report:
        r = Report(title=f"category tables: {self.name}")
        ok, witness = True, None
        for o in self.objects:
            i = self.ids.get(o)
            if i is None or self.dom.get(i) != o or self.cod.get(i) != o:
                ok, witness = False, f"object {o!r}"
                break
        r.add("identities present", ok, witness)
        ok, witness = True, None
        for f in self.morphisms:
            # A missing identity fails here too, as a composite not in the table.
            left = self.table.get((f, self.ids.get(self.dom[f])))
            right = self.table.get((self.ids.get(self.cod[f]), f))
            if left != f or right != f:
                ok, witness = False, f"morphism {f!r}"
                break
        r.add("identities neutral", ok, witness)
        count = self.count_chains(2)
        if count * len(self.morphisms) > MAX_ASSOCIATIVITY_CASES:
            raise TooLarge(f"{count} composable pairs make associativity checks impractical")
        pairs = self.composable_tuples(2)
        members = set(self.morphisms)
        closed, witness = True, None
        for f, g in pairs:
            h = self.table.get((f, g))
            if h is None or h not in members or self.dom[h] != self.dom[g] or self.cod[h] != self.cod[f]:
                closed, witness = False, f"pair ({f!r}, {g!r})"
                break
        r.add("composition closed", closed, witness)
        if not closed:
            r.note("associativity not checked because the table is not closed")
            return r
        ok, witness = True, None
        for f, g, h in ((f, g, h) for f, g in pairs for h in self.into[self.dom[g]]):
            if self.compose(self.compose(f, g), h) != self.compose(f, self.compose(g, h)):
                ok, witness = False, f"triple ({f!r}, {g!r}, {h!r})"
                break
        r.add("composition associative", ok, witness)
        return r

    @classmethod
    def from_monoid(cls, elements: Sequence, mul: Callable, unit, name: str = "monoid") -> "FinCat":
        """One object with the monoid's elements as morphisms, composed by
        ``mul``. More than ``MAX_COMPOSABLE_PAIRS`` composable pairs raise
        ``TooLarge`` before any product is taken."""
        obj = "*"
        elems = tuple(itertools.islice(elements, math.isqrt(MAX_COMPOSABLE_PAIRS) + 1))
        if len(elems) ** 2 > MAX_COMPOSABLE_PAIRS:
            raise TooLarge(f"{name}: more than {MAX_COMPOSABLE_PAIRS} composable pairs")
        table = {(f, g): mul(f, g) for f in elems for g in elems}
        return cls(
            objects=(obj,),
            morphisms=elems,
            dom={f: obj for f in elems},
            cod={f: obj for f in elems},
            table=table,
            ids={obj: unit},
            name=name,
        )

    @classmethod
    def matrices(
        cls, entries: Sequence, dot: Callable, one, zero, max_rank: int, name: str
    ) -> "FinCat":
        """Objects are ranks ``0..max_rank``; morphisms ``y -> x`` are all
        ``x`` by ``y`` matrices with entries from ``entries``, stored as
        ``(x, y, rows)``. Composition is the matrix product whose entries
        are ``dot(row, column)``; identities have ``one`` on the diagonal
        and ``zero`` elsewhere. More than ``MAX_COMPOSABLE_PAIRS`` composable
        pairs raise ``TooLarge`` before any matrix is built, and before more
        entries are read than the bound admits at rank 1."""
        if max_rank < 0:
            raise ValueError(f"max_rank must be at least 0, got {max_rank}")
        entries = tuple(itertools.islice(entries, math.isqrt(MAX_COMPOSABLE_PAIRS) + 1))
        # pairs through y: (matrices with y columns) * (matrices with y rows)
        pairs = 0
        for y in range(max_rank + 1):
            into = 0
            for x in range(max_rank + 1):
                into += len(entries) ** (x * y)
                if pairs + into * into > MAX_COMPOSABLE_PAIRS:
                    raise TooLarge(
                        f"{name}: more than {MAX_COMPOSABLE_PAIRS} composable pairs"
                    )
            pairs += into * into
        objects = tuple(range(max_rank + 1))
        morphisms = []
        for x in objects:
            for y in objects:
                for flat in itertools.product(entries, repeat=x * y):
                    rows = tuple(tuple(flat[i * y + k] for k in range(y)) for i in range(x))
                    morphisms.append((x, y, rows))
        ids = {
            x: (x, x, tuple(tuple(one if i == j else zero for j in range(x)) for i in range(x)))
            for x in objects
        }
        cat = cls(
            objects=objects,
            morphisms=tuple(morphisms),
            dom={m: m[1] for m in morphisms},
            cod={m: m[0] for m in morphisms},
            table={},
            ids=ids,
            name=name,
        )
        cols = {
            m: tuple(tuple(m[2][k][j] for k in range(m[0])) for j in range(m[1]))
            for m in morphisms
        }
        for x, y, a in morphisms:
            for b in cat.into[y]:
                rows = tuple(tuple(dot(row, col) for col in cols[b]) for row in a)
                cat.table[((x, y, a), b)] = (x, b[1], rows)
        return cat

    @classmethod
    def mod_r(cls, modulus: int, max_rank: int) -> "FinCat":
        """The matrices over ``Z/modulus`` of rank at most ``max_rank``,
        composed by matrix product (see :meth:`matrices`)."""
        if modulus < 2:
            raise ValueError("the matrix category needs a modulus of at least 2")
        return cls.matrices(
            range(modulus),
            lambda row, col: sum(map(operator.mul, row, col)) % modulus,
            1, 0, max_rank,
            f"mod-Z/{modulus} ranks <= {max_rank}",
        )


# ---------------------------------------------------------------------------
# Natural systems
# ---------------------------------------------------------------------------

@dataclass
class NatSystem:
    """Coefficients for category cohomology.

    ``group(alpha)`` is the abelian group at a morphism; ``act(nu,
    alpha, psi)`` is the induced map ``D(alpha) -> D(psi . alpha . nu)``
    for ``nu`` into the source and ``psi`` out of the target.
    """

    cat: FinCat
    group: Callable
    act: Callable
    name: str = "natural system"
    _cache: dict = field(default_factory=dict, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)

    def group_at(self, alpha) -> FgAbGroup:
        if alpha not in self._cache:
            self._cache[alpha] = self.group(alpha)
        return self._cache[alpha]

    def map_for(self, nu, alpha, psi) -> AbMap:
        key = (nu, alpha, psi)
        if key not in self._maps:
            self._maps[key] = self.act(nu, alpha, psi)
        return self._maps[key]


def trivial_system(cat: FinCat, group: FgAbGroup) -> NatSystem:
    def act(nu, alpha, psi):
        return AbMap(group, group, identity_matrix(group.ngens))

    return NatSystem(
        cat=cat,
        group=lambda alpha: group,
        act=act,
        name=f"constant {group.describe()}",
    )


def bimodule_system(
    cat: FinCat, module: FgAbGroup, left: Callable, right: Callable, name: str
) -> NatSystem:
    """Matrices over a finite bimodule ``M`` as coefficients on a category
    built by :meth:`FinCat.matrices`.

    At ``alpha: y -> x`` the group is ``M^(x*y)``, generator ``j`` of ``M``
    in cell ``(i, k)`` at coordinate ``j*x*y + i*y + k``. Extending by ``nu``
    and ``psi`` acts by ``a -> psi a nu`` through the integer matrices
    ``left(r)`` of ``m -> r m`` and ``right(r)`` of ``m -> m r`` on ``M``.
    """
    factors = module.invariant_factors
    groups: dict = {}
    products: dict = {}  # (r, s) -> the reduced matrix of m -> r m s

    def group(alpha):
        cells = alpha[0] * alpha[1]
        if cells not in groups:
            groups[cells] = FgAbGroup(tuple(d for d in factors for _ in range(cells)))
        return groups[cells]

    def act(nu, alpha, psi):
        (x, y, _), (yn, y2, nmat), (x2, xp, pmat) = alpha, nu, psi
        if yn != y or xp != x:
            raise ShapeMismatch("action factors do not align with the morphism")
        src, dst = group(alpha), group((x2, y2, None))
        rows = zeros(dst.ngens, src.ngens)
        for i, k, p, q in itertools.product(range(x), range(y), range(x2), range(y2)):
            r, s = pmat[p][i], nmat[k][q]
            if (r, s) not in products:
                cols = list(zip(*right(s)))
                products[r, s] = [
                    [sum(map(operator.mul, row, col)) % d for col in cols]
                    for row, d in zip(left(r), factors)
                ]
            for jt, prow in enumerate(products[r, s]):
                for js, c in enumerate(prow):
                    rows[(jt * x2 + p) * y2 + q][(js * x + i) * y + k] = c
        return AbMap(src, dst, rows)

    return NatSystem(cat=cat, group=group, act=act, name=name)


def dm_natural_system(
    modulus: int,
    max_rank: int,
    coeff_modulus: int | None = None,
    cat: FinCat | None = None,
) -> tuple[FinCat, NatSystem]:
    """Matrix groups over ``Z/coeff`` as coefficients on the matrix category:
    :func:`bimodule_system` of ``Z/coeff`` on :meth:`FinCat.mod_r`, with
    cell ``(i, k)`` of ``alpha: y -> x`` at coordinate ``i*y + k``. A given
    ``cat`` must be ``FinCat.mod_r(modulus, max_rank)``, built already.

    Both moduli must be at least 2, and the coefficient modulus must divide
    the matrix modulus so the action is independent of entry representatives.
    """
    if modulus < 2:
        raise ValueError(f"the matrix modulus must be at least 2, got {modulus}")
    coeff = modulus if coeff_modulus is None else coeff_modulus
    if coeff_modulus is not None and coeff_modulus < 2:
        raise ValueError(f"the coefficient modulus must be at least 2, got {coeff_modulus}")
    if modulus % coeff:
        raise ValueError(
            f"coefficient modulus {coeff} must divide the matrix modulus {modulus}"
        )
    if cat is None:
        cat = FinCat.mod_r(modulus, max_rank)

    def scalar(r):
        return [[r]]

    return cat, bimodule_system(
        cat, FgAbGroup((coeff,)), scalar, scalar, f"bimodule Z/{coeff} matrices"
    )


def _same_map(f: AbMap, g: AbMap) -> bool:
    """Whether ``f`` and ``g`` are the same homomorphism: equal ends, and
    matrices that differ by multiples of the target's invariant factors."""
    if (f.source, f.target) != (g.source, g.target):
        return False
    diff = [[a - b for a, b in zip(fr, gr)] for fr, gr in zip(f.matrix, g.matrix)]
    return AbMap(f.source, f.target, diff).is_zero_map()


def natsystem_verify(D: NatSystem) -> Report:
    """Functoriality of a natural system over its category. More than
    ``MAX_COMPOSABLE_TRIPLES`` extensions raise ``TooLarge`` before any is
    listed, and at most that many pairs of extensions are checked."""
    C = D.cat
    extensions = C.count_chains(3)
    if extensions > MAX_COMPOSABLE_TRIPLES:
        raise TooLarge(f"{extensions} extensions exceed the verification cap")
    r = Report(title=f"natural system: {D.name}")
    ok, witness = True, None
    for alpha in C.morphisms:
        G = D.group_at(alpha)
        m = D.map_for(C.identity(C.dom[alpha]), alpha, C.identity(C.cod[alpha]))
        if not _same_map(m, AbMap(G, G, identity_matrix(G.ngens))):
            ok, witness = False, f"morphism {alpha!r}"
            break
    r.add("identity extension acts as the identity", ok, witness)

    def around(f):
        return [(nu, psi) for nu in C.into[C.dom[f]] for psi in C.out_of[C.cod[f]]]

    triples = [(nu, alpha, psi) for alpha in C.morphisms for nu, psi in around(alpha)]
    pairs = (
        (nu, alpha, psi, nu2, psi2) for nu, alpha, psi in triples
        for nu2, psi2 in around(C.compose(psi, C.compose(alpha, nu)))
    )
    ok, witness = True, None
    for count, (nu, alpha, psi, nu2, psi2) in enumerate(pairs):
        if count == MAX_COMPOSABLE_TRIPLES:
            r.note(f"composition functoriality truncated at {count} cases")
            break
        beta = C.compose(psi, C.compose(alpha, nu))
        two_step = D.map_for(nu2, beta, psi2).compose(D.map_for(nu, alpha, psi))
        one_step = D.map_for(C.compose(nu, nu2), alpha, C.compose(psi2, psi))
        if not _same_map(two_step, one_step):
            ok, witness = False, f"({nu!r}, {alpha!r}, {psi!r}) then ({nu2!r}, {psi2!r})"
            break
    r.add("extensions compose functorially", ok, witness)
    return r


# ---------------------------------------------------------------------------
# Cochain levels
# ---------------------------------------------------------------------------

@dataclass
class _Level:
    """The sum of the groups ``block[k]``; ``index[k]`` lists block ``k``'s
    level coordinates. These are ``grp``'s own unless ``proj`` and ``lift``,
    read off ``factored`` (the Smith form of :attr:`rels`), translate."""

    keys: list
    block: dict
    index: dict
    ngens: int
    grp: FgAbGroup | None = None
    proj: list | None = None
    lift: list | None = None
    extra: list | None = None
    factored: SnfResult | None = None

    @property
    def rels(self) -> tuple[list[dict[int, int]], int]:
        """Sparse rows and column count of the level's relations: one column
        per finite block factor, in key order, then the columns of ``extra``."""
        rels = []
        for k in self.keys:
            rels += [(i, d) for i, d in zip(self.index[k], self.block[k].invariant_factors) if d]
        return stacked_rows(zeros(self.ngens, 0) if self.extra is None else self.extra, rels, True)

    def presented(self, extra: list | None = None) -> "_Level":
        """This level modulo its block relations and the columns of ``extra``."""
        level = replace(self, extra=extra)
        level.factored = abelian.smith_rows(*level.rels)
        level.grp, level.proj, level.lift = quotient_presentation(self.ngens, level.factored)
        return level

    def to_group(self, v) -> tuple[int, ...]:
        return self.grp.reduce(v if self.proj is None else mat_vec(self.proj, v))

    def from_group(self, g) -> tuple[int, ...]:
        """Level coordinates of a representative of ``g``."""
        return tuple(g) if self.lift is None else mat_vec(self.lift, g)

    def assemble(self, cochain: dict) -> list[int]:
        v = [0] * self.ngens
        for key, val in cochain.items():
            if key not in self.index:
                raise ValueError(f"unknown cochain index {key!r}")
            for i, c in zip(self.index[key], self.block[key].reduce(tuple(val))):
                v[i] = c
        return v


def _level_size(C: FinCat, D: NatSystem, n: int, normalized: bool) -> int:
    """Generators of cochain level ``n``, counted without listing the chains.

    Chains are counted by their composite, which is all that extending a
    chain and its coefficient group depend on: the domain of the last
    morphism is the composite's.
    """
    if n == 0:
        return sum(D.group_at(C.identity(o)).ngens for o in C.objects)
    counts = Counter(f for f in C.morphisms if not (normalized and C.is_identity(f)))
    for _ in range(n - 1):
        longer: Counter = Counter()
        for h, k in counts.items():
            for g in C.into[C.dom[h]]:
                if not (normalized and C.is_identity(g)):
                    longer[C.compose(h, g)] += k
        counts = longer
    return sum(k * D.group_at(h).ngens for h, k in counts.items())


def _build_level(C: FinCat, D: NatSystem, n: int, normalized: bool) -> _Level:
    """Level ``n``: if a stable sort of the blocks' factors (zeros last) is a
    divisibility chain, it is the level's group and orders the coordinates;
    otherwise they stay in key order and a Smith form gives the group."""
    if n == 0:
        keys = list(C.objects)
        blocks = {o: D.group_at(C.identity(o)) for o in keys}
    else:
        keys = C.composable_tuples(n, normalized)
        blocks = {t: D.group_at(C.product(t)) for t in keys}
    factors = [d for k in keys for d in blocks[k].invariant_factors]
    order = sorted(range(len(factors)), key=lambda i: (factors[i] == 0, factors[i]))
    finite = [factors[i] for i in order if factors[i]]
    chained = not any(b % a for a, b in zip(finite, finite[1:]))
    if not chained:
        order = range(len(factors))
    coord = iter(sorted(range(len(factors)), key=order.__getitem__))  # inverse of order
    index = {k: [next(coord) for _ in range(blocks[k].ngens)] for k in keys}
    level = _Level(keys=keys, block=blocks, index=index, ngens=len(factors))
    if not chained:
        return level.presented()
    level.grp = FgAbGroup(tuple(factors[i] for i in order))
    return level


def _coboundary_terms(C: FinCat, T: tuple):
    """Faces of the chain ``T``: (argument key, sign, action or None)."""
    n1 = len(T)
    n = n1 - 1
    if n == 0:
        d, c = C.dom[T[0]], C.cod[T[0]]
        yield (d, 1, (C.identity(d), C.identity(d), T[0]))
        yield (c, -1, (T[0], C.identity(c), C.identity(c)))
        return
    rest = T[1:]
    yield (rest, 1, (C.identity(C.dom[T[-1]]), C.product(rest), T[0]))
    for i in range(1, n + 1):
        merged = T[: i - 1] + (C.compose(T[i - 1], T[i]),) + T[i + 1 :]
        yield (merged, (-1) ** i, None)
    front = T[:-1]
    yield (front, (-1) ** n1, (T[-1], C.product(front), C.identity(C.cod[T[0]])))


def _d_presented(C: FinCat, D: NatSystem, src: _Level, tgt: _Level) -> list:
    """The coboundary from ``src`` to ``tgt`` on level coordinates, as a
    dense matrix (an :class:`AbMap` is dense). Each face of a target chain
    adds ``sign`` times its action into the block of its source chain; a
    face with no action, which merges two morphisms, adds ``sign`` on the
    block's diagonal."""
    M = zeros(tgt.ngens, src.ngens)
    for T in tgt.keys:
        rows = tgt.index[T]
        for arg, sign, act3 in _coboundary_terms(C, T):
            if arg not in src.index:
                continue
            cols = src.index[arg]
            if act3 is None:
                for r, c in zip(rows, cols):
                    M[r][c] += sign
                continue
            for r, arow in zip(rows, D.map_for(*act3).matrix):
                Mr = M[r]
                for c, a in zip(cols, arow):
                    if a:
                        Mr[c] += sign * a
    return M


def _canonical_map(dpres, src: _Level, tgt: _Level) -> AbMap:
    M = dpres if tgt.proj is None else matmul(tgt.proj, dpres)
    return AbMap(src.grp, tgt.grp, M if src.lift is None else matmul(M, src.lift))


class CochainComplex:
    """The cochain complex of ``C`` with coefficients in ``D``.

    Levels, presented differentials and their maps of presented groups
    are built on first use and kept, so every degree asked of one complex
    shares them. Every level is counted before it is listed: :meth:`level`
    calls :meth:`check_sizes`, which refuses more than ``cap`` generators.

    >>> C = one_object_cyclic(2)
    >>> cx = CochainComplex(C, trivial_system(C, FgAbGroup.cyclic(2)), False)
    >>> [cx.homology(n).group.describe() for n in range(3)]
    ['Z/2', 'Z/2', 'Z/2']
    """

    def __init__(
        self, C: FinCat, D: NatSystem, normalized: bool, cap: int = DEFAULT_GENERATOR_CAP
    ):
        self.C, self.D, self.normalized, self.cap = C, D, normalized, cap
        self._sizes: dict = {}
        self._levels: dict = {}
        self._d_presented: dict = {}
        self._d: dict = {}

    def check_sizes(self, degrees: Sequence[int]) -> None:
        """Refuse the first of ``degrees`` whose level has more than ``cap``
        generators; each degree is counted once per complex."""
        for n in degrees:
            if n not in self._sizes:
                self._sizes[n] = _level_size(self.C, self.D, n, self.normalized)
            if self._sizes[n] > self.cap:
                raise TooLarge(
                    f"cochain level {n} needs {self._sizes[n]} generators (cap {self.cap})"
                )

    def _build_level(self, n: int) -> _Level:
        return _build_level(self.C, self.D, n, self.normalized)

    def level(self, n: int) -> _Level:
        if n not in self._levels:
            self.check_sizes([n])
            self._levels[n] = self._build_level(n)
        return self._levels[n]

    def d_presented(self, n: int) -> list:
        """The differential out of level ``n`` on generators."""
        if n not in self._d_presented:
            self._d_presented[n] = _d_presented(self.C, self.D, self.level(n), self.level(n + 1))
        return self._d_presented[n]

    def d(self, n: int) -> AbMap:
        """The differential out of degree ``n``; below 0, the zero map into degree 0."""
        if n not in self._d:
            if n < 0:
                self._d[n] = AbMap.zero_map(FgAbGroup.trivial(), self.level(0).grp)
            else:
                self._d[n] = _canonical_map(self.d_presented(n), self.level(n), self.level(n + 1))
        return self._d[n]

    def homology(self, n: int) -> HomologyResult:
        return homology_at(self.d(n - 1), self.d(n))


# ---------------------------------------------------------------------------
# Absolute cohomology
# ---------------------------------------------------------------------------

@dataclass
class CohomologyResult:
    """One cohomology group, read in cochains ``{chain: coords}`` (objects in
    degree zero) through a contract that reads no private field: ``class_of``
    inverts ``representative``, is 0 on a :func:`coboundary` (a cocycle) and
    raises ``NotInKernel`` on a cochain that ``is_cocycle`` refuses."""

    degree: int
    normalized: bool
    group: FgAbGroup
    _hom: HomologyResult
    _level: _Level
    d_in: AbMap
    d_out: AbMap

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.group.invariant_factors

    def class_of(self, cochain: dict) -> tuple[int, ...]:
        """Cohomology class of a cocycle."""
        return self._hom.express(self._level.to_group(self._level.assemble(cochain)))

    def is_cocycle(self, cochain: dict) -> bool:
        v = self._level.to_group(self._level.assemble(cochain))
        return not any(self.d_out.apply(v))

    def representative(self, class_coords) -> dict:
        """A cocycle of the class ``class_coords``, one entry per chain."""
        v = self._level.from_group(self._hom.representative(class_coords))
        return {k: tuple(v[i] for i in self._level.index[k]) for k in self._level.keys}


def _check_degree(degree: int, what: str) -> None:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_ABSOLUTE_DEGREE:
        raise DegreeTooHigh(
            f"{what} implemented for degree <= {MAX_ABSOLUTE_DEGREE}, got {degree}"
        )


def cohomology(
    C: FinCat,
    D: NatSystem,
    degree: int,
    normalized: bool | None = None,
    max_generators: int = DEFAULT_GENERATOR_CAP,
) -> CohomologyResult:
    """The degree-``n`` cohomology of ``C`` with coefficients in ``D``.

    Degrees up to 3 are supported; above degree 2 the normalized
    subcomplex (chains without identities) is used by default, which
    computes the same groups on far fewer generators.
    """
    _check_degree(degree, "absolute cohomology is")
    if normalized is None:
        normalized = degree > 2
    cx = CochainComplex(C, D, normalized, max_generators)
    cx.check_sizes([degree, degree + 1] + ([degree - 1] if degree else []))
    hom = cx.homology(degree)
    return CohomologyResult(
        degree=degree, normalized=normalized, group=hom.group, _hom=hom,
        _level=cx.level(degree), d_in=cx.d(degree - 1), d_out=cx.d(degree),
    )


def coboundary(
    C: FinCat, D: NatSystem, degree: int, cochain: dict, normalized: bool = False
) -> dict:
    """Evaluate the coboundary of a degree-``n`` cochain directly.

    The cochain maps chain tuples (objects in degree zero) to
    coordinate tuples in the group of the composite; missing indices
    count as zero. This route never builds matrices, so it doubles as
    an independent check on the matrix differential.
    """
    _check_degree(degree, "coboundaries are")
    def value_at(key, group):
        if key in cochain:
            return group.reduce(tuple(cochain[key]))
        return group.zero()

    out = {}
    for T in C.composable_tuples(degree + 1, normalized):
        tgt_group = D.group_at(C.product(T))
        total = tgt_group.zero()
        for arg, sign, act3 in _coboundary_terms(C, T):
            if degree == 0:
                src_group = D.group_at(C.identity(arg))
            else:
                if normalized and any(C.is_identity(f) for f in arg):
                    continue
                src_group = D.group_at(C.product(arg))
            v = value_at(arg, src_group)
            if act3 is not None:
                v = D.map_for(*act3).apply(v)
            total = tgt_group.add(total, tgt_group.scalar(sign, v))
        if any(total):
            out[T] = total
    return out


# ---------------------------------------------------------------------------
# Relative cohomology along a full projection
# ---------------------------------------------------------------------------

def validate_projection(C: FinCat, K: FinCat, p: dict) -> None:
    """``p: K -> C`` must fix objects, be a functor, and hit every morphism."""
    if set(K.objects) != set(C.objects):
        raise NotIdentityOnObjects(
            f"object sets differ: {sorted(map(repr, K.objects))} vs {sorted(map(repr, C.objects))}"
        )
    for f in K.morphisms:
        if f not in p:
            raise ValueError(f"projection undefined on {f!r}")
        if K.dom[f] != C.dom[p[f]] or K.cod[f] != C.cod[p[f]]:
            raise NotIdentityOnObjects(f"projection moves the endpoints of {f!r}")
    for o in K.objects:
        if p[K.identity(o)] != C.identity(o):
            raise ValueError(f"projection sends the identity of {o!r} elsewhere")
    for f, g in K.composable_tuples(2):
        if p[K.compose(f, g)] != C.compose(p[f], p[g]):
            raise ValueError(f"projection is not a functor at ({f!r}, {g!r})")
    missing = set(C.morphisms) - set(p.values())
    if missing:
        raise NotSurjective(f"morphisms without preimage: {sorted(map(repr, missing))[:3]}")


def _pulled_system(K: FinCat, D: NatSystem, p: dict) -> NatSystem:
    return NatSystem(
        cat=K,
        group=lambda alpha: D.group_at(p[alpha]),
        act=lambda nu, alpha, psi: D.map_for(p[nu], p[alpha], p[psi]),
        name=f"{D.name} pulled back",
    )


def _rho_presented(levelC: _Level, levelK: _Level, p: dict, degree: int) -> list:
    M = zeros(levelK.ngens, levelC.ngens)
    for t in levelK.keys:
        s = t if degree == 0 else tuple(p[f] for f in t)
        if s in levelC.index:
            for r, c in zip(levelK.index[t], levelC.index[s]):
                M[r][c] = 1
    return M


class _QuotientComplex(CochainComplex):
    """The cokernel of the cochain restriction along ``p: K -> C``.

    Level ``n`` is ``K``'s level ``n`` modulo the image of ``C``'s under
    :meth:`rho`, and the differential is ``K``'s. Homology in degree
    ``j`` is the relative group ``H^(j+1)(C, K)``.
    """

    def __init__(self, C: FinCat, K: FinCat, p: dict, D: NatSystem, normalized: bool, cap: int):
        self.of_c = CochainComplex(C, D, normalized, cap)
        self.of_k = CochainComplex(K, _pulled_system(K, D, p), normalized, cap)
        super().__init__(K, self.of_k.D, normalized, cap)
        self.p = p
        self._rho: dict = {}

    def check_sizes(self, degrees: Sequence[int]) -> None:
        self.of_c.check_sizes(degrees)
        self.of_k.check_sizes(degrees)

    def rho(self, n: int) -> list:
        """The restriction from ``C``'s level ``n`` to ``K``'s on generators."""
        if n not in self._rho:
            self._rho[n] = _rho_presented(self.of_c.level(n), self.of_k.level(n), self.p, n)
        return self._rho[n]

    def _build_level(self, n: int) -> _Level:
        return self.of_k.level(n).presented(self.rho(n))

    def d_presented(self, n: int) -> list:
        return self.of_k.d_presented(n)


def relative_cohomology(
    C: FinCat,
    K: FinCat,
    p: dict,
    D: NatSystem,
    degree: int,
) -> FgAbGroup:
    """Relative cohomology of ``p: K -> C`` in the given degree.

    The projection must fix objects and be surjective on morphisms; the
    relative groups are the cohomology of the cokernel of the cochain
    restriction, shifted up by one degree so the long exact sequence
    reads ``0 -> H^0(C) -> H^0(K) -> H^1(C,K) -> H^1(C) -> ...``.
    Degree ``n`` uses normalized chains exactly when ``n - 1 > 2``, as
    :func:`cohomology` does in degree ``n - 1``, and refuses levels above
    ``DEFAULT_GENERATOR_CAP`` generators.
    """
    if degree < 1:
        raise ValueError("relative cohomology starts in degree 1")
    if degree > MAX_RELATIVE_DEGREE:
        raise DegreeTooHigh(
            f"relative cohomology is implemented for degree <= {MAX_RELATIVE_DEGREE}, got {degree}"
        )
    validate_projection(C, K, p)
    j = degree - 1
    cx = _QuotientComplex(C, K, p, D, j > 2, DEFAULT_GENERATOR_CAP)
    cx.check_sizes(range(max(j - 1, 0), j + 2))
    return cx.homology(j).group


def les_report(
    C: FinCat,
    K: FinCat,
    p: dict,
    D: NatSystem,
    max_degree: int = 2,
) -> Report:
    """Exactness of the long sequence relating ``C``, ``K``, and the pair.

    Builds ``H^j(C) -> H^j(K) -> H^(j+1)(C,K) -> H^(j+1)(C)`` maps from
    explicit cocycle representatives and checks exactness at every node
    up to the requested degree, which runs from 0 to 3 as in
    :func:`cohomology`. Every degree uses full chains, and levels above
    ``DEFAULT_GENERATOR_CAP`` generators are refused.
    """
    _check_degree(max_degree, "the long exact sequence is")
    validate_projection(C, K, p)
    r = Report(title=f"long exact sequence: {C.name} relative {K.name}")
    cxQ = _QuotientComplex(C, K, p, D, False, DEFAULT_GENERATOR_CAP)
    cxC, cxK = cxQ.of_c, cxQ.of_k
    cxQ.check_sizes(range(max_degree + 2))
    HC = {j: cxC.homology(j) for j in range(max_degree + 1)}
    HK = {j: cxK.homology(j) for j in range(max_degree + 1)}
    HQ = {j: cxQ.homology(j) for j in range(max_degree)}

    def induced(hsrc: HomologyResult, hdst: HomologyResult, push: Callable) -> AbMap:
        cols = []
        for i in range(hsrc.group.ngens):
            rep = hsrc.representative(hsrc.group.generator(i))
            cols.append(hdst.express(push(rep)))
        return AbMap.from_columns(hsrc.group, hdst.group, cols)

    def push_a(j):
        return lambda rep: cxK.level(j).to_group(mat_vec(cxQ.rho(j), cxC.level(j).from_group(rep)))

    def push_b(j):
        return lambda rep: cxQ.level(j).to_group(cxK.level(j).from_group(rep))

    def push_delta(j):
        # Level j + 1 of the quotient is factored with the restriction's
        # columns last, so the solution's tail is a cochain on C.
        lq, dK, lqn, lcn = cxQ.level(j), cxK.d_presented(j), cxQ.level(j + 1), cxC.level(j + 1)

        def go(rep):
            sol = lqn.factored.solve(mat_vec(dK, lq.from_group(rep)))
            if sol is None:
                raise ValueError("boundary of a lifted relative cocycle escapes the image")
            return lcn.to_group(sol[len(sol) - lcn.ngens :])

        return go

    amaps = {j: induced(HC[j], HK[j], push_a(j)) for j in range(max_degree + 1)}
    bmaps = {j: induced(HK[j], HQ[j], push_b(j)) for j in range(max_degree)}
    dmaps = {j: induced(HQ[j], HC[j + 1], push_delta(j)) for j in range(max_degree)}

    kern, _ = amaps[0].kernel()
    r.add("restriction injective in degree 0", kern.is_trivial(), kern.describe())
    for j in range(max_degree):
        r.add(f"exact at H^{j}(K)", *exact_at(amaps[j], bmaps[j]))
        r.add(f"exact at H^{j + 1}(C, K)", *exact_at(bmaps[j], dmaps[j]))
        r.add(f"exact at H^{j + 1}(C)", *exact_at(dmaps[j], amaps[j + 1]))
    for j in range(max_degree + 1):
        r.note(f"H^{j}(C) = {HC[j].group.describe()}, H^{j}(K) = {HK[j].group.describe()}")
    for j in range(max_degree):
        r.note(f"H^{j + 1}(C, K) = {HQ[j].group.describe()}")
    return r


# ---------------------------------------------------------------------------
# Bar-complex oracle for one-object cyclic categories
# ---------------------------------------------------------------------------

def bar_cohomology(modulus: int, degree: int) -> FgAbGroup:
    """Cohomology of the cyclic group ``Z/m`` with constant ``Z/m``
    coefficients, straight from the full bar complex.

    Written independently of the category machinery so the two can be
    compared: cochains are plain value tables over group tuples.

    >>> bar_cohomology(2, 2).describe()
    'Z/2'
    """
    _check_degree(degree, "the bar oracle is")
    m = modulus

    def level(n):
        count = m ** n
        return FgAbGroup((m,) * count), list(itertools.product(range(m), repeat=n))

    def d_matrix(n):
        src_grp, src_keys = level(n)
        tgt_grp, tgt_keys = level(n + 1)
        index = {k: i for i, k in enumerate(src_keys)}
        M = zeros(len(tgt_keys), len(src_keys))
        for row, t in enumerate(tgt_keys):
            M[row][index[t[1:]]] += 1
            for i in range(1, n + 1):
                merged = t[: i - 1] + ((t[i - 1] + t[i]) % m,) + t[i + 1 :]
                M[row][index[merged]] += (-1) ** i
            M[row][index[t[:-1]]] += (-1) ** (n + 1)
        return AbMap(src_grp, tgt_grp, M)

    d_out = d_matrix(degree)
    if degree == 0:
        d_in = AbMap.zero_map(FgAbGroup.trivial(), d_out.source)
    else:
        d_in = d_matrix(degree - 1)
    return homology_at(d_in, d_out).group


def one_object_cyclic(m: int) -> FinCat:
    """The additive group ``Z/m`` as a one-object category.

    >>> one_object_cyclic(3).morphisms
    (0, 1, 2)
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    return FinCat.from_monoid(
        range(m), lambda a, b: (a + b) % m, 0, name=f"Z/{m} (one object)"
    )
