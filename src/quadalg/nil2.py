"""Groups of nilpotency class two, square groups and quadratic pair modules.

A square group is a diagram ``H: e -> ee, P: ee -> e`` where ``e`` is a
group of nilpotency class at most two, ``ee`` is abelian, ``P`` is a
homomorphism, and ``H`` is a quadratic function subject to three laws:

* ``(Pa | y)_H = 0``
* ``P((x | y)_H) = -x - y + x + y``
* ``P(H(P(a))) = P(a) + P(a)``

with ``(x | y)_H = H(x + y) - H(y) - H(x)`` the cross effect of ``H``.
Carriers are explicit group implementations; all arithmetic is exact.

The module holds the carriers (direct sums and the free word models), the
law driver that every verifier runs its identities through, the
square-group verifier and the quadratic pair modules with their verifier.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .abelian import DEFAULT_ENUM_BOUND, FgAbGroup, draw_below, draw_sample
from .errors import BasisMismatch, NotFinite, TooLarge
from .reports import Report


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------

class Carrier:
    """A group of nilpotency class at most two with explicit elements.

    Subclasses provide five methods; everything else (``sub``,
    ``commutator``, ``scalar``, ``sum``, ``is_zero``) is derived:

    * ``zero()`` the neutral element,
    * ``add(a, b)`` the group law, written additively but not commutative,
    * ``neg(a)`` the inverse,
    * ``sample(rng)`` a random element drawn from ``rng``,
    * ``elements()`` every element, or ``NotFinite`` on an infinite group
      and ``TooLarge`` on one of more than ``DEFAULT_ENUM_BOUND`` elements.

    Elements are canonical hashable values, so ``==`` is equality in the
    group.

    The word carriers ``FreeNil2Carrier``, ``FreeAbelianCarrier`` and
    ``FreePairsCarrier`` override ``sum``, the last two also ``sub``, so
    that a result is canonicalised once.

    A finitely generated abelian group is its own carrier:
    :class:`~quadalg.abelian.FgAbGroup` has every method listed here, with
    coordinate tuples as elements and a zero commutator.

    The law driver draws a tuple whose slots are all one-coordinate
    ``FgAbGroup``s in one loop, without calling ``sample``, and every
    other tuple slot by slot, through each carrier's ``sample``.
    """

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def elements(self) -> list:
        """All elements, or raise ``NotFinite`` / ``TooLarge``."""
        raise NotImplementedError

    # -- derived operations --------------------------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def commutator(self, a, b):
        """``-b - a + b + a``, trivial exactly when ``a`` and ``b`` commute."""
        return self.add(self.add(self.neg(b), self.neg(a)), self.add(b, a))

    def scalar(self, n: int, a):
        if n < 0:
            return self.neg(self.scalar(-n, a))
        out = self.zero()
        for _ in range(n):
            out = self.add(out, a)
        return out

    def sum(self, items: Iterable):
        out = self.zero()
        for x in items:
            out = self.add(out, x)
        return out

    def is_zero(self, a) -> bool:
        return a == self.zero()


class DirectSumCarrier(Carrier):
    """Componentwise structure on pairs drawn from two carriers."""

    def __init__(self, left: Carrier, right: Carrier):
        self.left = left
        self.right = right

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def sample(self, rng: random.Random):
        return (self.left.sample(rng), self.right.sample(rng))

    def elements(self) -> list:
        ls = self.left.elements()
        rs = self.right.elements()
        n = len(ls) * len(rs)
        if n > DEFAULT_ENUM_BOUND:
            raise TooLarge(f"direct sum has {n} elements, bound {DEFAULT_ENUM_BOUND}")
        return [(a, b) for a in ls for b in rs]


# ---------------------------------------------------------------------------
# Free nilpotent groups of class two
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nil2Element:
    """Normal form ``sum n_s . s  +  central part`` in a free class-two group.

    ``linear`` maps basis symbols to integers and ``comm`` maps ordered
    symbol pairs ``(u, v)`` with ``u`` before ``v`` to integers; both are
    stored as sorted tuples with zero entries dropped.
    """

    linear: tuple[tuple[Hashable, int], ...]
    comm: tuple[tuple[tuple[Hashable, Hashable], int], ...]

    def linear_dict(self) -> dict:
        return dict(self.linear)

    def comm_dict(self) -> dict:
        return dict(self.comm)


def _fold_pairs(rank: dict, pairs: Iterable, out: dict) -> dict:
    """Add the terms ``((u, v), c)`` of ``pairs`` to ``out`` on strictly
    ordered pairs: ``c`` at ``(u, v)`` when ``u`` comes first in ``rank``,
    ``-c`` at ``(v, u)`` otherwise; a pair of equal words adds nothing.

    >>> _fold_pairs({"s": 0, "t": 1}, [(("t", "s"), 2), (("s", "s"), 5), (("s", "t"), 1)], {})
    {('s', 't'): -1}
    """
    for (u, v), c in pairs:
        if u == v:
            continue
        if rank[u] < rank[v]:
            out[(u, v)] = out.get((u, v), 0) + c
        else:
            out[(v, u)] = out.get((v, u), 0) - c
    return out


class FreeNil2Carrier(Carrier):
    """The free group of nilpotency class two on an ordered symbol list.

    The normal form lists basis symbols in the given order followed by a
    central word in the basic commutators. The commutator of two basis
    symbols ``u`` before ``v`` is ``-u - v + u + v``, stored as ``-1``
    times the ``(u, v)`` coordinate of the central part. ``sample`` only
    draws the symbols in ``pool``:

    >>> c = FreeNil2Carrier(["s", "t"], ["s", "t"])
    >>> x = c.atom("s"); y = c.atom("t")
    >>> c.commutator(y, x).comm       # -x - y + x + y
    ((('s', 't'), -1),)
    >>> c.add(y, x).linear            # t + s reordered picks up a twist
    (('s', 1), ('t', 1))
    >>> c.add(y, x).comm
    ((('s', 't'), 1),)
    """

    def __init__(self, symbols: Sequence[Hashable], pool: Sequence[Hashable]):
        self.symbols = list(symbols)
        self.pool = list(pool)
        self._rank = {s: i for i, s in enumerate(self.symbols)}
        if len(self._rank) != len(self.symbols):
            raise ValueError("symbols are not distinct")

    # -- construction ----------------------------------------------------

    def make(self, linear: dict | None = None, comm: dict | None = None) -> Nil2Element:
        """Canonical element from coefficient dictionaries.

        Raises ``BasisMismatch`` on unknown symbols or unordered pairs.
        Terms are sorted as ``(rank, ..., key, n)`` tuples, whose ranks
        differ, so that no two keys are ever compared.
        """
        rank = self._rank.get
        lin = []
        for s, n in (linear or {}).items():
            r = rank(s)
            if r is None:
                raise BasisMismatch(f"unknown symbol {s!r}")
            if n:
                lin.append((r, s, n))
        cm = []
        for p, n in (comm or {}).items():
            u, v = p
            ru, rv = rank(u), rank(v)
            if ru is None or rv is None:
                raise BasisMismatch(f"unknown symbol pair ({u!r}, {v!r})")
            if ru >= rv:
                raise BasisMismatch(f"pair ({u!r}, {v!r}) is not strictly ordered")
            if n:
                cm.append((ru, rv, p, n))
        lin.sort()
        cm.sort()
        return Nil2Element(
            tuple([(s, n) for _, s, n in lin]), tuple([(p, n) for _, _, p, n in cm])
        )

    def atom(self, symbol: Hashable) -> Nil2Element:
        return self.make({symbol: 1})

    # -- group operations -------------------------------------------------

    def zero(self):
        return Nil2Element((), ())

    def add(self, a: Nil2Element, b: Nil2Element) -> Nil2Element:
        la, lb = a.linear_dict(), b.linear_dict()
        lin = dict(la)
        for s, n in lb.items():
            lin[s] = lin.get(s, 0) + n
        cm = a.comm_dict()
        for p, n in b.comm:
            cm[p] = cm.get(p, 0) + n
        # moving b's symbols left past a's later symbols creates commutators
        for u, m in lb.items():
            ru = self._rank[u]
            for v, n in la.items():
                if ru < self._rank[v]:
                    cm[(u, v)] = cm.get((u, v), 0) + m * n
        return self.make(lin, cm)

    def sum(self, items: Iterable) -> Nil2Element:
        """The ordered sum in one ``make``: each term picks up ``add``'s
        commutator corrections against the linear part summed before it."""
        rank = self._rank
        lin, cm = {}, {}
        for b in items:
            for u, m in b.linear:
                ru = rank[u]
                for v, n in lin.items():
                    if ru < rank[v]:
                        cm[(u, v)] = cm.get((u, v), 0) + m * n
            for s, n in b.linear:
                lin[s] = lin.get(s, 0) + n
            for p, n in b.comm:
                cm[p] = cm.get(p, 0) + n
        return self.make(lin, cm)

    def neg(self, a: Nil2Element) -> Nil2Element:
        la = a.linear_dict()
        lin = {s: -n for s, n in la.items()}
        cm = {p: -n for p, n in a.comm}
        for u, m in la.items():
            ru = self._rank[u]
            for v, n in la.items():
                if ru < self._rank[v]:
                    cm[(u, v)] = cm.get((u, v), 0) + m * n
        return self.make(lin, cm)

    def sample(self, rng: random.Random):
        """Up to three pool symbols and two pool commutators, coefficients
        in ``-3..3``; each bounded draw equals ``rng.randint``'s and each
        draw of symbols ``rng.sample``'s."""
        pool = self.pool
        lin = {}
        for s in draw_sample(rng, pool, min(len(pool), draw_below(rng, 4))):
            lin[s] = -3 + draw_below(rng, 7)
        cm = {}
        if len(pool) >= 2:
            for _ in range(draw_below(rng, 3)):
                u, v = sorted(draw_sample(rng, pool, 2), key=self._rank.get)
                cm[(u, v)] = -3 + draw_below(rng, 7)
        return self.make(lin, cm)

    def elements(self) -> list:
        raise NotFinite("free class-two group is infinite")


class FreeAbelianCarrier(Carrier):
    """The free abelian group on an ordered symbol list.

    Elements are sorted coefficient tuples ``((symbol, n), ...)`` with
    zero coefficients dropped; ``sample`` only draws the symbols in
    ``pool``.

    >>> c = FreeAbelianCarrier(["s", "t"], ["s", "t"])
    >>> c.add(c.atom("s"), c.atom("s"))
    (('s', 2),)
    """

    def __init__(self, symbols: Sequence[Hashable], pool: Sequence[Hashable]):
        self.symbols = list(symbols)
        self.pool = list(pool)
        self._rank = {s: i for i, s in enumerate(self.symbols)}
        if len(self._rank) != len(self.symbols):
            raise ValueError("symbols are not distinct")

    def make(self, coeffs: dict) -> tuple:
        """Canonical element from a coefficient dictionary, sorted as
        ``FreeNil2Carrier.make`` sorts; ``BasisMismatch`` on unknown symbols."""
        rank = self._rank.get
        out = []
        for s, n in coeffs.items():
            r = rank(s)
            if r is None:
                raise BasisMismatch(f"unknown symbol {s!r}")
            if n:
                out.append((r, s, n))
        out.sort()
        return tuple([(s, n) for _, s, n in out])

    def atom(self, symbol: Hashable, n: int = 1) -> tuple:
        return self.make({symbol: n})

    def zero(self):
        return ()

    def add(self, a, b):
        out = dict(a)
        for s, n in b:
            out[s] = out.get(s, 0) + n
        return self.make(out)

    def sum(self, items: Iterable) -> tuple:
        out: dict = {}
        for a in items:
            for s, n in a:
                out[s] = out.get(s, 0) + n
        return self.make(out)

    def sub(self, a, b) -> tuple:
        out = dict(a)
        for s, n in b:
            out[s] = out.get(s, 0) - n
        return self.make(out)

    def neg(self, a):
        return self.make({s: -n for s, n in a})

    def sample(self, rng: random.Random):
        """Up to three pool symbols, coefficients in ``-3..3``; each bounded
        draw equals ``rng.randint``'s and the draw of symbols
        ``rng.sample``'s."""
        out = {}
        for s in draw_sample(rng, self.pool, min(len(self.pool), draw_below(rng, 4))):
            out[s] = -3 + draw_below(rng, 7)
        return self.make(out)

    def elements(self) -> list:
        raise NotFinite("free abelian group on symbols is infinite")


class FreePairsCarrier(FreeAbelianCarrier):
    """The free abelian group on ordered pairs of basis symbols.

    Elements are sorted coefficient tuples over pairs ``(u, v)``; here the
    pairs are arbitrary (no ordering constraint), matching a tensor square
    of the free abelian group on the symbols. ``sample`` draws both
    entries of a pair from ``pool``.

    >>> c = FreePairsCarrier(["s", "t"], ["s", "t"])
    >>> c.add(c.pair("s", "t"), c.pair("s", "t", 2))
    ((('s', 't'), 3),)
    """

    def make(self, coeffs: dict) -> tuple:
        """Canonical element from a coefficient dictionary over pairs,
        sorted as ``FreeNil2Carrier.make`` sorts; ``BasisMismatch`` on
        unknown symbols."""
        rank = self._rank.get
        out = []
        for p, n in coeffs.items():
            u, v = p
            ru, rv = rank(u), rank(v)
            if ru is None or rv is None:
                raise BasisMismatch(f"unknown symbol pair ({u!r}, {v!r})")
            if n:
                out.append((ru, rv, p, n))
        out.sort()
        return tuple([(p, n) for _, _, p, n in out])

    def pair(self, u: Hashable, v: Hashable, n: int = 1) -> tuple:
        return self.make({(u, v): n})

    def sample(self, rng: random.Random):
        """Up to three pool pairs, coefficients in ``-3..3``; each draw
        equals ``rng.randint``'s or, for a pair's entry, ``rng.choice``'s."""
        return self.make(self.draw_coeffs(rng))

    def draw_coeffs(self, rng: random.Random) -> dict:
        """The coefficient dictionary that :meth:`sample` makes into an
        element, zero coefficients included."""
        pool = self.pool
        out = {}
        for _ in range(draw_below(rng, 4)):
            u = pool[draw_below(rng, len(pool))]
            v = pool[draw_below(rng, len(pool))]
            out[(u, v)] = out.get((u, v), 0) - 3 + draw_below(rng, 7)
        return out


# ---------------------------------------------------------------------------
# Square groups and the law driver
# ---------------------------------------------------------------------------

@dataclass
class SquareGroup:
    """Carriers ``e`` and ``ee`` with structure maps ``H`` and ``P``."""

    e: Carrier
    ee: Carrier
    H: Callable
    P: Callable
    name: str = "square group"

    def cross(self, x, y):
        """The cross effect ``(x | y)_H = H(x + y) - H(y) - H(x)``."""
        return self.ee.sub(self.ee.sub(self.H(self.e.add(x, y)), self.H(y)), self.H(x))

    def tmap(self, a):
        """``T = H P - Id`` on ``ee``; an involution on any square group."""
        return self.ee.sub(self.H(self.P(a)), a)

    def delta(self, x):
        """``Delta(x) = T(H(x)) - H(x) + (x | x)_H``; additive in ``x``."""
        h = self.H(x)
        return self.ee.add(self.ee.sub(self.tmap(h), h), self.cross(x, x))

    def bracket(self, x, y):
        """``[x, y] = -x - y + x + y`` in ``e``."""
        return self.e.commutator(y, x)


@dataclass
class SgMorphism:
    """A pair of structure-preserving maps between square groups."""

    e: Callable
    ee: Callable


def _finite_elements(carrier: Carrier) -> list | None:
    try:
        return carrier.elements()
    except (NotFinite, TooLarge):
        return None


def _tuples(carriers: Sequence[Carrier], samples: int, rng: random.Random) -> Iterator[tuple]:
    """Either every tuple from the product of the carriers or ``samples``
    tuples drawn from ``rng``, one slot after another, each drawn as the
    slot's ``sample`` draws it; the draws are made as the iterator is read."""
    pools = [_finite_elements(c) for c in carriers]
    total = 1
    for p in pools:
        total = total * len(p) if p is not None else 0
    if all(p is not None for p in pools) and 0 < total <= DEFAULT_ENUM_BOUND:
        return itertools.product(*pools)
    if (all(type(c) is FgAbGroup and c.ngens == 1 for c in carriers)
            and sum(c._draws[0][1] for c in carriers) <= samples):
        return _group_tuples(carriers, samples, rng)
    samplers = [c.sample for c in carriers]
    return (tuple([draw(rng) for draw in samplers]) for _ in range(samples))


def _group_tuples(
    groups: Sequence[FgAbGroup], samples: int, rng: random.Random
) -> Iterator[tuple]:
    """``samples`` tuples of elements of one-coordinate ``groups``, drawn in
    one loop with the bits of ``FgAbGroup.sample`` per slot. Each draw
    picks its element from a table of the slot's values, which is why
    :func:`_tuples` sends here only slots with no more values in all than
    there are samples."""
    getrandbits = rng.getrandbits
    tables = [
        (tuple((start + r,) for r in range(width)), width, bits)
        for g in groups
        for start, width, bits in g._draws
    ]
    for _ in range(samples):
        t = []
        for elements, width, bits in tables:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            t.append(elements[r])
        yield tuple(t)


def counterexample(
    carriers: Sequence[Carrier], holds: Callable[..., bool], samples: int, rng: random.Random
) -> tuple | None:
    """The first tuple from :func:`_tuples`, in draw order, on which ``holds`` fails, or ``None``.

    ``samples`` must be at least 1, even where the carriers are
    enumerated, and is checked before any draw. Every tuple is drawn, as
    :func:`_tuples` draws it, before any is checked, so where a law fails
    never changes what later laws draw from ``rng``; each distinct tuple
    is checked once, at its first draw.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return next((t for t in dict.fromkeys(_tuples(carriers, samples, rng)) if not holds(*t)), None)


@dataclass(frozen=True)
class Law:
    """A named identity ``holds(*t)`` on tuples ``t`` drawn from ``carriers``.

    ``names`` labels the slots of a failing tuple in the witness, as in
    ``"x y z"``. A law made of several equations joins them with ``and``
    when a failed equation makes the later ones moot, and with ``&`` when
    every equation is evaluated on every tuple, so that an exception
    raised by any of them surfaces.
    """

    name: str
    carriers: Sequence[Carrier]
    holds: Callable[..., bool]
    names: str


def _witness(names: str, values: Sequence) -> str:
    return " ".join(f"{n}={v!r}" for n, v in zip(names.split(), values))


def check_laws(report: Report, laws: Iterable[Law], samples: int, rng: random.Random) -> None:
    """Add one check per law, in order, witnessed by its first failing tuple
    in draw order; every tuple is drawn by :func:`_tuples`, each distinct
    one checked once by :func:`counterexample`."""
    for law in laws:
        bad = counterexample(law.carriers, law.holds, samples, rng)
        report.add(law.name, bad is None, bad and _witness(law.names, bad))


def square_group_verify(
    sg: SquareGroup, samples: int = 1000, seed: int = 0
) -> Report:
    """Check the square-group laws, exhaustively on small finite carriers.

    The report lists the three defining laws plus the structural facts
    they rely on and a few derived identities that catch orientation
    mistakes early.
    """
    rng = random.Random(seed)
    e, ee, H, P = sg.e, sg.ee, sg.H, sg.P
    r = Report(title=f"square group: {sg.name}", samples=samples, seed=seed)
    check_laws(r, [
        Law("ee abelian", [ee, ee], lambda a, b: ee.add(a, b) == ee.add(b, a), "a b"),
        Law("e associative", [e, e, e],
            lambda x, y, z: e.add(e.add(x, y), z) == e.add(x, e.add(y, z)), "x y z"),
        Law("e inverses", [e],
            lambda x: e.is_zero(e.add(x, e.neg(x))) and e.is_zero(e.add(e.neg(x), x)), "x"),
        Law("e commutators central", [e, e, e],
            lambda x, y, z: e.add(k := e.commutator(x, y), z) == e.add(z, k), "x y z"),
        Law("conjugation x+y-x = y+[x,y]", [e, e],
            lambda x, y: e.add(e.add(x, y), e.neg(x)) == e.add(y, sg.bracket(x, y)), "x y"),
        Law("P additive", [ee, ee], lambda a, b: P(ee.add(a, b)) == e.add(P(a), P(b)), "a b"),
    ], samples, rng)
    r.add("H(0) = 0", ee.is_zero(H(e.zero())), f"H(0)={H(e.zero())!r}")
    bad = counterexample([ee, e], lambda a, y: ee.is_zero(sg.cross(P(a), y)), samples, rng)
    r.add("(Pa|y)_H = 0", bad is None,
          bad and f"{_witness('a y', bad)} cross={sg.cross(P(bad[0]), bad[1])!r}")
    check_laws(r, [
        Law("P(x|y)_H = [x,y]", [e, e], lambda x, y: P(sg.cross(x, y)) == sg.bracket(x, y), "x y"),
        Law("PHP = 2P", [ee], lambda a: P(H(pa := P(a))) == e.add(pa, pa), "a"),
        Law("T squares to identity", [ee], lambda a: sg.tmap(sg.tmap(a)) == a, "a"),
        Law("(y|x)_H = -T(x|y)_H", [e, e],
            lambda x, y: sg.cross(y, x) == ee.neg(sg.tmap(sg.cross(x, y))), "x y"),
        Law("Delta additive", [e, e],
            lambda x, y: sg.delta(e.add(x, y)) == ee.add(sg.delta(x), sg.delta(y)), "x y"),
        Law("P lands in the centre", [ee, e],
            lambda a, x: e.add(pa := P(a), x) == e.add(x, pa), "a x"),
    ], samples, rng)
    return r


# ---------------------------------------------------------------------------
# Quadratic pair modules
# ---------------------------------------------------------------------------

@dataclass
class Qpm:
    """A boundary ``d: c1 -> c0`` with shared quadratic part ``cee``.

    Both levels are square groups: the base with ``(H, d . P)`` and the
    fibre with ``(H . d, P)``.
    """

    c0: Carrier
    c1: Carrier
    cee: Carrier
    H: Callable
    P: Callable
    boundary: Callable
    name: str = "qpm"

    def level0(self) -> SquareGroup:
        return SquareGroup(
            e=self.c0,
            ee=self.cee,
            H=self.H,
            P=lambda a: self.boundary(self.P(a)),
            name=f"{self.name} level 0",
        )

    def level1(self) -> SquareGroup:
        return SquareGroup(
            e=self.c1,
            ee=self.cee,
            H=lambda x: self.H(self.boundary(x)),
            P=self.P,
            name=f"{self.name} level 1",
        )


def qpm_verify(Q: Qpm, samples: int = 500, seed: int = 0) -> Report:
    """Check that both levels are square groups plus the mixed laws."""
    rng = random.Random(seed)
    r = Report(title=f"quadratic pair module: {Q.name}", samples=samples, seed=seed)
    r.extend(square_group_verify(Q.level0(), samples, seed), prefix="level 0: ")
    r.extend(square_group_verify(Q.level1(), samples, seed), prefix="level 1: ")

    c0, c1, d = Q.c0, Q.c1, Q.boundary
    dph = lambda w: d(Q.P(Q.H(w)))
    check_laws(r, [
        Law("boundary additive", [c1, c1],
            lambda x, y: d(c1.add(x, y)) == c0.add(d(x), d(y)), "x y"),
        Law("H additive along boundary P images", [c0, Q.cee],
            lambda x, a: Q.H(c0.add(x, shift := d(Q.P(a)))) == Q.cee.add(Q.H(x), Q.H(shift)),
            "x a"),
        Law("PH crossed on boundary sums", [c1, c1],
            lambda x, y: Q.P(Q.H(c0.add(d(x), d(y))))
            == c1.add(c1.add(Q.P(Q.H(d(x))), Q.P(Q.H(d(y)))), c1.commutator(y, x)),
            "x y"),
        Law("dPH crossed on sums", [c0, c0],
            lambda x, y: dph(c0.add(x, y)) == c0.add(c0.add(dph(x), dph(y)), c0.commutator(y, x)),
            "x y"),
    ], samples, rng)

    elements = _finite_elements(Q.c1)
    if elements is None:
        r.note("kernel centrality skipped on infinite carriers")
    else:
        kernel = [x for x in elements if Q.c0.is_zero(Q.boundary(x))]
        for k in kernel:
            bad = next(
                (x for x in elements if Q.c1.add(k, x) != Q.c1.add(x, k)),
                None,
            )
            if bad is not None:
                r.add("kernel of boundary is central", False, f"k={k!r} x={bad!r}")
                break
        else:
            r.add("kernel of boundary is central", True)
    return r
