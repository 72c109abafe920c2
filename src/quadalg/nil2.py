"""Groups of nilpotency class two, square groups, and their morphisms.

A square group is a diagram ``H: e -> ee, P: ee -> e`` where ``e`` is a
group of nilpotency class at most two, ``ee`` is abelian, ``P`` is a
homomorphism, and ``H`` is a quadratic function subject to three laws:

* ``(Pa | y)_H = 0``
* ``P((x | y)_H) = -x - y + x + y``
* ``P(H(P(a))) = P(a) + P(a)``

with ``(x | y)_H = H(x + y) - H(y) - H(x)`` the cross effect of ``H``.
Carriers are explicit group implementations; all arithmetic is exact.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .abelian import (
    DEFAULT_ENUM_BOUND,
    FgAbGroup,
    draw_below,
    draw_sample,
    finite_abelian_invariants,
)
from .errors import (
    ActionShapeMismatch,
    BasisMismatch,
    NotAQpm,
    NotASection,
    NotEeAntidiscrete,
    NotExact,
    NotFinite,
    TooLarge,
)
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


class TwistedProductCarrier(DirectSumCarrier):
    """Pairs ``(g, x)`` with addition twisted by a central cocycle.

    ``(g, x) + (h, y) = (g + h, x + y + twist(x, h))`` where ``twist``
    lands in the centre of the second factor and is biadditive. Used to
    realize semidirect sums; the biadditivity itself is validated by the
    square-group verifier, not here.
    """

    def __init__(self, left: Carrier, right: Carrier, twist: Callable):
        super().__init__(left, right)
        self.twist = twist

    def add(self, a, b):
        g, x = a
        h, y = b
        return (
            self.left.add(g, h),
            self.right.add(self.right.add(x, y), self.twist(x, h)),
        )

    def neg(self, a):
        g, x = a
        return (self.left.neg(g), self.right.add(self.right.neg(x), self.twist(x, g)))


class SubgroupCarrier(Carrier):
    """A subgroup of a finite carrier given by its element list."""

    def __init__(self, parent: Carrier, members: Sequence):
        self.parent = parent
        self._members = list(members)
        member_set = set(self._members)
        if len(member_set) != len(self._members):
            raise ValueError("subgroup members are not distinct")
        if parent.zero() not in member_set:
            raise ValueError("subgroup does not contain zero")
        for a in self._members:
            if parent.neg(a) not in member_set:
                raise ValueError(f"subgroup not closed under negation at {a!r}")
            for b in self._members:
                if parent.add(a, b) not in member_set:
                    raise ValueError(f"subgroup not closed under addition at ({a!r}, {b!r})")

    def zero(self):
        return self.parent.zero()

    def add(self, a, b):
        return self.parent.add(a, b)

    def neg(self, a):
        return self.parent.neg(a)

    def sample(self, rng: random.Random):
        """A member; the draw equals ``rng.choice(members)``."""
        return self._members[draw_below(rng, len(self._members))]

    def elements(self) -> list:
        n = len(self._members)
        if n > DEFAULT_ENUM_BOUND:
            raise TooLarge(f"subgroup has {n} elements, bound {DEFAULT_ENUM_BOUND}")
        return list(self._members)


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
# Square groups
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
    name: str = ""


def _finite_elements(carrier: Carrier) -> list | None:
    try:
        return carrier.elements()
    except (NotFinite, TooLarge):
        return None


def _coset_labels(elements: list, add: Callable, image: Iterable) -> tuple[dict, list]:
    """Label each of ``elements`` by the first listed element of its coset
    ``x + image``; return the labels and the distinct labels in listing order."""
    position = {x: i for i, x in enumerate(elements)}
    labels = {x: min((add(x, w) for w in image), key=position.__getitem__) for x in elements}
    return labels, sorted(set(labels.values()), key=position.__getitem__)


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


def morphism_verify(
    dom: SquareGroup, cod: SquareGroup, f: SgMorphism, samples: int = 500, seed: int = 0
) -> Report:
    """Check that ``f`` preserves addition and commutes with ``H`` and ``P``."""
    rng = random.Random(seed)
    r = Report(
        title=f"morphism: {f.name or dom.name + ' -> ' + cod.name}",
        samples=samples,
        seed=seed,
    )
    check_laws(r, [
        Law("e-level additive", [dom.e, dom.e],
            lambda x, y: f.e(dom.e.add(x, y)) == cod.e.add(f.e(x), f.e(y)), "x y"),
        Law("ee-level additive", [dom.ee, dom.ee],
            lambda a, b: f.ee(dom.ee.add(a, b)) == cod.ee.add(f.ee(a), f.ee(b)), "a b"),
        Law("commutes with H", [dom.e], lambda x: f.ee(dom.H(x)) == cod.H(f.e(x)), "x"),
        Law("commutes with P", [dom.ee], lambda a: f.e(dom.P(a)) == cod.P(f.ee(a)), "a"),
    ], samples, rng)
    return r


def morphism_is_bijective(dom: SquareGroup, cod: SquareGroup, f: SgMorphism) -> bool:
    """Bijectivity on both levels, for finite carriers only."""
    for (src, tgt, fn) in [(dom.e, cod.e, f.e), (dom.ee, cod.ee, f.ee)]:
        source = src.elements()
        images = {fn(x) for x in source}
        if len(images) != len(source) or images != set(tgt.elements()):
            return False
    return True


# ---------------------------------------------------------------------------
# Semidirect sums and splittings
# ---------------------------------------------------------------------------

def semidirect(
    G: SquareGroup,
    A: SquareGroup,
    action: Callable,
) -> SquareGroup:
    """The semidirect sum of ``G`` acting on ``A`` through ``action``.

    ``action(x, g)`` takes ``x`` in ``A.e`` and ``g`` in ``G.e`` to
    ``A.ee``; it must be biadditive and must kill ``P``-images in either
    slot, since it only depends on the abelianized quotients. Violations
    raise ``ActionShapeMismatch`` with a witness.

    The result has elements ``(g, x)`` with addition twisted by
    ``P(action(x, h))`` and ``H(g, x) = (H(g), H(x) - T(action(x, g)))``.
    """
    rng = random.Random(0)
    for law in [
        Law("action not additive in the module slot", [A.e, A.e, G.e],
            lambda x, y, g: action(A.e.add(x, y), g) == A.ee.add(action(x, g), action(y, g)),
            "x y g"),
        Law("action not additive in the group slot", [A.e, G.e, G.e],
            lambda x, g, h: action(x, G.e.add(g, h)) == A.ee.add(action(x, g), action(x, h)),
            "x g h"),
        Law("action does not kill P-images on the left", [A.ee, G.e],
            lambda a, g: A.ee.is_zero(action(A.P(a), g)), "a g"),
        Law("action does not kill P-images on the right", [A.e, G.ee],
            lambda x, u: A.ee.is_zero(action(x, G.P(u))), "x u"),
    ]:
        bad = counterexample(law.carriers, law.holds, 400, rng)
        if bad is not None:
            raise ActionShapeMismatch(f"{law.name}: {_witness(law.names, bad)}")

    e = TwistedProductCarrier(G.e, A.e, lambda x, h: A.P(action(x, h)))
    ee = DirectSumCarrier(G.ee, A.ee)

    def H(el):
        g, x = el
        return (G.H(g), A.ee.sub(A.H(x), A.tmap(action(x, g))))

    def P(c):
        u, a = c
        return (G.P(u), A.P(a))

    return SquareGroup(e=e, ee=ee, H=H, P=P, name=f"{G.name} |x {A.name}")


@dataclass
class SplitExtension:
    """A reconstructed action together with the comparison isomorphism."""

    action: Callable
    total: SquareGroup
    iso: SgMorphism


def splitting_to_action(
    B: SquareGroup,
    G: SquareGroup,
    A: SquareGroup,
    include: SgMorphism,
    section: SgMorphism,
    retract: SgMorphism,
) -> SplitExtension:
    """Recover the action from a split inclusion ``A -> B`` over ``G``.

    ``include: A -> B`` and ``section: G -> B`` are square-group
    morphisms, ``retract: B -> G`` satisfies ``retract . section = id``
    (else ``NotASection``). The kernel of ``retract`` must coincide with
    the image of ``include`` on both levels (else ``NotExact``). The
    action is ``action(x, g) = include_ee^(-1)((include(x) | section(g))_H)``
    and the returned isomorphism sends ``(g, x)`` to
    ``section(g) + include(x)``.

    All carriers must be finite; a carrier too large to enumerate raises
    its own error.
    """
    for g in G.e.elements():
        if retract.e(section.e(g)) != g:
            raise NotASection(f"retract(section(g)) != g at g={g!r}")
    for u in G.ee.elements():
        if retract.ee(section.ee(u)) != u:
            raise NotASection(f"retract(section(u)) != u at u={u!r} on ee")

    a_elements = A.e.elements()
    image_e = {}
    for x in a_elements:
        y = include.e(x)
        if y in image_e:
            raise NotExact(f"inclusion is not injective: {x!r} and {image_e[y]!r} collide")
        image_e[y] = x
    kernel_e = {b for b in B.e.elements() if G.e.is_zero(retract.e(b))}
    if set(image_e) != kernel_e:
        stray = (kernel_e - set(image_e)) or (set(image_e) - kernel_e)
        raise NotExact(f"kernel of the retraction differs from the image at {next(iter(stray))!r}")

    image_ee = {}
    for a in A.ee.elements():
        c = include.ee(a)
        if c in image_ee:
            raise NotExact(f"inclusion is not injective on ee: {a!r} collides")
        image_ee[c] = a

    def action(x, g):
        value = B.cross(include.e(x), section.e(g))
        if value not in image_ee:
            raise NotExact(f"cross effect {value!r} escapes the included ee part")
        return image_ee[value]

    total = semidirect(G, A, action)

    def iso_e(el):
        g, x = el
        return B.e.add(section.e(g), include.e(x))

    def iso_ee(c):
        u, a = c
        return B.ee.add(section.ee(u), include.ee(a))

    return SplitExtension(
        action=action,
        total=total,
        iso=SgMorphism(e=iso_e, ee=iso_ee, name=f"{total.name} -> {B.name}"),
    )


def crossed_square_group_verify(
    G: SquareGroup,
    A: SquareGroup,
    action: Callable,
    boundary: SgMorphism,
    samples: int = 400,
    seed: int = 0,
) -> Report:
    """Check a boundary ``A -> G`` equivariant for the action.

    Beyond both square-group structures and the action shape this checks
    the two compatibility laws
    ``boundary_ee(action(x, g)) = (boundary(x) | g)_H`` and
    ``action(x, boundary(y)) = (x | y)_H``.
    """
    rng = random.Random(seed)
    r = Report(title=f"crossed square group: {A.name} -> {G.name}", samples=samples, seed=seed)
    r.extend(square_group_verify(G, samples, seed), prefix="base: ")
    r.extend(square_group_verify(A, samples, seed), prefix="fibre: ")
    r.extend(morphism_verify(A, G, boundary, samples, seed), prefix="boundary: ")
    check_laws(r, [
        Law("boundary of action is a cross effect", [A.e, G.e],
            lambda x, g: boundary.ee(action(x, g)) == G.cross(boundary.e(x), g), "x g"),
        Law("action along the boundary is the cross effect", [A.e, A.e],
            lambda x, y: action(x, boundary.e(y)) == A.cross(x, y), "x y"),
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


def qpm_homology(Q: Qpm) -> tuple[FgAbGroup, FgAbGroup]:
    """``(cokernel of d, kernel of d)`` as abelian groups, by enumeration.

    Raises ``NotAQpm`` when the data fails to be a quadratic pair module
    in a way the enumeration notices (non-normal image, non-central
    kernel, non-abelian cokernel).
    """
    c0 = Q.c0.elements()
    c1 = Q.c1.elements()
    image = {Q.boundary(x) for x in c1}
    for g in c0:
        for w in image:
            conj = Q.c0.add(Q.c0.add(g, w), Q.c0.neg(g))
            if conj not in image:
                raise NotAQpm(f"image of the boundary is not normal at {w!r} conjugated by {g!r}")
    labels, classes = _coset_labels(c0, Q.c0.add, image)
    for g in c0:
        for h in c0:
            left = labels[Q.c0.add(g, h)]
            right = labels[Q.c0.add(h, g)]
            if left != right:
                raise NotAQpm(f"cokernel is not abelian at ({g!r}, {h!r})")

    def coker_add(u, v):
        return labels[Q.c0.add(u, v)]

    h0 = finite_abelian_invariants(classes, coker_add, labels[Q.c0.zero()])

    kernel = [x for x in c1 if Q.c0.is_zero(Q.boundary(x))]
    for k in kernel:
        for x in c1:
            if Q.c1.add(k, x) != Q.c1.add(x, k):
                raise NotAQpm(f"kernel element {k!r} is not central against {x!r}")
    h1 = finite_abelian_invariants(kernel, Q.c1.add, Q.c1.zero())
    return FgAbGroup(h0), FgAbGroup(h1)


# ---------------------------------------------------------------------------
# The groupoid attached to a quadratic pair module
# ---------------------------------------------------------------------------

@dataclass
class SquareGroupoid:
    """A groupoid internal to square groups.

    Arrows and objects are square groups, ``source``/``target``/``unit``
    are morphisms, and ``compose`` pastes arrows diagrammatically (the
    first argument is traversed first).
    """

    obj: SquareGroup
    arr: SquareGroup
    source: SgMorphism
    target: SgMorphism
    unit: SgMorphism
    compose: Callable

    def composable(self, f, g) -> bool:
        return self.target.e(f) == self.source.e(g)


def qpm_to_groupoid(Q: Qpm) -> SquareGroupoid:
    """Arrows ``(g, x)`` from ``g`` to ``g + d(x)`` with twisted addition.

    The arrow square group is the semidirect sum of level 0 acting on
    level 1 through ``action(x, g) = (d(x) | g)_H``.
    """
    level0 = Q.level0()
    level1 = Q.level1()
    arr = semidirect(level0, level1, lambda x, g: level0.cross(Q.boundary(x), g))

    source = SgMorphism(e=lambda el: el[0], ee=lambda c: c[0], name="source")
    target = SgMorphism(
        e=lambda el: Q.c0.add(el[0], Q.boundary(el[1])),
        ee=lambda c: Q.cee.add(c[0], c[1]),
        name="target",
    )
    unit = SgMorphism(
        e=lambda g: (g, Q.c1.zero()),
        ee=lambda u: (u, Q.cee.zero()),
        name="unit",
    )

    def compose(f, g):
        if Q.c0.add(f[0], Q.boundary(f[1])) != g[0]:
            raise ValueError("arrows are not composable")
        return (f[0], Q.c1.add(f[1], g[1]))

    return SquareGroupoid(
        obj=level0, arr=arr, source=source, target=target, unit=unit, compose=compose
    )


def groupoid_verify(gpd: SquareGroupoid, samples: int = 400, seed: int = 0) -> Report:
    """Check the internal-groupoid laws on top of both square groups."""
    rng = random.Random(seed)
    r = Report(title="square groupoid", samples=samples, seed=seed)
    r.extend(square_group_verify(gpd.obj, samples, seed), prefix="objects: ")
    r.extend(square_group_verify(gpd.arr, samples, seed), prefix="arrows: ")
    r.extend(morphism_verify(gpd.arr, gpd.obj, gpd.source, samples, seed), prefix="source: ")
    r.extend(morphism_verify(gpd.arr, gpd.obj, gpd.target, samples, seed), prefix="target: ")
    r.extend(morphism_verify(gpd.obj, gpd.arr, gpd.unit, samples, seed), prefix="unit: ")

    arr, src, tgt, unit, compose = gpd.arr.e, gpd.source.e, gpd.target.e, gpd.unit.e, gpd.compose
    check_laws(r, [
        Law("unit arrows are endo", [gpd.obj.e],
            lambda g: src(unit(g)) == g and tgt(unit(g)) == g, "g"),
    ], samples, rng)

    def mate(f, h):
        """Adjust ``h`` so that it composes after ``f``."""
        return arr.add(unit(tgt(f)), arr.sub(h, unit(src(h))))

    def endpoints(f, g):
        m = compose(f, g)
        return src(m) == src(f) and tgt(m) == tgt(g)

    def chain(f, h, k):
        g = mate(f, h)
        return f, g, mate(g, k)

    def associative(f, g, w):
        return compose(compose(f, g), w) == compose(f, compose(g, w))

    def additive(f1, g1, f2, g2):
        lhs = compose(arr.add(f1, f2), arr.add(g1, g2))
        return lhs == arr.add(compose(f1, g1), compose(f2, g2))

    # the first two composition laws read one shared draw
    pairs = list(_tuples([arr, arr], samples, rng))
    bad = next((p for p in pairs if not gpd.composable(p[0], mate(*p))), None)
    r.add("composable mates align", bad is None, bad and _witness("f h", bad))
    bad = next((p for p in pairs if not endpoints(p[0], mate(*p))), None)
    r.add("composition endpoints", bad is None, bad and _witness("f g", (bad[0], mate(*bad))))
    check_laws(r, [
        Law("unit laws", [arr],
            lambda f: (compose(unit(src(f)), f) == f) & (compose(f, unit(tgt(f))) == f), "f"),
    ], samples, rng)
    bad = counterexample([arr] * 3, lambda *t: associative(*chain(*t)), samples, rng)
    r.add("composition associative", bad is None, bad and _witness("f g w", chain(*bad)))
    bad = counterexample(
        [arr] * 4, lambda f1, h1, f2, h2: additive(f1, mate(f1, h1), f2, mate(f2, h2)), samples, rng
    )
    r.add("composition additive", bad is None, bad and _witness("f1 f2", bad[::2]))
    return r


def groupoid_to_qpm(gpd: SquareGroupoid) -> Qpm:
    """Extract the boundary ``ker(source) -> objects`` from a groupoid.

    Needs the target map to restrict to a bijection from the kernel of
    the source on the quadratic level onto the object quadratic level;
    otherwise the groupoid has no single shared quadratic part and
    ``NotEeAntidiscrete`` is raised.
    """
    arrows = gpd.arr.e.elements()
    zero_obj = gpd.obj.e.zero()
    members = [b for b in arrows if gpd.source.e(b) == zero_obj]
    c1 = SubgroupCarrier(gpd.arr.e, members)

    ee_kernel = [
        c for c in gpd.arr.ee.elements() if gpd.obj.ee.is_zero(gpd.source.ee(c))
    ]
    back = {}
    for c in ee_kernel:
        v = gpd.target.ee(c)
        if v in back:
            raise NotEeAntidiscrete(
                f"target is not injective on the source kernel: {c!r} and {back[v]!r}"
            )
        back[v] = c
    missing = [u for u in gpd.obj.ee.elements() if u not in back]
    if missing:
        raise NotEeAntidiscrete(
            f"target misses {missing[0]!r} on the quadratic level"
        )

    return Qpm(
        c0=gpd.obj.e,
        c1=c1,
        cee=gpd.obj.ee,
        H=gpd.obj.H,
        P=lambda u: gpd.arr.P(back[u]),
        boundary=lambda x: gpd.target.e(x),
        name="qpm from groupoid",
    )


def qpm_groupoid_roundtrip(Q: Qpm, samples: int = 400, seed: int = 0) -> Report:
    """Translate to the groupoid and back, then compare with the original."""
    rng = random.Random(seed)
    r = Report(title=f"groupoid round trip: {Q.name}", samples=samples, seed=seed)
    gpd = qpm_to_groupoid(Q)
    r.extend(groupoid_verify(gpd, samples, seed), prefix="groupoid: ")
    back = groupoid_to_qpm(gpd)

    embed = lambda x: (Q.c0.zero(), x)

    check_laws(r, [
        Law("kernel embedding additive", [Q.c1, Q.c1],
            lambda x, y: embed(Q.c1.add(x, y)) == back.c1.add(embed(x), embed(y)), "x y"),
        Law("boundary preserved", [Q.c1], lambda x: back.boundary(embed(x)) == Q.boundary(x), "x"),
        Law("P preserved", [Q.cee], lambda a: back.P(a) == embed(Q.P(a)), "a"),
        Law("H preserved", [Q.c0], lambda g: back.H(g) == Q.H(g), "g"),
    ], samples, rng)

    members, elements = _finite_elements(back.c1), _finite_elements(Q.c1)
    if members is None or elements is None:
        r.note("kernel carrier comparison skipped on infinite carriers")
    else:
        members, expected = set(members), {embed(x) for x in elements}
        r.add("kernel carrier matches", members == expected,
              None if members == expected else f"difference {members ^ expected!r}")
    return r
