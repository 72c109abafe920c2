"""Square rings and quadratic rings over class-two groups.

A square ring is a square group ``(e, ee, H, P)`` whose ``e`` carries a
monoid structure and whose ``ee`` carries a ring structure together with
a three-slot action ``(x | y) . a . z`` through the abelianized
multiplicative monoid. A quadratic ring replaces the action by the ring
product on ``ee`` using the cross effect and the additive map ``Delta``.

The integral models live here too: the initial object ``znil`` with
``H(x) = x(x-1)/2`` on the integers, and its monoid extension on free
words where the quadratic part is spanned by ordered pairs of words. A
product of words is their concatenation, extended to the class-two group
by law (ii) in closed form: the product of ``sum_i n_i s_i + c_x`` and
``y`` is the ordered sum of the ``n_i``-fold shifts of ``y``'s linear
part plus ``P`` of one pair element, each computed in one pass.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

from .abelian import DEFAULT_ENUM_BOUND, FgAbGroup
from .errors import (
    IllDefinedMultiplication,
    NotAQuadraticRing,
    NotFinite,
    TooLarge,
)
from .nil2 import (
    Carrier,
    FreeNil2Carrier,
    FreePairsCarrier,
    Law,
    Nil2Element,
    SquareGroup,
    _coset_labels,
    _finite_elements,
    _fold_pairs,
    check_laws,
    square_group_verify,
)
from .reports import Report


def _comb2(n: int) -> int:
    """``n (n - 1) / 2`` for any integer, the quadratic binomial weight."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

class _AdditiveStructure:
    """What square and quadratic rings share through ``e, ee, H, P, one``."""

    @cached_property
    def square_group(self) -> SquareGroup:
        """The additive square group, built once per ring."""
        return SquareGroup(e=self.e, ee=self.ee, H=self.H, P=self.P, name=self.name)

    @cached_property
    def h_two(self):
        """``H(2)``, built once per ring."""
        return self.H(self.two())

    def two(self):
        return self.e.add(self.one, self.one)


@dataclass
class SquareRing(_AdditiveStructure):
    """A square group with a multiplicative monoid and a pair action.

    ``act_pair(x, y, a)`` is the left action ``(x | y) . a`` and
    ``act_right(a, z)`` the right action ``a . z``; both only depend on
    the multiplicative arguments through the abelianized quotient.
    """

    e: Carrier
    ee: Carrier
    H: Callable
    P: Callable
    one: object
    mul: Callable
    eemul: Callable
    act_pair: Callable
    act_right: Callable
    name: str = "square ring"

    def tri(self, x, y, a, z):
        """The full three-slot action ``(x | y) . a . z``."""
        return self.act_right(self.act_pair(x, y, a), z)


@dataclass
class QuadraticRing(_AdditiveStructure):
    """A square group with a monoid on ``e`` and a ring on ``ee``.

    ``act_pair`` and ``act_right`` are the actions of the underlying
    square ring, read off from the ring product on ``ee``.
    """

    e: Carrier
    ee: Carrier
    H: Callable
    P: Callable
    one: object
    mul: Callable
    eemul: Callable
    name: str = "quadratic ring"

    def act_pair(self, x, y, a):
        """``(x | y) . a = (y | x)_H a``."""
        return self.eemul(self.square_group.cross(y, x), a)

    def act_right(self, a, z):
        """``a . z = a Delta(z)``."""
        return self.eemul(a, self.square_group.delta(z))


def _ring(kind: str, act_pair: Callable, act_right: Callable, **common):
    """The ring ``common`` describes, packaged as ``kind``: a
    ``QuadraticRing``, or a ``SquareRing`` with the given actions."""
    if kind == "quadratic":
        return QuadraticRing(**common)
    if kind == "square":
        return SquareRing(act_pair=act_pair, act_right=act_right, **common)
    raise ValueError(f"unknown ring kind: {kind!r}")


def forget_U(Q: QuadraticRing) -> SquareRing:
    """The square ring underlying a quadratic ring.

    The pair and right actions are :meth:`QuadraticRing.act_pair` and
    :meth:`QuadraticRing.act_right`. The quadratic-ring laws are sampled
    first; a failure raises ``NotAQuadraticRing``.
    """
    report = verify_ring(Q, samples=200, seed=0)
    if not report.passed:
        failure = report.first_failure()
        raise NotAQuadraticRing(f"{failure.name}: {failure.witness or 'failed'}")
    return SquareRing(
        e=Q.e,
        ee=Q.ee,
        H=Q.H,
        P=Q.P,
        one=Q.one,
        mul=Q.mul,
        eemul=Q.eemul,
        act_pair=Q.act_pair,
        act_right=Q.act_right,
        name=f"{Q.name} (underlying square ring)",
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_ring(R, samples: int = 1000, seed: int = 0) -> Report:
    """Check all square-ring or quadratic-ring laws on ``R``.

    The type picks the title and the kind's own laws, checked after the
    additive and the shared ring laws; small finite carriers exhaustively,
    infinite ones by seeded sampling.
    """
    if isinstance(R, SquareRing):
        title, kind_laws = "square ring", _square_ring_laws
    elif isinstance(R, QuadraticRing):
        title, kind_laws = "quadratic ring", _quadratic_ring_laws
    else:
        raise TypeError(f"expected a SquareRing or QuadraticRing, got {type(R).__name__}")
    r = Report(title=f"{title}: {R.name}", samples=samples, seed=seed)
    r.extend(square_group_verify(R.square_group, samples, seed), prefix="additive: ")
    check_laws(r, _ring_laws(R) + kind_laws(R), samples, random.Random(seed))
    return r


def _ring_laws(R) -> list[Law]:
    """The monoid on ``e`` and the ring on ``ee``, shared by both ring kinds."""
    e, ee, mul, eemul = R.e, R.ee, R.mul, R.eemul
    return [
        Law("multiplication associative", [e, e, e],
            lambda x, y, z: mul(mul(x, y), z) == mul(x, mul(y, z)), "x y z"),
        Law("one is a unit", [e], lambda x: mul(R.one, x) == x and mul(x, R.one) == x, "x"),
        Law("ee product associative", [ee, ee, ee],
            lambda a, b, c: eemul(eemul(a, b), c) == eemul(a, eemul(b, c)), "a b c"),
        Law("ee product bilinear", [ee, ee, ee],
            lambda a, b, c: (eemul(a, ee.add(b, c)) == ee.add(eemul(a, b), eemul(a, c)))
            & (eemul(ee.add(a, b), c) == ee.add(eemul(a, c), eemul(b, c))),
            "a b c"),
    ]


def _left_distributive(R) -> Law:
    e, mul = R.e, R.mul
    return Law("(i) left distributive", [e, e, e],
               lambda x, y, z: mul(x, e.add(y, z)) == e.add(mul(x, y), mul(x, z)), "x y z")


def _square_ring_laws(R: SquareRing) -> list[Law]:
    e, ee, sg = R.e, R.ee, R.square_group
    H, P, mul, pair, right = R.H, R.P, R.mul, R.act_pair, R.act_right
    htwo = R.h_two
    return [
        Law("pair action additive in ee", [e, e, ee, ee],
            lambda x, y, a, b: pair(x, y, ee.add(a, b)) == ee.add(pair(x, y, a), pair(x, y, b)),
            "x y a b"),
        Law("pair action biadditive in e", [e, e, e, ee],
            lambda x, u, y, a: (pair(e.add(x, u), y, a) == ee.add(pair(x, y, a), pair(u, y, a)))
            & (pair(y, e.add(x, u), a) == ee.add(pair(y, x, a), pair(y, u, a))),
            "x u y a"),
        Law("pair action kills P images", [e, e, ee, ee],
            lambda x, y, a, c: (pair(e.add(x, P(c)), y, a) == pair(x, y, a))
            & (pair(x, e.add(y, P(c)), a) == pair(x, y, a)),
            "x y a c"),
        Law("right action additive in ee", [ee, ee, e],
            lambda a, b, z: right(ee.add(a, b), z) == ee.add(right(a, z), right(b, z)), "a b z"),
        Law("right action additive through the quotient", [ee, e, e, ee],
            lambda a, z, w, c: (right(a, e.add(z, w)) == ee.add(right(a, z), right(a, w)))
            & (right(a, e.add(z, P(c))) == right(a, z)),
            "a z w c"),
        Law("pair action multiplicative", [e, e, e, e, ee],
            lambda x, y, u, v, a: pair(x, y, pair(u, v, a)) == pair(mul(x, u), mul(y, v), a),
            "x y u v a"),
        Law("right action multiplicative", [ee, e, e],
            lambda a, y, z: right(right(a, y), z) == right(a, mul(y, z)), "a y z"),
        Law("pair and right actions commute", [e, e, ee, e],
            lambda x, y, a, z: pair(x, y, right(a, z)) == right(pair(x, y, a), z), "x y a z"),
        _left_distributive(R),
        Law("(ii) right distributive with correction", [e, e, e],
            lambda x, y, z: mul(e.add(x, y), z)
            == e.add(e.add(mul(x, z), mul(y, z)), P(pair(x, y, H(z)))),
            "x y z"),
        Law("(iii) cross effect from H(2)", [e, e],
            lambda x, y: sg.cross(x, y) == pair(y, x, htwo), "x y"),
        Law("(iv) T twists the pair action", [e, e, ee, e],
            lambda x, y, a, z: sg.tmap(R.tri(x, y, a, z)) == R.tri(y, x, sg.tmap(a), z),
            "x y a z"),
        Law("(v) P respects the right action", [ee, e],
            lambda a, x: P(right(a, x)) == mul(P(a), x), "a x"),
        Law("(vi) P respects the diagonal action", [e, ee],
            lambda x, a: P(pair(x, x, a)) == mul(x, P(a)), "x a"),
        Law("(vii) H is multiplicative with correction", [e, e],
            lambda x, y: H(mul(x, y)) == ee.add(pair(x, x, H(y)), right(H(x), y)), "x y"),
    ]


def _quadratic_ring_laws(R: QuadraticRing) -> list[Law]:
    e, ee, sg = R.e, R.ee, R.square_group
    H, P, mul, eemul, cross = R.H, R.P, R.mul, R.eemul, sg.cross
    return [
        _left_distributive(R),
        Law("(ii) right distributive with correction", [e, e, e],
            lambda x, y, z: mul(e.add(x, y), z)
            == e.add(e.add(mul(x, z), mul(y, z)), P(eemul(cross(y, x), H(z)))),
            "x y z"),
        Law("(iii) cross effects multiply", [e, e, e, e],
            lambda x, y, u, v: eemul(cross(x, y), cross(u, v)) == cross(mul(x, u), mul(y, v)),
            "x y u v"),
        Law("(iv) T is anti multiplicative", [ee, ee],
            lambda a, b: sg.tmap(eemul(a, b)) == ee.neg(eemul(sg.tmap(a), sg.tmap(b))), "a b"),
        Law("(v) P respects Delta on the right", [ee, e],
            lambda a, x: P(eemul(a, sg.delta(x))) == mul(P(a), x), "a x"),
        Law("(vi) P respects the diagonal cross effect", [e, ee],
            lambda x, a: P(eemul(cross(x, x), a)) == mul(x, P(a)), "x a"),
        Law("(vii) H is multiplicative with correction", [e, e],
            lambda x, y: H(mul(x, y)) == ee.add(eemul(cross(x, x), H(y)), eemul(H(x), sg.delta(y))),
            "x y"),
    ]


# ---------------------------------------------------------------------------
# The initial square ring on the integers
# ---------------------------------------------------------------------------

def znil(kind: str = "square"):
    """The integers with ``H(x) = x (x - 1) / 2``, ``P = 0``.

    ``kind`` selects the square-ring or the quadratic-ring packaging of
    the same data; the two agree because the pair action factors through
    the cross effect here.

    >>> R = znil()
    >>> R.H((4,))
    (6,)
    >>> R.mul((3,), (5,))
    (15,)
    """
    return _ring(
        kind,
        act_pair=lambda x, y, a: (x[0] * y[0] * a[0],),
        act_right=lambda a, z: (a[0] * z[0],),
        e=FgAbGroup.free(1),
        ee=FgAbGroup.free(1),
        H=lambda x: (_comb2(x[0]),),
        P=lambda a: (0,),
        one=(1,),
        mul=lambda x, y: (x[0] * y[0],),
        eemul=lambda a, b: (a[0] * b[0],),
        name="znil",
    )


def cyclic_ring(n: int, kind: str = "square"):
    """The ring of integers mod ``n`` with trivial quadratic part.

    Any ordinary ring is a square ring (and a quadratic ring) whose
    ``ee`` is the zero group and whose ``H`` and ``P`` vanish.

    >>> R = cyclic_ring(4)
    >>> R.mul((3,), (3,))
    (1,)
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    e = FgAbGroup((n,)) if n > 1 else FgAbGroup.trivial()
    ee = FgAbGroup.trivial()
    zero_ee = ee.zero()
    return _ring(
        kind,
        act_pair=lambda x, y, a: zero_ee,
        act_right=lambda a, z: zero_ee,
        e=e,
        ee=ee,
        H=lambda x: zero_ee,
        P=lambda a: e.zero(),
        one=e.reduce((1,)) if n > 1 else e.zero(),
        mul=lambda x, y: e.reduce((x[0] * y[0],)) if n > 1 else e.zero(),
        eemul=lambda a, b: zero_ee,
        name=f"Z/{n}",
    )


# ---------------------------------------------------------------------------
# The monoid extension on free words
# ---------------------------------------------------------------------------

def _shortlex_words(symbols: Sequence[Hashable], length_bound: int) -> list[tuple]:
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(length_bound):
        layer = [w + (s,) for w in layer for s in symbols]
        out.extend(layer)
    return out


class _MonoidRing:
    """Shared machinery for the group-ring-like model on free words."""

    def __init__(self, symbols: Sequence[Hashable], length_bound: int, sample_length: int):
        if not symbols:
            raise ValueError("at least one symbol is required")
        count = layer = 1
        for _ in range(length_bound):
            layer *= len(symbols)
            count += layer
            if count > DEFAULT_ENUM_BOUND:
                raise TooLarge(
                    f"{len(symbols)} symbols up to length {length_bound} give more than"
                    f" {DEFAULT_ENUM_BOUND} words"
                )
        self.symbols = list(symbols)
        self.length_bound = length_bound
        self.words = _shortlex_words(self.symbols, length_bound)
        pool = [w for w in self.words if len(w) <= sample_length]
        self.e = FreeNil2Carrier(self.words, pool)
        self.ee = FreePairsCarrier(self.words, pool)

    def concat(self, u: tuple, v: tuple) -> tuple:
        w = u + v
        if len(w) > self.length_bound:
            raise TooLarge(
                f"product word of length {len(w)} exceeds the bound {self.length_bound}"
            )
        return w

    # -- structure maps ----------------------------------------------------

    def H(self, x: Nil2Element):
        lin = x.linear
        out: dict = {}
        for s, n in lin:
            out[(s, s)] = out.get((s, s), 0) + _comb2(n)
        for i in range(len(lin)):
            for j in range(i + 1, len(lin)):
                s, n = lin[i]
                t, m = lin[j]
                out[(t, s)] = out.get((t, s), 0) + n * m
        for (s, t), c in x.comm:
            out[(s, t)] = out.get((s, t), 0) + c
            out[(t, s)] = out.get((t, s), 0) - c
        return self.ee.make(out)

    def P(self, a) -> Nil2Element:
        return self.e.make({}, _fold_pairs(self.e._rank, a, {}))

    # -- multiplicative structure -------------------------------------------

    def _shift_left(self, out: dict, u: tuple, v: tuple, k: int, pairs) -> None:
        """Add ``k (u | v) pairs`` to ``out``: the pair ``(p, q)`` goes to
        ``(u p, v q)``. A word past the bound is formed again by
        :meth:`concat`, which raises."""
        bound = self.length_bound
        for (p, q), c in pairs:
            up, vq = u + p, v + q
            if len(up) > bound or len(vq) > bound:
                up, vq = self.concat(u, p), self.concat(v, q)
            key = (up, vq)
            out[key] = out.get(key, 0) + k * c

    def _shift_right(self, out: dict, pairs, w: tuple, k: int) -> None:
        """Add ``pairs . k w`` to ``out``: the pair ``(p, q)`` goes to
        ``(p w, q w)``. A word past the bound is formed again by
        :meth:`concat`, which raises."""
        bound = self.length_bound
        for (p, q), c in pairs:
            pw, qw = p + w, q + w
            if len(pw) > bound or len(qw) > bound:
                pw, qw = self.concat(p, w), self.concat(q, w)
            key = (pw, qw)
            out[key] = out.get(key, 0) + k * c

    def eemul(self, a, b):
        out: dict = {}
        for (p, q), c in a:
            self._shift_left(out, p, q, c, b)
        return self.ee.make(out)

    def act_pair(self, x: Nil2Element, y: Nil2Element, a):
        out: dict = {}
        for u, n in x.linear:
            for v, m in y.linear:
                self._shift_left(out, u, v, n * m, a)
        return self.ee.make(out)

    def act_right(self, a, z: Nil2Element):
        out: dict = {}
        for w, m in z.linear:
            self._shift_right(out, a, w, m)
        return self.ee.make(out)

    def mul(self, x: Nil2Element, y: Nil2Element) -> Nil2Element:
        """The product in closed form, in one pass.

        Write ``x = n_1 s_1 + ... + n_k s_k + c_x`` with its words in rank
        order and ``c_x`` central. Law (ii), applied term by term, gives
        ``x y = n_1 W_1 + ... + n_k W_k + P(T)``, where ``W_i`` is the
        linear part of ``y`` shifted by ``s_i`` (the word ``s_i t`` carries
        the coefficient ``m_t`` of ``t`` in ``y``) and

        ``T = sum_i C(n_i, 2) (s_i | s_i) H(y) + sum_i n_i (s_i | s_i) c_y
        + sum_{i<j} n_i n_j (s_i | s_j) H(y) + c_x y``

        with ``c_y`` read as a pair element. ``P(T)`` is central. The
        ordered sum of multiples has linear part ``sum_i n_i W_i`` and
        central part ``sum_i C(n_i, 2) sum_{u<v} W_i[u] W_i[v] [u, v]``
        plus ``sum_{i<j} sum_{u<v} n_j W_j[u] n_i W_i[v] [u, v]``, where
        ``u < v`` is word rank and ``[u, v]`` the ``(u, v)`` coordinate of
        the central part. Every word is formed by :meth:`concat`, so a
        product overflowing the length bound raises ``TooLarge``.
        """
        concat, rank, act = self.concat, self.e._rank, self._shift_left
        lin: dict = {}
        cm: dict = {}
        pairs: dict = {}  # T, on ordered pairs of words
        hy = self.H(y) if x.linear else ()
        # y's words are in rank order, which is shortlex: its last is longest
        longest = len(y.linear[-1][0]) if y.linear else 0
        for i, (s, n) in enumerate(x.linear):
            if len(s) + longest <= self.length_bound:
                row = [(s + t, m) for t, m in y.linear]
            else:
                row = [(concat(s, t), m) for t, m in y.linear]
            c2 = _comb2(n)
            for j, (u, m) in enumerate(row):
                ru = rank[u]
                # moving n m u left past the earlier rows' later words
                for v, k in lin.items():
                    if ru < rank[v]:
                        cm[(u, v)] = cm.get((u, v), 0) + n * m * k
                for v, m_v in row[j + 1:]:
                    key = (u, v) if ru < rank[v] else (v, u)
                    cm[key] = cm.get(key, 0) + c2 * m * m_v
            for u, m in row:
                lin[u] = lin.get(u, 0) + n * m
            act(pairs, s, s, n, y.comm)
            if c2:
                act(pairs, s, s, c2, hy)
            for r, k in x.linear[:i]:
                act(pairs, r, s, k * n, hy)
        for w, m in y.linear:  # c_x y
            self._shift_right(pairs, x.comm, w, m)
        return self.e.make(lin, _fold_pairs(rank, pairs.items(), cm))


def znil_monoid(
    symbols: Sequence[Hashable],
    length_bound: int = 6,
    kind: str = "square",
    sample_length: int = 2,
):
    """Words over ``symbols`` with the class-two group on all words.

    The additive group of degree zero is free of class two on every word
    up to ``length_bound`` (the empty word is the unit); the quadratic
    part is free abelian on ordered pairs of words. ``H`` vanishes on the
    word generators and ``P`` sends a pair to the commutator of its two
    words in reverse order. Products whose words overflow the length
    bound raise ``TooLarge``, and so does a model of more than
    ``DEFAULT_ENUM_BOUND`` words, before any word is built. Random sampling
    only draws words up to ``sample_length`` so that sampled triple
    products stay inside the bound.

    >>> R = znil_monoid(["s", "t"], length_bound=6)
    >>> x = R.e.atom(("s",)); y = R.e.atom(("t",))
    >>> R.mul(x, y) == R.e.atom(("s", "t"))
    True
    >>> R.square_group.cross(x, y) == R.ee.pair(("t",), ("s",))
    True
    """
    if sample_length < 0:
        raise ValueError(f"sample_length must be at least 0, got {sample_length}")
    if 3 * sample_length > length_bound:
        raise ValueError("sampled triple products would overflow the length bound")
    core = _MonoidRing(symbols, length_bound, sample_length)
    return _ring(
        kind,
        act_pair=core.act_pair,
        act_right=core.act_right,
        e=core.e,
        ee=core.ee,
        H=core.H,
        P=core.P,
        one=core.e.atom(()),
        mul=core.mul,
        eemul=core.eemul,
        name=f"znil[{', '.join(map(str, symbols))}]",
    )


# ---------------------------------------------------------------------------
# Linear elements and the abelianized quotient ring
# ---------------------------------------------------------------------------

def linear_elements(R) -> list:
    """Elements with vanishing ``H``.

    Finite carriers are enumerated; the free word model reports its word
    generators, and the integer model reports ``0`` and ``1``.
    """
    pool = _finite_elements(R.e)
    if pool is None:
        if isinstance(R.e, FreeNil2Carrier):
            pool = [R.e.atom(s) for s in R.e.symbols]
        elif isinstance(R.e, FgAbGroup):
            pool = [R.e.reduce(v) for v in _small_box(R.e.ngens, 4)]
        else:
            raise NotFinite("no linear element pool on this carrier")
    return [x for x in pool if R.ee.is_zero(R.H(x))]


def _small_box(n: int, radius: int):
    if n == 0:
        yield ()
        return
    for rest in _small_box(n - 1, radius):
        for v in range(-radius, radius + 1):
            yield (v,) + rest


@dataclass
class AdRing:
    """The quotient of the multiplicative level by the ``P`` images."""

    representatives: list
    add: Callable
    mul: Callable
    one: object
    zero: object


def ad_ring(R) -> AdRing:
    """Quotient ring ``e / P(ee)`` for finite carriers.

    Raises ``IllDefinedMultiplication`` when the induced product depends
    on the chosen representatives, which happens exactly when the input
    fails the square-ring laws tying ``P`` to the multiplication.
    """
    elements = R.e.elements()
    image = {R.P(a) for a in R.ee.elements()}
    label, reps = _coset_labels(elements, R.e.add, image)
    for x in reps:
        for y in reps:
            base = label[R.mul(x, y)]
            for w in image:
                for v in image:
                    other = label[R.mul(R.e.add(x, w), R.e.add(y, v))]
                    if other != base:
                        raise IllDefinedMultiplication(
                            f"product of classes of {x!r} and {y!r} depends on representatives"
                        )
    return AdRing(
        representatives=reps,
        add=lambda x, y: label[R.e.add(x, y)],
        mul=lambda x, y: label[R.mul(x, y)],
        one=label[R.one],
        zero=label[R.e.zero()],
    )
