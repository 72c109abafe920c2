"""Crossed extensions of rings by bimodules with quadratic structure.

A crossed extension is an exact sequence

    0 -> M -> C1 -(boundary)-> C0 -(q)-> R -> 0

where ``C0`` is the multiplicative level of a square or quadratic ring
with quadratic part ``Cee``, ``C1`` carries compatible maps
``P: Cee -> C1`` and a two-sided ``C0`` action, and ``R`` inherits the
ring structure. The three kinds differ in how ``Cee`` acts:

* ``qpa``: the quadratic-ring laws through cross effects and ``Delta``,
* ``csr``: the square-ring laws through the pair action,
* ``ring``: trivial quadratic part (an ordinary crossed ring extension).

The degree of symmetry of the quotient construction ``ztilde`` and the
invariant ``nu = P(H(2))`` live here as well.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .abelian import (
    DEFAULT_ENUM_BOUND,
    AbMap,
    FgAbGroup,
    draw_below,
    draw_sample,
    finite_abelian_invariants,
    from_columns,
    mat_vec,
    quotient_presentation,
    smith_rows,
    stacked_rows,
)
from .errors import (
    NotASquareRing,
    NotFinite,
    NotInKernel,
    NotSurjective,
    PullbackDegenerate,
    TooLarge,
)
from .nil2 import (
    Carrier,
    DirectSumCarrier,
    FreeAbelianCarrier,
    FreeNil2Carrier,
    FreePairsCarrier,
    Law,
    Qpm,
    SgMorphism,
    SquareGroup,
    _finite_elements,
    _fold_pairs,
    check_laws,
    counterexample,
    square_group_verify,
)
from .reports import Report
from .sqring import QuadraticRing, SquareRing, cyclic_ring, linear_elements, verify_ring

# the word-pair quotient checks T on each ordered pair of words: 128 words
# (16,384 pairs) take 0.6 s and 181 words (32,761) 1.2 s; the largest word
# model in use, two symbols up to length 6, has 127 words
MAX_WORD_PAIRS = 16_384


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

@dataclass
class QuotientRing:
    """The quotient ring ``R`` together with the projection ``q``."""

    carrier: Carrier
    mul: Callable
    one: object
    q: Callable


@dataclass
class CrossedExtension:
    """A crossed extension; ``ring`` is the degree-zero structure.

    ``ring.P`` must already be the induced map ``boundary . P``, so the
    ring is a self-contained square or quadratic ring.
    """

    kind: str
    ring: object
    c1: Carrier
    P: Callable
    boundary: Callable
    act_left: Callable
    act_right: Callable
    module: Carrier
    include: Callable
    quot: QuotientRing
    name: str = "crossed extension"

    def __post_init__(self):
        if self.kind not in ("qpa", "csr", "ring"):
            raise ValueError(f"unknown crossed extension kind: {self.kind!r}")
        expected = QuadraticRing if self.kind == "qpa" else SquareRing
        if not isinstance(self.ring, expected):
            raise TypeError(
                f"kind {self.kind!r} needs a {expected.__name__}, got {type(self.ring).__name__}"
            )

    @property
    def c0(self) -> Carrier:
        return self.ring.e

    @property
    def cee(self) -> Carrier:
        return self.ring.ee

    @property
    def H(self) -> Callable:
        return self.ring.H

    def qpm(self) -> Qpm:
        return Qpm(
            c0=self.c0,
            c1=self.c1,
            cee=self.cee,
            H=self.H,
            P=self.P,
            boundary=self.boundary,
            name=self.name,
        )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_crossed(ext: CrossedExtension, samples: int = 500, seed: int = 0) -> Report:
    """Check the full axiom list for the extension's kind.

    Finite carriers are checked exhaustively, including both exactness
    conditions; on infinite carriers exactness degrades to the inclusion
    checks plus a note.
    """
    rng = random.Random(seed)
    r = Report(title=f"crossed extension ({ext.kind}): {ext.name}", samples=samples, seed=seed)
    r.extend(verify_ring(ext.ring, samples, seed), prefix="base: ")
    r.extend(square_group_verify(ext.qpm().level1(), samples, seed), prefix="fibre: ")

    c0, c1, cee = ext.c0, ext.c1, ext.cee
    mul, d, P, H = ext.ring.mul, ext.boundary, ext.P, ext.H
    left, right, one = ext.act_left, ext.act_right, ext.ring.one
    pair, ring_right = ext.ring.act_pair, ext.ring.act_right
    R, q = ext.quot, ext.quot.q
    M, inc = ext.module, ext.include
    check_laws(r, [
        Law("boundary additive", [c1, c1],
            lambda x, y: d(c1.add(x, y)) == c0.add(d(x), d(y)), "x y"),
        Law("left and right actions commute", [c0, c1, c0],
            lambda x, s, y: right(left(x, s), y) == left(x, right(s, y)), "x s y"),
        Law("actions associate with multiplication", [c0, c0, c1],
            lambda x, y, s: (left(mul(x, y), s) == left(x, left(y, s)))
            & (right(s, mul(x, y)) == right(right(s, x), y)),
            "x y s"),
        Law("actions unital", [c1], lambda s: left(one, s) == s and right(s, one) == s, "s"),
        Law("(i) P conjugates the quadratic action", [c0, cee, c0],
            lambda x, a, y: P(ring_right(pair(x, x, a), y)) == right(left(x, P(a)), y),
            "x a y"),
        Law("left action on P images", [c0, cee],
            lambda x, a: left(x, P(a)) == P(pair(x, x, a)), "x a"),
        Law("right action on P images", [cee, c0],
            lambda a, y: right(P(a), y) == P(ring_right(a, y)), "a y"),
        Law("(ii) boundary is equivariant", [c0, c1, c0],
            lambda x, s, y: d(right(left(x, s), y)) == mul(mul(x, d(s)), y), "x s y"),
        Law("(iii) crossed symmetry", [c1, c1],
            lambda s, t: left(d(s), t) == right(s, d(t)), "s t"),
        Law("(iv) left action additive", [c0, c1, c1],
            lambda x, s, t: left(x, c1.add(s, t)) == c1.add(left(x, s), left(x, t)), "x s t"),
        Law("(v) right action additive in the ring", [c1, c0, c0],
            lambda s, x, y: right(s, c0.add(x, y)) == c1.add(right(s, x), right(s, y)), "s x y"),
        Law("(vi) left action crossed on sums", [c0, c0, c1],
            lambda x, y, s: left(c0.add(x, y), s)
            == c1.add(c1.add(left(x, s), left(y, s)), P(pair(x, y, H(d(s))))),
            "x y s"),
        Law("(vii) right action crossed on sums", [c1, c1, c0],
            lambda s, t, x: right(c1.add(s, t), x)
            == c1.add(c1.add(right(s, x), right(t, x)), P(pair(d(s), d(t), H(x)))),
            "s t x"),
        # quotient ring
        Law("q additive", [c0, c0],
            lambda x, y: q(c0.add(x, y)) == R.carrier.add(q(x), q(y)), "x y"),
        Law("q multiplicative", [c0, c0], lambda x, y: q(mul(x, y)) == R.mul(q(x), q(y)), "x y"),
    ], samples, rng)
    r.add("q unital", q(one) == R.one, f"q(1)={q(one)!r}")
    check_laws(r, [
        Law("q kills boundary images", [c1], lambda s: R.carrier.is_zero(q(d(s))), "s"),
        # module end
        Law("include additive", [M, M],
            lambda m, n: inc(M.add(m, n)) == c1.add(inc(m), inc(n)), "m n"),
        Law("boundary kills the module", [M], lambda m: c0.is_zero(d(inc(m))), "m"),
        Law("module image central", [M, c1],
            lambda m, s: c1.add(inc(m), s) == c1.add(s, inc(m)), "m s"),
        Law("module action descends to R", [c0, c1, M],
            lambda x, s, m: (left(shifted := c0.add(x, d(s)), inc(m)) == left(x, inc(m)))
            & (right(inc(m), shifted) == right(inc(m), x)),
            "x s m"),
    ], samples, rng)

    _exactness_checks(ext, r, samples, rng)

    ok, witness = linearly_generated(ext)
    r.add("linearly generated", ok, witness)
    return r


def _exactness_checks(ext: CrossedExtension, r: Report, samples: int, rng: random.Random) -> None:
    c1_pool = _finite_elements(ext.c1)
    m_pool = _finite_elements(ext.module)
    if c1_pool is not None and m_pool is not None:
        images = {}
        for m in m_pool:
            v = ext.include(m)
            if v in images:
                r.add("include injective", False, f"{m!r} and {images[v]!r} collide")
                break
            images[v] = m
        else:
            r.add("include injective", True)
        kernel = {s for s in c1_pool if ext.c0.is_zero(ext.boundary(s))}
        r.add(
            "kernel of boundary is the module image",
            kernel == set(images),
            None if kernel == set(images) else f"difference {kernel ^ set(images)!r}",
        )
    else:
        bad = counterexample([ext.module, ext.module],
                             lambda m, n: m == n or ext.include(m) != ext.include(n), samples, rng)
        r.add("include injective (sampled)", bad is None,
              bad and f"{bad[0]!r} and {bad[1]!r} collide")
        r.note("kernel of the boundary compared on finite carriers only")

    c0_pool = _finite_elements(ext.c0)
    r_pool = _finite_elements(ext.quot.carrier)
    if c0_pool is not None and c1_pool is not None and r_pool is not None:
        image = {ext.boundary(s) for s in c1_pool}
        kernel = {x for x in c0_pool if ext.quot.carrier.is_zero(ext.quot.q(x))}
        r.add(
            "kernel of q is the boundary image",
            kernel == image,
            None if kernel == image else f"difference {kernel ^ image!r}",
        )
        hit = {ext.quot.q(x) for x in c0_pool}
        r.add(
            "q surjective",
            hit == set(r_pool),
            None if hit == set(r_pool) else f"missed {set(r_pool) - hit!r}",
        )
    else:
        r.note("exactness at the ring level compared on finite carriers only")


def linearly_generated(ext: CrossedExtension) -> tuple[bool, str | None]:
    """Does the image of the ``H`` kernel generate ``R`` additively?

    The images are written in the quotient carrier's integer coordinates,
    an ``FgAbGroup`` tuple or a vector over a ``FreeAbelianCarrier``'s
    symbols, and one :func:`quotient_presentation` decides whether they,
    with the carrier's relations, present the trivial group.
    """
    try:
        pool = linear_elements(ext.ring)
    except (NotFinite, TooLarge):
        return (False, "no linear element pool available")
    images = [ext.quot.q(x) for x in pool]
    carrier = ext.quot.carrier
    if isinstance(carrier, FgAbGroup):
        rank, cols, rels = carrier.ngens, [list(v) for v in images], carrier.relations()
    elif isinstance(carrier, FreeAbelianCarrier):
        index = {s: i for i, s in enumerate(carrier.symbols)}
        rank, cols, rels = len(index), [], []
        for img in images:
            v = [0] * rank
            for s, n in img:
                v[index[s]] = n
            cols.append(v)
    else:
        return (False, f"cannot decide generation for {type(carrier).__name__}")
    stack = stacked_rows(from_columns(cols, rank), rels, False)
    grp, _, _ = quotient_presentation(rank, smith_rows(*stack))
    if grp.is_trivial():
        return (True, None)
    return (False, f"quotient by the image is {grp.describe()}")


# ---------------------------------------------------------------------------
# The invariant nu
# ---------------------------------------------------------------------------

@dataclass
class NuResult:
    """The element ``nu = P(H(2))`` and what is known about it."""

    element: object
    is_zero: bool
    order: int
    is_invariant: bool
    module_factors: tuple[int, ...] | None
    generates_module: bool | None

    def describe(self) -> str:
        if self.is_zero:
            return "nu = 0"
        if self.module_factors is not None:
            module = FgAbGroup(self.module_factors).describe()
            role = "generator" if self.generates_module else "non-generator"
            return f"nu = 1 in {module}: {role}"
        return f"nu has order {self.order}"


def nu_class(
    ext: CrossedExtension,
    samples: int = 300,
    seed: int = 0,
) -> NuResult:
    """Compute ``nu = P(H(1 + 1))`` and locate it inside ``ker boundary``.

    The element always satisfies ``2 nu = 0`` and is fixed by the
    two-sided action; it lands in the kernel of the boundary, or else
    ``NotInKernel`` is raised (which marks broken input, since
    ``boundary(P(H(2)))`` is the commutator of the unit with itself).
    """
    rng = random.Random(seed)
    c1 = ext.c1
    nu = ext.P(ext.H(ext.ring.two()))
    if not ext.c0.is_zero(ext.boundary(nu)):
        raise NotInKernel(f"boundary of nu is {ext.boundary(nu)!r}")
    is_zero = c1.is_zero(nu)
    if not is_zero and not c1.is_zero(c1.add(nu, nu)):
        raise ValueError("nu does not have order dividing two; the input is not a crossed extension")
    invariant = counterexample(
        [ext.c0], lambda x: ext.act_left(x, nu) == ext.act_right(nu, x), samples, rng
    ) is None
    factors = generates = None
    kernel_pool = _finite_elements(ext.c1)
    if kernel_pool is not None:
        kernel = [s for s in kernel_pool if ext.c0.is_zero(ext.boundary(s))]
        factors = finite_abelian_invariants(kernel, c1.add, c1.zero())
        span = {c1.zero()}
        step = nu
        while step not in span:
            span.add(step)
            step = c1.add(step, nu)
        generates = span == set(kernel)
    return NuResult(
        element=nu,
        is_zero=is_zero,
        order=1 if is_zero else 2,
        is_invariant=invariant,
        module_factors=factors,
        generates_module=generates,
    )


# ---------------------------------------------------------------------------
# The symmetric quotient construction
# ---------------------------------------------------------------------------

class ZtildePairsCarrier(DirectSumCarrier):
    """Word pairs modulo ``a = T(a)`` for the swap-negate involution.

    Built on the ring's pair carrier ``ee`` and ``Mod2WordsCarrier(ee)``:
    a class is ``(offdiag, diag)`` where ``offdiag`` is an element of
    ``ee`` on strictly ordered pairs and ``diag`` the mod-two diagonal
    support. Both parts add componentwise.
    """

    def reduce(self, coeffs: dict) -> tuple:
        rank = self.left._rank
        # the keys are distinct, so a diagonal word's parity is its own
        diag = [u for (u, v), c in coeffs.items() if u == v and c % 2]
        off = _fold_pairs(rank, coeffs.items(), {})
        return (self.left.make(off), tuple(sorted(diag, key=rank.get)))

    def lift(self, el: tuple):
        """The pairs of ``offdiag`` plus ``(w, w)`` once for each diagonal
        word, in ``ee.make``'s order, which is rank order of the first word
        and then of the second: a diagonal pair goes before the off-diagonal
        pairs whose first word is not below it. Equal to that ``make``, but
        built without it."""
        off, diag = el
        if not diag:
            return off
        rank = self.left._rank
        out = []
        i, n = 0, len(off)
        for w in diag:
            r = rank[w]
            while i < n and rank[off[i][0][0]] < r:
                out.append(off[i])
                i += 1
            out.append(((w, w), 1))
        out.extend(off[i:])
        return out

    def sample(self, rng: random.Random):
        """A drawn pair element reduced; the draw equals ``ee.sample``'s."""
        return self.reduce(self.left.draw_coeffs(rng))


class Mod2WordsCarrier(Carrier):
    """The direct sum of order-two groups indexed by the words of a pair
    carrier ``ee``, in its order, sampled from its pool."""

    def __init__(self, ee: FreePairsCarrier):
        self.words, self.pool, self._rank = ee.symbols, ee.pool, ee._rank

    def zero(self):
        return ()

    def add(self, a, b):
        return tuple(sorted(set(a).symmetric_difference(b), key=self._rank.get))

    def neg(self, a):
        return a

    def sample(self, rng: random.Random):
        """Up to two pool words; the size draw equals ``rng.randint(0, 2)``
        and the draw of words ``rng.sample``'s."""
        return tuple(sorted(
            draw_sample(rng, self.pool, min(len(self.pool), draw_below(rng, 3))),
            key=self._rank.get,
        ))

    def elements(self) -> list:
        if 2 ** len(self.words) > DEFAULT_ENUM_BOUND:
            raise TooLarge(f"2^{len(self.words)} subsets exceed the bound")
        out = []
        for k in range(len(self.words) + 1):
            out.extend(tuple(c) for c in itertools.combinations(self.words, k))
        return out


def ztilde_construction(R: SquareRing, samples: int = 200, seed: int = 0) -> CrossedExtension:
    """Quotient the quadratic part by ``Id - T`` and read off a boundary.

    ``C1 = ee / (Id - T)`` with projection ``Pt``, boundary induced by
    ``P`` (well defined because ``P T = P``), and actions through the
    diagonal pair action. The input must pass the square-ring checks,
    otherwise ``NotASquareRing`` is raised. A word model of more than
    ``MAX_WORD_PAIRS`` ordered pairs of words raises ``TooLarge`` before
    any check runs. Each carrier model gives ``C1``, its projection and a
    lift to ``ee``, the module and the quotient; the extension is built here.
    """
    if isinstance(R.ee, FreePairsCarrier) and len(R.ee.symbols) ** 2 > MAX_WORD_PAIRS:
        raise TooLarge(f"{len(R.ee.symbols)} words give more than {MAX_WORD_PAIRS} word pairs")
    report = verify_ring(R, samples=samples, seed=seed)
    if not report.passed:
        failure = report.first_failure()
        raise NotASquareRing(f"{failure.name}: {failure.witness or 'failed'}")
    sg = R.square_group
    if isinstance(R.e, FgAbGroup) and isinstance(R.ee, FgAbGroup):
        c1, proj, lift, module, include, quot = _ztilde_abelian(R, sg)
    elif isinstance(R.e, FreeNil2Carrier) and isinstance(R.ee, FreePairsCarrier):
        c1, proj, lift, module, include, quot = _ztilde_pairs(R, sg)
    else:
        raise ValueError("the quotient construction needs abelian or word-pair carriers")
    return CrossedExtension(
        kind="csr",
        ring=R,
        c1=c1,
        P=proj,
        boundary=lambda r7: R.P(lift(r7)),
        act_left=lambda x, r7: proj(R.act_pair(x, x, lift(r7))),
        act_right=lambda r7, y: proj(R.act_right(lift(r7), y)),
        module=module,
        include=include,
        quot=quot,
        name=f"ztilde({R.name})",
    )


def _ztilde_abelian(R: SquareRing, sg: SquareGroup) -> tuple:
    G = R.ee
    n = G.ngens
    tmat_cols = [sg.tmap(G.generator(i)) for i in range(n)]
    one_minus_t = [[int(i == j) - tmat_cols[j][i] for j in range(n)] for i in range(n)]
    grp, project, lift = quotient_presentation(
        n, smith_rows(*stacked_rows(one_minus_t, G.relations(), True))
    )

    def proj(a):
        return grp.reduce(mat_vec(project, a))

    def lift_el(r7):
        return G.reduce(mat_vec(lift, r7))

    base = R.e
    image_cols = [list(R.P(lift_el(grp.generator(i)))) for i in range(grp.ngens)]
    rgrp, rproject, rlift = quotient_presentation(
        base.ngens,
        smith_rows(*stacked_rows(from_columns(image_cols, base.ngens), base.relations(), True)),
    )

    def q(x):
        return rgrp.reduce(mat_vec(rproject, x))

    def rmul(u, v):
        return q(R.mul(base.reduce(mat_vec(rlift, u)), base.reduce(mat_vec(rlift, v))))

    kernel_group, kernel_incl = AbMap.from_columns(grp, base, image_cols).kernel()
    quot = QuotientRing(carrier=rgrp, mul=rmul, one=q(R.one), q=q)
    return grp, proj, lift_el, kernel_group, kernel_incl.apply, quot


def _ztilde_pairs(R: SquareRing, sg: SquareGroup) -> tuple:
    words = R.ee.symbols
    for u in words:
        for v in words:
            got = sg.tmap(R.ee.pair(u, v))
            if got != R.ee.pair(v, u, -1):
                raise ValueError(
                    f"the involution does not swap and negate at ({u!r}, {v!r}): {got!r}"
                )
    c1 = ZtildePairsCarrier(R.ee, Mod2WordsCarrier(R.ee))

    def proj(a):
        return c1.reduce(dict(a))

    rcar = FreeAbelianCarrier(words, R.ee.pool)

    def q(x):
        return rcar.make(x.linear_dict())

    def rmul(u, v):
        return q(R.mul(R.e.make(dict(u)), R.e.make(dict(v))))

    quot = QuotientRing(carrier=rcar, mul=rmul, one=rcar.atom(()), q=q)
    return c1, proj, c1.lift, c1.right, lambda m: ((), m), quot


# ---------------------------------------------------------------------------
# Ready-made finite extensions
# ---------------------------------------------------------------------------

def cyclic_ring_extension(m: int, d: int) -> CrossedExtension:
    """``Z/m`` over itself with boundary multiplication by ``d``.

    The kernel and the quotient are both ``Z/gcd(d, m)``; the quadratic
    part is trivial, so this is a crossed extension of ordinary rings.

    >>> ext = cyclic_ring_extension(4, 2)
    >>> ext.module.describe()
    'Z/2'
    """
    ring = cyclic_ring(m)
    if m < 2:
        raise ValueError(f"the extension needs a modulus of at least 2, got {m}")
    g = math.gcd(d, m)
    c1 = FgAbGroup((m,))
    zg = FgAbGroup.cyclic(g)
    stride = m // g

    def q(x):
        return zg.reduce((x[0],)) if g > 1 else ()

    return CrossedExtension(
        kind="ring",
        ring=ring,
        c1=c1,
        P=lambda a: c1.zero(),
        boundary=lambda r7: ring.e.reduce((d * r7[0],)),
        act_left=lambda x, r7: c1.reduce((x[0] * r7[0],)),
        act_right=lambda r7, y: c1.reduce((r7[0] * y[0],)),
        module=zg,
        include=lambda mm: c1.reduce((stride * mm[0],)) if g > 1 else c1.zero(),
        quot=QuotientRing(
            carrier=zg,
            mul=lambda u, v: zg.reduce((u[0] * v[0],)) if g > 1 else (),
            one=q(ring.one),
            q=q,
        ),
        name=f"Z/{m} --{d}--> Z/{m}",
    )


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------

class PullbackCarrier(DirectSumCarrier):
    """Pairs ``(c, w)`` with matching boundaries, inside a product."""

    def __init__(self, left: Carrier, right: Carrier, matches: Callable, sampler: Callable):
        super().__init__(left, right)
        self.matches = matches
        self._sampler = sampler

    def sample(self, rng: random.Random):
        return self._sampler(rng)

    def elements(self) -> list:
        return [p for p in super().elements() if self.matches(*p)]


def pullback_extension(
    ext: CrossedExtension,
    ring_new,
    f: SgMorphism,
    section: Callable,
    samples: int = 300,
    seed: int = 0,
) -> CrossedExtension:
    """Pull the extension back along a ring morphism ``f: new -> old``.

    ``section`` must pick a preimage under ``f.e`` for every degree-zero
    element of the old ring (its failure raises ``NotSurjective``); it is
    used for sampling the pullback and certifies that the new projection
    is onto. Misalignment of ``f`` with the structure maps raises
    ``PullbackDegenerate``.
    """
    rng = random.Random(seed)
    old = ext.ring
    bad = counterexample([old.e], lambda c: f.e(section(c)) == c, samples, rng)
    if bad is not None:
        raise NotSurjective(f"section misses {bad[0]!r}")
    additive = lambda x, y: f.e(ring_new.e.add(x, y)) == old.e.add(f.e(x), f.e(y))
    bad = counterexample(
        [ring_new.e, ring_new.e],
        lambda x, y: additive(x, y) and f.e(ring_new.mul(x, y)) == old.mul(f.e(x), f.e(y)),
        samples, rng,
    )
    if bad is not None:
        kind = "multiplicative" if additive(*bad) else "additive"
        raise PullbackDegenerate(f"f not {kind} at {bad!r}")
    if f.e(ring_new.one) != old.one:
        raise PullbackDegenerate("f does not preserve the unit")
    bad = counterexample(
        [ring_new.ee], lambda a: ext.boundary(ext.P(f.ee(a))) == f.e(ring_new.P(a)), samples, rng
    )
    if bad is not None:
        (a,) = bad
        lhs, rhs = ext.boundary(ext.P(f.ee(a))), f.e(ring_new.P(a))
        raise PullbackDegenerate(f"P images disagree at {a!r}: {lhs!r} vs {rhs!r}")
    bad = counterexample([ring_new.e], lambda x: f.ee(ring_new.H(x)) == old.H(f.e(x)), samples, rng)
    if bad is not None:
        raise PullbackDegenerate(f"H images disagree at {bad[0]!r}")

    def matches(c, w):
        return ext.boundary(c) == f.e(w)

    def sampler(rng2: random.Random):
        c = ext.c1.sample(rng2)
        w = section(ext.boundary(c))
        noise = ring_new.e.sample(rng2)
        w = ring_new.e.add(w, ring_new.e.sub(noise, section(f.e(noise))))
        return (c, w)

    c1 = PullbackCarrier(ext.c1, ring_new.e, matches, sampler)

    def act_left(x, cw):
        c, w = cw
        return (ext.act_left(f.e(x), c), ring_new.mul(x, w))

    def act_right(cw, y):
        c, w = cw
        return (ext.act_right(c, f.e(y)), ring_new.mul(w, y))

    return CrossedExtension(
        kind=ext.kind,
        ring=ring_new,
        c1=c1,
        P=lambda a: (ext.P(f.ee(a)), ring_new.P(a)),
        boundary=lambda cw: cw[1],
        act_left=act_left,
        act_right=act_right,
        module=ext.module,
        include=lambda m7: (ext.include(m7), ring_new.e.zero()),
        quot=QuotientRing(
            carrier=ext.quot.carrier,
            mul=ext.quot.mul,
            one=ext.quot.one,
            q=lambda w: ext.quot.q(f.e(w)),
        ),
        name=f"pullback of {ext.name}",
    )
