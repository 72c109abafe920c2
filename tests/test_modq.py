"""Matrix morphisms over a square ring: composition routes, tracks, obstructions."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from quadalg import modq
from quadalg.abelian import FgAbGroup
from quadalg.bwcoh import coboundary, cohomology, natsystem_verify
from quadalg.crossed import cyclic_ring_extension, ztilde_construction
from quadalg.errors import (
    BoundaryMismatch,
    NotExact,
    NotFinite,
    NotInKernel,
    QuadAlgError,
    SectionInvalid,
    ShapeMismatch,
    TooLarge,
)
from quadalg.modq import (
    FreeModElement,
    ModQMor,
    ModQTrackExtension,
    Track,
    composition_report,
    modq_compose,
    obstruction_cocycle,
    random_morphism,
    track_left_whisker,
    track_right_whisker,
    track_vcomp,
)
from quadalg.sqring import cyclic_ring, znil, znil_monoid

from .oracles import (
    CycTrack,
    CyclicTrackExtension,
    quotient_matrix,
    reference_obstruction_cocycle,
    reference_pair_tracks,
    reference_routes,
    track_invert,
    track_tau,
)


@pytest.fixture(scope="module")
def word_extension():
    return ztilde_construction(znil_monoid(["s"], length_bound=6, sample_length=2))


@pytest.fixture(scope="module")
def cyclic4():
    return cyclic_ring_extension(4, 2)


@pytest.fixture(scope="module")
def matrix_extension():
    return ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=1)


@pytest.fixture(scope="module")
def rank2_extension():
    return ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=2)


def random_pairs(ring, nrows, ncols, rng):
    out = {}
    for i in range(nrows):
        for j in range(i + 1, nrows):
            if rng.random() < 0.8:
                out[(i, j)] = tuple(ring.ee.sample(rng) for _ in range(ncols))
    return out


def random_track(ext, nrows, ncols, rng) -> Track:
    """A track with random source, random certificate, and the forced target."""
    f0 = random_morphism(ext.ring, nrows, ncols, rng)
    h = tuple(tuple(ext.c1.sample(rng) for _ in range(ncols)) for _ in range(nrows))
    f1_entries = tuple(
        tuple(ext.c0.sub(f0.fi[i][k], ext.boundary(h[i][k])) for k in range(ncols))
        for i in range(nrows)
    )
    f1 = ModQMor(ext.ring, nrows, ncols, f1_entries, random_pairs(ext.ring, nrows, ncols, rng))
    return Track(ext, f0, f1, h)


class TestFreeModule:
    def test_subtraction_cancels(self):
        Q = znil()
        rng = random.Random(2)
        for _ in range(20):
            c = random_morphism(Q, 3, 1, rng).column(0)
            assert c.sub(c) == FreeModElement.zero(Q, 3)

    def test_zero_pairs_are_dropped(self):
        Q = znil()
        c = FreeModElement(Q, 2, ((1,), (2,)), {(0, 1): (0,)})
        assert c.pairs == {}
        assert c.pair(0, 1) == (0,)

    def test_shape_guards(self):
        Q = znil()
        with pytest.raises(ShapeMismatch, match="coordinates for rank"):
            FreeModElement(Q, 2, ((1,),), {})
        with pytest.raises(ShapeMismatch, match="out of range"):
            FreeModElement(Q, 2, ((1,), (2,)), {(0, 2): (1,)})
        with pytest.raises(ShapeMismatch, match="rank mismatch"):
            FreeModElement.zero(Q, 2).add(FreeModElement.zero(Q, 3))


class TestMorphisms:
    def test_column_decomposition_roundtrips(self):
        Q = znil()
        rng = random.Random(7)
        for _ in range(15):
            m = random_morphism(Q, 3, 2, rng)
            assert ModQMor.from_columns(Q, 3, m.columns()) == m

    def test_shape_guards(self):
        Q = znil()
        with pytest.raises(ShapeMismatch, match="entry matrix is not"):
            ModQMor(Q, 2, 1, (((1,),),), {})
        with pytest.raises(ShapeMismatch, match="out of range"):
            ModQMor(Q, 1, 1, (((1,),),), {(0, 1): ((1,),)})
        with pytest.raises(ShapeMismatch, match="columns, wanted"):
            ModQMor(Q, 2, 1, (((1,),), ((2,),)), {(0, 1): ((1,), (1,))})
        with pytest.raises(ShapeMismatch, match="column rank"):
            ModQMor.from_columns(Q, 2, [FreeModElement.zero(Q, 3)])
        with pytest.raises(ShapeMismatch, match="different shapes"):
            ModQMor.zero(Q, 1, 1).add(ModQMor.zero(Q, 1, 2))


class TestCompositionRoutes:
    CHECKS = [
        "closed composition matches the substitution route",
        "identity morphisms are neutral",
        "composition is associative",
        "morphism addition is a group",
        "module action distributes with the bracket correction",
    ]

    def test_integer_ring_report(self):
        report = composition_report(znil(), samples=150, seed=3)
        assert report.passed, report.render()
        assert [c.name for c in report.checks] == self.CHECKS

    def test_word_ring_report(self):
        ring = znil_monoid(["s", "t"], length_bound=4, sample_length=1)
        report = composition_report(ring, samples=40, seed=1, max_dim=2)
        assert report.passed, report.render()
        assert [c.name for c in report.checks] == self.CHECKS

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_fewer_than_one_sample(self, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            composition_report(znil(), samples=samples)

    @pytest.mark.parametrize("max_dim", [0, -2])
    def test_rejects_a_max_dim_below_one(self, max_dim):
        with pytest.raises(ValueError, match=f"max_dim must be at least 1, got {max_dim}"):
            composition_report(znil(), samples=5, max_dim=max_dim)

    def test_closed_route_computes_h_two_once_and_each_product_once(self):
        ring = znil_monoid(["s", "t"], 6)
        calls = {"H": 0, "mul": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        Q = dataclasses.replace(ring, H=counted("H", ring.H), mul=counted("mul", ring.mul))
        rng = random.Random(0)
        f, g = random_morphism(Q, 3, 3, rng), random_morphism(Q, 3, 2, rng)
        counts = []
        for _ in range(2):
            calls.update(H=0, mul=0)
            composite = modq_compose(f, g)
            counts.append(dict(calls))
        # one product f_ik g_ks per (i, k, s); H(2) only in the first composite
        assert counts == [{"H": 31, "mul": 18}, {"H": 30, "mul": 18}]
        assert Q.h_two == ring.H(ring.two())
        assert composite == modq_compose(f, g, "oracle")

    def test_unknown_mode(self):
        f = ModQMor.identity(znil(), 1)
        with pytest.raises(ValueError, match="unknown composition mode"):
            modq_compose(f, f, "sideways")

    def test_compose_needs_matching_shapes(self):
        Q = znil()
        with pytest.raises(ShapeMismatch, match="cannot compose"):
            modq_compose(ModQMor.zero(Q, 1, 2), ModQMor.zero(Q, 1, 2))


class TestQuotientFunctor:
    def test_entrywise_projection(self, cyclic4):
        f = ModQMor(cyclic4.ring, 1, 2, (((1,), (2,)),), {})
        assert quotient_matrix(cyclic4, f) == (((1,), (0,)),)

    def test_functorial_on_random_composites(self, rank2_extension):
        # against the base's table up to rank 2, against a written-out
        # product over the quotient ring at rank 3
        te = rank2_extension
        R = te.ext.quot
        rng = random.Random(9)
        for _ in range(25):
            x, y, z = (rng.randint(1, 3) for _ in range(3))
            f = random_morphism(te.ring, x, y, rng)
            h = random_morphism(te.ring, y, z, rng)
            qf, qh = quotient_matrix(te.ext, f), quotient_matrix(te.ext, h)
            composite = quotient_matrix(te.ext, modq_compose(f, h))
            expected = tuple(
                tuple(
                    functools.reduce(R.carrier.add, map(R.mul, row, col), R.carrier.zero())
                    for col in zip(*qh)
                )
                for row in qf
            )
            assert composite == expected
            if max(x, y, z) <= 2:
                assert (x, z, composite) == te.base.compose((x, y, qf), (y, z, qh))

    def test_homotopic_reads_off_the_quotient(self, matrix_extension):
        Q = matrix_extension.ring
        f = ModQMor(Q, 1, 1, (((0,),),), {})
        g = ModQMor(Q, 1, 1, (((2,),),), {})
        k = ModQMor(Q, 1, 1, (((1,),),), {})
        assert matrix_extension.first_track(f, g).h == (((1,),),)
        with pytest.raises(SectionInvalid, match="no track"):
            matrix_extension.first_track(f, k)


class TestTracks:
    def test_random_tracks_validate(self, word_extension):
        rng = random.Random(5)
        for _ in range(6):
            x, y = rng.randint(1, 2), rng.randint(1, 2)
            t = random_track(word_extension, x, y, rng)
            assert t.shape == (x, y)

    def test_vertical_composition_with_the_inverse_loops(self, word_extension):
        rng = random.Random(6)
        t = random_track(word_extension, 2, 1, rng)
        loop = track_vcomp(t, track_invert(t))
        assert loop.f0 == t.f0 and loop.f1 == t.f0

    def test_whiskers_land_on_the_composites(self, word_extension):
        ext = word_extension
        rng = random.Random(8)
        for _ in range(6):
            x, y, z, w = (rng.randint(1, 2) for _ in range(4))
            t = random_track(ext, x, y, rng)
            u = random_morphism(ext.ring, w, x, rng)
            g = random_morphism(ext.ring, y, z, rng)
            lt = track_left_whisker(u, t, modq_compose)
            assert lt.f0 == modq_compose(u, t.f0) and lt.f1 == modq_compose(u, t.f1)
            rt = track_right_whisker(t, g, modq_compose)
            assert rt.f0 == modq_compose(t.f0, g) and rt.f1 == modq_compose(t.f1, g)

    def test_interchange_of_the_two_horizontal_routes(self, word_extension):
        ext = word_extension
        rng = random.Random(13)
        for trial in range(6):
            x, y, z = (rng.randint(1, 2) for _ in range(3))
            alpha = random_track(ext, x, y, rng)
            beta = random_track(ext, y, z, rng)
            first = track_vcomp(
                track_right_whisker(alpha, beta.f0, modq_compose),
                track_left_whisker(alpha.f1, beta, modq_compose),
            )
            second = track_vcomp(
                track_left_whisker(alpha.f0, beta, modq_compose),
                track_right_whisker(alpha, beta.f1, modq_compose),
            )
            assert first.h == second.h, f"trial {trial}"
            assert first.f0 == second.f0 == modq_compose(alpha.f0, beta.f0)
            assert first.f1 == second.f1 == modq_compose(alpha.f1, beta.f1)

    def test_shape_and_boundary_guards(self, cyclic4):
        Q = cyclic4.ring
        f = ModQMor.identity(Q, 1)
        wide = ModQMor.zero(Q, 1, 2)
        with pytest.raises(ShapeMismatch, match="different shapes"):
            Track(cyclic4, f, wide, ())
        with pytest.raises(ShapeMismatch, match="track matrix is not"):
            Track(cyclic4, f, f, ((),))
        with pytest.raises(BoundaryMismatch, match="does not bound"):
            Track(cyclic4, f, f, (((1,),),))

    def test_vcomp_needs_matching_middles(self, matrix_extension):
        Q = matrix_extension.ring
        f = ModQMor(Q, 1, 1, (((0,),),), {})
        g = ModQMor(Q, 1, 1, (((2,),),), {})
        t = matrix_extension.first_track(f, g)
        with pytest.raises(ShapeMismatch, match="matching middle"):
            track_vcomp(t, t)

    def test_whisker_shape_guards(self, matrix_extension):
        Q = matrix_extension.ring
        t = matrix_extension.first_track(ModQMor.identity(Q, 1), ModQMor.identity(Q, 1))
        u = ModQMor.identity(Q, 2)
        with pytest.raises(ShapeMismatch, match="does not compose"):
            track_left_whisker(u, t, modq_compose)
        with pytest.raises(ShapeMismatch, match="does not compose"):
            track_right_whisker(t, u, modq_compose)


class TestTauAndFirstTrack:
    def test_tau_roundtrip(self, matrix_extension):
        # ``value`` inverts ``track_tau``, flattened generator-major; it reads
        # any shape, whatever the base's rank
        te = matrix_extension
        mg = te.ext.module
        rng = random.Random(9)
        for _ in range(25):
            x, y = rng.randint(1, 3), rng.randint(1, 3)
            f = random_morphism(te.ring, x, y, rng)
            m = tuple(tuple(mg.sample(rng) for _ in range(y)) for _ in range(x))
            t = track_tau(te.ext, f, m)
            assert t.f0 == f and t.f1 == f
            flat = tuple(v[j] for j in range(mg.ngens) for row in m for v in row)
            assert te.value(t) == flat

    def test_tau_shape_guard(self, cyclic4):
        f = ModQMor.identity(cyclic4.ring, 2)
        with pytest.raises(ShapeMismatch, match="module matrix is not"):
            track_tau(cyclic4, f, (((0,),),))

    def test_tau_inv_needs_an_automorphism_track(self, matrix_extension):
        Q = matrix_extension.ring
        f = ModQMor(Q, 1, 1, (((0,),),), {})
        g = ModQMor(Q, 1, 1, (((2,),),), {})
        t = matrix_extension.first_track(f, g)
        with pytest.raises(ValueError, match="only automorphism tracks"):
            matrix_extension.value(t)

    def test_tau_inv_rejects_values_outside_the_module_image(self, cyclic4):
        f = ModQMor.identity(cyclic4.ring, 1)
        t = track_tau(cyclic4, f, (((1,),),))
        # an injective include of the trivial module: its image misses 2
        crushed = dataclasses.replace(
            cyclic4, module=FgAbGroup.trivial(), include=lambda mm: cyclic4.c1.zero()
        )
        te = ModQTrackExtension(crushed, max_rank=1)
        with pytest.raises(ValueError, match="not in the kernel module image"):
            te.value(Track(crushed, f, f, t.h))

    def test_first_track_exists_exactly_for_homotopic_pairs(self, rank2_extension):
        te = rank2_extension
        rng = random.Random(11)
        found = missing = 0
        for _ in range(40):
            x, y = rng.randint(1, 2), rng.randint(1, 2)
            f = random_morphism(te.ring, x, y, rng)
            g = random_morphism(te.ring, x, y, rng)
            if quotient_matrix(te.ext, f) == quotient_matrix(te.ext, g):
                found += 1
                t = te.first_track(f, g)
                assert t.f0 == f and t.f1 == g
            else:
                missing += 1
                with pytest.raises(SectionInvalid, match="no track at entry"):
                    te.first_track(f, g)
        assert found and missing

    def test_first_track_needs_parallel_morphisms(self, matrix_extension):
        Q = matrix_extension.ring
        for shapes in [((1, 1), (1, 2)), ((1, 2), (1, 1)), ((2, 1), (1, 1))]:
            F, G = (ModQMor.zero(Q, *shape) for shape in shapes)
            with pytest.raises(ShapeMismatch, match="parallel"):
                matrix_extension.first_track(F, G)


class TestCyclicTrackExtension:
    def test_needs_order_two(self):
        with pytest.raises(ValueError, match="order at least 2"):
            CyclicTrackExtension(1, 0)

    def test_base_and_system_verify(self):
        te = CyclicTrackExtension(4, 2)
        assert te.base.validate().passed
        assert natsystem_verify(te.system).passed
        assert te.base.name == "Z/2 multiplicative"

    def test_sections_and_track_mechanics(self):
        te = CyclicTrackExtension(4, 2)
        assert te.section(1) == 1 and te.section(5) == 1
        assert te.second_section(1) == 3
        assert te.compose_lifts(3, 3) == 1
        t = te.first_track(3, 1)
        assert (t.f0, t.f1) == (3, 1)
        assert (te.d * t.r - (3 - 1)) % te.m == 0
        loop = te.vcomp(t, track_invert(t))
        assert loop.f0 == loop.f1 == 3 and loop.r == 0
        assert (te.left_whisker(2, t).f0, te.left_whisker(2, t).f1) == (2, 2)
        assert (te.right_whisker(t, 2).f0, te.right_whisker(t, 2).f1) == (2, 2)

    def test_value_of_an_automorphism_track(self):
        te = CyclicTrackExtension(4, 2)
        assert te.value(CycTrack(4, 2, 1, 1, 2)) == (1,)
        assert te.value(CycTrack(4, 2, 1, 1, 0)) == (0,)

    def test_value_guards(self):
        te = CyclicTrackExtension(4, 2)
        with pytest.raises(ValueError, match="only automorphism tracks"):
            te.value(te.first_track(3, 1))
        with pytest.raises(ValueError, match="not in the kernel module image"):
            CyclicTrackExtension(8, 2).value(CycTrack(4, 2, 1, 1, 2))

    def test_loop_value_guards(self):
        te = CyclicTrackExtension(4, 2)
        t = te.first_track(3, 1)
        assert te.loop_value(t, CycTrack(4, 2, 3, 1, 3)) == (1,)
        with pytest.raises(ShapeMismatch, match="matching middles"):
            te.loop_value(t, te.first_track(1, 3))
        with pytest.raises(ValueError, match="only automorphism tracks"):
            te.loop_value(t, CycTrack(4, 2, 3, 3, 0))
        with pytest.raises(ValueError, match="track value 2 is not in the kernel module image"):
            CyclicTrackExtension(8, 2).loop_value(CycTrack(4, 2, 1, 1, 0), CycTrack(4, 2, 1, 1, 2))

    def test_track_certificates_are_enforced(self):
        te = CyclicTrackExtension(4, 2)
        with pytest.raises(BoundaryMismatch, match="does not bound"):
            CycTrack(4, 2, 1, 0, 1)
        with pytest.raises(SectionInvalid, match="no track"):
            te.first_track(1, 0)
        t = te.first_track(3, 1)
        with pytest.raises(ShapeMismatch, match="matching middles"):
            te.vcomp(t, t)

    def test_obstruction_of_the_canonical_section_vanishes(self):
        assert obstruction_cocycle(CyclicTrackExtension(4, 2)) == {}

    def test_second_section_gives_a_cohomologous_cocycle(self):
        te = CyclicTrackExtension(4, 2)
        default = obstruction_cocycle(te)
        shifted = obstruction_cocycle(te, section=te.second_section)
        assert shifted == {
            (0, 0, 1): (1,),
            (0, 1, 1): (1,),
            (1, 0, 0): (1,),
            (1, 1, 0): (1,),
        }
        res = cohomology(te.base, te.system, 3, normalized=False)
        assert res.group.is_trivial()
        assert res.is_cocycle(default) and res.is_cocycle(shifted)
        assert res.class_of(default) == res.class_of(shifted)
        assert coboundary(te.base, te.system, 3, shifted) == {}

    @pytest.mark.parametrize("m, d", [(2, 0), (4, 2), (8, 4), (9, 3), (12, 6), (16, 8)])
    def test_shared_routes_give_the_per_triple_cocycle(self, m, d):
        te = CyclicTrackExtension(m, d)
        for section in (None, te.second_section):
            assert obstruction_cocycle(te, section) == reference_obstruction_cocycle(te, section)

    def test_split_quotient_has_zero_obstruction_for_both_sections(self):
        te = CyclicTrackExtension(2, 0)
        assert obstruction_cocycle(te) == {}
        assert obstruction_cocycle(te, section=te.second_section) == {}


class TestMatrixTrackExtension:
    def test_base_and_system_verify(self, matrix_extension):
        tm = matrix_extension
        assert tm.base.validate().passed
        assert natsystem_verify(tm.system).passed
        assert len(tm.base.morphisms) == 5

    def test_system_with_reducing_actions_verifies(self):
        # over Z/8 with boundary 4 the kernel is Z/4 over the quotient Z/4,
        # where composed actions agree with direct ones only after reduction
        te = ModQTrackExtension(cyclic_ring_extension(8, 4), max_rank=1)
        assert natsystem_verify(te.system).passed

    def test_sections_lift_entrywise(self, matrix_extension):
        tm = matrix_extension
        phi = (1, 1, (((1,),),))
        assert tm.section(phi).fi == (((1,),),)
        assert tm.second_section(phi).fi == (((3,),),)
        t = tm.first_track(tm.section(phi), tm.second_section(phi))
        assert t.h == (((1,),),)

    def test_value_reads_the_kernel_matrix(self, matrix_extension):
        tm = matrix_extension
        f = ModQMor.identity(tm.ring, 1)
        t = track_tau(tm.ext, f, (((1,),),))
        assert tm.value(t) == (1,)
        phi = (1, 1, (((1,),),))
        moved = tm.first_track(tm.section(phi), tm.second_section(phi))
        with pytest.raises(ValueError, match="only automorphism tracks"):
            tm.value(moved)

    def test_first_track_guard(self, matrix_extension):
        tm = matrix_extension
        F = tm.section((1, 1, (((1,),),)))
        G = ModQMor.zero(tm.ring, 1, 1)
        with pytest.raises(SectionInvalid, match="no track at entry"):
            tm.first_track(F, G)

    def test_obstruction_cocycles_are_cohomologous(self, matrix_extension):
        tm = matrix_extension
        default = obstruction_cocycle(tm)
        shifted = obstruction_cocycle(tm, section=tm.second_section)
        assert default == {}
        assert len(shifted) == 8
        assert all(value == (1,) for value in shifted.values())
        res = cohomology(tm.base, tm.system, 3, normalized=False)
        assert res.group.is_trivial()
        assert res.is_cocycle(default) and res.is_cocycle(shifted)
        assert res.class_of(default) == res.class_of(shifted)
        assert coboundary(tm.base, tm.system, 3, shifted) == {}

    def test_shifted_cocycle_entries(self, matrix_extension):
        # the cocycle as the whiskers computed it when they composed both
        # of their composites anew
        tm = matrix_extension
        row, col = (1, 0, ((),)), (0, 1, ())
        zero, one = (1, 1, (((0,),),)), (1, 1, (((1,),),))
        assert obstruction_cocycle(tm, section=tm.second_section) == {
            T: (1,)
            for T in [
                (row, col, zero), (row, col, one), (zero, row, col), (zero, zero, one),
                (zero, one, one), (one, row, col), (one, zero, zero), (one, one, zero),
            ]
        }

    def test_whiskers_reuse_the_lift_products(self, monkeypatch):
        te = ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=1)
        C = te.base
        pairs = sum(C.dom[f] == C.cod[g] for f in C.morphisms for g in C.morphisms)
        triples = C.composable_tuples(3)
        assert (pairs, len(triples)) == (13, 34)
        # a route is built once per pair track and the composites it reads
        s = {f: te.section(f) for f in C.morphisms}
        mu = {
            (f, g): te.first_track(modq_compose(s[f], s[g]), s[C.compose(f, g)])
            for f, g in C.composable_tuples(2)
        }
        right_keys = {(mu[f, g], C.compose(f, g), h) for f, g, h in triples}
        left_keys = {(f, mu[g, h], C.compose(g, h)) for f, g, h in triples}
        calls, whiskers = [], {"left": [], "right": []}
        compose = modq.modq_compose

        def counted(*args):
            calls.append(args)
            return compose(*args)

        def counted_whisker(side):
            whisker = getattr(te, f"{side}_whisker")

            def wrapped(a, b):
                whiskers[side].append((a, b))
                return whisker(a, b)
            return wrapped

        monkeypatch.setattr(modq, "modq_compose", counted)
        for side in whiskers:
            monkeypatch.setattr(te, f"{side}_whisker", counted_whisker(side))
        assert obstruction_cocycle(te) == {}
        # one composite per pair, and per route key only the source of its
        # whisker: the targets are lift products (149 when composed anew,
        # 81 when the routes were rebuilt for every triple)
        assert len(calls) == pairs + len(right_keys) + len(left_keys) == 39
        assert len(whiskers["right"]) == len(set(whiskers["right"])) == len(right_keys)
        assert len(whiskers["left"]) == len(set(whiskers["left"])) == len(left_keys)

    @pytest.mark.parametrize("second", [False, True])
    def test_reuse_leaves_the_cocycle_unchanged(self, second):
        # over Z/8 with boundary 4 both sections have a nonzero cocycle
        class Recomposing(ModQTrackExtension):
            def left_whisker(self, F, t):
                return track_left_whisker(F, t, modq_compose)

            def right_whisker(self, t, G):
                return track_right_whisker(t, G, modq_compose)

        ext = cyclic_ring_extension(8, 4)
        te, again = ModQTrackExtension(ext, max_rank=1), Recomposing(ext, max_rank=1)
        got = obstruction_cocycle(te, te.second_section if second else None)
        want = obstruction_cocycle(again, again.second_section if second else None)
        assert got == want and got

    @pytest.mark.parametrize(
        "m, d", [(m, d) for m in range(2, 17) for d in range(1, m + 1) if not m % d]
    )
    def test_shared_routes_give_the_per_triple_cocycle(self, m, d):
        te = ModQTrackExtension(cyclic_ring_extension(m, d), max_rank=1)
        for section in (None, te.second_section):
            assert obstruction_cocycle(te, section) == reference_obstruction_cocycle(te, section)

    def test_rank_two_cocycles_are_pinned(self, rank2_extension):
        te = rank2_extension
        assert obstruction_cocycle(te) == {}
        shifted = obstruction_cocycle(te, te.second_section)
        digest = hashlib.sha256(repr(sorted(shifted.items())).encode()).hexdigest()
        assert len(shifted) == 3176
        assert digest == "33015ccaaaeb03470e785e36aa4a8d42e204d26cf3ce6b73b080cdc996e6dd0e"

    def test_track_count_per_cocycle(self, monkeypatch):
        # pair tracks, whiskers and route sums only: pasting the two routes
        # of every triple as a track gave 12,744 and 13,339
        te = ModQTrackExtension(cyclic_ring_extension(256, 16), max_rank=1)
        built = [0]
        post_init = Track.__post_init__

        def counted(track):
            built[0] += 1
            post_init(track)

        monkeypatch.setattr(Track, "__post_init__", counted)
        for section, tracks, nonzero in [(None, 6497, 0), (te.second_section, 6973, 202)]:
            built[0] = 0
            assert len(obstruction_cocycle(te, section)) == nonzero
            assert built[0] == tracks

    def test_refuses_an_include_that_is_not_injective(self):
        base = cyclic_ring_extension(4, 2)
        collapsed = dataclasses.replace(base, include=lambda m: base.c1.zero())
        with pytest.raises(
            NotExact, match=r"^include is not injective: \(1,\) and \(0,\) both map to \(0,\)$"
        ):
            ModQTrackExtension(collapsed)

    def test_refuses_an_include_outside_the_boundary_kernel(self):
        base = cyclic_ring_extension(4, 2)
        # 1 -> 1 in Z/4, whose boundary under multiplication by 2 is 2
        stray = dataclasses.replace(base, include=lambda m: base.c1.reduce(m))
        with pytest.raises(
            NotInKernel, match=r"^include sends \(1,\) to \(1,\), whose boundary \(2,\) is not zero$"
        ):
            ModQTrackExtension(stray)

    def test_rejects_a_negative_rank(self):
        # an empty base would give a vacuous zero obstruction
        with pytest.raises(ValueError, match="max_rank must be at least 0, got -1"):
            ModQTrackExtension(cyclic_ring_extension(4, 2), max_rank=-1)

    def test_size_and_kind_guards(self):
        base = cyclic_ring_extension(4, 2)
        with pytest.raises(TooLarge, match="composable pairs"):
            ModQTrackExtension(base, max_rank=4)
        unbounded = dataclasses.replace(base, module=FgAbGroup.free(1))
        with pytest.raises(NotFinite, match="must be finite"):
            ModQTrackExtension(unbounded)
        quadratic = dataclasses.replace(base, kind="qpa", ring=cyclic_ring(4, "quadratic"))
        with pytest.raises(TypeError, match="square-ring extension"):
            ModQTrackExtension(quadratic)
        # a quotient of order 4 over a ring whose quotient has order 2
        wider = dataclasses.replace(base.quot, carrier=FgAbGroup((4,)))
        with pytest.raises(SectionInvalid, match="has no ring preimage"):
            ModQTrackExtension(dataclasses.replace(base, quot=wider))

    def test_obstruction_refuses_before_the_first_lift_product(self):
        # rank <= 2 over the quotient Z/4: 19.3 M composable triples, most
        # of an hour of whiskers
        te = ModQTrackExtension(cyclic_ring_extension(16, 4), max_rank=2)

        def compose_lifts(F, G):
            raise AssertionError("a lift product was taken")

        te.compose_lifts = compose_lifts
        with pytest.raises(TooLarge, match="19266417 composable triples exceed"):
            obstruction_cocycle(te)

    def test_obstruction_admits_the_rank_two_base_over_z2(self, rank2_extension, monkeypatch):
        class Admitted(Exception):
            pass

        def compose_lifts(F, G):
            raise Admitted

        assert rank2_extension.base.count_chains(3) == 8507
        monkeypatch.setattr(rank2_extension, "compose_lifts", compose_lifts)
        with pytest.raises(Admitted):
            obstruction_cocycle(rank2_extension)


def narrowed_extension():
    """``Z/8`` over boundary 4 with the kernel module cut to ``Z/2``: the
    kernel of the boundary is {0, 2, 4, 6}, only 0 and 4 are included, so
    an automorphism track with an entry 2 or 6 has no module value."""
    base = cyclic_ring_extension(8, 4)
    return dataclasses.replace(
        base, module=FgAbGroup((2,)), include=lambda m: base.c1.reduce((4 * m[0],))
    )


LIFTING_MODELS = [
    ("matrix", 4, 2), ("matrix", 8, 4), ("matrix", 9, 3), ("matrix", 12, 6),
    ("narrowed", 8, 4), ("integer", 4, 2), ("integer", 12, 6), ("integer", 16, 8),
]


@pytest.fixture(scope="module")
def liftings():
    """``(te, lifts, pair tracks, triples)`` per model and section, built once."""
    built = {}

    def get(model, second):
        if (model, second) not in built:
            kind, m, d = model
            if kind == "integer":
                te = CyclicTrackExtension(m, d)
            else:
                ext = narrowed_extension() if kind == "narrowed" else cyclic_ring_extension(m, d)
                te = ModQTrackExtension(ext, max_rank=1)
            s, mu = reference_pair_tracks(te, te.second_section if second else None)
            built[model, second] = (te, s, mu, te.base.composable_tuples(3))
        return built[model, second]
    return get


def read_or_raise(read, a, b) -> tuple:
    try:
        return "value", read(a, b)
    except (QuadAlgError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def pasted_value(te):
    return lambda a, b: te.value(te.vcomp(track_invert(a), b))


def track_from(te, f0, pick):
    """A track out of ``f0`` with entries ``pick(choices)`` and the target
    they force."""
    if isinstance(te, CyclicTrackExtension):
        r = pick(range(te.m))
        return CycTrack(te.m, te.d, f0, (f0 - te.d * r) % te.m, r)
    ext, elems = te.ext, te.ext.c1.elements()
    h = tuple(tuple(pick(elems) for _ in range(f0.ncols)) for _ in range(f0.nrows))
    fi = tuple(
        tuple(ext.c0.sub(a, ext.boundary(c)) for a, c in zip(row, hrow))
        for row, hrow in zip(f0.fi, h)
    )
    return Track(ext, f0, ModQMor(ext.ring, f0.nrows, f0.ncols, fi, {}), h)


class TestLoopValue:
    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(LIFTING_MODELS),
        second=st.booleans(),
        partner=st.sampled_from(["own route", "another triple's route", "a drawn track"]),
        data=st.data(),
    )
    def test_reads_the_pasted_track(self, liftings, model, second, partner, data):
        # route 2 of a triple against its own route 1 (parallel), the route
        # 1 of another triple (often from another source), or a drawn track
        # from the same source (often to another target)
        te, s, mu, triples = liftings(model, second)
        route1, route2 = reference_routes(te, s, mu, data.draw(st.sampled_from(triples)))
        if partner == "another triple's route":
            route1 = reference_routes(te, s, mu, data.draw(st.sampled_from(triples)))[0]
        elif partner == "a drawn track":
            route1 = track_from(te, route2.f0, lambda seq: data.draw(st.sampled_from(seq)))
        got = read_or_raise(te.loop_value, route2, route1)
        assert got == read_or_raise(pasted_value(te), route2, route1)

    def test_each_outcome_matches_the_paste(self, liftings):
        # every outcome the differential test above compares, reached on
        # purpose: a value, another source, another target, and a loop
        # outside the narrowed module's image
        te, s, mu, triples = liftings(("narrowed", 8, 4), True)
        routes = [reference_routes(te, s, mu, T) for T in triples]
        seen = []
        for route1, route2 in routes:
            drawn = track_from(te, route2.f0, lambda seq: seq[1])
            for partner in (route1, routes[0][0], drawn):
                got = read_or_raise(te.loop_value, route2, partner)
                assert got == read_or_raise(pasted_value(te), route2, partner)
                seen.append(got)
        assert any(kind == "value" and any(res) for kind, res in seen)
        assert ("ShapeMismatch", "vertical composition needs matching middle morphisms") in seen
        assert ("ValueError", "only automorphism tracks carry module values") in seen
        assert any(
            kind == "ValueError" and res.endswith("is not in the kernel module image")
            for kind, res in seen
        )
