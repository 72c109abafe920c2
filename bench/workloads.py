"""Job lists of the quadalg benchmark, with their inputs and result checks.

A job builds its inputs from freshly imported modules (``setup``), runs one
public call (``run``) and checks the result (``check``) against a pinned
expected value (``expect``) and, where the library has one, an independent
route; ``check`` raises :class:`WrongResult` on a mismatch. ``sizes`` reads
exact size records from the inputs and the result, outside the timed part.
Cohomology values do not depend on the seed; the seed drives sample draws
and the random cochains of the checks.

Sizes are chosen so that one pass over a job list takes a few seconds on a
2-CPU machine, which lets a measured run repeat it several times.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable


class WrongResult(Exception):
    """A job returned a value that disagrees with its expected value."""


@dataclass(frozen=True)
class Job:
    name: str
    setup: Callable  # (q, seed) -> inputs
    run: Callable  # (q, inputs) -> result
    check: Callable  # (q, job, inputs, result, rng, done) -> None
    expect: Any
    sizes: Callable  # (inputs, result) -> dict


def require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongResult(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_rng(seed: int, job: Job) -> random.Random:
    return random.Random(f"{seed}/{job.name}")


# ---------------------------------------------------------------------------
# Cohomology jobs
# ---------------------------------------------------------------------------

def _cyclic_system(m: int):
    def setup(q, seed):
        C = q.bwcoh.one_object_cyclic(m)
        return C, q.bwcoh.trivial_system(C, q.abelian.FgAbGroup.cyclic(m))
    return setup


def _dm_system(modulus: int, rank: int):
    return lambda q, seed: q.bwcoh.dm_natural_system(modulus, rank)


def _chains(C, n: int, normalized: bool) -> list:
    return list(C.objects) if n == 0 else C.composable_tuples(n, normalized)


def _group_of(C, D, key, n: int):
    return D.group_at(C.identity(key) if n == 0 else C.product(key))


def _random_cochain(C, D, n: int, normalized: bool, rng: random.Random) -> dict:
    return {k: _group_of(C, D, k, n).sample(rng) for k in _chains(C, n, normalized)}


def _nnz(M) -> int:
    return sum(1 for row in M for c in row if c)


def _cohomology_sizes(inputs, res) -> dict:
    """Chain counts and generator counts of the three levels around the
    result's degree, and the shapes and nonzeros of its differentials."""
    C, D = inputs
    sizes: dict = {"chains": {}, "level_ngens": {}}
    for n in range(max(res.degree - 1, 0), res.degree + 2):
        keys = _chains(C, n, res.normalized)
        sizes["chains"][n] = len(keys)
        sizes["level_ngens"][n] = sum(_group_of(C, D, k, n).ngens for k in keys)
    for name in ("d_in", "d_out"):
        M = getattr(res, name).matrix
        sizes[name] = {"shape": [len(M), len(M[0]) if M else 0], "nnz": _nnz(M)}
    return sizes


def _check_cohomology(q, job, inputs, res, rng, done) -> None:
    C, D = inputs
    got = res.invariant_factors
    require(got == job.expect, f"H^{res.degree} = {got}, expected {job.expect}")
    if res.degree >= 1:
        n = res.degree - 1
        z = q.bwcoh.coboundary(C, D, n, _random_cochain(C, D, n, res.normalized, rng), res.normalized)
        require(res.is_cocycle(z), "the coboundary of a random cochain is not a cocycle")
        require(not any(res.class_of(z)), "the coboundary of a random cochain has a nonzero class")
    if res.degree == 1 and len(C.objects) == 1:
        # H^1(Z/m; Z/m) = Hom(Z/m, Z/m): the identity homomorphism has order m.
        m = len(C.morphisms)
        ident = {(a,): (a,) for a in C.morphisms}
        require(res.is_cocycle(ident), "the identity homomorphism is not a cocycle")
        order = res.group.element_order(res.class_of(ident))
        require(order == m, f"the identity class has order {order}, expected {m}")


def cohomology_job(name: str, setup, degree: int, expect, normalized=None) -> Job:
    return Job(
        name=name,
        setup=setup,
        run=lambda q, inp: q.bwcoh.cohomology(inp[0], inp[1], degree, normalized=normalized),
        check=_check_cohomology,
        expect=tuple(expect),
        sizes=_cohomology_sizes,
    )


def _check_bar(q, job, inputs, group, rng, done) -> None:
    m, degree, engine_job = inputs
    got = group.invariant_factors
    require(got == job.expect, f"bar H^{degree}(Z/{m}) = {got}, expected {job.expect}")
    engine = done.get(engine_job)
    require(engine is not None, f"no result of {engine_job} to compare with")
    require(engine.invariant_factors == got, f"the bar complex and {engine_job} disagree")


def _bar_sizes(inputs, group) -> dict:
    m, degree, _ = inputs
    levels = range(max(degree - 1, 0), degree + 2)
    return {"chains": {n: m ** n for n in levels}, "level_ngens": {n: m ** n for n in levels}}


def bar_job(name: str, m: int, degree: int, engine_job: str) -> Job:
    """The bar-complex oracle, compared with the category engine's job."""
    return Job(
        name=name,
        setup=lambda q, seed: (m, degree, engine_job),
        run=lambda q, inp: q.bwcoh.bar_cohomology(inp[0], inp[1]),
        check=_check_bar,
        expect=(m,),
        sizes=_bar_sizes,
    )


# ---------------------------------------------------------------------------
# Verifier, composition and obstruction jobs
# ---------------------------------------------------------------------------

def report_digest(report, seed: int) -> str:
    """Digest of both renderings with the seed masked, so that the pin holds
    for every seed; a report that passes renders the same for all seeds."""
    text = report.render() + "\n" + report.render_jsonl()
    text = text.replace(f"seed={seed}\n", "seed=*\n").replace(f'"seed": {seed}', '"seed": "*"')
    return sha256(text)


def _check_report(q, job, inputs, report, rng, done) -> None:
    seed = inputs[-1]
    require(report.passed, f"report failed: {report.first_failure()}")
    checks, digest = job.expect
    require(len(report.checks) == checks, f"{len(report.checks)} checks, expected {checks}")
    require(report_digest(report, seed) == digest, "report rendering differs from the pinned digest")


def report_job(name: str, setup, run, checks: int, digest: str) -> Job:
    return Job(
        name=name, setup=setup, run=run, check=_check_report, expect=(checks, digest),
        sizes=lambda inputs, report: {"checks": len(report.checks)},
    )


def obstruction_digest(cocycle: dict) -> str:
    return sha256(repr(sorted(cocycle.items())))


def _check_obstruction(q, job, inputs, cocycle, rng, done) -> None:
    nonzero, digest = job.expect
    require(len(cocycle) == nonzero, f"{len(cocycle)} nonzero entries, expected {nonzero}")
    require(obstruction_digest(cocycle) == digest, "cocycle differs from the pinned digest")


def _obstruction_sizes(inputs, cocycle) -> dict:
    return {"morphisms": len(inputs[0].base.morphisms), "nonzero": len(cocycle)}


def obstruction_job(name: str, m: int, d: int, second: bool, nonzero: int, digest: str) -> Job:
    """The obstruction cocycle of the rank <= 1 matrix category of
    ``cyclic_ring_extension(m, d)``, whose quotient is Z/gcd(m, d)."""
    def setup(q, seed):
        return (q.modq.ModQTrackExtension(q.crossed.cyclic_ring_extension(m, d), max_rank=1),)

    def run(q, inp):
        te = inp[0]
        return q.modq.obstruction_cocycle(te, te.second_section if second else None)

    return Job(
        name=name, setup=setup, run=run, check=_check_obstruction, expect=(nonzero, digest),
        sizes=_obstruction_sizes,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# High degree on small categories: the work is many right-hand-side solves.
_COH_DEEP = [
    cohomology_job("dm4r1_h0", _dm_system(4, 1), 0, (4,)),
    cohomology_job("dm4r1_h1", _dm_system(4, 1), 1, (2, 2)),
    cohomology_job("dm4r1_h2", _dm_system(4, 1), 2, (2, 4)),
    cohomology_job("dm4r1_h3", _dm_system(4, 1), 3, (2, 2, 2, 2, 2)),
    cohomology_job("cyc3_h3", _cyclic_system(3), 3, (3,), normalized=False),
    bar_job("bar3_h3", 3, 3, "cyc3_h3"),
]
# Low degree with wide levels: the work is level assembly and the Smith forms
# of large presented matrices. Kept apart from _COH_DEEP so that level
# assembly is a large enough share of one workload for a gain to show.
_COH_WIDE = [
    cohomology_job("cyc14_h1", _cyclic_system(14), 1, (14,), normalized=False),
    cohomology_job("cyc10_h1", _cyclic_system(10), 1, (10,), normalized=False),
    cohomology_job("cyc5_h2", _cyclic_system(5), 2, (5,), normalized=False),
    cohomology_job("dm2r2_h0", _dm_system(2, 2), 0, (2,)),
]
# Axiom verifiers at fixed sample counts: element arithmetic and class-two
# words, no matrix Smith form. The pinned digests are of passing reports.
_VERIFY = [
    report_job(
        "ring_znil",
        lambda q, seed: (q.sqring.znil(), seed),
        lambda q, inp: q.sqring.verify_ring(inp[0], 3000, seed=inp[1]),
        33, "239d18a1c273889fc49aeeab025873cdd58497fb5cea3fb866bb722a2484b954",
    ),
    report_job(
        "ring_monoid",
        lambda q, seed: (q.sqring.znil_monoid(["s", "t"], 6), seed),
        lambda q, inp: q.sqring.verify_ring(inp[0], 30, seed=inp[1]),
        33, "2bdf7bb87115e25f1a67f83b34a886906e69109df501087ee5f4505ce3a91e55",
    ),
    report_job(
        "crossed_ztilde",
        lambda q, seed: (
            q.crossed.ztilde_construction(
                q.sqring.znil_monoid(["s"], 6), samples=50, seed=seed
            ),
            seed,
        ),
        lambda q, inp: q.crossed.verify_crossed(inp[0], 100, seed=inp[1]),
        70, "7d2df789f26860fe9c66a3052ade9a8e1b3cd04ba2892588365bbc527f220a36",
    ),
    report_job(
        "crossed_cyclic",
        lambda q, seed: (q.crossed.cyclic_ring_extension(4, 2), seed),
        lambda q, inp: q.crossed.verify_crossed(inp[0], 300, seed=inp[1]),
        73, "46ae1f6142b182e12ac1d9e06eb5b8836ad5f7a8ad6292910bdf0f0686536ba1",
    ),
]
# Matrix-category composition and obstruction cocycles: track arithmetic.
# The obstructions are of rank <= 1 over the quotient Z/16 (19 morphisms,
# 4,696 composable triples), which keeps every job under a second; the
# shifted section's cocycle has 202 nonzero entries. Rank 2 over Z/2 costs
# about 5 s per cocycle and is left to composition_report (max_dim=2), whose
# cost depends on the sampled elements: 100 samples keep the spread of its
# cost over seeds near 7%, where 30 samples varied it twofold.
_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
_MODQ = [
    obstruction_job("obstruction_z2", 4, 2, False, 0, _EMPTY),
    report_job(
        "composition",
        lambda q, seed: (q.sqring.znil_monoid(["s", "t"], 6), seed),
        lambda q, inp: q.modq.composition_report(inp[0], 100, seed=inp[1], max_dim=2),
        5, "2a31ab18e374155a8e3a3b4faf4f34ec9e5e04e5eebc4195af7a65f1e097b6b9",
    ),
    obstruction_job("obstruction_z16", 256, 16, False, 0, _EMPTY),
    obstruction_job(
        "obstruction_z16_second", 256, 16, True, 202,
        "74b659f33329ad350645d5f50e427d11513d4376111eaf3eff3f1fb7dbe8d0a0",
    ),
]

WORKLOADS = {"coh_deep": _COH_DEEP, "coh_wide": _COH_WIDE, "verify": _VERIFY, "modq": _MODQ}

# One tiny job per workload, for the benchmark's own tests.
QUICK = {"coh_deep": "dm4r1_h1", "coh_wide": "dm2r2_h0", "verify": "crossed_cyclic", "modq": "obstruction_z2"}


def jobs_for(workload: str, quick: bool = False) -> list[Job]:
    jobs = WORKLOADS[workload]
    return [j for j in jobs if j.name == QUICK[workload]] if quick else jobs
