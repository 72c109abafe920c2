"""Command line entry points.

Subcommands
-----------

``verify FILE``
    Run the axiom suite matching the document's kind; on a matrix
    program, compose by both routes and compare.
``cohomology CAT COEFF --degree N``
    Cohomology of a finite category with natural-system coefficients.
``nu FILE``
    The obstruction element ``nu = P(H(2))`` of a crossed extension.
``znil-demo``
    The integer model end to end, with its exact obstruction class.
``snf FILE``
    Smith normal form of an integer matrix, certificates re-checked; at
    most ``MAX_SNF_DIM`` rows and columns.

Exit codes: 0 when every check passes, 1 when an axiom check fails
(the report carries a witness), 2 for malformed input, and 3 when the
requested computation exceeds its configured size bounds.
"""
from __future__ import annotations

import argparse
import json
import sys

from .abelian import FgAbGroup, identity, mat_shape, matmul, smith
from .bwcoh import DEFAULT_GENERATOR_CAP, cohomology
from .crossed import nu_class, ztilde_construction
from .documents import (
    KINDS,
    _int_matrix,
    _own_verify,
    build_document,
    build_natural_system_over,
    load_document,
    read_json,
    verify_document,
)
from .errors import DocumentError, NotInKernel, QuadAlgError, TooLarge
from .reports import Report
from .sqring import znil

# quadalg snf refuses a matrix with more rows or columns than this before its
# Smith form: on a dense n x n matrix with entries in -9..9 (random.Random(0))
# the form, four certificates and three checks take 0.06 s at n = 24, 0.6 s
# at 28 and 7.6 s at 32, where U has 170,961-bit entries (2-vCPU container).
MAX_SNF_DIM = 24

# quadalg verify and nu refuse more samples than this before any draw: every
# tuple is held at once, and verify on the znil square-ring document peaks at
# 41 MB RSS at 30,000 samples and 152 MB at 300,000 (0.41 KB a sample), and
# on the one-letter word model of length 6 at 201 MB at 100,000 (2-vCPU container).
MAX_SAMPLES = 300_000


def _emit(report: Report, fmt: str) -> int:
    print(report.render() if fmt == "human" else report.render_jsonl())
    return 0 if report.passed else 1


def _emit_records(records: list[dict], lines: list[str], fmt: str) -> None:
    if fmt == "machine":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _check_samples(args) -> None:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise TooLarge(f"--samples {args.samples} exceeds the bound of {MAX_SAMPLES}")


def _cmd_verify(args) -> int:
    doc = load_document(args.file)
    if KINDS[doc["kind"]][1] not in (None, _own_verify):  # the kinds that sample
        _check_samples(args)
    report = verify_document(doc, samples=args.samples, seed=args.seed)
    return _emit(report, args.format)


def _cmd_cohomology(args) -> int:
    cat_doc = load_document(args.category)
    if cat_doc["kind"] != "category":
        raise DocumentError(f"{args.category}: expected a category document")
    cat = build_document(cat_doc)
    coeff_doc = load_document(args.coefficients)
    cat, system = build_natural_system_over(coeff_doc, cat, cat_doc)
    normalized = {"auto": None, "normalized": True, "full": False}[args.chains]
    result = cohomology(
        cat,
        system,
        args.degree,
        normalized=normalized,
        max_generators=args.max_generators,
    )
    factors = list(result.group.invariant_factors)
    records = [
        {
            "record": "cohomology",
            "category": cat.name,
            "coefficients": system.name,
            "degree": result.degree,
            "chains": "normalized" if result.normalized else "full",
            "invariant_factors": factors,
            "description": result.group.describe(),
        }
    ]
    lines = [
        f"== cohomology: degree {result.degree} ==",
        f"category: {cat.name}",
        f"coefficients: {system.name}",
        f"chains: {'normalized' if result.normalized else 'full'}",
        f"H^{result.degree} = {factors} ({result.group.describe()})",
    ]
    _emit_records(records, lines, args.format)
    return 0


def _nu_report(ext, samples: int, seed: int) -> Report:
    r = Report(title=f"nu: {ext.name}", samples=samples, seed=seed)
    try:
        res = nu_class(ext, samples=samples, seed=seed)
    except NotInKernel as exc:
        r.add("nu lies in the kernel of the boundary", False, str(exc))
        return r
    except ValueError as exc:
        r.add("nu has order dividing two", False, str(exc))
        return r
    r.add("nu lies in the kernel of the boundary", True)
    r.add("nu has order dividing two", True)
    r.add("nu is fixed by the two-sided action", res.is_invariant)
    if res.module_factors is not None:
        kernel = FgAbGroup(res.module_factors)
        r.note(f"kernel of the boundary: {kernel.describe()}")
    r.note(f"class: {res.describe()}")
    return r


def _cmd_nu(args) -> int:
    _check_samples(args)
    doc = load_document(args.file)
    if doc["kind"] != "extension":
        raise DocumentError(f"{args.file}: expected an extension document")
    ext = build_document(doc)
    return _emit(_nu_report(ext, args.samples, args.seed), args.format)


def _cmd_znil_demo(args) -> int:
    ring = znil()
    ext = ztilde_construction(ring)
    res = nu_class(ext)
    print("== znil demo ==")
    print(f"ring: {ring.name}")
    print(f"extension: {ext.name} (kind {ext.kind})")
    checks = [
        ("boundary of nu vanishes", ext.c0.is_zero(ext.boundary(res.element))),
        ("2 nu = 0", res.is_zero or ext.c1.is_zero(ext.c1.add(res.element, res.element))),
        ("nu is fixed by the two-sided action", res.is_invariant),
    ]
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if res.module_factors is not None:
        print(f"kernel of the boundary: {FgAbGroup(res.module_factors).describe()}")
    expected = "nu = 1 in Z/2: generator"
    if all(ok for _, ok in checks) and res.describe() == expected:
        print(f"{expected} — PASS")
        return 0
    print(f"{res.describe()}: FAIL")
    return 1


def _load_matrix(path: str) -> list[list[int]]:
    raw = read_json(path)
    if isinstance(raw, dict):
        raw = raw.get("matrix")
    if not isinstance(raw, list) or not raw:
        raise DocumentError(f"{path}: expected a nonempty JSON array of rows")
    return _int_matrix(raw, path)


def _cmd_snf(args) -> int:
    M = _load_matrix(args.file)
    m, n = mat_shape(M)
    if max(m, n) > MAX_SNF_DIM:
        raise TooLarge(f"{m}x{n} matrix exceeds the bound of {MAX_SNF_DIM} rows and columns")
    res = smith(M)
    r = Report(title="smith normal form")
    r.note(f"shape: {m}x{n}")
    r.note(f"diagonal: {res.diagonal}")
    r.note(f"rank: {res.rank}")
    cokernel = FgAbGroup.from_factors(
        list(res.diagonal) + [0] * (m - min(m, n))
    )
    r.note(f"cokernel: {cokernel.describe()}")
    r.add("U M V recovers the normal form", matmul(matmul(res.U, M), res.V) == res.S)
    r.add("U is invertible over the integers", matmul(res.U, res.Uinv) == identity(m))
    r.add("V is invertible over the integers", matmul(res.V, res.Vinv) == identity(n))
    chain = res.diagonal
    divides = all(
        chain[i + 1] % chain[i] == 0 if chain[i] else chain[i + 1] == 0
        for i in range(len(chain) - 1)
    )
    r.add("diagonal entries divide in order", divides)
    return _emit(r, args.format)


def _add_format(p) -> None:
    p.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="human-readable text or line-delimited JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Exact arithmetic for the quadratic hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the axiom suite or matrix program of a document")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cohomology", help="cohomology of a finite category")
    p.add_argument("category")
    p.add_argument("coefficients")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--chains",
        choices=("auto", "normalized", "full"),
        default="auto",
        help="cochain model; auto uses normalized chains above degree 2",
    )
    p.add_argument("--max-generators", type=int, default=DEFAULT_GENERATOR_CAP)
    _add_format(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("nu", help="the obstruction element of an extension")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("znil-demo", help="the integer model end to end")
    p.set_defaults(func=_cmd_znil_demo)

    p = sub.add_parser("snf", help="smith normal form of an integer matrix")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_snf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_generators", 1) < 1:
            raise ValueError(f"--max-generators must be at least 1, got {args.max_generators}")
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, QuadAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
