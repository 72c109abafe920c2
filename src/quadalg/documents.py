"""JSON documents describing the structures the command line works on.

Every input file is a JSON object with two required fields:
``schema_version`` (currently 1) and ``kind``. The remaining fields
depend on the kind. Construction-style documents name one of the built-in
constructions (``znil``, ``cyclic_ring``, ``one_object_cyclic``,
``dm``, ``ztilde``) and its parameters; ``explicit`` documents carry
full tables.

Malformed documents raise :class:`~quadalg.errors.DocumentError`; so do
explicit categories whose tables fail the category laws, since every
computation on a category reads those tables. Other failed axioms never
raise: :func:`verify_document` returns a report in which the failures
are data.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType

from .abelian import AbMap, FgAbGroup, mat_shape, mat_vec
from .bwcoh import (
    FinCat,
    NatSystem,
    dm_natural_system,
    natsystem_verify,
    one_object_cyclic,
    trivial_system,
)
from .crossed import (
    CrossedExtension,
    cyclic_ring_extension,
    verify_crossed,
    ztilde_construction,
)
from .errors import DocumentError
from .modq import ModQMor, modq_compose
from .nil2 import (
    Qpm,
    SquareGroup,
    qpm_verify,
    square_group_verify,
)
from .reports import Report
from .sqring import SquareRing, cyclic_ring, verify_ring, znil, znil_monoid

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def read_json(path: str):
    """The JSON value in the file at ``path``; a missing, unreadable or
    malformed file raises :class:`DocumentError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def load_document(path: str) -> dict:
    """Read a JSON document from ``path`` and validate its envelope."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be a JSON object")
    check_envelope(doc)
    return doc


def check_envelope(doc: dict) -> str:
    """Validate ``schema_version`` and ``kind``; return the kind."""
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DocumentError(f"unknown document kind: {kind!r}")
    return kind


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: ``bool`` is a subclass of
    ``int`` in Python, but ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not (_is_int(value) if types is int else isinstance(value, types)):
        raise DocumentError(f"{where}: field {key!r} has the wrong type")
    return value


def _optional_list(doc: dict, key: str, where: str) -> list:
    """The list at ``key``, or an empty one when ``doc`` has no ``key``."""
    return _field(doc, key, list, where) if key in doc else []


def _factors(raw, where: str) -> FgAbGroup:
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise DocumentError(f"{where}: invariant factors must be a list of integers")
    try:
        return FgAbGroup(tuple(raw))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _int_matrix(raw, where: str) -> list[list[int]]:
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise DocumentError(f"{where}: matrix must be a list of rows")
    out = []
    width = None
    for row in raw:
        if not all(map(_is_int, row)):
            raise DocumentError(f"{where}: matrix entries must be integers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DocumentError(
                f"{where}: matrix rows have unequal lengths;"
                " rows must be equal-length integer lists"
            )
        out.append(list(row))
    return out


def _has_shape(M: list[list[int]], rows: int, cols: int) -> bool:
    """``M`` has ``rows`` rows of ``cols`` entries each. With no rows this
    holds for any ``cols``, since JSON writes every 0 x n matrix as ``[]``."""
    return len(M) == rows and all(len(row) == cols for row in M)


def _linear_map(doc: dict, key: str, source: FgAbGroup, target: FgAbGroup, where: str):
    """The map ``source -> target`` given by the integer matrix at ``key``,
    one row per generator of ``target``."""
    M = _int_matrix(_field(doc, key, list, where), f"{where} {key}")
    if not _has_shape(M, target.ngens, source.ngens):
        rows, cols = mat_shape(M)
        raise DocumentError(
            f"{where} {key}: matrix is {rows}x{cols}, wanted {target.ngens}x{source.ngens}"
        )
    return lambda v: target.reduce(mat_vec(M, v))


# ---------------------------------------------------------------------------
# Abelian maps
# ---------------------------------------------------------------------------

@dataclass
class AbMapDocument:
    """A candidate homomorphism, kept raw until its descent is checked."""

    source: FgAbGroup
    target: FgAbGroup
    matrix: list[list[int]]

    def verify(self) -> Report:
        r = Report(title="abelian map")
        r.note(f"source: {self.source.describe()}")
        r.note(f"target: {self.target.describe()}")
        rows, cols = mat_shape(self.matrix)
        shape_ok = _has_shape(self.matrix, self.target.ngens, self.source.ngens)
        r.add(
            "matrix shape matches the generator counts",
            shape_ok,
            None if shape_ok else f"matrix is {rows}x{cols}",
        )
        if not shape_ok:
            return r
        r.add(
            "relations are respected",
            *AbMap(self.source, self.target, self.matrix).respects_relations(),
        )
        return r


def _build_abelian_map(doc: dict) -> AbMapDocument:
    source = _factors(_field(doc, "source", list, "abelian_map"), "abelian_map source")
    target = _factors(_field(doc, "target", list, "abelian_map"), "abelian_map target")
    matrix = _int_matrix(_field(doc, "matrix", list, "abelian_map"), "abelian_map")
    return AbMapDocument(source, target, matrix)


# ---------------------------------------------------------------------------
# Square groups
# ---------------------------------------------------------------------------

def _coords(raw, group: FgAbGroup, where: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != group.ngens:
        raise DocumentError(f"{where}: expected {group.ngens} coordinates")
    if not all(map(_is_int, raw)):
        raise DocumentError(f"{where}: coordinates must be integers")
    return group.reduce(tuple(raw))


def _h_table(doc: dict, e: FgAbGroup, ee: FgAbGroup, where: str) -> dict:
    """The ``H`` table of an explicit document: one ``[x, H(x)]`` row per element."""
    raw_h = _field(doc, "H", list, where)
    table = {}
    for row in raw_h:
        if not (isinstance(row, list) and len(row) == 2):
            raise DocumentError(f"{where} H: each entry must be a [x, H(x)] pair")
        x = _coords(row[0], e, f"{where} H input")
        table[x] = _coords(row[1], ee, f"{where} H output")
    missing = [x for x in e.elements() if x not in table]
    if missing:
        raise DocumentError(f"{where} H: no value for {missing[0]}")
    if len(raw_h) != e.order():
        raise DocumentError(f"{where} H: table has repeated or extra inputs")
    return table


def _build_square_group(doc: dict) -> SquareGroup:
    construction = _field(doc, "construction", str, "square_group")
    if construction == "znil":
        return znil().square_group
    if construction != "explicit":
        raise DocumentError(f"unknown square_group construction: {construction!r}")
    ge = _factors(_field(doc, "e", list, "square_group"), "square_group e")
    gee = _factors(_field(doc, "ee", list, "square_group"), "square_group ee")
    if ge.order() is None or gee.order() is None:
        raise DocumentError("explicit square groups must have finite carriers")
    table = _h_table(doc, ge, gee, "square_group")
    return SquareGroup(
        e=ge,
        ee=gee,
        H=lambda x: table[ge.reduce(x)],
        P=_linear_map(doc, "P", gee, ge, "square_group"),
        name="explicit square group",
    )


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def _build_ring(doc: dict, kind: str):
    ring_kind = "quadratic" if kind == "quadratic_ring" else "square"
    construction = _field(doc, "construction", str, kind)
    if construction == "znil":
        if "symbols" not in doc:
            return znil(kind=ring_kind)
        symbols = _field(doc, "symbols", list, kind)
        if not symbols or not all(isinstance(s, str) for s in symbols):
            raise DocumentError(f"{kind}: symbols must be a nonempty list of strings")
        length_bound = doc.get("length_bound", 6)
        sample_length = doc.get("sample_length", 2)
        if not _is_int(length_bound) or not _is_int(sample_length):
            raise DocumentError(f"{kind}: length_bound and sample_length must be integers")
        try:
            return znil_monoid(
                symbols,
                length_bound=length_bound,
                kind=ring_kind,
                sample_length=sample_length,
            )
        except ValueError as exc:
            raise DocumentError(f"{kind}: {exc}") from exc
    if construction == "cyclic_ring":
        modulus = _field(doc, "modulus", int, kind)
        try:
            return cyclic_ring(modulus, kind=ring_kind)
        except ValueError as exc:
            raise DocumentError(f"{kind}: {exc}") from exc
    raise DocumentError(f"unknown {kind} construction: {construction!r}")


# ---------------------------------------------------------------------------
# Extensions and pair modules
# ---------------------------------------------------------------------------

def _build_extension(doc: dict) -> CrossedExtension:
    construction = _field(doc, "construction", str, "extension")
    if construction == "cyclic_ring":
        modulus = _field(doc, "modulus", int, "extension")
        multiplier = _field(doc, "boundary_multiplier", int, "extension")
        try:
            return cyclic_ring_extension(modulus, multiplier)
        except ValueError as exc:
            raise DocumentError(f"extension: {exc}") from exc
    if construction == "ztilde":
        ring_doc = _field(doc, "ring", dict, "extension")
        if check_envelope(ring_doc) != "square_ring":
            raise DocumentError("extension: the ztilde construction needs a square_ring")
        ring = _build_ring(ring_doc, "square_ring")
        return ztilde_construction(ring)
    raise DocumentError(f"unknown extension construction: {construction!r}")


def _build_qpm(doc: dict) -> Qpm:
    construction = _field(doc, "construction", str, "qpm")
    if construction in ("cyclic_ring", "ztilde"):
        return _build_extension(doc).qpm()
    if construction != "explicit":
        raise DocumentError(f"unknown qpm construction: {construction!r}")
    g0 = _factors(_field(doc, "c0", list, "qpm"), "qpm c0")
    g1 = _factors(_field(doc, "c1", list, "qpm"), "qpm c1")
    gee = _factors(_field(doc, "cee", list, "qpm"), "qpm cee")
    if g0.order() is None or gee.order() is None:
        raise DocumentError("explicit pair modules must have finite carriers")
    table = _h_table(doc, g0, gee, "qpm")
    return Qpm(
        c0=g0,
        c1=g1,
        cee=gee,
        H=lambda x: table[g0.reduce(x)],
        P=_linear_map(doc, "P", gee, g1, "qpm"),
        boundary=_linear_map(doc, "boundary", g1, g0, "qpm"),
        name="explicit qpm",
    )


# ---------------------------------------------------------------------------
# Categories and natural systems
# ---------------------------------------------------------------------------

def _build_category(doc: dict) -> tuple[FinCat, Report | None]:
    """The category with the report of its table checks: an explicit table
    is checked here, once, and refused if it fails; a construction's report
    is ``None``, as nothing was checked."""
    construction = _field(doc, "construction", str, "category")
    if construction in ("one_object_cyclic", "dm"):
        modulus = _field(doc, "modulus", int, "category")
        try:
            if construction == "dm":
                return FinCat.mod_r(modulus, _field(doc, "max_rank", int, "category")), None
            return one_object_cyclic(modulus), None
        except ValueError as exc:
            raise DocumentError(f"category: {exc}") from exc
    if construction != "explicit":
        raise DocumentError(f"unknown category construction: {construction!r}")
    objects = _field(doc, "objects", list, "category")
    morphisms = _field(doc, "morphisms", list, "category")
    if not all(isinstance(o, str) for o in objects) or not all(
        isinstance(m, str) for m in morphisms
    ):
        raise DocumentError("category: objects and morphisms must be strings")
    if len(set(objects)) != len(objects) or len(set(morphisms)) != len(morphisms):
        raise DocumentError("category: objects and morphisms must be distinct")
    names = {"object": set(objects), "morphism": set(morphisms)}

    def name_map(key: str, source: str, target: str) -> dict:
        """The map at ``key`` from every ``source`` name to a ``target`` name."""
        raw = _field(doc, key, dict, "category")
        if set(raw) != names[source]:
            raise DocumentError(f"category: {key} must cover every {source} exactly once")
        for k, v in raw.items():
            if not isinstance(v, str) or v not in names[target]:
                raise DocumentError(f"category: {key}[{k!r}] names an unknown {target}")
        return dict(raw)

    dom, cod = name_map("dom", "morphism", "object"), name_map("cod", "morphism", "object")
    ids = name_map("identities", "object", "morphism")
    mor_set = names["morphism"]
    table = {}
    for row in _field(doc, "composition", list, "category"):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(v, str) for v in row)):
            raise DocumentError("category: composition rows must be [f, g, f.g] triples")
        f, g, h = row
        if f not in mor_set or g not in mor_set or h not in mor_set:
            raise DocumentError(f"category: composition row {row} names an unknown morphism")
        if dom[f] != cod[g]:
            raise DocumentError(f"category: morphisms {f!r} and {g!r} are not composable")
        if (f, g) in table:
            raise DocumentError(f"category: composition row for ({f!r}, {g!r}) repeats")
        table[(f, g)] = h
    cat = FinCat(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        dom=dom,
        cod=cod,
        table=table,
        ids=ids,
        name=doc.get("name", "explicit category"),
    )
    tables = cat.validate()
    failure = tables.first_failure()
    if failure is not None:
        raise DocumentError(f"category: {failure.name} fails at {failure.witness}")
    return cat, tables


def _dm_numbers(doc: dict, where: str) -> tuple[int, int]:
    """The ``(modulus, max_rank)`` of a ``dm`` document."""
    return _field(doc, "modulus", int, where), _field(doc, "max_rank", int, where)


def _build_natural_system(
    doc: dict, default_category: FinCat | None = None, default_dm: tuple | None = None
) -> tuple[FinCat, NatSystem, Report | None]:
    """The category, the system, and the category's table report as
    :func:`_build_category` gives it (``None`` unless checked here).

    ``default_dm`` is the ``(modulus, max_rank)`` of a ``dm`` document that
    ``default_category`` was built from; a ``dm`` system, or a ``trivial``
    system whose own category is ``dm``, of the same two numbers is built
    over ``default_category`` instead of a new one."""
    construction = _field(doc, "construction", str, "natural_system")
    if construction == "trivial":
        tables = None
        if "category" in doc:
            cat_doc = _field(doc, "category", dict, "natural_system")
            if check_envelope(cat_doc) != "category":
                raise DocumentError("natural_system: the category field must hold a category")
            if (
                default_dm is not None
                and cat_doc.get("construction") == "dm"
                and _dm_numbers(cat_doc, "category") == default_dm
            ):
                cat = default_category
            else:
                cat, tables = _build_category(cat_doc)
        elif default_category is not None:
            cat = default_category
        else:
            raise DocumentError("natural_system: missing field 'category'")
        group = _factors(
            _field(doc, "coefficients", list, "natural_system"), "natural_system coefficients"
        )
        return cat, trivial_system(cat, group), tables
    if construction == "dm":
        modulus, max_rank = _dm_numbers(doc, "natural_system")
        coeff = doc.get("coefficient_modulus")
        if coeff is not None and not _is_int(coeff):
            raise DocumentError("natural_system: coefficient_modulus must be an integer")
        cat = default_category if (modulus, max_rank) == default_dm else None
        try:
            return *dm_natural_system(modulus, max_rank, coeff, cat), None
        except ValueError as exc:
            raise DocumentError(f"natural_system: {exc}") from exc
    raise DocumentError(f"unknown natural_system construction: {construction!r}")


# ---------------------------------------------------------------------------
# Matrix programs
# ---------------------------------------------------------------------------

@dataclass
class ModQProgram:
    """Named morphisms over one ring plus a list of composites to run."""

    ring: SquareRing
    morphisms: dict
    compose: list[tuple[str, str]]

    def verify(self) -> Report:
        r = Report(title=f"matrix program over {self.ring.name}")
        for name in self.morphisms:
            m = self.morphisms[name]
            r.note(f"{name}: {m.nrows}x{m.ncols}, {len(m.fij)} quadratic rows")
        for fname, gname in self.compose:
            closed = modq_compose(self.morphisms[fname], self.morphisms[gname], "closed")
            oracle = modq_compose(self.morphisms[fname], self.morphisms[gname], "oracle")
            r.add(
                f"compose {fname}.{gname}: closed route equals substitution route",
                closed == oracle,
                None if closed == oracle else f"closed={closed.fi}, oracle={oracle.fi}",
            )
        return r


def _element_decoders(ring_doc: dict, ring):
    """Decoders for ``e`` and ``ee`` entries, chosen by the construction."""
    construction = ring_doc["construction"]
    if construction == "cyclic_ring" or (construction == "znil" and "symbols" not in ring_doc):
        def decode_int(raw, group, where):
            if not _is_int(raw):
                raise DocumentError(f"{where}: expected an integer entry")
            if group.ngens == 0:
                return group.zero()
            return group.reduce((raw,))

        return (
            lambda raw, where: decode_int(raw, ring.e, where),
            lambda raw, where: decode_int(raw, ring.ee, where),
        )

    def word(raw, where):
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise DocumentError(f"{where}: words must be lists of symbols")
        return tuple(raw)

    def decode_e(raw, where):
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object with linear and comm parts")
        linear = {}
        for row in _optional_list(raw, "linear", where):
            if not (isinstance(row, list) and len(row) == 2 and _is_int(row[1])):
                raise DocumentError(f"{where}: linear rows must be [word, coefficient]")
            linear[word(row[0], where)] = row[1]
        comm = {}
        for row in _optional_list(raw, "comm", where):
            if not (isinstance(row, list) and len(row) == 3 and _is_int(row[2])):
                raise DocumentError(f"{where}: comm rows must be [word, word, coefficient]")
            comm[(word(row[0], where), word(row[1], where))] = row[2]
        try:
            return ring.e.make(linear, comm)
        except Exception as exc:
            raise DocumentError(f"{where}: {exc}") from exc

    def decode_ee(raw, where):
        if not isinstance(raw, list):
            raise DocumentError(f"{where}: expected a list of [word, word, coefficient] rows")
        coeffs = {}
        for row in raw:
            if not (isinstance(row, list) and len(row) == 3 and _is_int(row[2])):
                raise DocumentError(f"{where}: rows must be [word, word, coefficient]")
            coeffs[(word(row[0], where), word(row[1], where))] = row[2]
        try:
            return ring.ee.make(coeffs)
        except Exception as exc:
            raise DocumentError(f"{where}: {exc}") from exc

    return decode_e, decode_ee


def _build_modq_program(doc: dict) -> ModQProgram:
    ring_doc = _field(doc, "ring", dict, "modq_program")
    if check_envelope(ring_doc) != "square_ring":
        raise DocumentError("modq_program: the ring field must hold a square_ring")
    ring = _build_ring(ring_doc, "square_ring")
    decode_e, decode_ee = _element_decoders(ring_doc, ring)
    raw_mors = _field(doc, "morphisms", dict, "modq_program")
    morphisms = {}
    for name, raw in raw_mors.items():
        where = f"modq_program morphism {name!r}"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: must be an object")
        nrows = _field(raw, "rows", int, where)
        ncols = _field(raw, "cols", int, where)
        if nrows < 1 or ncols < 1:
            raise DocumentError(f"{where}: rows and cols must be positive")
        entries = _field(raw, "entries", list, where)
        if len(entries) != nrows or any(
            not isinstance(row, list) or len(row) != ncols for row in entries
        ):
            raise DocumentError(f"{where}: entries must be {nrows} rows of {ncols} columns")
        fi = tuple(
            tuple(decode_e(v, f"{where} entry [{i}][{k}]") for k, v in enumerate(row))
            for i, row in enumerate(entries)
        )
        fij = {}
        for block in _optional_list(raw, "pairs", where):
            if not isinstance(block, dict):
                raise DocumentError(f"{where}: pairs must be objects")
            idx = _field(block, "rows", list, where)
            if not (
                len(idx) == 2
                and all(map(_is_int, idx))
                and 0 <= idx[0] < idx[1] < nrows
            ):
                raise DocumentError(f"{where}: pair rows must be ordered row indices")
            cols = _field(block, "entries", list, where)
            if len(cols) != ncols:
                raise DocumentError(f"{where}: pair entries must have {ncols} columns")
            fij[(idx[0], idx[1])] = tuple(
                decode_ee(v, f"{where} pair {idx}") for v in cols
            )
        morphisms[name] = ModQMor(ring, nrows, ncols, fi, fij)
    compose = []
    for row in _field(doc, "compose", list, "modq_program"):
        if not (isinstance(row, list) and len(row) == 2 and all(isinstance(v, str) for v in row)):
            raise DocumentError("modq_program: compose rows must be [f, g] name pairs")
        fname, gname = row
        for n in (fname, gname):
            if n not in morphisms:
                raise DocumentError(f"modq_program: compose names unknown morphism {n!r}")
        if morphisms[fname].ncols != morphisms[gname].nrows:
            raise DocumentError(
                f"modq_program: {fname} and {gname} have incompatible shapes"
            )
        compose.append((fname, gname))
    return ModQProgram(ring=ring, morphisms=morphisms, compose=compose)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _own_verify(obj, samples: int, seed: int) -> Report:
    """Documents whose object checks itself, with no sampling."""
    return obj.verify()


# Each kind's builder and its verifier, called as ``verify(obj, samples=,
# seed=)``. Categories and natural systems are verified in
# :func:`verify_document`, which reuses the report of an explicit table's
# checks, so they have no verifier here.
KINDS = MappingProxyType({
    "abelian_map": (_build_abelian_map, _own_verify),
    "square_group": (_build_square_group, square_group_verify),
    "square_ring": (lambda doc: _build_ring(doc, "square_ring"), verify_ring),
    "quadratic_ring": (lambda doc: _build_ring(doc, "quadratic_ring"), verify_ring),
    "qpm": (_build_qpm, qpm_verify),
    "extension": (_build_extension, verify_crossed),
    "category": (lambda doc: _build_category(doc)[0], None),
    "natural_system": (lambda doc: _build_natural_system(doc)[:2], None),
    "modq_program": (_build_modq_program, _own_verify),
})


def build_document(doc: dict):
    """Construct the object a validated document describes."""
    build, _ = KINDS[check_envelope(doc)]
    return build(doc)


def build_natural_system_over(
    doc: dict, category: FinCat, category_doc: dict | None = None
) -> tuple[FinCat, NatSystem]:
    """Build a natural system, supplying ``category`` when the document
    names none of its own. A document that does carry its own category
    must agree with the supplied one on all tables. A ``dm`` system is
    built over ``category`` itself when ``category_doc``, the document
    ``category`` was built from, is a ``dm`` category of the same modulus
    and max_rank, so the matrix category is built once."""
    if check_envelope(doc) != "natural_system":
        raise DocumentError("expected a natural_system document")
    dm = None
    if category_doc is not None and category_doc.get("construction") == "dm":
        dm = (category_doc["modulus"], category_doc["max_rank"])
    cat, system, _ = _build_natural_system(doc, category, dm)
    if cat is not category and (
        cat.objects != category.objects
        or cat.morphisms != category.morphisms
        or cat.table != category.table
    ):
        raise DocumentError(
            "the coefficient document is built over a different category"
        )
    return cat, system


def verify_document(doc: dict, samples: int = 1000, seed: int = 0) -> Report:
    """Build the document's object and run the matching verifier.

    A category's tables are checked once: an explicit table's report is the
    one its build made. A natural system's own checks run before its
    category's, since they refuse an oversized category by counting its
    composable triples, which the category's associativity check walks;
    the category's checks still come first in the report.
    """
    kind = check_envelope(doc)
    if kind == "category":
        cat, tables = _build_category(doc)
        return cat.validate() if tables is None else tables
    if kind == "natural_system":
        cat, system, tables = _build_natural_system(doc)
        checks = natsystem_verify(system)
        report = Report(title=f"natural system: {system.name}")
        report.extend(cat.validate() if tables is None else tables, prefix="category: ")
        report.extend(checks)
        return report
    build, verify = KINDS[kind]
    return verify(build(doc), samples=samples, seed=seed)
