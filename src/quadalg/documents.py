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

from .abelian import FgAbGroup, mat_shape, mat_vec
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
    AbelianCarrier,
    Qpm,
    SquareGroup,
    qpm_verify,
    square_group_verify,
)
from .reports import Report
from .sqring import QuadraticRing, SquareRing, cyclic_ring, verify_ring, znil, znil_monoid

SCHEMA_VERSION = 1

KINDS = (
    "abelian_map",
    "square_group",
    "square_ring",
    "quadratic_ring",
    "qpm",
    "extension",
    "category",
    "natural_system",
    "modq_program",
)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def load_document(path: str) -> dict:
    """Read a JSON document from ``path`` and validate its envelope."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
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
    if kind not in KINDS:
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
        shape_ok = rows == self.target.ngens and cols == self.source.ngens
        r.add(
            "matrix shape matches the generator counts",
            shape_ok,
            None if shape_ok else f"matrix is {rows}x{cols}",
        )
        if not shape_ok:
            return r
        ok, witness = True, None
        for j, factor in enumerate(self.source.invariant_factors):
            if factor == 0:
                continue
            image = tuple(factor * self.matrix[i][j] for i in range(rows))
            if self.target.reduce(image) != self.target.zero():
                ok = False
                witness = (
                    f"generator {j} has order {factor} but {factor} times its "
                    f"image is {self.target.reduce(image)}"
                )
                break
        r.add("relations are respected", ok, witness)
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


def _build_square_group(doc: dict) -> SquareGroup:
    construction = _field(doc, "construction", str, "square_group")
    if construction == "znil":
        return znil().square_group()
    if construction != "explicit":
        raise DocumentError(f"unknown square_group construction: {construction!r}")
    ge = _factors(_field(doc, "e", list, "square_group"), "square_group e")
    gee = _factors(_field(doc, "ee", list, "square_group"), "square_group ee")
    if ge.order() is None or gee.order() is None:
        raise DocumentError("explicit square groups must have finite carriers")
    raw_h = _field(doc, "H", list, "square_group")
    table = {}
    for row in raw_h:
        if not (isinstance(row, list) and len(row) == 2):
            raise DocumentError("square_group H: each entry must be a [x, H(x)] pair")
        x = _coords(row[0], ge, "square_group H input")
        table[x] = _coords(row[1], gee, "square_group H output")
    missing = [x for x in ge.elements(4096) if x not in table]
    if missing:
        raise DocumentError(f"square_group H: no value for {missing[0]}")
    if len(raw_h) != ge.order():
        raise DocumentError("square_group H: table has repeated or extra inputs")
    pmat = _int_matrix(_field(doc, "P", list, "square_group"), "square_group P")
    rows, cols = mat_shape(pmat)
    if rows != ge.ngens or cols != gee.ngens:
        raise DocumentError(
            f"square_group P: matrix is {rows}x{cols}, wanted {ge.ngens}x{gee.ngens}"
        )
    return SquareGroup(
        e=AbelianCarrier(ge),
        ee=AbelianCarrier(gee),
        H=lambda x: table[ge.reduce(x)],
        P=lambda a: ge.reduce(mat_vec(pmat, a)),
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
        inner = dict(doc)
        inner["kind"] = "extension"
        return _build_extension(inner).qpm()
    if construction != "explicit":
        raise DocumentError(f"unknown qpm construction: {construction!r}")
    g0 = _factors(_field(doc, "c0", list, "qpm"), "qpm c0")
    g1 = _factors(_field(doc, "c1", list, "qpm"), "qpm c1")
    gee = _factors(_field(doc, "cee", list, "qpm"), "qpm cee")
    if g0.order() is None or gee.order() is None:
        raise DocumentError("explicit pair modules must have finite carriers")
    raw_h = _field(doc, "H", list, "qpm")
    table = {}
    for row in raw_h:
        if not (isinstance(row, list) and len(row) == 2):
            raise DocumentError("qpm H: each entry must be a [x, H(x)] pair")
        x = _coords(row[0], g0, "qpm H input")
        table[x] = _coords(row[1], gee, "qpm H output")
    missing = [x for x in g0.elements(4096) if x not in table]
    if missing:
        raise DocumentError(f"qpm H: no value for {missing[0]}")
    pmat = _int_matrix(_field(doc, "P", list, "qpm"), "qpm P")
    bmat = _int_matrix(_field(doc, "boundary", list, "qpm"), "qpm boundary")
    prows, pcols = mat_shape(pmat)
    if prows != g1.ngens or pcols != gee.ngens:
        raise DocumentError(f"qpm P: matrix is {prows}x{pcols}, wanted {g1.ngens}x{gee.ngens}")
    brows, bcols = mat_shape(bmat)
    if brows != g0.ngens or bcols != g1.ngens:
        raise DocumentError(
            f"qpm boundary: matrix is {brows}x{bcols}, wanted {g0.ngens}x{g1.ngens}"
        )
    return Qpm(
        c0=AbelianCarrier(g0),
        c1=AbelianCarrier(g1),
        cee=AbelianCarrier(gee),
        H=lambda x: table[g0.reduce(x)],
        P=lambda a: g1.reduce(mat_vec(pmat, a)),
        boundary=lambda s: g0.reduce(mat_vec(bmat, s)),
        name="explicit qpm",
    )


# ---------------------------------------------------------------------------
# Categories and natural systems
# ---------------------------------------------------------------------------

def _build_category(doc: dict) -> FinCat:
    construction = _field(doc, "construction", str, "category")
    if construction == "one_object_cyclic":
        modulus = _field(doc, "modulus", int, "category")
        if modulus < 1:
            raise DocumentError("category: modulus must be positive")
        return one_object_cyclic(modulus)
    if construction == "dm":
        modulus = _field(doc, "modulus", int, "category")
        max_rank = _field(doc, "max_rank", int, "category")
        try:
            return FinCat.mod_r(modulus, max_rank)
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
    mor_set = set(morphisms)
    obj_set = set(objects)

    def endpoint_map(key: str) -> dict:
        raw = _field(doc, key, dict, "category")
        if set(raw) != mor_set:
            raise DocumentError(f"category: {key} must cover every morphism exactly once")
        for f, o in raw.items():
            if o not in obj_set:
                raise DocumentError(f"category: {key}[{f!r}] names an unknown object")
        return dict(raw)

    dom = endpoint_map("dom")
    cod = endpoint_map("cod")
    ids_raw = _field(doc, "identities", dict, "category")
    if set(ids_raw) != obj_set:
        raise DocumentError("category: identities must cover every object exactly once")
    for o, i in ids_raw.items():
        if i not in mor_set:
            raise DocumentError(f"category: identities[{o!r}] names an unknown morphism")
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
        ids=dict(ids_raw),
        name=doc.get("name", "explicit category"),
    )
    failure = cat.validate().first_failure()
    if failure is not None:
        raise DocumentError(f"category: {failure.name} fails at {failure.witness}")
    return cat


def _build_natural_system(
    doc: dict, default_category: FinCat | None = None
) -> tuple[FinCat, NatSystem]:
    construction = _field(doc, "construction", str, "natural_system")
    if construction == "trivial":
        if "category" in doc:
            cat_doc = _field(doc, "category", dict, "natural_system")
            if check_envelope(cat_doc) != "category":
                raise DocumentError("natural_system: the category field must hold a category")
            cat = _build_category(cat_doc)
        elif default_category is not None:
            cat = default_category
        else:
            raise DocumentError("natural_system: missing field 'category'")
        group = _factors(
            _field(doc, "coefficients", list, "natural_system"), "natural_system coefficients"
        )
        return cat, trivial_system(cat, group)
    if construction == "dm":
        modulus = _field(doc, "modulus", int, "natural_system")
        max_rank = _field(doc, "max_rank", int, "natural_system")
        coeff = doc.get("coefficient_modulus")
        if coeff is not None and not _is_int(coeff):
            raise DocumentError("natural_system: coefficient_modulus must be an integer")
        try:
            return dm_natural_system(modulus, max_rank, coeff)
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
        group_e = ring.e.group
        group_ee = ring.ee.group

        def decode_int(raw, group, where):
            if not _is_int(raw):
                raise DocumentError(f"{where}: expected an integer entry")
            if group.ngens == 0:
                return group.zero()
            return group.reduce((raw,))

        return (
            lambda raw, where: decode_int(raw, group_e, where),
            lambda raw, where: decode_int(raw, group_ee, where),
        )

    def word(raw, where):
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise DocumentError(f"{where}: words must be lists of symbols")
        return tuple(raw)

    def decode_e(raw, where):
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object with linear and comm parts")
        linear = {}
        for row in raw.get("linear", []):
            if not (isinstance(row, list) and len(row) == 2 and _is_int(row[1])):
                raise DocumentError(f"{where}: linear rows must be [word, coefficient]")
            linear[word(row[0], where)] = row[1]
        comm = {}
        for row in raw.get("comm", []):
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
        for block in raw.get("pairs", []):
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

def build_document(doc: dict):
    """Construct the object a validated document describes."""
    kind = check_envelope(doc)
    if kind == "abelian_map":
        return _build_abelian_map(doc)
    if kind == "square_group":
        return _build_square_group(doc)
    if kind in ("square_ring", "quadratic_ring"):
        return _build_ring(doc, kind)
    if kind == "qpm":
        return _build_qpm(doc)
    if kind == "extension":
        return _build_extension(doc)
    if kind == "category":
        return _build_category(doc)
    if kind == "natural_system":
        return _build_natural_system(doc)
    return _build_modq_program(doc)


def build_natural_system_over(doc: dict, category: FinCat) -> tuple[FinCat, NatSystem]:
    """Build a natural system, supplying ``category`` when the document
    names none of its own. A document that does carry its own category
    must agree with the supplied one on all tables."""
    if check_envelope(doc) != "natural_system":
        raise DocumentError("expected a natural_system document")
    cat, system = _build_natural_system(doc, default_category=category)
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
    """Build the document's object and run the matching verifier."""
    kind = check_envelope(doc)
    obj = build_document(doc)
    if kind == "abelian_map":
        return obj.verify()
    if kind == "square_group":
        return square_group_verify(obj, samples=samples, seed=seed)
    if kind in ("square_ring", "quadratic_ring"):
        return verify_ring(obj, samples=samples, seed=seed)
    if kind == "qpm":
        return qpm_verify(obj, samples=samples, seed=seed)
    if kind == "extension":
        return verify_crossed(obj, samples=samples, seed=seed)
    if kind == "category":
        return obj.validate()
    if kind == "natural_system":
        cat, system = obj
        report = Report(title=f"natural system: {system.name}")
        report.extend(cat.validate(), prefix="category: ")
        report.extend(natsystem_verify(system))
        return report
    return obj.verify()
