"""JSON document loading, construction, and verification."""
from __future__ import annotations

import copy
import itertools
import json

import pytest

from quadalg.bwcoh import FinCat, NatSystem, natsystem_verify, one_object_cyclic
from quadalg.crossed import CrossedExtension
from quadalg.documents import (
    AbMapDocument,
    ModQProgram,
    build_document,
    build_natural_system_over,
    check_envelope,
    load_document,
    verify_document,
)
from quadalg.errors import DocumentError
from quadalg.nil2 import SquareGroup
from quadalg.sqring import QuadraticRing, SquareRing

RING_ZNIL = {"schema_version": 1, "kind": "square_ring", "construction": "znil"}
RING_C5 = {
    "schema_version": 1,
    "kind": "square_ring",
    "construction": "cyclic_ring",
    "modulus": 5,
}
RING_WORDS = {
    "schema_version": 1,
    "kind": "square_ring",
    "construction": "znil",
    "symbols": ["s"],
    "length_bound": 6,
    "sample_length": 2,
}
QRING = {"schema_version": 1, "kind": "quadratic_ring", "construction": "znil"}
SG_EXPLICIT = {
    "schema_version": 1,
    "kind": "square_group",
    "construction": "explicit",
    "e": [4],
    "ee": [2],
    "H": [[[0], [0]], [[1], [0]], [[2], [1]], [[3], [1]]],
    "P": [[0]],
}
QPM_EXPLICIT = {
    "schema_version": 1,
    "kind": "qpm",
    "construction": "explicit",
    "c0": [2],
    "c1": [2],
    "cee": [2],
    "H": [[[0], [0]], [[1], [1]]],
    "P": [[1]],
    "boundary": [[0]],
}
EXT_C42 = {
    "schema_version": 1,
    "kind": "extension",
    "construction": "cyclic_ring",
    "modulus": 4,
    "boundary_multiplier": 2,
}
EXT_ZTILDE = {
    "schema_version": 1,
    "kind": "extension",
    "construction": "ztilde",
    "ring": RING_ZNIL,
}
CAT_Z4 = {
    "schema_version": 1,
    "kind": "category",
    "construction": "one_object_cyclic",
    "modulus": 4,
}
CAT_DM = {
    "schema_version": 1,
    "kind": "category",
    "construction": "dm",
    "modulus": 2,
    "max_rank": 1,
}
CAT_EXPLICIT = {
    "schema_version": 1,
    "kind": "category",
    "construction": "explicit",
    "objects": ["x", "y"],
    "morphisms": ["ix", "iy", "a"],
    "dom": {"ix": "x", "iy": "y", "a": "x"},
    "cod": {"ix": "x", "iy": "y", "a": "y"},
    "identities": {"x": "ix", "y": "iy"},
    "composition": [
        ["ix", "ix", "ix"],
        ["iy", "iy", "iy"],
        ["a", "ix", "a"],
        ["iy", "a", "a"],
    ],
}
COEFF_Z4 = {
    "schema_version": 1,
    "kind": "natural_system",
    "construction": "trivial",
    "coefficients": [4],
}
NS_DM = {
    "schema_version": 1,
    "kind": "natural_system",
    "construction": "dm",
    "modulus": 2,
    "max_rank": 1,
    "coefficient_modulus": 2,
}
MAP_OK = {
    "schema_version": 1,
    "kind": "abelian_map",
    "source": [2, 4],
    "target": [8],
    "matrix": [[4, 2]],
}
MAP_BAD = {
    "schema_version": 1,
    "kind": "abelian_map",
    "source": [2],
    "target": [8],
    "matrix": [[1]],
}
MODQ_ZNIL = {
    "schema_version": 1,
    "kind": "modq_program",
    "ring": RING_ZNIL,
    "morphisms": {
        "f": {
            "rows": 2,
            "cols": 2,
            "entries": [[1, 2], [0, 1]],
            "pairs": [{"rows": [0, 1], "entries": [3, -1]}],
        },
        "g": {
            "rows": 2,
            "cols": 1,
            "entries": [[2], [1]],
            "pairs": [{"rows": [0, 1], "entries": [5]}],
        },
    },
    "compose": [["f", "g"], ["f", "f"]],
}
MODQ_WORDS = {
    "schema_version": 1,
    "kind": "modq_program",
    "ring": RING_WORDS,
    "morphisms": {
        "f": {
            "rows": 2,
            "cols": 2,
            "entries": [
                [
                    {"linear": [[["s"], 1]], "comm": []},
                    {"linear": [[[], 2]], "comm": []},
                ],
                [{"linear": []}, {"linear": [[["s", "s"], 1]]}],
            ],
            "pairs": [{"rows": [0, 1], "entries": [[[["s"], ["s"], 2]], []]}],
        },
        "g": {
            "rows": 2,
            "cols": 1,
            "entries": [
                [{"linear": [[["s"], 3]]}],
                [{"linear": [[[], 1]]}],
            ],
            "pairs": [{"rows": [0, 1], "entries": [[[[], ["s"], 1]]]}],
        },
    },
    "compose": [["f", "g"]],
}


def tampered(doc: dict, **changes) -> dict:
    out = copy.deepcopy(doc)
    out.update(changes)
    return out


def write_json(tmp_path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEnvelope:
    def test_load_document_roundtrips(self, tmp_path):
        path = write_json(tmp_path, "ring.json", RING_ZNIL)
        assert load_document(path) == RING_ZNIL

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_document(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_document(str(path))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = write_json(tmp_path, "list.json", [[2, 4], [4, 6]])
        with pytest.raises(DocumentError, match="top level must be a JSON object"):
            load_document(path)

    def test_schema_version(self):
        with pytest.raises(DocumentError, match="schema_version must be 1"):
            check_envelope(tampered(RING_ZNIL, schema_version=2))
        with pytest.raises(DocumentError, match="schema_version must be 1"):
            check_envelope({"kind": "square_ring"})

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown document kind"):
            check_envelope(tampered(RING_ZNIL, kind="banana"))

    @pytest.mark.parametrize("kind", [["square_ring"], {"k": 1}, None])
    def test_kind_that_is_no_string(self, kind):
        with pytest.raises(DocumentError, match="unknown document kind"):
            check_envelope(tampered(RING_ZNIL, kind=kind))

    def test_missing_and_mistyped_fields(self):
        doc = {"schema_version": 1, "kind": "square_ring"}
        with pytest.raises(DocumentError, match="missing field 'construction'"):
            build_document(doc)
        with pytest.raises(DocumentError, match="wrong type"):
            build_document(tampered(doc, construction=5))


class TestAbelianMapDocuments:
    def test_descending_map_verifies(self):
        doc_obj = build_document(MAP_OK)
        assert isinstance(doc_obj, AbMapDocument)
        report = verify_document(MAP_OK)
        assert report.passed, report.render()
        assert [c.name for c in report.checks] == [
            "matrix shape matches the generator counts",
            "relations are respected",
        ]

    def test_non_descending_map_fails_as_data(self):
        report = verify_document(MAP_BAD)
        assert not report.passed
        failure = report.first_failure()
        assert failure.name == "relations are respected"
        assert "order 2" in failure.witness

    def test_shape_mismatch_fails_as_data(self):
        report = verify_document(tampered(MAP_OK, matrix=[[1, 1], [1, 1]]))
        assert not report.passed
        assert report.first_failure().name == "matrix shape matches the generator counts"

    def test_map_to_the_trivial_group_has_no_rows(self):
        # JSON writes the 0 x 1 matrix as []
        report = verify_document(tampered(MAP_OK, source=[2], target=[], matrix=[]))
        assert report.passed, report.render()
        assert len(report.checks) == 2

    def test_no_rows_where_rows_are_wanted_fails(self):
        report = verify_document(tampered(MAP_OK, source=[2], target=[8], matrix=[]))
        assert not report.passed
        assert report.first_failure().witness == "matrix is 0x0"

    def test_factor_guards(self):
        with pytest.raises(DocumentError, match="list of integers"):
            build_document(tampered(MAP_OK, source=[2, "x"]))
        with pytest.raises(DocumentError, match="abelian_map source"):
            build_document(tampered(MAP_OK, source=[-2]))

    def test_matrix_guards(self):
        with pytest.raises(DocumentError, match="list of rows"):
            build_document(tampered(MAP_OK, matrix=[4, 2]))
        with pytest.raises(DocumentError, match="entries must be integers"):
            build_document(tampered(MAP_OK, matrix=[[4, 2.5]]))
        with pytest.raises(DocumentError, match="unequal lengths"):
            build_document(tampered(MAP_OK, matrix=[[4, 2], [1]]))


class TestSquareGroupDocuments:
    def test_znil_construction(self):
        sg = build_document(
            {"schema_version": 1, "kind": "square_group", "construction": "znil"}
        )
        assert isinstance(sg, SquareGroup)

    def test_explicit_table_verifies(self):
        sg = build_document(SG_EXPLICIT)
        assert isinstance(sg, SquareGroup)
        assert sg.H((2,)) == (1,)
        assert sg.H((3,)) == (1,)
        report = verify_document(SG_EXPLICIT, samples=200)
        assert report.passed, report.render()

    def test_unknown_construction(self):
        with pytest.raises(DocumentError, match="unknown square_group construction"):
            build_document(tampered(SG_EXPLICIT, construction="mystery"))

    def test_carriers_must_be_finite(self):
        with pytest.raises(DocumentError, match="finite carriers"):
            build_document(tampered(SG_EXPLICIT, e=[0]))

    def test_table_guards(self):
        with pytest.raises(DocumentError, match=r"\[x, H\(x\)\] pair"):
            build_document(tampered(SG_EXPLICIT, H=[[[0]]]))
        with pytest.raises(DocumentError, match="expected 1 coordinates"):
            build_document(tampered(SG_EXPLICIT, H=[[[0, 0], [0]]]))
        with pytest.raises(DocumentError, match="coordinates must be integers"):
            build_document(tampered(SG_EXPLICIT, H=[[["a"], [0]]]))
        with pytest.raises(DocumentError, match="no value for"):
            build_document(tampered(SG_EXPLICIT, H=[[[0], [0]]]))
        repeated = [[[0], [0]], [[1], [0]], [[2], [1]], [[3], [1]], [[3], [1]]]
        with pytest.raises(DocumentError, match="repeated or extra"):
            build_document(tampered(SG_EXPLICIT, H=repeated))

    def test_p_matrix_shape(self):
        with pytest.raises(DocumentError, match="square_group P: matrix is"):
            build_document(tampered(SG_EXPLICIT, P=[[0, 0]]))

    def test_trivial_e_has_a_p_matrix_with_no_rows(self):
        doc = tampered(SG_EXPLICIT, e=[], H=[[[], [0]]], P=[])
        report = verify_document(doc, samples=100)
        assert report.passed, report.render()
        assert len(report.checks) == 14
        with pytest.raises(DocumentError, match="square_group P: matrix is 0x0, wanted 1x1"):
            build_document(tampered(SG_EXPLICIT, P=[]))


class TestRingDocuments:
    def test_integer_ring(self):
        ring = build_document(RING_ZNIL)
        assert isinstance(ring, SquareRing)
        assert verify_document(RING_ZNIL, samples=300).passed

    def test_cyclic_ring(self):
        ring = build_document(RING_C5)
        assert isinstance(ring, SquareRing)
        assert ring.e.describe() == "Z/5"
        assert verify_document(RING_C5, samples=200).passed

    def test_word_ring(self):
        ring = build_document(RING_WORDS)
        assert isinstance(ring, SquareRing)
        assert verify_document(RING_WORDS, samples=120).passed

    def test_quadratic_ring(self):
        ring = build_document(QRING)
        assert isinstance(ring, QuadraticRing)
        assert verify_document(QRING, samples=300).passed

    def test_symbol_guards(self):
        with pytest.raises(DocumentError, match="nonempty list of strings"):
            build_document(tampered(RING_WORDS, symbols=[]))
        with pytest.raises(DocumentError, match="nonempty list of strings"):
            build_document(tampered(RING_WORDS, symbols=[3]))
        with pytest.raises(DocumentError, match="must be integers"):
            build_document(tampered(RING_WORDS, length_bound="six"))
        with pytest.raises(DocumentError, match="overflow the length bound"):
            build_document(tampered(RING_WORDS, length_bound=4))

    def test_modulus_guard(self):
        with pytest.raises(DocumentError, match="modulus must be positive"):
            build_document(tampered(RING_C5, modulus=0))

    def test_unknown_construction(self):
        with pytest.raises(DocumentError, match="unknown square_ring construction"):
            build_document(tampered(RING_ZNIL, construction="mystery"))


class TestQpmDocuments:
    def test_explicit_pair_module_verifies(self):
        report = verify_document(QPM_EXPLICIT, samples=300)
        assert report.passed, report.render()

    def test_extension_backed_constructions(self):
        doc = {
            "schema_version": 1,
            "kind": "qpm",
            "construction": "cyclic_ring",
            "modulus": 4,
            "boundary_multiplier": 2,
        }
        assert verify_document(doc, samples=200).passed
        ztilde_doc = {
            "schema_version": 1,
            "kind": "qpm",
            "construction": "ztilde",
            "ring": RING_ZNIL,
        }
        assert verify_document(ztilde_doc, samples=120).passed

    def test_unknown_construction(self):
        with pytest.raises(DocumentError, match="unknown qpm construction"):
            build_document(tampered(QPM_EXPLICIT, construction="mystery"))

    def test_carriers_must_be_finite(self):
        with pytest.raises(DocumentError, match="finite carriers"):
            build_document(tampered(QPM_EXPLICIT, c0=[0]))

    def test_table_and_matrix_guards(self):
        with pytest.raises(DocumentError, match=r"\[x, H\(x\)\] pair"):
            build_document(tampered(QPM_EXPLICIT, H=[[[0]]]))
        with pytest.raises(DocumentError, match="no value for"):
            build_document(tampered(QPM_EXPLICIT, H=[[[0], [0]]]))
        with pytest.raises(DocumentError, match="qpm P: matrix is"):
            build_document(tampered(QPM_EXPLICIT, P=[[1, 0]]))
        with pytest.raises(DocumentError, match="qpm boundary: matrix is"):
            build_document(tampered(QPM_EXPLICIT, boundary=[[0, 0]]))

    def test_trivial_c1_has_a_p_matrix_with_no_rows(self):
        doc = tampered(QPM_EXPLICIT, c1=[], P=[], boundary=[[]])
        report = verify_document(doc, samples=100)
        assert report.passed, report.render()
        assert len(report.checks) == 33
        with pytest.raises(DocumentError, match="qpm P: matrix is 0x0, wanted 1x1"):
            build_document(tampered(QPM_EXPLICIT, P=[]))


class TestExtensionDocuments:
    def test_cyclic_ring_extension(self):
        ext = build_document(EXT_C42)
        assert isinstance(ext, CrossedExtension)
        assert ext.module.describe() == "Z/2"
        assert verify_document(EXT_C42, samples=200).passed

    def test_ztilde_extension(self):
        ext = build_document(EXT_ZTILDE)
        assert isinstance(ext, CrossedExtension)
        assert ext.kind == "csr"
        assert verify_document(EXT_ZTILDE, samples=150).passed

    def test_guards(self):
        with pytest.raises(DocumentError, match="extension: modulus must be positive"):
            build_document(tampered(EXT_C42, modulus=0))
        with pytest.raises(DocumentError, match="needs a square_ring"):
            build_document(tampered(EXT_ZTILDE, ring=QRING))
        with pytest.raises(DocumentError, match="unknown extension construction"):
            build_document(tampered(EXT_C42, construction="mystery"))


class TestCategoryDocuments:
    def test_one_object_cyclic(self):
        cat = build_document(CAT_Z4)
        assert isinstance(cat, FinCat)
        assert len(cat.morphisms) == 4
        assert verify_document(CAT_Z4).passed

    def test_matrix_category(self):
        cat = build_document(CAT_DM)
        assert isinstance(cat, FinCat)
        assert len(cat.morphisms) == 5
        assert verify_document(CAT_DM).passed

    def test_explicit_category(self):
        cat = build_document(CAT_EXPLICIT)
        assert isinstance(cat, FinCat)
        assert cat.validate().passed
        assert verify_document(CAT_EXPLICIT).passed

    @pytest.mark.parametrize(
        "doc", [CAT_EXPLICIT, tampered(COEFF_Z4, category=CAT_EXPLICIT)], ids=["category", "system"]
    )
    def test_explicit_tables_are_validated_once(self, monkeypatch, doc):
        calls = []
        validate = FinCat.validate

        def counting_validate(cat):
            calls.append(cat.name)
            return validate(cat)

        monkeypatch.setattr(FinCat, "validate", counting_validate)
        assert verify_document(doc).passed
        assert calls == ["explicit category"]

    def test_modulus_guards(self):
        with pytest.raises(DocumentError, match="modulus must be positive"):
            build_document(tampered(CAT_Z4, modulus=0))
        with pytest.raises(DocumentError, match="category: the matrix category"):
            build_document(tampered(CAT_DM, modulus=1))

    def test_unknown_construction(self):
        with pytest.raises(DocumentError, match="unknown category construction"):
            build_document(tampered(CAT_Z4, construction="mystery"))

    def test_explicit_name_guards(self):
        with pytest.raises(DocumentError, match="must be strings"):
            build_document(tampered(CAT_EXPLICIT, objects=["x", 3]))
        with pytest.raises(DocumentError, match="must be distinct"):
            build_document(tampered(CAT_EXPLICIT, morphisms=["ix", "iy", "a", "a"]))

    def test_explicit_endpoint_guards(self):
        with pytest.raises(DocumentError, match="cover every morphism"):
            build_document(tampered(CAT_EXPLICIT, dom={"ix": "x", "iy": "y"}))
        with pytest.raises(DocumentError, match="unknown object"):
            build_document(
                tampered(CAT_EXPLICIT, dom={"ix": "x", "iy": "y", "a": "z"})
            )
        # a list or an object is no name, and cannot be looked up as one
        for key, value in itertools.product(("dom", "cod"), (["y"], {"y": "y"})):
            doc = copy.deepcopy(CAT_EXPLICIT)
            doc[key]["a"] = value
            with pytest.raises(DocumentError, match=rf"{key}\['a'\] names an unknown object"):
                build_document(doc)

    def test_explicit_identity_guards(self):
        with pytest.raises(DocumentError, match="cover every object"):
            build_document(tampered(CAT_EXPLICIT, identities={"x": "ix"}))
        with pytest.raises(DocumentError, match="unknown morphism"):
            build_document(tampered(CAT_EXPLICIT, identities={"x": "ix", "y": "b"}))
        for value in (["iy"], {"iy": "iy"}):
            with pytest.raises(DocumentError, match=r"identities\['y'\] names an unknown morphism"):
                build_document(tampered(CAT_EXPLICIT, identities={"x": "ix", "y": value}))

    def test_explicit_composition_guards(self):
        base = CAT_EXPLICIT["composition"]
        with pytest.raises(DocumentError, match=r"\[f, g, f.g\] triples"):
            build_document(tampered(CAT_EXPLICIT, composition=base + [["ix", "ix"]]))
        with pytest.raises(DocumentError, match="unknown morphism"):
            build_document(tampered(CAT_EXPLICIT, composition=base + [["ix", "ix", "b"]]))
        with pytest.raises(DocumentError, match="not composable"):
            build_document(tampered(CAT_EXPLICIT, composition=base + [["a", "iy", "a"]]))
        with pytest.raises(DocumentError, match="repeats"):
            build_document(tampered(CAT_EXPLICIT, composition=base + [["ix", "ix", "ix"]]))


class TestNaturalSystemDocuments:
    def test_bimodule_system_verifies(self):
        cat, system = build_document(NS_DM)
        assert isinstance(cat, FinCat) and isinstance(system, NatSystem)
        report = verify_document(NS_DM)
        assert report.passed, report.render()
        # the category's checks come first, though the system's ran first
        prefixed = [check.name.startswith("category: ") for check in report.checks]
        assert prefixed == sorted(prefixed, reverse=True) and prefixed[0] and not prefixed[-1]

    def test_trivial_system_with_inline_category(self):
        doc = tampered(COEFF_Z4, category=CAT_Z4)
        cat, system = build_document(doc)
        assert len(cat.morphisms) == 4
        assert natsystem_verify(system).passed

    def test_trivial_system_over_a_supplied_category(self):
        cat = one_object_cyclic(4)
        got_cat, system = build_natural_system_over(COEFF_Z4, cat)
        assert got_cat is cat
        assert natsystem_verify(system).passed

    def test_inline_category_must_match_the_supplied_one(self):
        doc = tampered(COEFF_Z4, category=CAT_Z4)
        assert build_natural_system_over(doc, one_object_cyclic(4))[1] is not None
        with pytest.raises(DocumentError, match="different category"):
            build_natural_system_over(doc, one_object_cyclic(5))

    def test_guards(self):
        with pytest.raises(DocumentError, match="missing field 'category'"):
            build_document(COEFF_Z4)
        with pytest.raises(DocumentError, match="must hold a category"):
            build_document(tampered(COEFF_Z4, category=RING_ZNIL))
        with pytest.raises(DocumentError, match="coefficient_modulus must be an integer"):
            build_document(tampered(NS_DM, coefficient_modulus="two"))
        with pytest.raises(DocumentError, match="natural_system: "):
            build_document(tampered(NS_DM, coefficient_modulus=3))
        with pytest.raises(DocumentError, match="natural_system: "):
            build_document(tampered(NS_DM, coefficient_modulus=1))
        with pytest.raises(DocumentError, match="unknown natural_system construction"):
            build_document(tampered(NS_DM, construction="mystery"))
        with pytest.raises(DocumentError, match="expected a natural_system document"):
            build_natural_system_over(RING_ZNIL, one_object_cyclic(2))


class TestModqProgramDocuments:
    def test_integer_program_verifies(self):
        program = build_document(MODQ_ZNIL)
        assert isinstance(program, ModQProgram)
        assert set(program.morphisms) == {"f", "g"}
        report = verify_document(MODQ_ZNIL)
        assert report.passed, report.render()
        assert [c.name for c in report.checks] == [
            "compose f.g: closed route equals substitution route",
            "compose f.f: closed route equals substitution route",
        ]

    def test_word_program_verifies(self):
        program = build_document(MODQ_WORDS)
        assert isinstance(program, ModQProgram)
        report = verify_document(MODQ_WORDS)
        assert report.passed, report.render()

    def test_word_entry_with_a_comm_part_decodes(self):
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"][0][0]["comm"] = [[[], ["s"], 2]]
        program = build_document(doc)
        e = program.ring.e
        assert program.morphisms["g"].fi[0][0] == e.make({("s",): 3}, {((), ("s",)): 2})
        assert verify_document(doc).passed

    def test_ring_envelope_guard(self):
        with pytest.raises(DocumentError, match="must hold a square_ring"):
            build_document(tampered(MODQ_ZNIL, ring=QRING))

    def test_morphism_shape_guards(self):
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"] = 7
        with pytest.raises(DocumentError, match="must be an object"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["rows"] = 0
        with pytest.raises(DocumentError, match="must be positive"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["entries"] = [[1, 2]]
        with pytest.raises(DocumentError, match="entries must be 2 rows"):
            build_document(doc)

    def test_pair_guards(self):
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["pairs"] = [7]
        with pytest.raises(DocumentError, match="pairs must be objects"):
            build_document(doc)
        for pairs in (7, 2.5, None):
            doc = copy.deepcopy(MODQ_ZNIL)
            doc["morphisms"]["f"]["pairs"] = pairs
            with pytest.raises(DocumentError, match="field 'pairs' has the wrong type"):
                build_document(doc)
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["pairs"] = [{"rows": [1, 0], "entries": [3, -1]}]
        with pytest.raises(DocumentError, match="ordered row indices"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["pairs"] = [{"rows": [0, 1], "entries": [3]}]
        with pytest.raises(DocumentError, match="pair entries must have 2 columns"):
            build_document(doc)

    def test_compose_guards(self):
        with pytest.raises(DocumentError, match=r"\[f, g\] name pairs"):
            build_document(tampered(MODQ_ZNIL, compose=[["f"]]))
        with pytest.raises(DocumentError, match="unknown morphism 'h'"):
            build_document(tampered(MODQ_ZNIL, compose=[["f", "h"]]))
        with pytest.raises(DocumentError, match="incompatible shapes"):
            build_document(tampered(MODQ_ZNIL, compose=[["g", "f"]]))

    def test_integer_entry_decoder_guard(self):
        doc = copy.deepcopy(MODQ_ZNIL)
        doc["morphisms"]["f"]["entries"] = [[1, "x"], [0, 1]]
        with pytest.raises(DocumentError, match="expected an integer entry"):
            build_document(doc)

    def test_word_entry_decoder_guards(self):
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"] = [[5], [{"linear": []}]]
        with pytest.raises(DocumentError, match="expected an object with linear"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"] = [[{"linear": [["s", 1]]}], [{"linear": []}]]
        with pytest.raises(DocumentError, match="words must be lists of symbols"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"] = [[{"linear": [[["s"]]]}], [{"linear": []}]]
        with pytest.raises(DocumentError, match=r"linear rows must be \[word, coefficient\]"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"] = [
            [{"linear": [], "comm": [[["s"], ["s"]]]}],
            [{"linear": []}],
        ]
        with pytest.raises(DocumentError, match=r"comm rows must be \[word, word, coefficient\]"):
            build_document(doc)
        for part in ("linear", "comm"):
            doc = copy.deepcopy(MODQ_WORDS)
            doc["morphisms"]["g"]["entries"][0][0][part] = True
            with pytest.raises(DocumentError, match=f"field {part!r} has the wrong type"):
                build_document(doc)

    def test_word_pair_decoder_guards(self):
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["pairs"] = [{"rows": [0, 1], "entries": [7]}]
        with pytest.raises(DocumentError, match="expected a list of"):
            build_document(doc)
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["pairs"] = [{"rows": [0, 1], "entries": [[[["s"], ["s"]]]]}]
        with pytest.raises(DocumentError, match=r"rows must be \[word, word, coefficient\]"):
            build_document(doc)

    def test_unknown_symbols_are_rejected(self):
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["entries"] = [
            [{"linear": [[["t"], 1]]}],
            [{"linear": []}],
        ]
        with pytest.raises(DocumentError):
            build_document(doc)
