"""The command line, run in process through ``main``."""
from __future__ import annotations

import json

import pytest

from quadalg.cli import main

from .test_documents import (
    CAT_EXPLICIT,
    CAT_Z4,
    COEFF_Z4,
    EXT_C42,
    EXT_ZTILDE,
    MAP_BAD,
    MODQ_ZNIL,
    RING_C5,
    RING_ZNIL,
    write_json,
)

MATRIX = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]


@pytest.fixture()
def docs(tmp_path):
    return {
        "ring": write_json(tmp_path, "ring.json", RING_ZNIL),
        "ring_c5": write_json(tmp_path, "ring_c5.json", RING_C5),
        "map_bad": write_json(tmp_path, "map_bad.json", MAP_BAD),
        "cat": write_json(tmp_path, "cat.json", CAT_Z4),
        "coeff": write_json(tmp_path, "coeff.json", COEFF_Z4),
        "ext": write_json(tmp_path, "ext.json", EXT_C42),
        "ztilde": write_json(tmp_path, "ztilde.json", EXT_ZTILDE),
        "modq": write_json(tmp_path, "modq.json", MODQ_ZNIL),
        "matrix": write_json(tmp_path, "matrix.json", MATRIX),
        "bad": write_json(tmp_path, "bad.json", {"schema_version": 1, "kind": "banana"}),
    }


class TestVerify:
    def test_passing_document(self, docs, capsys):
        code = main(["verify", docs["ring_c5"], "--samples", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("== ")
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "result: PASS" in out

    def test_failing_document_exits_one(self, docs, capsys):
        code = main(["verify", docs["map_bad"]])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] relations are respected" in out
        assert "witness:" in out
        assert "result: FAIL" in out

    def test_malformed_document_exits_two(self, docs, capsys):
        code = main(["verify", docs["bad"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "unknown document kind" in captured.err

    def test_json_booleans_are_not_integers(self, tmp_path, capsys):
        doc = {"schema_version": 1, "kind": "abelian_map", "source": [4], "target": [4],
               "matrix": [[True]]}
        assert main(["verify", write_json(tmp_path, "bool_map.json", doc)]) == 2
        assert "matrix entries must be integers" in capsys.readouterr().err

    def test_machine_format_is_json_lines(self, docs, capsys):
        code = main(["verify", docs["ring_c5"], "--samples", "100", "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[0]["record"] == "header"
        assert records[-1] == {
            "record": "summary",
            "passed": True,
            "checks": len(records) - 2,
            "failures": 0,
        }
        assert all(rec["ok"] for rec in records[1:-1])

    def test_output_is_deterministic(self, docs, capsys):
        main(["verify", docs["ring"], "--samples", "120", "--format", "machine"])
        first = capsys.readouterr().out
        main(["verify", docs["ring"], "--samples", "120", "--format", "machine"])
        second = capsys.readouterr().out
        assert first == second


class TestCohomology:
    def test_cyclic_group_degree_two(self, docs, capsys):
        code = main(["cohomology", docs["cat"], docs["coeff"], "--degree", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== cohomology: degree 2 ==" in out
        assert "H^2 = [4] (Z/4)" in out

    def test_machine_record(self, docs, capsys):
        code = main(
            ["cohomology", docs["cat"], docs["coeff"], "--degree", "2", "--format", "machine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["record"] == "cohomology"
        assert rec["degree"] == 2
        assert rec["invariant_factors"] == [4]
        assert rec["chains"] == "full"

    def test_chain_model_flag(self, docs, capsys):
        code = main(
            ["cohomology", docs["cat"], docs["coeff"], "--degree", "3", "--chains", "normalized"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chains: normalized" in out
        assert "H^3 = [4] (Z/4)" in out

    def test_degree_above_the_bound_exits_two(self, docs, capsys):
        code = main(["cohomology", docs["cat"], docs["coeff"], "--degree", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: " in captured.err

    def test_generator_cap_exits_three(self, docs, capsys):
        code = main(
            [
                "cohomology",
                docs["cat"],
                docs["coeff"],
                "--degree",
                "2",
                "--max-generators",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "cap 5" in captured.err

    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_incomplete_explicit_category_exits_two(self, docs, tmp_path, capsys, degree):
        rows = [row for row in CAT_EXPLICIT["composition"] if row != ["iy", "a", "a"]]
        cat = write_json(tmp_path, "partial.json", dict(CAT_EXPLICIT, composition=rows))
        code = main(["cohomology", cat, docs["coeff"], "--degree", degree])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "identities neutral" in captured.err

    def test_first_argument_must_be_a_category(self, docs, capsys):
        code = main(["cohomology", docs["ring"], docs["coeff"], "--degree", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "expected a category document" in captured.err


class TestNu:
    def test_ordinary_ring_extension_has_zero_class(self, docs, capsys):
        code = main(["nu", docs["ext"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: class: nu = 0" in out
        assert "[PASS] nu lies in the kernel of the boundary" in out

    def test_integer_model_has_the_generator_class(self, docs, capsys):
        code = main(["nu", docs["ztilde"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: kernel of the boundary: Z/2" in out
        assert "note: class: nu = 1 in Z/2: generator" in out

    def test_needs_an_extension_document(self, docs, capsys):
        code = main(["nu", docs["ring"]])
        captured = capsys.readouterr()
        assert code == 2
        assert "expected an extension document" in captured.err


class TestZnilDemo:
    def test_demo_passes_with_the_expected_class(self, capsys):
        code = main(["znil-demo"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "== znil demo =="
        assert "ring: znil" in lines
        assert "[PASS] boundary of nu vanishes" in lines
        assert "[PASS] 2 nu = 0" in lines
        assert "[PASS] nu is fixed by the two-sided action" in lines
        assert "kernel of the boundary: Z/2" in lines
        assert lines[-1] == "nu = 1 in Z/2: generator — PASS"

    def test_demo_is_deterministic(self, capsys):
        main(["znil-demo"])
        first = capsys.readouterr().out
        main(["znil-demo"])
        second = capsys.readouterr().out
        assert first == second


class TestSnf:
    def test_diagonal_and_certificates(self, docs, capsys):
        code = main(["snf", docs["matrix"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: shape: 3x3" in out
        assert "note: diagonal: [2, 2, 156]" in out
        assert "note: rank: 3" in out
        assert "[PASS] U M V recovers the normal form" in out
        assert "[PASS] U is invertible over the integers" in out
        assert "[PASS] V is invertible over the integers" in out
        assert "[PASS] diagonal entries divide in order" in out

    def test_matrix_wrapped_in_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path, "wrapped.json", {"matrix": MATRIX})
        code = main(["snf", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: diagonal: [2, 2, 156]" in out

    def test_input_guards(self, tmp_path, capsys):
        path = write_json(tmp_path, "scalar.json", 7)
        assert main(["snf", path]) == 2
        assert "nonempty JSON array of rows" in capsys.readouterr().err
        path = write_json(tmp_path, "ragged.json", [[1, 2], [3]])
        assert main(["snf", path]) == 2
        assert "equal-length integer lists" in capsys.readouterr().err
        assert main(["snf", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_booleans_are_not_integers(self, tmp_path, capsys):
        path = write_json(tmp_path, "bool.json", [[True, 2], [3, 4]])
        assert main(["snf", path]) == 2
        assert "matrix entries must be integers" in capsys.readouterr().err


class TestModqProgram:
    def test_program_runs_both_routes(self, docs, capsys):
        code = main(["modq", docs["modq"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: f: 2x2, 1 quadratic rows" in out
        assert "[PASS] compose f.g: closed route equals substitution route" in out
        assert "[PASS] compose f.f: closed route equals substitution route" in out

    def test_needs_a_program_document(self, docs, capsys):
        code = main(["modq", docs["ring"]])
        captured = capsys.readouterr()
        assert code == 2
        assert "expected a modq_program document" in captured.err
