"""The command line, run in process through ``main``, and once through
``python -m quadalg`` to pin that the process exits with ``main``'s value.

``tests/golden/modq_program_znil.txt`` pins the full output of a matrix
program; after a deliberate change to it, rewrite the file with
``PYTHONPATH=src python -m tests.test_cli`` and review the diff.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from quadalg.bwcoh import FinCat
from quadalg.cli import MAX_SAMPLES, _nu_report, main
from quadalg.crossed import cyclic_ring_extension

from .test_documents import (
    CAT_EXPLICIT,
    CAT_Z4,
    COEFF_Z4,
    EXT_C42,
    EXT_ZTILDE,
    MAP_BAD,
    MAP_OK,
    MODQ_WORDS,
    MODQ_ZNIL,
    QPM_EXPLICIT,
    RING_C5,
    RING_WORDS,
    RING_ZNIL,
    write_json,
)

MATRIX = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
PROGRAM_GOLDEN = Path(__file__).parent / "golden" / "modq_program_znil.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def main_within_a_second(argv):
    """``main(argv)``, raising ``TimeoutError`` if it runs past one second.

    An alarm rather than a clock read afterwards, so that an input a size
    guard lets through fails at once instead of filling memory first."""

    def too_slow(signum, frame):
        raise TimeoutError("no exit within a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def docs(tmp_path):
    return {
        "ring": write_json(tmp_path, "ring.json", RING_ZNIL),
        "ring_c5": write_json(tmp_path, "ring_c5.json", RING_C5),
        "map_ok": write_json(tmp_path, "map_ok.json", MAP_OK),
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

    def test_dm_system_with_reducing_actions_passes(self, tmp_path, capsys):
        doc = {"schema_version": 1, "kind": "natural_system", "construction": "dm",
               "modulus": 4, "max_rank": 1}
        code = main(["verify", write_json(tmp_path, "dm4.json", doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_two(self, docs, capsys, samples):
        # on the infinite carriers of Znil no tuple would be drawn at all
        assert main(["verify", docs["ring"], "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples must be at least 1" in captured.err

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 30_000_000])
    def test_samples_above_the_bound_exit_three_at_once(self, docs, capsys, samples):
        assert main_within_a_second(["verify", docs["ring"], "--samples", str(samples)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples {samples} exceeds the bound of {MAX_SAMPLES}\n"

    @pytest.mark.parametrize("name", ["modq", "map_ok"])
    def test_kinds_that_sample_nothing_take_any_samples(self, docs, capsys, name):
        # a matrix program and an abelian map check themselves and never
        # read --samples or --seed
        assert main(["verify", docs[name]]) == 0
        default = capsys.readouterr().out
        assert main(["verify", docs[name], "--samples", "0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("coeff", [0, 1])
    def test_coefficient_modulus_below_two_exits_two(self, tmp_path, capsys, coeff):
        doc = {"schema_version": 1, "kind": "natural_system", "construction": "dm",
               "modulus": 2, "max_rank": 1, "coefficient_modulus": coeff}
        path = write_json(tmp_path, "dm_coeff.json", doc)
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert f"coefficient modulus must be at least 2, got {coeff}" in err
        assert "Traceback" not in err
        cat = write_json(tmp_path, "dm_cat.json", dict(doc, kind="category"))
        assert main(["cohomology", cat, path, "--degree", "1"]) == 2
        assert f"coefficient modulus must be at least 2, got {coeff}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, max_rank", [("category", -1), ("natural_system", -2)])
    def test_negative_max_rank_exits_two(self, tmp_path, capsys, kind, max_rank):
        doc = {"schema_version": 1, "kind": kind, "construction": "dm",
               "modulus": 2, "max_rank": max_rank}
        assert main(["verify", write_json(tmp_path, "dm_negative.json", doc)]) == 2
        assert f"{kind}: max_rank must be at least 0" in capsys.readouterr().err

    def test_conflicting_qpm_h_table_exits_two(self, tmp_path, capsys):
        doc = dict(QPM_EXPLICIT, H=[[[0], [0]], [[1], [1]], [[1], [0]]])
        assert main(["verify", write_json(tmp_path, "qpm_conflict.json", doc)]) == 2
        assert "qpm H: table has repeated or extra inputs" in capsys.readouterr().err

    def test_ztilde_word_model_with_one_letter_samples_passes(self, tmp_path, capsys):
        ring = dict(RING_WORDS, length_bound=3, sample_length=1)
        doc = dict(EXT_ZTILDE, ring=ring)
        code = main(["verify", write_json(tmp_path, "ztilde_words.json", doc), "--samples", "60"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "result: PASS" in captured.out

    def test_negative_sample_length_exits_two(self, tmp_path, capsys):
        doc = dict(RING_WORDS, sample_length=-1)
        assert main(["verify", write_json(tmp_path, "words_negative.json", doc)]) == 2
        err = capsys.readouterr().err
        assert "sample_length must be at least 0, got -1" in err
        assert "Traceback" not in err

    def test_huge_length_bound_exits_three_at_once(self, tmp_path, capsys):
        doc = dict(RING_WORDS, symbols=["s", "t"], length_bound=40)
        path = write_json(tmp_path, "words_huge.json", doc)
        # building the 2^41 - 1 words would exhaust memory
        assert main_within_a_second(["verify", path]) == 3
        assert "more than 4096 words" in capsys.readouterr().err

    def test_long_ztilde_word_model_exits_three_at_once(self, tmp_path, capsys):
        doc = dict(EXT_ZTILDE, ring=dict(RING_WORDS, length_bound=4000))
        path = write_json(tmp_path, "ztilde_long.json", doc)
        # 4,001 words: checking T on every word pair would take 16 million steps
        assert main_within_a_second(["verify", path]) == 3
        err = capsys.readouterr().err
        assert "4001 words give more than 16384 word pairs" in err and "Traceback" not in err

    def test_oversized_monoid_category_exits_three_at_once(self, tmp_path, capsys, docs):
        # the table would hold 10^8 entries; listing the 10^12 elements before
        # the guard raised MemoryError
        for modulus in (10000, 10**12):
            doc = {"schema_version": 1, "kind": "category", "construction": "one_object_cyclic",
                   "modulus": modulus}
            path = write_json(tmp_path, "cyclic_big.json", doc)
            assert main_within_a_second(["verify", path]) == 3
            assert main_within_a_second(["cohomology", path, docs["coeff"], "--degree", "1"]) == 3
            err = capsys.readouterr().err
            assert err.splitlines() == [
                f"error: Z/{modulus} (one object): more than 500000 composable pairs"
            ] * 2

    def test_dm_system_with_modulus_zero_exits_two(self, tmp_path, capsys, docs):
        doc = {"schema_version": 1, "kind": "natural_system", "construction": "dm",
               "modulus": 0, "max_rank": 1}
        path = write_json(tmp_path, "dm_zero.json", doc)
        assert main(["verify", path]) == 2
        assert main(["cohomology", docs["cat"], path, "--degree", "1"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: natural_system: the matrix modulus must be at least 2, got 0"] * 2

    @pytest.mark.parametrize("kind", ["extension", "qpm"])
    def test_cyclic_extension_of_modulus_one_exits_two(self, tmp_path, capsys, kind):
        path = write_json(tmp_path, "ext_one.json", dict(EXT_C42, kind=kind, modulus=1))
        commands = [["verify", path]] + ([["nu", path]] if kind == "extension" else [])
        for argv in commands:
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: extension: the extension needs a modulus of at least 2, got 1"
        ] * len(commands)

    def test_oversized_natural_system_exits_three_at_once(self, tmp_path, capsys):
        doc = {"schema_version": 1, "kind": "natural_system", "construction": "dm",
               "modulus": 3, "max_rank": 2}
        path = write_json(tmp_path, "ns_dm3.json", doc)
        # the category's associativity check would walk all 693,195 triples
        # before the system's own guard refuses them
        assert main_within_a_second(["verify", path]) == 3
        err = capsys.readouterr().err
        assert "693195 extensions exceed the verification cap" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_generator_cap_below_one_exits_two(self, docs, capsys, cap):
        code = main(["cohomology", docs["cat"], docs["coeff"], "--degree", "1",
                     "--max-generators", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--max-generators must be at least 1, got {cap}" in captured.err

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

    @pytest.mark.parametrize("modulus, max_rank", [(8, 2), (4096, 1)])
    def test_oversized_matrix_category_exits_three(self, tmp_path, capsys, modulus, max_rank):
        doc = {"schema_version": 1, "kind": "category", "construction": "dm",
               "modulus": modulus, "max_rank": max_rank}
        cat = write_json(tmp_path, "dm_big.json", doc)
        coeff = write_json(tmp_path, "dm_coeff.json", dict(doc, kind="natural_system"))
        # the tables would hold about 17 million entries
        assert main_within_a_second(["cohomology", cat, coeff, "--degree", "1"]) == 3
        err = capsys.readouterr().err
        assert "composable pairs" in err and "Traceback" not in err


    @staticmethod
    def count_matrix_categories(monkeypatch) -> list:
        built = []
        mod_r = FinCat.mod_r.__func__

        def counted(cls, modulus, max_rank):
            built.append((modulus, max_rank))
            return mod_r(cls, modulus, max_rank)

        monkeypatch.setattr(FinCat, "mod_r", classmethod(counted))
        return built

    def test_a_dm_system_over_its_own_dm_category_builds_it_once(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = {"schema_version": 1, "kind": "category", "construction": "dm",
               "modulus": 4, "max_rank": 1}
        cat = write_json(tmp_path, "dm41.json", doc)
        coeff = write_json(tmp_path, "dm41_coeff.json", dict(doc, kind="natural_system"))
        built = self.count_matrix_categories(monkeypatch)
        assert main(["cohomology", cat, coeff, "--degree", "2"]) == 0
        assert built == [(4, 1)]
        assert main(["cohomology", cat, coeff, "--degree", "2", "--format", "machine"]) == 0
        assert built == [(4, 1)] * 2
        # the bytes written when each document built its own category
        assert capsys.readouterr().out == (
            "== cohomology: degree 2 ==\n"
            "category: mod-Z/4 ranks <= 1\n"
            "coefficients: bimodule Z/4 matrices\n"
            "chains: full\n"
            "H^2 = [2, 4] (Z/2 + Z/4)\n"
            '{"category": "mod-Z/4 ranks <= 1", "chains": "full", '
            '"coefficients": "bimodule Z/4 matrices", "degree": 2, '
            '"description": "Z/2 + Z/4", "invariant_factors": [2, 4], "record": "cohomology"}\n'
        )

    @pytest.mark.parametrize("system", [(2, 1), (4, 2)], ids=["modulus", "max_rank"])
    def test_a_dm_system_over_another_dm_category_exits_two(
        self, tmp_path, capsys, monkeypatch, system
    ):
        doc = {"schema_version": 1, "kind": "category", "construction": "dm",
               "modulus": 4, "max_rank": 1}
        cat = write_json(tmp_path, "dm41.json", doc)
        modulus, max_rank = system
        coeff = write_json(tmp_path, "dm_coeff.json", dict(
            doc, kind="natural_system", modulus=modulus, max_rank=max_rank, coefficient_modulus=2,
        ))
        built = self.count_matrix_categories(monkeypatch)
        assert main(["cohomology", cat, coeff, "--degree", "1"]) == 2
        assert built == [(4, 1), system]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the coefficient document is built over a different category\n"

    def test_a_trivial_system_over_its_own_dm_category_builds_it_once(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = {"schema_version": 1, "kind": "category", "construction": "dm",
               "modulus": 4, "max_rank": 1}
        cat = write_json(tmp_path, "dm41.json", doc)
        coeff = write_json(tmp_path, "constant2.json", {
            "schema_version": 1, "kind": "natural_system", "construction": "trivial",
            "category": doc, "coefficients": [2],
        })
        built = self.count_matrix_categories(monkeypatch)
        assert main(["cohomology", cat, coeff, "--degree", "1"]) == 0
        assert built == [(4, 1)]
        assert main(["cohomology", cat, coeff, "--degree", "1", "--format", "machine"]) == 0
        assert built == [(4, 1)] * 2
        # the bytes written when the embedded category was built anew
        assert capsys.readouterr().out == (
            "== cohomology: degree 1 ==\n"
            "category: mod-Z/4 ranks <= 1\n"
            "coefficients: constant Z/2\n"
            "chains: full\n"
            "H^1 = [] (0)\n"
            '{"category": "mod-Z/4 ranks <= 1", "chains": "full", '
            '"coefficients": "constant Z/2", "degree": 1, '
            '"description": "0", "invariant_factors": [], "record": "cohomology"}\n'
        )

    @pytest.mark.parametrize("embedded", [(2, 1), (4, 2)], ids=["modulus", "max_rank"])
    def test_a_trivial_system_over_another_dm_category_exits_two(
        self, tmp_path, capsys, monkeypatch, embedded
    ):
        doc = {"schema_version": 1, "kind": "category", "construction": "dm",
               "modulus": 4, "max_rank": 1}
        cat = write_json(tmp_path, "dm41.json", doc)
        modulus, max_rank = embedded
        coeff = write_json(tmp_path, "constant2.json", {
            "schema_version": 1, "kind": "natural_system", "construction": "trivial",
            "category": dict(doc, modulus=modulus, max_rank=max_rank), "coefficients": [2],
        })
        built = self.count_matrix_categories(monkeypatch)
        assert main(["cohomology", cat, coeff, "--degree", "1"]) == 2
        assert built == [(4, 1), embedded]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the coefficient document is built over a different category\n"


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

    def test_samples_below_one_exit_two(self, docs, capsys):
        assert main(["nu", docs["ztilde"], "--samples", "0"]) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 30_000_000])
    def test_samples_above_the_bound_exit_three_at_once(self, docs, capsys, samples):
        assert main_within_a_second(["nu", docs["ztilde"], "--samples", str(samples)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples {samples} exceeds the bound of {MAX_SAMPLES}\n"

    def test_needs_an_extension_document(self, docs, capsys):
        code = main(["nu", docs["ring"]])
        captured = capsys.readouterr()
        assert code == 2
        assert "expected an extension document" in captured.err


    def test_nu_outside_the_kernel_is_a_failed_check(self):
        # nu = P(H(2)) = 1 in Z/4, whose boundary 2 * 1 is not zero
        ext = dataclasses.replace(cyclic_ring_extension(4, 2), P=lambda a: (1,))
        report = _nu_report(ext, 10, 0)
        assert [(c.name, c.ok, c.witness) for c in report.checks] == [
            ("nu lies in the kernel of the boundary", False, "boundary of nu is (2,)"),
        ]

    def test_nu_of_order_four_is_a_failed_check(self):
        # nu = 1 in Z/4 with a zero boundary: in the kernel, but 2 nu != 0
        ext = dataclasses.replace(
            cyclic_ring_extension(4, 2), P=lambda a: (1,), boundary=lambda s: (0,)
        )
        report = _nu_report(ext, 10, 0)
        assert [(c.name, c.ok, c.witness) for c in report.checks] == [
            (
                "nu has order dividing two",
                False,
                "nu does not have order dividing two; the input is not a crossed extension",
            ),
        ]


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

    def test_oversized_matrix_exits_three_at_once(self, tmp_path, capsys):
        rng = random.Random(0)
        big = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
        path = write_json(tmp_path, "big.json", big)
        assert main_within_a_second(["snf", path]) == 3
        assert "40x40 matrix exceeds the bound of 24 rows and columns" in capsys.readouterr().err

    def test_json_booleans_are_not_integers(self, tmp_path, capsys):
        path = write_json(tmp_path, "bool.json", [[True, 2], [3, 4]])
        assert main(["snf", path]) == 2
        assert "matrix entries must be integers" in capsys.readouterr().err


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m quadalg ARGV`` in a child process with ``src`` first on
    its path, killed after a minute."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quadalg", *argv],
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
        capture_output=True, encoding="utf-8", timeout=60,
    )


class TestEntryPoint:
    def test_znil_demo_exits_zero(self):
        done = run_module("znil-demo")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "nu = 1 in Z/2: generator — PASS"

    def test_oversized_matrix_exits_three(self, tmp_path):
        done = run_module("snf", write_json(tmp_path, "big.json", [[1] * 25] * 25))
        assert done.returncode == 3
        assert "25x25 matrix exceeds the bound of 24 rows and columns" in done.stderr

    def test_missing_file_exits_two(self, tmp_path):
        done = run_module("verify", str(tmp_path / "absent.json"))
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot read")


def program_output(path: str) -> str:
    """What ``quadalg verify FILE`` prints on the matrix program at
    ``path`` with ``--format human`` and then with ``--format machine``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for fmt in ("human", "machine"):
            main(["verify", path, "--format", fmt])
    return out.getvalue()


class TestModqProgram:
    def test_program_output_matches_golden(self, docs):
        assert program_output(docs["modq"]) == PROGRAM_GOLDEN.read_text()

    def test_program_runs_both_routes(self, docs, capsys):
        code = main(["verify", docs["modq"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: f: 2x2, 1 quadratic rows" in out
        assert "[PASS] compose f.g: closed route equals substitution route" in out
        assert "[PASS] compose f.f: closed route equals substitution route" in out

    def test_pair_entry_naming_an_unknown_word_exits_two(self, tmp_path, capsys):
        doc = copy.deepcopy(MODQ_WORDS)
        doc["morphisms"]["g"]["pairs"] = [{"rows": [0, 1], "entries": [[[["t"], ["s"], 1]]]}]
        assert main(["verify", write_json(tmp_path, "unknown.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: modq_program morphism 'g' pair [0, 1]: ")
        assert "unknown symbol pair" in err


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp), "modq.json", MODQ_ZNIL)
        PROGRAM_GOLDEN.write_text(program_output(path))
    print(f"wrote {PROGRAM_GOLDEN}")
