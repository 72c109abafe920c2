"""Malformed and oversized documents end in an exit code, never a traceback.

Each fixture document of ``tests/test_documents.py`` gets one value from
``VALUES`` put at a place of its JSON tree drawn from a fixed seed, about
300 cases in all. ``main`` must return 0 to 3 on ``verify`` and, where the
fixture's kind allows, on ``cohomology`` or ``nu``, and must raise nothing.
"""
from __future__ import annotations

import contextlib
import copy
import io
import random

import pytest

from quadalg.cli import main

from .test_documents import (
    CAT_DM,
    CAT_EXPLICIT,
    CAT_Z4,
    COEFF_Z4,
    EXT_C42,
    EXT_ZTILDE,
    MAP_BAD,
    MAP_OK,
    MODQ_WORDS,
    MODQ_ZNIL,
    NS_DM,
    QPM_EXPLICIT,
    QRING,
    RING_C5,
    RING_WORDS,
    RING_ZNIL,
    SG_EXPLICIT,
    write_json,
)

FIXTURES = {
    "ring_znil": RING_ZNIL,
    "ring_c5": RING_C5,
    "ring_words": RING_WORDS,
    "qring": QRING,
    "sg_explicit": SG_EXPLICIT,
    "qpm_explicit": QPM_EXPLICIT,
    "ext_c42": EXT_C42,
    "ext_ztilde": EXT_ZTILDE,
    "cat_z4": CAT_Z4,
    "cat_dm": CAT_DM,
    "cat_explicit": CAT_EXPLICIT,
    "coeff_z4": COEFF_Z4,
    "ns_dm": NS_DM,
    "map_ok": MAP_OK,
    "map_bad": MAP_BAD,
    "modq_znil": MODQ_ZNIL,
    "modq_words": MODQ_WORDS,
}
VALUES = (0, 1, -1, 10**12, -(10**12), True, False, None, "x", "", [], [0], [[1]], {}, {"x": []}, 2.5)
CASES_PER_FIXTURE = 18
# among its draws: a 10^12 cyclic modulus, a modulus-1 cyclic extension, a
# list endpoint in an explicit category and a non-list word part, which once
# raised MemoryError, IndexError and TypeError
SEED = 15
# the sampling commands draw few tuples: the cases test input handling, not laws
SAMPLES = ["--samples", "20"]


def places(value, path=()):
    """The path of every value below the root of a JSON tree."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield path + (key,)
        yield from places(child, path + (key,))


def replaced(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def cases(name: str) -> list[tuple[tuple, object]]:
    """The fixture's (path, value) pairs, drawn from ``SEED`` and its name."""
    rng = random.Random(f"{SEED}:{name}")
    spots = list(places(FIXTURES[name]))
    return [(rng.choice(spots), rng.choice(VALUES)) for _ in range(CASES_PER_FIXTURE)]


def commands(name: str, doc: str, tmp_path) -> list[list[str]]:
    """``verify`` on the document, and the command that also reads a
    document of the fixture's kind, with an unchanged partner."""
    out = [["verify", doc, *SAMPLES]]
    kind = FIXTURES[name]["kind"]
    if kind == "category":
        coeff = write_json(tmp_path, "coeff.json", COEFF_Z4)
        out.append(["cohomology", doc, coeff, "--degree", "1"])
    elif kind == "natural_system":
        cat = write_json(tmp_path, "cat.json", CAT_DM if name == "ns_dm" else CAT_Z4)
        out.append(["cohomology", cat, doc, "--degree", "1"])
    elif kind == "extension":
        out.append(["nu", doc, *SAMPLES])
    return out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_changed_documents_exit_with_a_code(name, tmp_path):
    failures = []
    for i, (path, value) in enumerate(cases(name)):
        doc = write_json(tmp_path, f"case{i}.json", replaced(FIXTURES[name], path, value))
        for argv in commands(name, doc, tmp_path):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:  # the defect this test looks for
                failures.append(f"{argv[0]} at {path} = {value!r}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2, 3):
                failures.append(f"{argv[0]} at {path} = {value!r}: exit {code!r}")
            elif code >= 2 and len(err.getvalue().splitlines()) != 1:
                failures.append(f"{argv[0]} at {path} = {value!r}: {err.getvalue()!r}")
    assert not failures, "\n".join(failures)
