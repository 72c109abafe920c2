"""Golden sample streams: what every carrier kind draws from a seeded RNG.

Each case draws 2,000 elements from one carrier with its own seeded
``random.Random``, then one 64-bit word, and pins a sha256 digest of
their ``repr`` lines. The digest fixes both the values drawn and the
number of draws taken from the stream, which every seeded report,
failing witness and bench digest depends on. A faster sampler must
leave every digest unchanged.

After a deliberate change to a sampler, rewrite
``tests/golden/sample_streams.json`` with
``PYTHONPATH=src python -m tests.test_sample_streams`` and review the diff.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from quadalg.abelian import FgAbGroup
from quadalg.crossed import Mod2WordsCarrier, ZtildePairsCarrier
from quadalg.modq import ModQMor, _Morphisms
from quadalg.nil2 import (
    DirectSumCarrier,
    FreeAbelianCarrier,
    FreeNil2Carrier,
    FreePairsCarrier,
    SubgroupCarrier,
)
from quadalg.sqring import znil

GOLDEN = Path(__file__).parent / "golden" / "sample_streams.json"
DRAWS = 2000

_SYMBOLS = ["s", "t", "u"]
_POOL = ["s", "t"]
# more than 21 pool words, so that ``random.Random.sample`` takes its set
# branch instead of its pool-swap branch
_WIDE = [f"w{i}" for i in range(25)]

CARRIERS = {
    "fgab_free": lambda: FgAbGroup.free(2),
    "fgab_finite": lambda: FgAbGroup((2, 6)),
    "fgab_mixed": lambda: FgAbGroup((3, 0, 0)),
    "free_nil2": lambda: FreeNil2Carrier(_SYMBOLS, _POOL),
    "free_abelian": lambda: FreeAbelianCarrier(_SYMBOLS, _POOL),
    "free_pairs": lambda: FreePairsCarrier(_SYMBOLS, _POOL),
    "free_nil2_wide": lambda: FreeNil2Carrier(_WIDE, _WIDE),
    "free_abelian_wide": lambda: FreeAbelianCarrier(_WIDE, _WIDE),
    "direct_sum": lambda: DirectSumCarrier(FgAbGroup((4,)), FgAbGroup.free(1)),
    "subgroup": lambda: SubgroupCarrier(FgAbGroup((6,)), [(0,), (2,), (4,)]),
    "mod2_words": lambda: Mod2WordsCarrier(FreePairsCarrier(_SYMBOLS, _POOL)),
    "mod2_words_wide": lambda: Mod2WordsCarrier(FreePairsCarrier(_WIDE, _WIDE)),
    "ztilde_pairs": lambda: _ztilde_carrier(FreePairsCarrier(_SYMBOLS, _POOL)),
    "modq_morphisms": lambda: _Morphisms(znil(), max_dim=2, count=2),
}


def _ztilde_carrier(ee: FreePairsCarrier) -> ZtildePairsCarrier:
    return ZtildePairsCarrier(ee, Mod2WordsCarrier(ee))


def _plain(x):
    """``x`` with every morphism replaced by its shape and entries, whose
    ``repr`` does not depend on the ring's functions."""
    if isinstance(x, ModQMor):
        return (x.nrows, x.ncols, x.fi, sorted(x.fij.items()))
    if isinstance(x, tuple):
        return tuple(map(_plain, x))
    return x


def digest(case: str) -> str:
    carrier = CARRIERS[case]()
    rng = random.Random(f"sample_streams/{case}")
    lines = [repr(_plain(carrier.sample(rng))) for _ in range(DRAWS)]
    lines.append(repr(rng.getrandbits(64)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CARRIERS))
def test_sample_stream_matches_golden(case):
    assert digest(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: digest(case) for case in CARRIERS}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
