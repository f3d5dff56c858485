"""Golden-fixture parity: the detailed simulators must be bit-identical.

``tests/fixtures/golden_results.json`` snapshots the ``results()``
dicts of every detailed simulator (EM², EM²-RA, RA-only, directory-CC
msi/mesi) on fixed-seed traces, captured *before* the hot-path
optimizations (columnar trace decode, cached NoC tables, counter
cells, the CC hit fast path). These tests recompute each scenario
with the current code and assert **exact** equality — any speedup
that changes a single counter, latency, or traffic bit fails here.

Regenerating the fixture is only legitimate when simulator semantics
change on purpose; see ``benchmarks/make_golden_fixtures.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
BENCH_DIR = REPO / "benchmarks"
FIXTURE = REPO / "tests" / "fixtures" / "golden_results.json"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import make_golden_fixtures as golden  # noqa: E402


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def recomputed() -> dict:
    return golden.scenario_results()


def test_fixture_committed():
    assert FIXTURE.exists(), "golden fixture missing; run make_golden_fixtures.py"


def test_scenario_specs_round_trip():
    """Every scenario is a serializable ExperimentSpec: parity through
    the spec path also proves spec resolution is lossless."""
    from repro.spec import ExperimentSpec

    for key, spec_dict in golden.all_scenario_specs().items():
        assert ExperimentSpec.from_dict(spec_dict).to_dict() == spec_dict, key


def test_scenario_set_matches(committed, recomputed):
    assert sorted(recomputed) == sorted(committed)


@pytest.mark.parametrize("scenario", sorted(golden.all_scenario_specs()))
def test_scenario_bit_identical(scenario, committed, recomputed):
    """Exact equality, per scenario so a mismatch names its simulator."""
    # round-trip the recomputed side through JSON so numeric types
    # compare the way the committed snapshot stored them
    fresh = json.loads(json.dumps(recomputed[scenario], sort_keys=True))
    assert fresh == committed[scenario], (
        f"{scenario} diverged from the pre-optimization snapshot; "
        "a hot-path change is no longer bit-identical"
    )
