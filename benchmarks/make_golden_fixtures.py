"""Regenerate the golden-fixture snapshots used by the parity tests.

The detailed simulators (EM², EM²-RA, RA-only, directory-CC) are
hot-path-optimized under a *bit-identical results* contract: any
refactor of the per-access loops must reproduce exactly the
``results()`` dicts captured here on fixed-seed traces. The snapshots
in ``tests/fixtures/golden_results.json`` were generated **before**
the columnar-decode optimization and committed; the tier-1 test
``tests/integration/test_golden_fixtures.py`` recomputes every
scenario and asserts exact equality, so a refactor that changes
behaviour fails loudly.

Scenarios are declared as :class:`~repro.spec.ExperimentSpec` dicts
and executed through :func:`repro.runner.run` — the same registry
construction path as the CLI and the sweep harness — so the parity
gate also covers spec resolution end to end.

The 32-core SPLASH scenarios (:func:`splash_scenario_specs`) were
appended later, captured from the code before the transport-event
recycling of the migration machines, leaving every earlier scenario
byte-for-byte unchanged.

Only rerun this script when simulator *semantics* change on purpose::

    PYTHONPATH=src python benchmarks/make_golden_fixtures.py

and say so in the commit message — silently regenerating fixtures
defeats the regression gate.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.registry import MACHINES
from repro.runner import build, run
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)

FIXTURE_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "fixtures"
    / "golden_results.json"
)

CORES = 4

# Fixed-seed traces: generators are deterministic given their seed
# (default 0), so these reproduce exactly on every machine.
TRACES = {
    "pingpong": dict(name="pingpong", num_threads=4, rounds=12, run=3),
    "uniform": dict(name="uniform", num_threads=4, accesses_per_thread=96,
                    region_words=256),
}

# Scenario architecture -> machine-registry name. The history scheme's
# registered default threshold is break_even_run_length(0, cores-1),
# exactly what the committed fixtures were captured with.
ARCH_MACHINES = {
    "em2": "em2",
    "em2ra-history": "em2ra",
    "ra-only": "ra-only",
    "cc-msi": "cc-msi",
    "cc-mesi": "cc-mesi",
}

# SPLASH-shaped scenarios on the paper's `default` preset at 32 cores,
# where the machines bind the transport and fast-path variants the
# 4-core toys never reach: each trace on every migration-family machine
# with the fast path on and off, plus one zero-rate fault run and one
# NoC-contention run.
SPLASH_CORES = 32
SPLASH_TRACES = {
    "lu": dict(blocks=4),
    "water": dict(molecules_per_thread=4),
}
SPLASH_ARCHES = ("em2", "em2ra-history", "ra-only")
#: scenarios run with NoC link contention (spec: the key before "@")
CONTENTION_SCENARIOS = (f"water{SPLASH_CORES}/em2ra-history@contention",)


def scenario_specs() -> dict[str, dict]:
    """Every (trace, architecture) scenario as a serialized spec dict.

    These are the scenarios whose results must not change with the fast
    path forced on or off, or with an idle fault plane attached: the
    parity gates rerun them under those variations against one fixture.
    """
    out: dict[str, dict] = {}
    for trace_key in sorted(TRACES):
        params = dict(TRACES[trace_key])
        name = params.pop("name")
        for arch, machine in ARCH_MACHINES.items():
            spec = ExperimentSpec(
                workload=WorkloadSpec(name=name, params=params),
                machine=MachineSpec(name=machine, cores=CORES, preset="small-test"),
                scheme=SchemeSpec(name="history"),
                placement=PlacementSpec(name="first-touch"),
            )
            out[f"{trace_key}/{arch}"] = spec.to_dict()
    # one hierarchical-topology scenario: a 2x1 grid of 1x2 clusters on
    # the 2x2 core grid, where hub routing makes distance(0,1) = 3
    # against the flat mesh's 1 — pinning the ClusterMesh geometry (hub
    # placement, express-link hops, two-level XY order) bit-for-bit
    cluster_spec = ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={
            k: v for k, v in TRACES["pingpong"].items() if k != "name"
        }),
        machine=MachineSpec(name="em2", cores=CORES, preset="small-test"),
        scheme=SchemeSpec(name="history"),
        placement=PlacementSpec(name="first-touch"),
        topology=TopologySpec(name="cluster", params=dict(
            clusters_x=2, clusters_y=1, cluster_width=1, cluster_height=2,
        )),
    )
    out["pingpong-cluster/em2"] = cluster_spec.to_dict()
    return out


def splash_scenario_specs() -> dict[str, dict]:
    """The paper-scale SPLASH scenarios as serialized spec dicts.

    Unlike :func:`scenario_specs`, whose scenarios the parity gates
    re-run with the fast path forced on and off or with an idle fault
    plane and compare against one fixture, every variant here is a
    fixture of its own: the EM² fast path is not yet bit-identical to
    the event-driven path at 32 cores, so on and off are pinned
    separately. Contention scenarios map to the spec they run with
    (the key before ``@``); see :func:`_run_contended`.
    """
    out: dict[str, dict] = {}
    for trace_key, params in SPLASH_TRACES.items():
        for arch in SPLASH_ARCHES:
            for fast_path in (True, False):
                spec = ExperimentSpec(
                    workload=WorkloadSpec(name=trace_key, params={
                        "num_threads": SPLASH_CORES, **params,
                    }),
                    machine=MachineSpec(
                        name=ARCH_MACHINES[arch], cores=SPLASH_CORES,
                        preset="default", fast_path=fast_path,
                    ),
                    scheme=SchemeSpec(name="history"),
                    placement=PlacementSpec(name="first-touch"),
                )
                suffix = "" if fast_path else "@fast-path-off"
                out[f"{trace_key}{SPLASH_CORES}/{arch}{suffix}"] = spec.to_dict()
    zero_faults = ExperimentSpec.from_dict({
        **out[f"lu{SPLASH_CORES}/em2ra-history"],
        "faults": FaultSpec(name="iid").to_dict(),
    })
    out[f"lu{SPLASH_CORES}/em2ra-history@zero-faults"] = zero_faults.to_dict()
    for key in CONTENTION_SCENARIOS:
        out[key] = out[key.split("@")[0]]
    return out


def all_scenario_specs() -> dict[str, dict]:
    """Every scenario the fixture holds."""
    return {**scenario_specs(), **splash_scenario_specs()}


def _run_contended(spec: ExperimentSpec) -> dict:
    """:func:`repro.runner.run` with the link-contention NoC: a
    ``NocConfig`` field is not a flat ``SystemConfig`` override, so the
    spec names the point and the contention flag is applied here."""
    built = build(spec)
    config = replace(built.config, noc=replace(built.config.noc, contention=True))
    return MACHINES.get(spec.machine.name)(
        built.trace, built.placement, config,
        scheme=built.scheme, topology=built.topology,
    )


def scenario_results() -> dict:
    """Run every scenario spec and collect the machines' results().

    The ``fast_path`` sub-dict is engagement diagnostics, not simulated
    outcome — it is stripped so fixtures only pin bit-exact metrics.
    """
    results = {
        key: (_run_contended if key in CONTENTION_SCENARIOS else run)(
            ExperimentSpec.from_dict(spec_dict)
        )
        for key, spec_dict in all_scenario_specs().items()
    }
    for r in results.values():
        r.pop("fast_path", None)
    return results


def main() -> int:
    results = scenario_results()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} scenarios to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
