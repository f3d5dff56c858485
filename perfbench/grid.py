"""The benchmark's four workloads as lists of partial-spec sweep points.

Every workload runs at the paper's operating point: 64 cores, the
``default`` preset (16 KB L1 + 64 KB L2 per tile), first-touch
placement and the ``history`` scheme unless a workload sweeps that
axis. Only generator sizes are scaled down, so that a whole grid fits
a few times into one measured run. The ``smoke`` size uses 16 cores
and tiny traces; it exists for the self-checks and runs in seconds.

The seed enters only through the generators' ``seed`` parameter: the
program sees nothing but the generated specs.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("full", "smoke")
CORES = {"full": 64, "smoke": 16}
PRESET = "default"
DEFAULT_SEED = 0

SPLASH = ("ocean", "fft", "radix", "barnes", "raytrace", "water", "lu")

# Scaled SPLASH-style generators. Ocean's grid cannot go below two rows
# per thread, so it sets the floor; the others keep roughly the
# proportions of the full-size grid (ocean largest, lu smallest).
SPLASH_PARAMS = {
    "full": {
        "ocean": dict(grid_n=130, iterations=1),
        "fft": dict(points_per_thread=64),
        "radix": dict(keys_per_thread=32),
        "barnes": dict(bodies_per_thread=4),
        "raytrace": dict(rays_per_thread=8),
        "water": dict(molecules_per_thread=4),
        "lu": dict(blocks=4),
    },
    "smoke": {
        "ocean": dict(grid_n=34, iterations=1),
        "fft": dict(points_per_thread=16, butterfly_stages=2),
        "radix": dict(keys_per_thread=16, passes=1),
        "barnes": dict(bodies_per_thread=2, tree_depth=4, timesteps=1),
        "raytrace": dict(rays_per_thread=4, scene_words=1024),
        "water": dict(molecules_per_thread=4, timesteps=1),
        "lu": dict(blocks=2, block_words=16),
    },
}

# The ``private`` generator with a working set that fits in L1 (the
# regime where the epoch fast path engages) and one four times the
# 64 KB L2 (4-byte words), where DRAM fills close every window.
PRIVATE_PARAMS = {
    "full": {
        "l1-fit": dict(accesses_per_thread=1024, working_set=512),
        "l2-overflow": dict(accesses_per_thread=512, working_set=65536),
    },
    "smoke": {
        "l1-fit": dict(accesses_per_thread=128, working_set=64),
        "l2-overflow": dict(accesses_per_thread=64, working_set=65536),
    },
}

SCHEMES = (
    "addr-history", "always-migrate", "costaware", "distance-1", "distance-2",
    "history", "native-first", "never-migrate", "random",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: which machines, schemes and placements run
    over which traces, and how the sweep is dispatched."""

    name: str
    why: str
    machines: tuple[str, ...]
    traces: str  # "splash" or "private"
    schemes: tuple[str, ...] = ("history",)
    placements: tuple[str, ...] = ("first-touch",)
    workers: int = 1
    # fresh ResultCache and trace store per round, then an untimed warm
    # re-run that must return the same rows
    cached: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper64-migration",
            "em2, em2ra and ra-only on the seven SPLASH-style traces: the event "
            "engine, NoC, decision schemes and EM2 machine take the host time",
            machines=("em2", "em2ra", "ra-only"),
            traces="splash",
        ),
        Workload(
            "paper64-coherence",
            "cc-msi, cc-mesi and analytical on the same traces: the coherence "
            "simulator and its batched fast path work while the EM2 engine idles",
            machines=("cc-msi", "cc-mesi", "analytical"),
            traces="splash",
        ),
        Workload(
            "scheme-sweep",
            "analytical x 9 schemes x 2 placements x 7 traces through a 2-worker "
            "pool with a fresh result cache and trace store: the sweep plumbing",
            machines=("analytical",),
            traces="splash",
            schemes=SCHEMES,
            placements=("first-touch", "striped"),
            workers=2,
            cached=True,
        ),
        Workload(
            "private64-cache",
            "private traces fitting L1 and overflowing L2 on five machines: the "
            "only workload where the epoch fast path engages, and its miss-bound twin",
            machines=("em2", "em2ra", "ra-only", "cc-msi", "cc-mesi"),
            traces="private",
        ),
    )
}


def trace_points(workload: Workload, size: str, seed: int) -> list[dict]:
    """The workload sub-spec dicts the workload's points run on."""
    threads = CORES[size]
    if workload.traces == "splash":
        table = [(g, SPLASH_PARAMS[size][g]) for g in SPLASH]
    else:
        table = [("private", p) for p in PRIVATE_PARAMS[size].values()]
    return [
        {"name": name, "params": {"num_threads": threads, **params, "seed": seed}}
        for name, params in table
    ]


def points(workload: Workload, size: str, seed: int) -> list[dict]:
    """Partial-spec overlays for :func:`repro.analysis.sweep.sweep_specs`,
    in a fixed order (traces outermost, then machine, placement, scheme)."""
    return [
        {"workload": w, "machine": {"name": m}, "placement": p, "scheme": s}
        for w in trace_points(workload, size, seed)
        for m in workload.machines
        for p in workload.placements
        for s in workload.schemes
    ]


def base_spec(size: str):
    """The spec every point overlays: cores and preset stay fixed."""
    from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, SchemeSpec

    return ExperimentSpec(
        machine=MachineSpec(name="analytical", cores=CORES[size], preset=PRESET),
        scheme=SchemeSpec(name="history"),
        placement=PlacementSpec(name="first-touch"),
    )


def prepare(base, pts: list[dict]) -> list[int]:
    """Generate every distinct trace and build its placement through
    :func:`repro.runner.build`, which leaves both in the runner's
    per-process memo. Returns each point's access count."""
    import json

    from repro.runner import build, merge_spec

    built: dict[str, int] = {}
    for p in pts:
        key = json.dumps([p["workload"], p["placement"]], sort_keys=True)
        if key not in built:
            spec = merge_spec(base, {"workload": p["workload"], "placement": p["placement"]})
            built[key] = build(spec).trace.total_accesses
    return [built[json.dumps([p["workload"], p["placement"]], sort_keys=True)] for p in pts]
