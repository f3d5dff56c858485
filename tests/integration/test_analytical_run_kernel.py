"""The analytical machine's rows do not depend on which kernel ran.

Every registered scheme, on the seven SPLASH-style generators at 16
cores with the ``default`` preset, under first-touch and striped
placement: ``evaluate_scheme(...).as_dict()`` must equal the same
evaluation driven through the reference walk (``evaluate_thread``) for
every thread, whatever the scheme. This pins the run kernel and the
vectorized always/never paths to the walk at the paper's cost model,
not only on toy traces.
"""

import numpy as np
import pytest

from repro.core.evaluation import EvalResult, evaluate_scheme, evaluate_thread
from repro.registry import SCHEMES
from repro.runner import build, merge_spec
from repro.spec import ExperimentSpec, MachineSpec

CORES = 16

# the 16-core smoke sizes of the paper-grid benchmark's SPLASH traces
SPLASH_SMOKE = {
    "ocean": dict(grid_n=34, iterations=1),
    "fft": dict(points_per_thread=16, butterfly_stages=2),
    "radix": dict(keys_per_thread=16, passes=1),
    "barnes": dict(bodies_per_thread=2, tree_depth=4, timesteps=1),
    "raytrace": dict(rays_per_thread=4, scene_words=1024),
    "water": dict(molecules_per_thread=4, timesteps=1),
    "lu": dict(blocks=2, block_words=16),
}


def _walk(trace, placement, scheme, cost_model) -> dict:
    """``evaluate_scheme`` with every thread on the reference walk."""
    result = EvalResult(scheme=scheme.name)
    for t, tr in enumerate(trace.threads):
        if tr.size == 0:
            continue
        per_thread = scheme.clone()
        per_thread.reset()
        cost, n_mig, n_ra, n_loc, bits, _ = evaluate_thread(
            placement.home_of(tr["addr"]),
            tr["write"],
            trace.thread_native_core[t] % cost_model.config.num_cores,
            per_thread,
            cost_model,
            addrs=tr["addr"].astype(np.int64),
        )
        result.total_cost += cost
        result.migrations += n_mig
        result.remote_accesses += n_ra
        result.local_accesses += n_loc
        result.traffic_bits += bits
    return result.as_dict()


@pytest.mark.parametrize("placement", ["first-touch", "striped"])
@pytest.mark.parametrize("workload", sorted(SPLASH_SMOKE))
def test_every_scheme_matches_the_walk(workload, placement):
    base = ExperimentSpec(machine=MachineSpec(name="analytical", cores=CORES, preset="default"))
    params = {"num_threads": CORES, **SPLASH_SMOKE[workload], "seed": 0}
    for name in SCHEMES.names():
        built = build(merge_spec(base, {
            "workload": {"name": workload, "params": params},
            "placement": placement,
            "scheme": name,
        }))
        got = evaluate_scheme(built.trace, built.placement, built.scheme, built.cost).as_dict()
        want = _walk(built.trace, built.placement, built.scheme, built.cost)
        assert got == want, name
