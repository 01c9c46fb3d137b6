"""The benchmark's tracer and output capture hook library names from outside:
they wrap functions of ``devia.harness.experiments`` and ``devia.kernels``
and read ``run_coupled``'s, ``batch_paths``' and ``rate_diffusion``'s
arguments by position.  A rename, a reordered signature or a traced call
that leaves the experiments module's namespace must fail here, not only in
the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: the hooks replace module attributes for good
SCRIPT = """
import json
import sys
from collections import Counter

sys.path[:0] = sys.argv[1:3]
import numpy as np

import layers
from devia.harness import experiments as ex
from devia.kernels import default_kernels
from devia.mf_model import two_state_model
from workloads import Capture

capture = Capture()
tracer = layers.Tracer()
layers.install(tracer)

ms, M_ref, T, dt = [4, 8], 16, 0.25, 1 / 16
ex.run_coupled(default_kernels(), ms, M_ref, 0.0, T, dt, 0.25, lambda s, x: 1.0, 3)
ex.batch_paths(two_state_model(1.0), 4, np.array([0.5, 0.5]), 0.5, 1, np.arange(7))
plain = dict(tracer.metrics(), replicas=tracer.counts["jump_sim.replicas"])
plain_calls = {name: len(calls) for name, calls in capture.calls.items()}

# the tilted kernel and a captured skeleton, then both halves of a round trip
ex.run_tilt_limit({
    "kind": "tilt-limit", "model": {"family": "two-state", "rate": 1.0}, "q0": [0.5, 0.5],
    "m_grid": [20, 40], "replicas": 30, "p_steps": 64, "seed": 3,
    "control": {"n_bins": 2, "entries": {"1,2": 0.4, "2,1": -0.2}},
})
ex.run_rate_roundtrip({
    "kind": "rate-roundtrip", "target": "both", "p_steps": 64, "seed": 1,
    "model": {"family": "birth-death", "K": 3, "a": 0.5, "b": 0.5, "c": 0.5},
    "kernels": {"family": "default"}, "T_diff": 0.25, "nx": 81,
})
print(json.dumps({
    "plain": plain,
    "plain_calls": plain_calls,
    "spans": Counter(span[2] for span in tracer.spans),
    "counts": tracer.counts,
    "calls": {name: len(calls) for name, calls in capture.calls.items()},
    # each skeleton_G0 call's control: its bins and its class
    "controls": [[type(args[2]).__name__, len(args[2].psi)]
                 for args, _, _ in capture.calls["skeleton_G0"]],
}))
"""


def test_benchmark_hooks_attach_and_count():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, DEVIA_WORKERS="1"),  # worker processes would escape the hooks
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # n_steps * (M_ref + sum(ms)) particle-steps, one per replica of the batch
    assert out["plain"]["diff_sim.particle_steps"] == 4 * (16 + 4 + 8)
    assert out["plain"]["replicas"] == 7
    assert out["plain_calls"] == {"batch_paths": 1, "skeleton_G0": 0, "run_coupled": 1}

    # every traced call of the two runners went through the experiments module
    spans, counts = out["spans"], out["counts"]
    for name, n in [
        ("harness.run_tilt_limit", 1), ("harness.run_rate_roundtrip", 1),
        ("jump_sim.batch_paths", 3),  # the plain call and one per m
        ("jump_analysis.solve_p", 2), ("jump_analysis.skeleton_G0", 3),
        ("jump_analysis.rate_I", 2), ("jump_analysis.rate_Ibar", 2),
        ("jump_analysis.psi_l2sq", 1),
        # the default and the refined grid
        ("diff_analysis.solve_fokker_planck", 2), ("diff_analysis.solve_linearized", 2),
        ("diff_analysis.rate_diffusion", 2), ("diff_analysis.control_cost_on_grid", 2),
    ]:
        assert spans.get(name) == n, (name, spans.get(name))
    assert counts["jump_sim.replicas"] == 7 + 2 * 30
    # two LLN solves and three skeletons, each on the 64-step grid
    assert counts["jump_analysis.ode_steps"] == 5 * 64
    assert counts["jump_analysis.slices"] > 0
    assert counts["diff_analysis.cell_steps"] > 0
    assert out["calls"] == {"batch_paths": 3, "skeleton_G0": 3, "run_coupled": 1}
    # the tilt's 2-bin control, then the round trip's single-bin control
    # (which the rate-roundtrip check reads first) and its 4-bin one
    assert out["controls"] == [["JumpControl", 2], ["JumpControl", 1], ["JumpControl", 4]]
