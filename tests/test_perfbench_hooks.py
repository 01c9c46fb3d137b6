"""The benchmark's tracer and output capture hook library names from outside:
they wrap functions of ``devia.harness.experiments`` and ``devia.kernels``
and read ``run_coupled``'s and ``batch_paths``' arguments by position.  A
rename or a reordered signature must fail here, not only in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: the hooks replace module attributes for good
SCRIPT = """
import sys

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
metrics = tracer.metrics()
print(metrics["diff_sim.particle_steps"], tracer.counts["jump_sim.replicas"])
print(len(capture.calls["run_coupled"]), len(capture.calls["batch_paths"]))
"""


def test_benchmark_hooks_attach_and_count():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps, replicas, coupled_calls, batch_calls = map(int, proc.stdout.split())
    # n_steps * (M_ref + sum(ms)) particle-steps, one per replica of the batch
    assert steps == 4 * (16 + 4 + 8)
    assert replicas == 7
    assert (coupled_calls, batch_calls) == (1, 1)
