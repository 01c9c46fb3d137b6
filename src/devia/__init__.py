"""devia: simulation and deviations analysis for weakly interacting particle systems.

Subpackages and modules:

- ``mf_model``: jump-model definitions (simplex states, rate matrices, cell
  geometry, drift and its derivative, thinning cost function).
- ``jump_sim``: exact event-driven simulation, tilted simulation and its
  thinning cost.
- ``jump_analysis``: limit ODE, skeleton map, jump rate functions, the exact
  time-T law of a birth-death count chain.
- ``diff_sim``: interacting diffusion ensembles (a reference ensemble is an
  interacting one at a large particle count), the limit law's pairing path
  and the coupling of controlled systems to it.
- ``diff_analysis``: nonlinear Fokker-Planck and linearized solvers, diffusion
  rate function.
- ``schwartz``: rapidly decaying test functions, seminorms, generator action.
- ``harness``: experiment runners, bound-check suite, reports and the CLI.
"""

__version__ = "0.1.0"
