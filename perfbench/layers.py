"""Layer spans and counters for the traced benchmark run.

The tracer replaces public names of the devia modules, at the places where
their callers look them up, with wrappers that record a span (name, start,
end, parent) and update counters from the call's arguments and result.
Nothing inside the program changes; the wrappers live only in the traced
round's process.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "rng",
    "jump_sim",
    "paths",
    "jump_analysis",
    "diff_sim",
    "kernels",
    "diff_analysis",
    "harness",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.self_s: dict[str, float] = defaultdict(float)  # per layer
        self.incl_s: dict[str, float] = defaultdict(float)  # per span name
        self.cpu_s: dict[str, float] = defaultdict(float)  # per layer, where asked for
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children, name]

    # -- installing wrappers -------------------------------------------------

    def span(self, owner, attr: str, layer: str, count=None, cpu: bool = False) -> None:
        """Wrap ``owner.attr`` in a span of ``layer``; ``count(tracer, args,
        kwargs, result)`` runs after the call, outside the span."""
        fn = owner.__dict__[attr]
        name = f"{layer}.{attr}"
        stack, spans = self._stack, self.spans
        self_s, incl_s, cpu_s = self.self_s, self.incl_s, self.cpu_s
        perf, proc = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), 0.0, name]
            stack.append(frame)
            c0 = proc() if cpu else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if cpu:
                    cpu_s[layer] += proc() - c0
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                self_s[layer] += dur - frame[1]
                incl_s[name] += dur
                spans.append((frame[0], -1 if parent is None else parent[0], name, t0, t1))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def counter(self, owner, attr: str, count) -> None:
        """Wrap ``owner.attr`` with a counter only, for calls too small and
        too many for a span each."""
        fn = owner.__dict__[attr]

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result

        setattr(owner, attr, counted)

    def innermost(self) -> str:
        """Name of the innermost open span, or "" outside every span."""
        return self._stack[-1][2] if self._stack else ""

    def model_factory(self, owner, attr: str) -> None:
        """Wrap a model constructor so that the model it returns counts its
        per-state ``rate_matrix`` calls."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def factory(*args, **kwargs):
            model = fn(*args, **kwargs)
            rate_matrix = model.rate_matrix

            def counted(q):
                counts["mf_model.rate_matrix.calls"] += 1
                return rate_matrix(q)

            return dataclasses.replace(model, rate_matrix=counted)

        setattr(owner, attr, factory)

    # -- reporting -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Layer metrics of everything traced so far."""
        c, s, incl = self.counts, self.self_s, self.incl_s

        def per_s(work: str, *names: str) -> float:
            busy = sum(incl[n] for n in names)
            return c[work] / busy if busy > 0 else 0.0

        out = {
            "rng.streams": c["rng.streams"],
            "mf_model.rates_batch.calls": c["mf_model.rates_batch.calls"],
            "mf_model.rates_batch.rows": c["mf_model.rates_batch.rows"],
            "mf_model.rate_matrix.calls": c["mf_model.rate_matrix.calls"],
            "paths.interp.calls": c["paths.interp.calls"],
            "jump_analysis.ode_steps": c["jump_analysis.ode_steps"],
            "jump_analysis.slices": c["jump_analysis.slices"],
            "diff_sim.particle_steps": c["diff_sim.particle_steps"],
            "kernels.mean_y.calls": c["kernels.mean_y.calls"],
            "diff_analysis.cell_steps": c["diff_analysis.cell_steps"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = s[layer]
        out["kernels.cpu_s"] = self.cpu_s["kernels"]
        out["jump_sim.replicas_per_s"] = per_s("jump_sim.replicas", "jump_sim.batch_paths")
        out["jump_analysis.ode_steps_per_s"] = per_s(
            "jump_analysis.ode_steps", "jump_analysis.solve_p", "jump_analysis.skeleton_G0"
        )
        out["jump_analysis.slices_per_s"] = per_s(
            "jump_analysis.slices", "jump_analysis.rate_I", "jump_analysis.rate_Ibar"
        )
        out["diff_sim.particle_steps_per_s"] = per_s(
            "diff_sim.particle_steps", "diff_sim.run_coupled"
        )
        out["diff_analysis.cell_steps_per_s"] = per_s(
            "diff_analysis.cell_steps",
            "diff_analysis.solve_fokker_planck",
            "diff_analysis.solve_linearized",
            "diff_analysis.rate_diffusion",
            "diff_analysis.control_cost_on_grid",
        )
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# -- counters taken at the layer boundaries ------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_stream(tr, args, kwargs, result):
    tr.counts["rng.streams"] += 1


def _count_batch_paths(tr, args, kwargs, result):
    tr.counts["jump_sim.replicas"] += len(_arg(args, kwargs, 5, "replicas"))


# a least-norm pass evaluates the weights of all its time slices in one
# rates_batch call, with no span in between
LEAST_NORM_SPANS = ("jump_analysis.rate_I", "jump_analysis.rate_Ibar")


def _count_rates_batch(tr, args, kwargs, result):
    Q = args[1]
    rows = Q.size // Q.shape[-1]
    tr.counts["mf_model.rates_batch.calls"] += 1
    tr.counts["mf_model.rates_batch.rows"] += rows
    if tr.innermost() in LEAST_NORM_SPANS:
        tr.counts["jump_analysis.slices"] += rows


def _count_interp(tr, args, kwargs, result):
    tr.counts["paths.interp.calls"] += 1


def _count_ode_steps(tr, args, kwargs, result):
    tr.counts["jump_analysis.ode_steps"] += len(result.grid) - 1


def _count_run_coupled(tr, args, kwargs, result):
    ms = _arg(args, kwargs, 1, "ms")
    M_ref = _arg(args, kwargs, 2, "M_ref")
    T = _arg(args, kwargs, 4, "T")
    dt = _arg(args, kwargs, 5, "dt")
    tr.counts["diff_sim.particle_steps"] += int(round(T / dt)) * (M_ref + sum(ms))


def _count_mean_y(tr, args, kwargs, result):
    tr.counts["kernels.mean_y.calls"] += 1


def _count_field_steps(tr, args, kwargs, result):
    tr.counts["diff_analysis.cell_steps"] += (len(result.ts) - 1) * len(result.xs)


def _count_rate_diffusion(tr, args, kwargs, result):
    eta = _arg(args, kwargs, 2, "eta")
    tr.counts["diff_analysis.cell_steps"] += len(eta.ts) * len(eta.xs)


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the program."""
    from devia import diff_sim, jump_sim, kernels, mf_model, paths
    from devia.harness import experiments, report

    ex = experiments
    for name in ("exactness_tv", "run_tilt_limit", "run_rate_roundtrip", "run_coupling_scaling"):
        tracer.span(ex, name, "harness")
    for owner in (jump_sim, diff_sim, ex, report):
        tracer.span(owner, "stream", "rng", _count_stream)
    tracer.span(ex, "batch_paths", "jump_sim", _count_batch_paths)
    tracer.counter(mf_model.RateModel, "rates_batch", _count_rates_batch)
    # every factory (model_from_config, two_state_model) reaches these two
    # through mf_model's globals, so each model is counted once
    for name in ("birth_death_model", "constant_rate_model"):
        tracer.model_factory(mf_model, name)
    tracer.span(paths.PathVec, "__call__", "paths", _count_interp)
    tracer.span(ex, "solve_p", "jump_analysis", _count_ode_steps)
    tracer.span(ex, "skeleton_G0", "jump_analysis", _count_ode_steps)
    tracer.span(ex, "rate_I", "jump_analysis")
    tracer.span(ex, "rate_Ibar", "jump_analysis")
    tracer.span(ex, "psi_l2sq", "jump_analysis")
    tracer.span(ex, "run_coupled", "diff_sim", _count_run_coupled)
    tracer.span(kernels.Kernel, "mean_y", "kernels", _count_mean_y, cpu=True)
    tracer.span(kernels.Kernel, "mean_x", "kernels", cpu=True)
    tracer.span(ex, "solve_fokker_planck", "diff_analysis", _count_field_steps)
    tracer.span(ex, "solve_linearized", "diff_analysis", _count_field_steps)
    tracer.span(ex, "rate_diffusion", "diff_analysis", _count_rate_diffusion)
    tracer.span(ex, "control_cost_on_grid", "diff_analysis")
