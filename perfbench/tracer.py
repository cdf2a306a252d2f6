"""In-memory span tracer that wraps the public functions of pendavg's layers.

The program is not edited: after ``pendavg`` is imported, every public
module-level function of the six layer modules is replaced, in every
``pendavg`` namespace that refers to it, by a wrapper that records a span
(id, parent id, name, start, end) and the caller's child time.  A layer's
self time is the duration of its spans minus the part their child spans
cover.  The forcing evaluations run up to a million times per operation and
call no other wrapped function, so they are timed as leaves (count and time)
without a span each; ``smooth_sign`` runs only inside them and is not
wrapped; ``PeriodicScalar.__call__`` (tens of millions of calls) is only
counted.  Spans are kept in memory and written out by :meth:`Tracer.dump`
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "model", "perturbation", "averaging", "filippov", "verify")
# Private functions that carry a layer's work and are wrapped as well.
EXTRA = {"cli": ("_write_text",)}
FORCING = ("perturbation.eval_order1", "perturbation.eval_order1_with_signs",
           "perturbation.eval_order1_regularized")
SKIPPED = {"perturbation.smooth_sign"}
INTEGRATORS = ("filippov.integrate_field", "filippov.integrate_regularized")
WRITERS = ("cli._write_text", "filippov.export_trajectory_csv", "filippov.export_events_csv")
NEWTON_STATUS = {"converged": "averaging.newton_converged",
                 "trivial-basin": "averaging.newton_trivial_basin",
                 "no-convergence": "averaging.newton_no_convergence"}


class Tracer:
    """Spans, call counts, outermost-call times and per-layer self time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.active = Counter()
        self.total = defaultdict(float)
        self.layer_active = Counter()
        self.layer_total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.scalar_calls = [0]
        self._ids = itertools.count(1)
        self._hooks = {
            "averaging.bifurcation_values": self._on_g_eval,
            "averaging.newton_zero": self._on_newton,
            "filippov.integrate_field": self._on_integration,
            "filippov.integrate_regularized": self._on_integration,
            "verify.refine_periodic": self._on_refine,
        }

    # -- hooks: counters measured where the work happens ----------------------

    def _on_g_eval(self, result, exc):
        if self.active["averaging.jacobian"]:
            self.counts["averaging.jacobian_g_evals"] += 1
        if self.active["averaging.newton_zero"]:
            self.counts["g_evals_in_newton"] += 1

    def _on_newton(self, result, exc):
        status = getattr(result, "status", None)
        self.counts[NEWTON_STATUS.get(status, "averaging.newton_raised")] += 1

    def _on_integration(self, result, exc):
        traj = result if exc is None else getattr(exc, "trajectory", None)
        if traj is not None:
            self.counts["filippov.steps"] += sum(max(len(seg.ts) - 1, 0) for seg in traj.segments)
            self.counts["filippov.events"] += len(traj.events)
        if self.active["verify.refine_periodic"]:
            self.counts["verify.refine_integrations"] += 1

    def _on_refine(self, result, exc):
        if exc is None and getattr(result, "converged", False):
            self.counts["verify.refine_converged"] += 1

    # -- wrapping -------------------------------------------------------------

    def wrap_leaf(self, name: str, layer: str, fn):
        """Count and time a function that calls no wrapped function."""
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        layer_active, counts = self.layer_active, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                calls[name] += 1
                total[name] += dur
                self_time[layer] += dur
                if stack:
                    stack[-1][0] += dur
                if layer_active["filippov"]:
                    counts["forcing_evals_in_integration"] += 1

        return timed

    def wrap(self, name: str, layer: str, fn):
        """Record a span, its child time and its layer's self time per call."""
        stack, spans, calls, active = self.stack, self.spans, self.calls, self.active
        total, layer_active, layer_total = self.total, self.layer_active, self.layer_total
        self_time, ids = self.self_time, self._ids
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            active[name] += 1
            layer_active[layer] += 1
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_time[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                active[name] -= 1
                if not active[name]:
                    total[name] += dur
                layer_active[layer] -= 1
                if not layer_active[layer]:
                    layer_total[layer] += dur
                spans.append((frame[1], parent, name, t0, t1))
                if hook is not None:
                    hook(result, exc)

        return traced

    def install(self) -> None:
        """Wrap the layer functions of an imported ``pendavg`` in place."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pendavg.{layer}")
            for attr, value in list(vars(module).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                name = f"{layer}.{attr}"
                if (public and name not in SKIPPED and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrap = self.wrap_leaf if name in FORCING else self.wrap
                    replaced[id(value)] = (value, wrap(name, layer, value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pendavg" and not mod_name.startswith("pendavg."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        scalar = getattr(sys.modules["pendavg.perturbation"], "PeriodicScalar", None)
        if scalar is not None and "__call__" in vars(scalar):
            original, box = scalar.__call__, self.scalar_calls

            def counted(instance, tau):
                box[0] += 1
                return original(instance, tau)

            scalar.__call__ = counted

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of everything traced so far."""
        calls, total, counts = self.calls, self.total, self.counts
        forcing = sum(calls[n] for n in FORCING)
        forcing_s = sum(total[n] for n in FORCING)
        g_evals = calls["averaging.bifurcation_values"]
        starts = calls["averaging.newton_zero"]
        steps = counts["filippov.steps"]
        return {
            "cli.config_ms": 1e3 * total["cli.load_config"],
            "cli.write_ms": 1e3 * sum(total[n] for n in WRITERS),
            "model.setup_ms": 1e3 * self.layer_total["model"],
            "perturbation.forcing_evals": forcing,
            "perturbation.forcing_eval_us": 1e6 * forcing_s / forcing if forcing else 0.0,
            "perturbation.scalar_calls": self.scalar_calls[0],
            "averaging.search_s": total["averaging.annulus_search"],
            "averaging.g_evals": g_evals,
            "averaging.g_eval_ms": 1e3 * total["averaging.bifurcation_values"] / g_evals if g_evals else 0.0,
            "averaging.g_evals_per_start": counts["g_evals_in_newton"] / starts if starts else 0.0,
            "averaging.jacobian_g_evals": counts["averaging.jacobian_g_evals"],
            "averaging.sign_change_ms": 1e3 * total["averaging.find_sign_changes"],
            "averaging.newton_starts": starts,
            "averaging.newton_converged": counts["averaging.newton_converged"],
            "averaging.newton_trivial_basin": counts["averaging.newton_trivial_basin"],
            "averaging.newton_no_convergence": counts["averaging.newton_no_convergence"],
            "filippov.integrations": sum(calls[n] for n in INTEGRATORS),
            # The integrators do not call each other, so their times add.
            "filippov.integrate_ms": 1e3 * sum(total[n] for n in INTEGRATORS),
            "filippov.steps": steps,
            "filippov.events": counts["filippov.events"],
            "filippov.forcing_evals_per_step": counts["forcing_evals_in_integration"] / steps if steps else 0.0,
            "verify.sweep_s": total["verify.epsilon_sweep"],
            "verify.poincare_runs": calls["verify.poincare_residual"],
            "verify.poincare_ms": 1e3 * total["verify.poincare_residual"],
            "verify.refine_runs": calls["verify.refine_periodic"],
            "verify.refine_converged": counts["verify.refine_converged"],
            "verify.refine_integrations": counts["verify.refine_integrations"],
            "verify.refine_ms": 1e3 * total["verify.refine_periodic"],
            **{f"{layer}.self_s": self.self_time[layer] for layer in LAYERS},
        }

    def dump(self, directory: Path) -> None:
        """Write the spans (JSON lines) and the per-layer metrics."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
        with open(directory / "layers.json", "w", encoding="utf-8") as fh:
            json.dump(self.metrics(), fh, indent=1)
