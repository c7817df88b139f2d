"""Spans and counters recorded around calls into sparkpde's layers.

A traced worker process patches each layer function under the name its caller
looks it up by (``sparkpde.dynamics.backward``, ``sparkpde.cli.rebuild_dynamics``
and so on), so nothing under ``src/`` changes. Every call then records a span
``[name, start, end, parent]``; spans stay in memory and the worker writes them
out once its stages are done.

``summarize`` turns one pass's spans into per-name call counts, busy time and
self time. Busy time is the union of a name's spans (an inner span of the same
name is not counted twice); self time is a span's time minus the time covered
by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name). The attribute is the one the caller reads at
# call time, so a function imported into several modules is patched in each.
PATCHES = (
    ("sparkpde.cli", "simulate_navier_stokes", "datagen.simulate_navier_stokes"),
    ("sparkpde.cli", "simulate_reaction_diffusion", "datagen.simulate_reaction_diffusion"),
    ("sparkpde.cli", "save_dataset", "datagen.save_dataset"),
    ("sparkpde.cli", "load_dataset", "datagen.load_dataset"),
    ("sparkpde.cli", "rebuild_pretrained", "serialization.rebuild_pretrained"),
    ("sparkpde.cli", "rebuild_dynamics", "serialization.rebuild_dynamics"),
    ("sparkpde.cli", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("sparkpde.cli", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("sparkpde.serialization", "init_dynamics", "dynamics.init_dynamics"),
    ("sparkpde.dynamics", "init_dynamics", "dynamics.init_dynamics"),
    ("sparkpde.dynamics", "episode_latents", "dynamics.episode_latents"),
    ("sparkpde.dynamics", "encode_history", "dynamics.encode_history"),
    ("sparkpde.dynamics", "integrate", "dynamics.integrate"),
    ("sparkpde.dynamics", "ode_rhs", "dynamics.ode_rhs"),
    ("sparkpde.dynamics", "decode", "dynamics.decode"),
    ("sparkpde.dynamics", "augment_latents", "augment.augment_latents"),
    ("sparkpde.dynamics", "calibrate_tau", "augment.calibrate_tau"),
    ("sparkpde.evaluation", "_forecast_batch", "evaluation.forecast_batch"),
    ("sparkpde.evaluation", "episode_latents", "dynamics.episode_latents"),
    ("sparkpde.evaluation", "ssim", "metrics.ssim"),
    ("sparkpde.evaluation", "energy_spectrum", "metrics.energy_spectrum"),
    ("sparkpde.encoder", "channel_attention", "encoder.channel_attention"),
    ("sparkpde.encoder", "gnn_encode", "encoder.gnn_encode"),
    ("sparkpde.encoder", "reconstruct", "encoder.reconstruct"),
    ("sparkpde.state_dictionary", "reconstruct", "encoder.reconstruct"),
    ("sparkpde.state_dictionary", "quantize", "state_dictionary.quantize"),
    ("sparkpde.state_dictionary", "kmeans_plusplus", "state_dictionary.kmeans_plusplus"),
)

# Modules whose training loop opens one Tape per optimizer step; the step span
# runs from the Tape's opening to the return of that step's adam_step.
STEP_LOOPS = (
    ("sparkpde.dynamics", "dynamics.train_step"),
    ("sparkpde.state_dictionary", "state_dictionary.pretrain_step"),
)

SPECTRAL_MIX = "autodiff.spectral_channel_mix"
NORMAL_DRAWS = "rng.normal_draws"
TAPE_NODES = "autodiff.tape.nodes"
TAPE_BYTES = "autodiff.tape.bytes"


class Tracer:
    """In-memory spans, counters and per-call samples of one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def close_through(self, index: int) -> None:
        """Close every open span down to and including ``index``."""
        while self._stack and self._stack[-1] >= index:
            self.close()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                # Also closes a step span left open by an exception inside fn.
                self.close_through(index)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch sparkpde's layer functions; imports every module it patches."""
        for module_name, attr, span in PATCHES:
            self._patch(module_name, attr, lambda fn, span=span: self.wrap(fn, span))
        self._patch("sparkpde.autodiff", "spectral_channel_mix", self._traced_spectral_mix)
        for module_name, step in STEP_LOOPS:
            self._patch(module_name, "Tape", lambda cls, step=step: self._step_tape(cls, step))
            self._patch(module_name, "backward", self._traced_backward)
            self._patch(module_name, "adam_step",
                        lambda fn, step=step: self._traced_adam(fn, step))
        self._patch("sparkpde.rng", "Xoshiro256StarStar", self._count_normals)
        if self.unpatched:
            print("perfbench: not traced (name not found): " + ", ".join(self.unpatched),
                  file=sys.stderr)

    def _patch(self, module_name: str, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(module.attr)``, or note it as missing."""
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            setattr(module, attr, make(getattr(module, attr)))
        else:
            self.unpatched.append(f"{module_name}.{attr}")

    def _traced_spectral_mix(self, fn):
        """Times the forward call, and the tape VJP of the tensor it returns."""
        forward = self.wrap(fn, SPECTRAL_MIX)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._vjp is not None:
                out._vjp = self.wrap(out._vjp, SPECTRAL_MIX + ".vjp")
            return out

        return traced

    def _traced_backward(self, fn):
        """Records the tape's node count and node output bytes at each backward."""
        traced_fn = self.wrap(fn, "autodiff.backward")

        @functools.wraps(fn)
        def traced(loss, tape, *args, **kwargs):
            nodes = tape._nodes
            self.sample(TAPE_NODES, len(nodes))
            self.sample(TAPE_BYTES, sum(node.data.nbytes for node in nodes))
            return traced_fn(loss, tape, *args, **kwargs)

        return traced

    def _traced_adam(self, fn, step: str):
        traced_fn = self.wrap(fn, "autodiff.adam_step")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return traced_fn(*args, **kwargs)
            finally:
                if self.innermost() == step:
                    self.close()

        return traced

    def _step_tape(self, tape_cls, step: str):
        tracer = self

        class StepTape(tape_cls):
            def __enter__(self):
                tracer.open(step)
                return super().__enter__()

        return StepTape

    def _count_normals(self, cls):
        """Counts the normal variates drawn; patches the class in place."""
        normal = cls.normal
        tracer = self

        @functools.wraps(normal)
        def counted(self, n=None):
            tracer.count(NORMAL_DRAWS, 1 if n is None else int(n))
            return normal(self, n)

        cls.normal = counted
        return cls


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and the list of span durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        duration = end - start
        rec["calls"] += 1
        rec["self_s"] += duration - child_time[i]
        rec["durations"].append(duration)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            rec["busy_s"] += duration
    return out
