"""Run one `timebinsim` CLI command, or the dispatch probe, with spans.

    python perfbench/traced.py SPANS.json cli <timebinsim arguments...>
    python perfbench/traced.py SPANS.json probe CONFIG.json PULSES

Before the command runs, every public callable of every `timebinsim` module
is wrapped at each module attribute that binds it, so calls within a module
and `from .x import y` bindings are both caught; public methods and
properties of the package's classes are wrapped in place. Private names stay
unwrapped, which keeps the block functions sent to the process pool
picklable. Nothing under `src/` is edited.

A span is (layer, name, start, end, parent, counts). The layer is the
callee's defining module, with `montecarlo` split into sampler, histogram
and estimate. Spans stay in memory and are written to SPANS.json when the
command ends. Allocation peaks (tracemalloc) are taken only inside
`quantum` and `montecarlo.sampler` spans, so the Python-heavy layers run
untraced by it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc
import types

perf = time.perf_counter

MEMORY_LAYERS = {"quantum", "montecarlo.sampler"}
# Public montecarlo names outside the sampler; every other one samples.
MONTECARLO_SPLIT = {
    "histogram_from_counts": "histogram",
    "CoincidenceHistogram": "histogram",
    "estimate_car": "estimate",
    "CarEstimate": "estimate",
}


def layer_of(module: str, qualname: str) -> str:
    layer = module.removeprefix("timebinsim.")
    if layer == "montecarlo":
        return "montecarlo." + MONTECARLO_SPLIT.get(qualname.split(".")[0], "sampler")
    return layer


def _cfg(args, kwargs):
    return args[0] if args else kwargs["cfg"]


def _count_detected(args, kwargs, result) -> dict:
    import numpy as np

    arrays = [a for a in result if isinstance(a, np.ndarray)]
    return {
        "pulses": _cfg(args, kwargs).num_pulses,
        "events": sum(int(np.count_nonzero(a)) for a in arrays),
        "channels": len(arrays),
        "bytes": sum(int(a.nbytes) for a in arrays),
    }


def _count_fringe(args, kwargs, result) -> dict:
    return {"pulses": _cfg(args, kwargs).num_pulses, "events": int(result), "channels": 1, "bytes": 0}


def _count_histogram(args, kwargs, result) -> dict:
    return {"slots": len(args[0] if args else kwargs["counts_signal"])}


# Work counts recorded at the boundary where the work happens.
COUNTERS = {
    "detected_counts": _count_detected,
    "simulate_fringe_run": _count_fringe,
    "histogram_from_counts": _count_histogram,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        # per open memory span: [traced bytes at entry, highest peak seen]
        self._mem: list[list[int]] = []

    def record(self, layer: str, name: str, start: float, end: float) -> None:
        self.spans.append([layer, name, start, end, -1, {}])

    def call(self, layer: str, name: str, fn, args, kwargs):
        span = [layer, name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        tracked = layer in MEMORY_LAYERS
        if tracked:
            self._mem_enter()
        span[2] = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf()
            self._open.pop()
            if tracked:
                span[5]["peak_alloc_b"] = self._mem_exit()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[5].update(counter(args, kwargs, result))
        return result

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, highest = self._mem.pop()
        highest = max(highest, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], highest)
        else:
            tracemalloc.stop()
        return highest - start


def _wrap(tracer: Tracer, fn, module: str, qualname: str):
    layer = layer_of(module, qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, qualname, fn, args, kwargs)

    wrapper.__perfbench_span__ = True
    return wrapper


def _wrap_class(tracer: Tracer, cls) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        qualname = f"{cls.__qualname__}.{attr}"
        if isinstance(member, property) and member.fget is not None:
            fget = _wrap(tracer, member.fget, cls.__module__, qualname)
            setattr(cls, attr, property(fget, member.fset, member.fdel, member.__doc__))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(_wrap(tracer, member.__func__, cls.__module__, qualname)))
        elif isinstance(member, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, member, cls.__module__, qualname))


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables at every binding."""
    modules = [m for n, m in list(sys.modules.items()) if n == "timebinsim" or n.startswith("timebinsim.")]
    wrappers: dict = {}
    classes: set = set()
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not getattr(value, "__module__", "").startswith("timebinsim"):
                continue
            if isinstance(value, types.FunctionType) and not hasattr(value, "__perfbench_span__"):
                if value not in wrappers:
                    wrappers[value] = _wrap(tracer, value, value.__module__, value.__qualname__)
                setattr(module, attr, wrappers[value])
            elif isinstance(value, type) and value not in classes:
                classes.add(value)
                _wrap_class(tracer, value)


def main(argv: list[str]) -> int:
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = perf()
    import timebinsim.cli  # noqa: F401  (the import layer)

    tracer.record("import", "import timebinsim.cli", start, perf())
    install(tracer)
    cli = sys.modules["timebinsim.cli"]
    probe = []
    if mode == "cli":
        code = cli.main(rest)
    elif mode == "probe":
        from dataclasses import replace

        import timebinsim

        with open(rest[0], encoding="utf-8") as fh:
            cfg = timebinsim.config_from_dict(json.load(fh))
        cfg = replace(cfg, num_pulses=int(rest[1]))
        montecarlo = sys.modules["timebinsim.montecarlo"]
        for workers in (1, 2, 1, 2):
            t0 = perf()
            if cfg.interferometers_present:
                phases = timebinsim.PhasePair(0.0, math.pi / 2)
                montecarlo.simulate_fringe_run(cfg, phases, workers=workers)
            else:
                montecarlo.detected_counts(cfg, workers=workers)
            probe.append([workers, perf() - t0])
        code = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans, "probe": probe}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
