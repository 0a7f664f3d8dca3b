"""Span tracer that times mingsim's layers from outside.

Wrappers are installed around public functions by rebinding each name in
every mingsim module namespace that holds it, so a call is traced wherever
the name is looked up (``dynamics`` imports ``shift_index`` by name, ``cli``
imports ``build_block`` by name).  Methods are patched on their class.  The
untraced benchmark run never calls ``install``.

Each span records its name, start, end and parent; spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct child spans cover (calls are single-threaded, so children never
overlap).  Hot helpers get a call counter only, because a span per call
would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced public name: metric prefix, home module and attribute."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    count_only: bool = False
    calls: bool = False  # also report <name>.calls
    units: tuple[str, Callable] | None = None  # (metric suffix, work units of one call)
    span_name: Callable | None = None  # per-call span name from (args, kwargs)


def _mode_points(a):
    # time_autocorrelation evaluates (n_base + n_lags) trajectory points over n modes
    tau = a["tau_grid"]
    dt = (tau[1] - tau[0]) / a["oversample"]
    n_base = math.ceil(a["horizon"] / dt)
    return (n_base + (len(tau) - 1) * a["oversample"]) * a["chain"].n


def _sites(a):
    return a["horizon"] if a["horizon"] is not None else a["state"].n


def _criterion_span(args, kwargs):
    return "acceptance." + (args[0] if args else kwargs["criterion"])


def cli_command(argv) -> str:
    """``born_sweep`` for ``["born", "sweep", "--a0", ...]``; ``reproduce`` for reproduce."""
    words = []
    for token in argv:
        if token.startswith("-") or len(words) == 2:
            break
        words.append(token)
    return "_".join(words)


def _cli_span(args, kwargs):
    return "cli." + cli_command(args[0] if args else kwargs["argv"])


CLI_COMMANDS = ("ming_verify", "observable_fn", "born_sweep", "limit_compare", "fkm_autocorr", "fkm_oufit", "reproduce")

TARGETS = (
    Target("acceptance.run_criterion", "acceptance", "run_criterion", span_name=_criterion_span),
    Target("cli.main", "cli", "main", span_name=_cli_span),
    Target("cli.emit", "cli", "emit"),
    Target("cli.write_sidecar", "cli", "write_sidecar"),
    Target("cli.atomic_write", "cli", "atomic_write", calls=True,
           units=("bytes", lambda a: len(a["data"].encode("utf-8")))),
    Target("fkm.normal_modes", "fkm", "normal_modes"),
    Target("fkm.phase_autocorrelation", "fkm", "phase_autocorrelation"),
    Target("fkm.mc_phase_autocorrelation", "fkm", "mc_phase_autocorrelation",
           units=("samples_per_s", lambda a: a["samples"])),
    Target("fkm.time_autocorrelation", "fkm", "time_autocorrelation", units=("mode_points_per_s", _mode_points)),
    Target("fkm.ou_fit", "fkm", "ou_fit"),
    Target("fkm.sample_gibbs", "fkm", "sample_gibbs"),
    Target("fkm.recurrence_peak", "fkm", "recurrence_peak"),
    Target("dynamics.time_average_f", "dynamics", "time_average_f"),
    Target("dynamics.evolve_combined", "dynamics", "evolve_combined", calls=True),
    Target("dynamics.orbit_compressed_average", "dynamics", "orbit_compressed_average",
           units=("sites_per_s", _sites)),
    Target("dynamics.born_limit_sweep", "dynamics", "born_limit_sweep"),
    Target("dynamics.shift_index", "bitlattice", "shift_index", count_only=True),
    Target("bitlattice.decompose_orbits", "bitlattice", "decompose_orbits"),
    Target("ming.assemble_propagator", "ming", "assemble_propagator"),
    Target("ming.Propagator.apply_dense", "ming", "Propagator.apply_dense"),
    Target("ming.build_block", "ming", "build_block"),
    Target("ming.verify_exponential", "ming", "verify_exponential"),
    Target("observable.CockedSet.contains", "observable", "CockedSet.contains", count_only=True),
    Target("observable.CockedSet.mask", "observable", "CockedSet.mask"),
    Target("observable.PointerVariable.value", "observable", "PointerVariable.value", calls=True),
    Target("observable.macroscopic_check", "observable", "macroscopic_check"),
    Target("thermolimit.compare_limit", "thermolimit", "compare_limit"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, float] = defaultdict(float)
        self.cache: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [hits, misses]
        self.passes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: list[tuple[str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _counted(self, target: Target, fn):
        calls, name = self.calls, target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, target: Target, fn):
        spans, stack, calls, units = self.spans, self._stack, self.calls, self.units
        span_name = target.span_name
        signature = inspect.signature(fn) if target.units else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name(args, kwargs) if span_name else target.name
            calls[name] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                units[name] += target.units[1](bound.arguments)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        if hasattr(fn, "cache_info"):
            # lru_cache statistics live on the wrapped object, not in its __dict__
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._cached = []
        modules = [m for key, m in list(sys.modules.items()) if key == "mingsim" or key.startswith("mingsim.")]
        for target in TARGETS:
            home = importlib.import_module("mingsim." + target.module)
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(target, original))
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(target, original)
            if hasattr(original, "cache_info"):
                self._cached.append((target.name, original))
            for module in modules:
                if module.__dict__.get(target.attr) is original:
                    self._patch(module, target.attr, wrapped)

    def _wrap(self, target: Target, fn):
        return self._counted(target, fn) if target.count_only else self._timed(target, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_pass(self) -> None:
        """Close one traced pass; caches are cleared at the start of every pass."""
        self.passes += 1
        for name, fn in self._cached:
            info = fn.cache_info()
            self.cache[name][0] += info.hits
            self.cache[name][1] += info.misses

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-pass layer metrics: inclusive and self seconds, counts, rates, p50s."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - child
            durations[name].append(end - start)
        per = max(self.passes, 1)
        out: dict[str, float] = {}
        for name in total:
            if name.startswith("cli.") and name[4:] in CLI_COMMANDS:
                out[f"{name}.p50_ms"] = statistics.median(durations[name]) * 1e3
                continue
            sep = "_" if name.startswith("acceptance.") else "."
            out[f"{name}{sep}s"] = total[name] / per
            out[f"{name}{sep}self_s"] = own[name] / per
        for target in TARGETS:
            if target.calls or target.count_only:
                out[f"{target.name}.calls"] = self.calls[target.name] / per
            if target.units:
                suffix = target.units[0]
                work = self.units[target.name]
                if suffix.endswith("_per_s"):
                    out[f"{target.name}.{suffix}"] = work / total[target.name] if total[target.name] else 0.0
                else:
                    out[f"{target.name}.{suffix}"] = work / per
        for name, (hits, misses) in self.cache.items():
            out[f"{name}.misses"] = misses / per
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out
