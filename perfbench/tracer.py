"""Per-layer tracing, applied from outside the package.

`Tracer.install` rebinds hcat's public functions, on every layer module
that imported them, to wrappers that record one span per call: name,
start, end, parent, and a work count (integrand evaluations for `quad`,
function evaluations for `brentq`).
`Tracer.uninstall` puts the originals back.  Nothing in `src/` knows
about the tracer; the untraced benchmark run never installs it.

A hook whose target has gone (renamed, moved into a class) is skipped
and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: the package modules whose names are rebound: the benchmark's layers
LAYER_MODULES = ("core", "geom", "disjoint", "strips", "mesh", "cli")

#: CLI commands the workloads call; each gets a span from the benchmark
CLI_COMMANDS = ("disjoint", "strips", "verify-appendix", "curve", "mesh")


@dataclass(frozen=True)
class Hook:
    """A function to wrap: `hcat.<layer>.<attr>`.

    With `everywhere`, every layer module that bound the same object is
    rebound too (`hcat.strips.b_inverse` as well as `hcat.core.b_inverse`).
    Without it only the owner's name is rebound, which is how the `quad`
    and `brentq` names that `hcat.core` imported from scipy are hooked
    without also catching `hcat.disjoint`'s own `brentq`.
    """

    layer: str
    attr: str
    everywhere: bool = True

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


HOOKS = (
    Hook("core", "b_inverse"),
    Hook("core", "necksize"),
    Hook("core", "lambda_height"),
    Hook("core", "j_remainder"),
    Hook("core", "f_closed"),
    Hook("core", "profile"),
    Hook("core", "quad", everywhere=False),
    Hook("core", "brentq", everywhere=False),
    Hook("disjoint", "certify"),
    Hook("disjoint", "solve_d0"),
    Hook("strips", "verify_strip_claim"),
    Hook("strips", "verify_c3_lemma"),
    Hook("strips", "remark_sweep"),
    Hook("geom", "hyp_distance"),
    Hook("mesh", "revolve"),
    Hook("mesh", "export_obj"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # hook names whose absence makes this metric absent


def _layer_catalogue() -> tuple[LayerMetric, ...]:
    m = []

    def add(name, unit, better, *needs):
        m.append(LayerMetric(name, unit, better, needs))

    inv = "core.b_inverse"
    add(f"{inv}.calls", "count", "lower", inv)
    add(f"{inv}.cold_calls", "count", "lower", inv)
    add(f"{inv}.s", "s", "lower", inv)
    add(f"{inv}.self_s", "s", "lower", inv)
    add(f"{inv}.unique_frac", "ratio", "higher", inv)
    add("core.brentq.calls", "count", "lower", "core.brentq")
    add("core.brentq.evals", "count", "lower", "core.brentq")
    for stat, unit in (("calls", "count"), ("evals", "count"), ("s", "s"),
                       ("evals_per_call", "count"), ("max_abserr", "1"),
                       ("warnings", "count")):
        add(f"core.quad.{stat}", unit, "lower", "core.quad")
    add("core.necksize.calls", "count", "lower", "core.necksize")
    for fn in ("lambda_height", "j_remainder", "f_closed", "profile"):
        add(f"core.{fn}.calls", "count", "lower", f"core.{fn}")
        add(f"core.{fn}.s", "s", "lower", f"core.{fn}")
    add("disjoint.certify.s", "s", "lower", "disjoint.certify")
    add("disjoint.solve_d0.s", "s", "lower", "disjoint.solve_d0")
    for fn in ("verify_strip_claim", "verify_c3_lemma", "remark_sweep"):
        add(f"strips.{fn}.s", "s", "lower", f"strips.{fn}")
        add(f"strips.{fn}.b_inverse_calls", "count", "lower", f"strips.{fn}", inv)
    add("geom.hyp_distance.calls", "count", "lower", "geom.hyp_distance")
    add("geom.hyp_distance.s", "s", "lower", "geom.hyp_distance")
    add("mesh.revolve.s", "s", "lower", "mesh.revolve")
    add("mesh.export_obj.s", "s", "lower", "mesh.export_obj")
    add("mesh.export_obj.bytes", "bytes", "lower", "mesh.export_obj")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}.s", "s", "lower")
        add(f"cli.{cmd}.self_s", "s", "lower")
    for cmd in ("disjoint", "strips"):
        add(f"cli.{cmd}.b_inverse_calls", "count", "lower", inv)
        add(f"cli.{cmd}.quad_calls", "count", "lower", "core.quad")
        add(f"cli.{cmd}.quad_evals", "count", "lower", "core.quad")
    add("trace.overhead_frac", "ratio", "lower")
    return tuple(m)


LAYER_METRICS = _layer_catalogue()

# metrics that hold counts: taken from the first traced repetition, so
# they repeat exactly however many repetitions fit in the run
_COUNT_UNITS = ("count", "bytes", "ratio", "1")


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.absent: set[str] = set()  # hook names not found, or whose observer broke
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new repetition: drop spans and counters."""
        # span: [name, start, end, parent index, work]; appended on entry,
        # so a parent's index is always below its children's
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.inverse_keys: set[tuple[float, float, float]] = set()
        self.cold_calls = 0
        self.quad_max_abserr = 0.0
        self.quad_warnings = 0
        self.obj_bytes = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            try:
                owner = importlib.import_module(f"hcat.{hook.layer}")
                original = getattr(owner, hook.attr)
            except (ImportError, AttributeError):
                self.absent.add(hook.name)
                continue
            wrapper = self._wrap(hook.name, original)
            modules = [owner]
            if hook.everywhere:
                modules = []
                for layer in LAYER_MODULES:
                    try:
                        modules.append(importlib.import_module(f"hcat.{layer}"))
                    except ImportError:
                        continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, key, value = self._undo.pop()
            setattr(module, key, value)

    def _wrap(self, name: str, fn):
        call = {
            "core.quad": self._call_quad,
            "core.brentq": self._call_brentq,
            "core.b_inverse": self._call_b_inverse,
            "mesh.export_obj": self._call_export_obj,
        }.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                if call is None:
                    return fn(*args, **kwargs)
                return call(idx, fn, args, kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _call_quad(self, idx, fn, args, kwargs):
        if kwargs.get("full_output"):
            return fn(*args, **kwargs)
        # full_output only adds QUADPACK's own evaluation count and status
        # to the return value; the computation is the same call
        out = fn(*args, full_output=1, **kwargs)
        val, abserr, info = out[0], out[1], out[2]
        self.spans[idx][4] = info["neval"]
        self.quad_max_abserr = max(self.quad_max_abserr, abserr)
        if len(out) > 3:
            # full_output turned scipy's IntegrationWarning into a message;
            # count it and raise it as the untraced call would have
            from scipy.integrate import IntegrationWarning

            self.quad_warnings += 1
            warnings.warn(out[3], IntegrationWarning, stacklevel=3)
        return val, abserr

    def _call_brentq(self, idx, fn, args, kwargs):
        if kwargs.get("full_output"):
            return fn(*args, **kwargs)
        root, result = fn(*args, full_output=True, **kwargs)
        self.spans[idx][4] = result.function_calls
        return root

    def _call_b_inverse(self, idx, fn, args, kwargs):
        try:
            params, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
            hint = args[5] if len(args) > 5 else kwargs.get("rho_hint")
            self.inverse_keys.add((params.H, params.d, abs(t)))
            self.cold_calls += hint is None
        except (AttributeError, IndexError, KeyError, TypeError):
            self.absent.add("core.b_inverse")
        return fn(*args, **kwargs)

    def _call_export_obj(self, idx, fn, args, kwargs):
        out = fn(*args, **kwargs)
        try:
            self.obj_bytes += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
        except (IndexError, KeyError, OSError):
            self.absent.add("mesh.export_obj")
        return out

    # -- aggregation -------------------------------------------------------

    def rep_metrics(self) -> dict[str, float]:
        """Every layer metric of the repetition just traced, absent ones left out."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        work = defaultdict(int)
        # counts attributed to an enclosing strip check or CLI command
        within = defaultdict(int)
        for i, (name, t0, t1, parent, n) in enumerate(spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            work[name] += n
            if name in ("core.b_inverse", "core.quad"):
                tag = "b_inverse_calls" if name == "core.b_inverse" else "quad_calls"
                p = parent
                while p >= 0:
                    outer = spans[p][0]
                    if outer.startswith(("strips.", "cli.")):
                        within[f"{outer}.{tag}"] += 1
                        if name == "core.quad":
                            within[f"{outer}.quad_evals"] += n
                    p = spans[p][3]

        quad_calls = calls["core.quad"]
        inv_calls = calls["core.b_inverse"]
        values = {
            "core.b_inverse.cold_calls": self.cold_calls,
            "core.b_inverse.unique_frac":
                len(self.inverse_keys) / inv_calls if inv_calls else 0.0,
            "core.brentq.evals": work["core.brentq"],
            "core.quad.evals": work["core.quad"],
            "core.quad.evals_per_call":
                work["core.quad"] / quad_calls if quad_calls else 0.0,
            "core.quad.max_abserr": self.quad_max_abserr,
            "core.quad.warnings": self.quad_warnings,
            "mesh.export_obj.bytes": self.obj_bytes,
        }
        out = {}
        for metric in LAYER_METRICS:
            if metric.name == "trace.overhead_frac" or self.absent.intersection(metric.needs):
                continue
            if metric.name in values:
                out[metric.name] = values[metric.name]
                continue
            head, stat = metric.name.rsplit(".", 1)
            if stat == "calls":
                out[metric.name] = calls[head]
            elif stat == "s":
                out[metric.name] = total[head]
            elif stat == "self_s":
                out[metric.name] = self_s[head]
            else:
                out[metric.name] = within[metric.name]
        return out


def is_count(metric: LayerMetric) -> bool:
    return metric.unit in _COUNT_UNITS
