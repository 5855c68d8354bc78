"""Per-layer spans for the benchmark, recorded from outside the package.

``Tracer.install()`` rebinds the public functions of each ``ringfield``
module to timing wrappers, in every ``ringfield.*`` namespace that holds
the same function object (a function imported with ``from .x import f``
lives on in the importer's namespace, and a call there would bypass a
wrapper set only on the defining module).  ``uninstall()`` puts the
originals back.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, detail, pass)``; spans stay in memory
and are written out once the run ends.  A span's self time is its
duration minus the time its child spans cover; calls are single-threaded
and properly nested, so that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span name -> (module, attribute) pairs.  An attribute with a dot is a
# method rebound on its class.  ``observables._circular_moments`` and
# ``cli._config_from_args`` are private, but they are where the circular
# moments and the config boundary live; a name that a later version of
# the package drops is skipped.
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "basis.transform": (
        ("ringfield.basis", "to_momentum_basis"),
        ("ringfield.basis", "from_momentum_basis"),
    ),
    "evolve.step": (
        ("ringfield.evolve", "euler_step_spectral"),
        ("ringfield.evolve", "exact_step"),
    ),
    "evolve.reference_step": (
        ("ringfield.evolve", "euler_step"),
        ("ringfield.evolve", "even_naive_step"),
    ),
    "evolve.run": (("ringfield.evolve", "run"),),
    "observables.snapshot": (("ringfield.observables", "snapshot"),),
    "observables.momentum_expectation": (
        ("ringfield.observables", "momentum_expectation"),
    ),
    "observables.drift_velocity": (("ringfield.observables", "drift_velocity"),),
    "observables.moments": (
        ("ringfield.observables", "_circular_moments"),
        ("ringfield.observables", "gaussian_shape_residual"),
    ),
    "kernels.site_matrix": (
        ("ringfield.kernels", "f_site_matrix"),
        ("ringfield.kernels", "g_site_matrix"),
    ),
    "kernels.table": (("ringfield.kernels", "build_kernel_table"),),
    "state.build": (
        ("ringfield.state", "build_state"),
        ("ringfield.state", "gaussian_state"),
        ("ringfield.state", "uniform_state"),
        ("ringfield.state", "random_state"),
    ),
    "state.checkpoint_write": (
        ("ringfield.state", "write_state_csv"),
        ("ringfield.state", "write_state_json"),
    ),
    "state.checkpoint_read": (
        ("ringfield.state", "read_state_csv"),
        ("ringfield.state", "read_state_json"),
    ),
    "series.write": (
        ("ringfield.series", "TimeSeries.write_csv"),
        ("ringfield.series", "TimeSeries.write_json"),
    ),
    "ioutil.atomic_write": (("ringfield.ioutil", "atomic_write_text"),),
    "experiments.paper_table_grid": (
        ("ringfield.experiments", "paper_table_grid"),
        ("ringfield.experiments", "paper_table_text"),
    ),
    "experiments.paper_table_run": (("ringfield.experiments", "paper_table_run"),),
    "experiments.identity_suite": (("ringfield.experiments", "identity_suite"),),
    "experiments.kernel_oracle_check": (
        ("ringfield.experiments", "kernel_oracle_check"),
    ),
    "experiments.even_odd_comparison": (
        ("ringfield.experiments", "even_odd_comparison"),
    ),
    "config.parse": (
        ("ringfield.cli", "build_parser"),
        ("ringfield.cli", "_config_from_args"),
        ("ringfield.config", "read_config"),
        ("ringfield.config", "parse_config_text"),
    ),
}

# spans whose detail is the path they write or read; sizes are taken
# when the run ends, from the files the last pass left behind
PATH_ARG = {
    "state.checkpoint_write": 1,
    "state.checkpoint_read": 0,
    "series.write": 1,
}

# (span, statistic) pairs reported as "<span>.<statistic>"
REPORTED = (
    ("basis.transform", "calls"), ("basis.transform", "self_s"),
    ("evolve.step", "calls"), ("evolve.step", "self_s"), ("evolve.run", "self_s"),
    ("evolve.reference_step", "calls"), ("evolve.reference_step", "self_s"),
    ("observables.snapshot", "calls"), ("observables.snapshot", "total_s"),
    ("observables.momentum_expectation", "self_s"),
    ("observables.drift_velocity", "self_s"), ("observables.moments", "self_s"),
    ("kernels.site_matrix", "self_s"), ("kernels.table", "self_s"),
    ("state.build", "self_s"), ("state.checkpoint_write", "self_s"),
    ("state.checkpoint_read", "self_s"), ("series.write", "self_s"),
    ("ioutil.atomic_write", "calls"), ("ioutil.atomic_write", "self_s"),
    ("experiments.paper_table_run", "total_s"),
    ("experiments.identity_suite", "self_s"),
    ("experiments.kernel_oracle_check", "self_s"),
    ("experiments.even_odd_comparison", "total_s"),
    ("config.parse", "self_s"),
    ("cli.verify", "total_s"), ("cli.paper_table", "total_s"), ("cli.even_odd", "total_s"),
)

ROOT = "cli"
LAYERS = ("basis", "evolve", "observables", "kernels", "state", "series",
          "ioutil", "experiments", "config", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, detail, trace_id)
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._trace_id = -1

    # -- rebinding -------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ringfield" or name.startswith("ringfield."))
        ]
        for span_name, targets in SPAN_TARGETS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = getattr(cls, meth, None)
                    if original is None:
                        continue
                    self._rebind(cls, meth, self._wrap(span_name, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span_name, original)
                for namespace in namespaces:
                    if namespace.__dict__.get(attr) is original:
                        self._rebind(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._rebound.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        path_arg = PATH_ARG.get(name)
        # lru_cache: a build is a cache miss as cache_info() reports it,
        # not a call of the wrapper
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                detail = None
                if cache_info is not None:
                    built = cache_info().misses - misses
                    lattice = (args or tuple(kwargs.values()))[0]
                    detail = lattice.n_sites if built else 0
                elif path_arg is not None and len(args) > path_arg:
                    detail = args[path_arg]
                spans[index] = (name, start, end, parent, detail, self._trace_id)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- passes ------------------------------------------------------------

    def begin_pass(self, trace_id: int) -> int:
        """Open the root span of one pass; returns its index."""
        self._trace_id = trace_id
        return self.open_span(ROOT)

    def open_span(self, name: str) -> int:
        """Open a span around a call made by the benchmark itself."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), parent))
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent, None, self._trace_id)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        records = [
            {"trace": t, "id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p, _d, t) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump(records, handle)


def pass_metrics(spans: list, root: int) -> dict[str, float]:
    """Per-layer metrics of the pass whose root span is ``spans[root]``."""
    trace_id = spans[root][5]
    members = [i for i in range(root, len(spans)) if spans[i][5] == trace_id]
    child_time = {i: 0.0 for i in members}
    for i in members:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]

    stats: dict[str, dict[str, float]] = {"calls": {}, "total_s": {}, "self_s": {}}
    layer_self = {layer: 0.0 for layer in LAYERS}
    builds = 0
    bytes_computed = 0
    paths: dict[str, list[str]] = {}
    for i in members:
        name, start, end, _parent, detail, _t = spans[i]
        own = (end - start) - child_time[i]
        stats["calls"][name] = stats["calls"].get(name, 0) + 1
        stats["total_s"][name] = stats["total_s"].get(name, 0.0) + (end - start)
        stats["self_s"][name] = stats["self_s"].get(name, 0.0) + own
        layer_self[name.split(".")[0]] += own
        if name == "kernels.site_matrix" and detail:
            builds += 1
            bytes_computed += detail * detail * 8
        if name in PATH_ARG and detail is not None:
            paths.setdefault(name, []).append(detail)

    out = {"trace.wall_s": spans[root][2] - spans[root][1]}
    for span, stat in REPORTED:
        out[f"{span}.{stat}"] = stats[stat].get(span, 0)
    out["kernels.site_matrix.builds"] = builds
    out["kernels.site_matrix.bytes_computed"] = bytes_computed
    for name in PATH_ARG:
        out[f"{name}.bytes"] = sum(
            os.path.getsize(p) for p in paths.get(name, ()) if os.path.exists(p))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
