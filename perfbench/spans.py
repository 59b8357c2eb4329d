"""Span tracing around the calls into each traceqm layer.

The tracer wraps every public function of the layer modules, plus each
experiment runner and the two artifact writers, at every module attribute
that binds it.  A function imported by name into several modules (for
example ``eigendecompose`` into ``dynamics``, ``measurement`` and
``experiments``) is therefore timed whichever module calls it.  Nothing
inside the package is changed; uninstalling restores the original bindings.

Each call records one span: name, start, end, parent span, the pass it
belongs to, and a size (matrix dimension or sample count, 0 when the
function has none).  Spans stay in flat arrays in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("scalars", "states", "operators", "spectral", "dynamics",
          "measurement", "experiments", "cli")

#: layer sets whose span coverage of a pass is reported, by metric prefix.
COVER_SETS = {name: (name,) for name in LAYERS}
COVER_SETS["spectral_dynamics"] = ("spectral", "dynamics")

#: bytes of one complex128 matrix entry, for ``bytes_computed``.
COMPLEX_BYTES = 16


def _dim(matrix_like) -> int:
    return int(np.shape(getattr(matrix_like, "matrix", matrix_like))[0])


def _samples(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs["n"])


#: how to read a call's size from its arguments.
SIZERS = {
    "spectral.eigendecompose": lambda args, kwargs: _dim(args[0]),
    "operators.certify_hermitian": lambda args, kwargs: _dim(args[0]),
    "measurement.repeat_experiment": _samples,
}


def _targets(package):
    """Map id(original function) -> (span name, function)."""
    targets = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                targets[id(fn)] = (f"{layer}.{name}", fn)
    for fn in package.experiments.EXPERIMENTS.values():
        targets[id(fn)] = (f"experiments.{fn.__name__}", fn)
    for fn in (package.cli.write_rows_csv, package.cli.write_report_json):
        targets[id(fn)] = ("cli.write_artifacts", fn)
    return targets


class Tracer:
    """Records spans for the calls into traceqm's layers."""

    def __init__(self, package):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.pass_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.current_pass = -1
        self._stack = [-1]
        self._bindings = []  # (namespace, key, original, wrapper)
        wrappers = {key: (fn, self._wrap(name, fn)) for key, (name, fn) in _targets(package).items()}
        namespaces = [vars(package)] + [vars(getattr(package, layer)) for layer in LAYERS]
        namespaces.append(package.experiments.EXPERIMENTS)
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._bindings.append((namespace, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        sizer = SIZERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, pass_id = self.name_id, self.parent, self.pass_id
        start, end, size = self.start, self.end, self.size

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(name_index)
            parent.append(stack[-1])
            pass_id.append(self.current_pass)
            size.append(sizer(args, kwargs) if sizer is not None else 0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._bindings:
            namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._bindings:
            namespace[attr] = original

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _cover(mask: np.ndarray, parent: np.ndarray, duration: np.ndarray) -> float:
    """Time covered by the spans in ``mask``: their outermost members' durations."""
    nested = np.zeros(len(mask), dtype=bool)
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested[live] |= mask[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
    return float(np.sum(duration[mask & ~nested]))


def layer_metrics(tracer: Tracer, names, traced_passes: int, traced_total_s: float,
                  given: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``, per traced pass.

    ``traced_passes`` passes were traced, taking ``traced_total_s`` seconds
    together.  Set-up spans (pass -1) feed only ``cli.parse_config``, since
    configs are resolved there.  Metrics not derived from spans come in
    ``given``.
    """
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    self_time = duration - children
    in_pass = spans["pass_id"] >= 0
    layer_of = np.array([name.split(".")[0] for name in tracer.names] or [""])
    span_layer = layer_of[spans["name_id"]] if len(duration) else np.array([], dtype=str)

    def select(span_name: str) -> np.ndarray:
        if span_name not in tracer.names:
            return np.zeros(len(duration), dtype=bool)
        chosen = spans["name_id"] == tracer.names.index(span_name)
        return chosen if span_name == "cli.parse_config" else chosen & in_pass

    metrics = {}
    for metric in names:
        span_name, _, stat = metric.rpartition(".")
        if metric in given:
            metrics[metric] = given[metric]
            continue
        if stat == "cover_frac":
            mask = np.isin(span_layer, COVER_SETS[span_name]) & in_pass
            metrics[metric] = _cover(mask, parent, duration) / traced_total_s
            continue
        chosen = select(span_name)
        passes = 1 if span_name == "cli.parse_config" else traced_passes
        calls = int(np.count_nonzero(chosen))
        inclusive = float(np.sum(duration[chosen]))
        sizes = spans["size"][chosen]
        if stat == "calls":
            value = calls / passes
        elif stat == "self_s":
            value = float(np.sum(self_time[chosen])) / passes
        elif stat == "us_per_call":
            value = 1e6 * inclusive / calls if calls else 0.0
        elif stat == "us_per_sample":
            samples = int(np.sum(sizes))
            value = 1e6 * inclusive / samples if samples else 0.0
        elif stat == "bytes_computed":
            value = COMPLEX_BYTES * float(np.sum(sizes.astype(np.float64) ** 2)) / passes
        elif stat == "max_dim":
            value = int(np.max(sizes)) if calls else 0
        else:
            raise ValueError(f"no rule computes per-layer metric {metric!r}")
        metrics[metric] = value
    return metrics
