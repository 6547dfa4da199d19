"""Per-layer spans and counts for one benchmark process, recorded from outside.

`Tracer.install()` replaces each public function of the traced `noonring`
modules with one wrapper and rebinds that wrapper at every module-level name
bound to the function. Modules import functions by name, so, for example,
`build_full_hamiltonian` is reached through `protocols`, `robustness`,
`spectrum` and `cli` as well as through `model`; wrapping it only in `model`
would miss most calls. `HermitianOperator.eigensystem` is wrapped once on its
class. The dense eigensolvers are counted (without spans), so that an
eigensystem call that performed a decomposition counts as a cache miss and
the summed n^3 of the decompositions actually performed is known. The
arrays an eigensystem call hands to a running `dynamics.evolve` are what
that evolve reads; their bytes are summed as `dynamics.evolve.bytes_computed`.

Each span is kept in memory as [name, start, end, parent, outermost, tag].
A layer's self time is its span's duration minus the durations of its direct
child spans; its inclusive time counts only the outermost span of that name,
so nested calls of one function are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fock", "model", "dynamics", "protocols", "robustness", "spectrum",
          "lattice", "cli")
EIGENSOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"))


def _nbytes(value) -> int:
    """Bytes of the arrays in `value`, which may nest them in tuples or lists."""
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(item) for item in value)
    return int(getattr(value, "nbytes", 0))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    # --- recording -----------------------------------------------------------

    def wrap(self, name, fn, after=None, tag=None):
        """`fn` recording one span per call; `after(args, result)` may count."""
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          active[name] == 0, tag(args) if tag else None])
            active[name] += 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_decomposition(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts["decompositions"] += 1
            counts["model.eigensystem.dim3_sum"] += int(a.shape[-1]) ** 3
            return fn(a, *args, **kwargs)

        return counted

    def _eigensystem(self, method):
        counts, active = self.counts, self._active
        span = self.wrap("model.eigensystem", method)

        @functools.wraps(method)
        def eigensystem(operator, *args, **kwargs):
            before = counts["decompositions"]
            result = span(operator, *args, **kwargs)
            if counts["decompositions"] > before:
                counts["model.eigensystem.computed"] += 1
            if active["dynamics.evolve"]:
                counts["dynamics.evolve.bytes_computed"] += _nbytes(result)
            return result

        return eigensystem

    def _after_protocol1(self, args, reports) -> None:
        self.counts["protocols.projected"] += len(reports)
        self.counts["protocols.selected"] += sum(1 for r in reports if r.selected)

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced layer in place."""
        modules = {layer: importlib.import_module(f"noonring.{layer}") for layer in LAYERS}
        hooks = {"protocols.run_protocol1": {"after": self._after_protocol1},
                 "cli.run_experiment": {"tag": lambda args: args[0].kind}}
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = self.wrap(name, obj, **hooks.get(name, {}))
        for module_name, attr in EIGENSOLVERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            replacements[id(original)] = self._count_decomposition(original)
            setattr(module, attr, replacements[id(original)])
        for module_name, module in list(sys.modules.items()):
            if module_name == "noonring" or module_name.startswith("noonring."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replacements:
                        setattr(module, attr, replacements[id(obj)])
        operator = modules["model"].HermitianOperator
        operator.eigensystem = self._eigensystem(operator.eigensystem)

    # --- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, outermost, tag), covered in zip(self.spans, child):
            duration = end - start
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += duration - covered
            if outermost:
                entry["s"] += duration
                if tag is not None:
                    layers[f"{name}.{tag}"]["calls"] += 1
                    layers[f"{name}.{tag}"]["s"] += duration
        return {"layers": dict(layers), "counts": dict(self.counts)}


def layer_value(metric: str, summary: dict, wall_s: float, untraced_wall_s: float) -> float:
    """Value of one per-layer metric (as named in BENCHMARK.json) from a summary.

    `<layer>.calls`, `<layer>.s` (inclusive) and `<layer>.self_s` come from the
    spans; a layer that was never called reads 0. The remaining names are
    counts or ratios of counts.
    """
    layers, counts = summary["layers"], summary["counts"]
    eigen_calls = layers.get("model.eigensystem", {}).get("calls", 0)
    derived = {
        "model.eigensystem.computed": counts.get("model.eigensystem.computed", 0),
        "model.eigensystem.dim3_sum": counts.get("model.eigensystem.dim3_sum", 0),
        "model.eigensystem.reuse_ratio":
            1.0 - counts.get("model.eigensystem.computed", 0) / eigen_calls
            if eigen_calls else 0.0,
        "dynamics.evolve.bytes_computed": counts.get("dynamics.evolve.bytes_computed", 0),
        "protocols.selected_ratio":
            counts.get("protocols.selected", 0) / counts["protocols.projected"]
            if counts.get("protocols.projected") else 0.0,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    if metric in derived:
        return derived[metric]
    layer, _, stat = metric.rpartition(".")
    if stat not in ("calls", "s", "self_s") or not layer:
        raise KeyError(f"no rule for per-layer metric {metric!r}")
    return layers.get(layer, {}).get(stat, 0)
