"""Outside-in layer trace for liespec.

Wraps public layer functions from outside the library: each target is
looked up by module and name, and every loaded ``liespec`` module that
bound the same object (``from .branching import branch`` included) gets
the wrapper instead.  No file of the library changes.

Per target the trace keeps the number of calls, the busy time (outermost
activations only) and the self time (duration minus the time covered by
traced child calls), plus counts read from arguments and return values.
A target that no longer exists is reported as absent and the trace goes
on, so the same trace runs before and after a refactor moves code.
"""

import functools
import importlib
import sys
import time

TARGETS = (
    ("liespec.lattices.lattice", "dual"),
    ("liespec.lattices.enumeration", "enumerate_gram"),
    ("liespec.lattices.reduction", "lll_gram"),
    ("liespec.spectrum", "table_from_pairs"),
    ("liespec.spectrum", "table_distance"),
    ("liespec.rootdata", "casimir"),
    ("liespec.weights", "weyl_dim"),
    ("liespec.weights", "dominant_weights_up_to"),
    ("liespec.weights", "dominant_character"),
    ("liespec.weights", "weight_diagram"),
    ("liespec.branching", "branch"),
    ("liespec.natred", "natred_terms"),
    ("liespec.groups", "admissible_tuples"),
    ("liespec.isolation", "isolation_scan"),
    ("liespec.cli", "run"),
)


def _key(module: str, function: str) -> str:
    return f"{module[len('liespec.'):]}.{function}"


def _name(obj):
    return getattr(obj, "name", None) or repr(obj)


def _pairs_arg(args, kwargs):
    return kwargs["pairs"] if "pairs" in kwargs else args[0]


# Per target: the names of its counts, and a function of (args, kwargs,
# result) giving one value per name.  Values add up over calls, except
# "distinct", whose values are keys collected in a set.
COUNTERS = {
    "lattices.enumeration.enumerate_gram": (
        ("vectors",),
        lambda a, k, r: (len(r),),
    ),
    "spectrum.table_from_pairs": (
        ("pairs_in", "entries_out"),
        lambda a, k, r: (len(_pairs_arg(a, k)), len(r.entries)),
    ),
    "weights.weight_diagram": (
        ("distinct",),
        lambda a, k, r: ((_name(a[0]), tuple(r.highest)),),
    ),
    "branching.branch": (
        ("distinct",),
        lambda a, k, r: ((_name(a[0]), tuple(r.source)),),
    ),
    "weights.dominant_weights_up_to": (("weights",), lambda a, k, r: (len(r),)),
    "natred.natred_terms": (("terms",), lambda a, k, r: (len(r),)),
    "groups.admissible_tuples": (("tuples",), lambda a, k, r: (len(r),)),
    "isolation.isolation_scan": (
        ("compared",),
        lambda a, k, r: (r["grid"]["compared"],),
    ),
}


def metric_units() -> dict:
    """Every metric ``Tracer.metrics`` reports, with its unit."""
    units = {}
    for module, function in TARGETS:
        key = _key(module, function)
        units[f"{key}.calls"] = "count"
        units[f"{key}.busy_s"] = "s"
        units[f"{key}.self_s"] = "s"
    for key, (names, _) in COUNTERS.items():
        for name in names:
            units[f"{key}.{name}"] = "count"
        if "distinct" in names:
            units[f"{key}.useful_ratio"] = "ratio"
    return units


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "counts", "keys")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counts = {}
        self.keys = set()


class Tracer:
    """Install with ``install()``; read with ``metrics()`` and ``absent``."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.broken_counters = set()
        self._stack = []

    def install(self):
        for module, function in TARGETS:
            key = _key(module, function)
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(key)
                continue
            original = getattr(mod, function, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name == "liespec" or name.startswith("liespec.")
                ):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def _wrap(self, key, fn):
        stat = self.stats[key] = _Stat()
        names, counter = COUNTERS.get(key, ((), None))
        stack = self._stack
        clock = time.perf_counter
        broken = self.broken_counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_time += elapsed - children[0]
                if stat.depth == 0:
                    stat.busy += elapsed
            if counter is not None and key not in broken:
                # The trace must outlive refactors that change a return
                # type; a counter that no longer fits is reported absent.
                try:
                    for name, value in zip(names, counter(args, kwargs, result)):
                        if name == "distinct":
                            stat.keys.add(value)
                        else:
                            stat.counts[name] = stat.counts.get(name, 0) + value
                except Exception:  # noqa: BLE001 - see comment above
                    broken.add(key)
            return result

        return traced

    def metrics(self) -> dict:
        """Metric name -> value for every target and counter present."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.busy_s"] = stat.busy
            out[f"{key}.self_s"] = stat.self_time
            if key in self.broken_counters:
                continue
            for name in COUNTERS.get(key, ((), None))[0]:
                if name == "distinct":
                    out[f"{key}.distinct"] = len(stat.keys)
                    out[f"{key}.useful_ratio"] = (
                        len(stat.keys) / stat.calls if stat.calls else 0.0
                    )
                else:
                    out[f"{key}.{name}"] = stat.counts.get(name, 0)
        return out
