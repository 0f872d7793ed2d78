"""One cold repetition of one workload, in a fresh process.

``run.py`` starts it as ``python3 worker.py WORKLOAD`` with a JSON list of
operations on stdin (``WORKLOAD`` may be ``warmup``, which only imports).
The worker imports liespec first and notes when the import returned, so
``run.py`` can measure set-up time.  It then builds every input, times
each operation through the public API, and writes one JSON line to
stdout: per operation its seconds, the sha256 of its canonical output
bytes, its completeness flag and any error, then the process's peak RSS
and the seconds of every speed sample (see ``SpeedSampler``).
With ``--trace`` the layer functions are wrapped first (see layertrace.py).

Nothing here compares outputs with references; ``run.py`` does that, so
no check runs inside the measured process.
"""

import sys
import time


SAMPLE_EVERY_S = 0.05
SAMPLES_AFTER_IMPORT = 8


def calibration_work():
    """A fixed millisecond of pure-Python work in the library's style
    (exact rational elimination, tuple keys, dict updates) that uses no
    liespec code, so no change to liespec changes its time."""
    from fractions import Fraction

    n = 4
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    counts = {}
    for i in range(300):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + Fraction(i % 11, 7)
    return det, sum(counts.values())


class SpeedSampler:
    """Times ``calibration_work``, by hand or, inside ``with``, from a
    SIGALRM handler every ``SAMPLE_EVERY_S`` seconds of wall time.

    Samples taken while the operations run tell ``run.py`` how fast the
    CPU ran during them (see ``run.speed``).  ``spent`` is the time the
    samples took; ``run_ops`` takes it out of each operation's time.  In a
    traced run it stays inside the layer times, about 2% of them.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        calibration_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self):
        import signal

        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _import_library(workload: str) -> float:
    import liespec  # noqa: F401

    if workload in ("natred-cli", "warmup"):
        import liespec.cli  # noqa: F401
    return time.perf_counter()


def prepare(workload: str, op: dict):
    """(call, render): ``call()`` is the timed operation; ``render`` turns
    its result into (canonical output text, completeness flag or None).

    ``call`` looks every library function up when it runs, so a function
    wrapped by the tracer after ``prepare`` is the one called."""
    from fractions import Fraction

    import liespec

    if workload == "torus-batch":
        from liespec import Lattice, build

        cutoff = Fraction(op["cutoff"])
        if "e8_signs" in op:
            signs = op["e8_signs"]
            cartan = build("E8").cartan
            gram = [
                [cartan[i][j] * signs[i] * signs[j] for j in range(8)]
                for i in range(8)
            ]
            lat = Lattice.from_gram(gram)

            def call():
                return liespec.torus_spectrum(lat, cutoff), None

        else:
            lat = Lattice.from_basis(
                [[Fraction(x) for x in row] for row in op["basis"]]
            )

            def call():
                return (
                    liespec.torus_spectrum(lat, cutoff),
                    liespec.torus_lambda1(lat),
                )

        def render(result):
            table, lam = result
            text = table.to_json()
            if lam is not None:
                text += str(lam) + "\n"
            return text, table.complete

        return call, render

    if workload == "natred-cli":
        import contextlib
        import io
        import json

        import liespec.cli

        argv = list(op["argv"])

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = liespec.cli.main(argv)
            return code, out.getvalue()

        def render(result):
            code, text = result
            if code != 0:
                raise RuntimeError(f"exit code {code}: {text.strip()}")
            return text, json.loads(text)["complete"]

        return call, render

    if workload == "scan-b2":
        import json

        from liespec.spectrum import canonical_json

        metric = liespec.NatRedMetric.from_json_dict(json.loads(op["metric"]))
        radius, steps = Fraction(op["radius"]), op["steps"]
        cutoff = Fraction(op["cutoff"])

        def call():
            return liespec.isolation_scan(metric, radius, steps, cutoff)

        return call, lambda report: (canonical_json(report), None)

    if workload == "group-e8":
        spec = liespec.GroupSpec(
            factors=(liespec.build("E8"),), scales=(Fraction(op["scale"]),)
        )
        cutoff = Fraction(op["cutoff"])

        def call():
            return liespec.biinvariant_spectrum(spec, cutoff)

        return call, lambda table: (table.to_json(), table.complete)

    raise ValueError(f"unknown workload {workload!r}")


def run_ops(workload: str, ops: list, cache_dir=None, tracer=None):
    """Time each operation; digest its output outside the timing.

    Returns (one row per operation, the ``SpeedSampler`` samples taken
    while they ran).  An operation's time leaves out the samples taken
    during it.  Inputs are all built before the tracer is installed, so
    their set-up is neither timed nor traced.
    """
    import hashlib
    import os

    prepared = [prepare(workload, op) for op in ops]
    if tracer is not None:
        tracer.install()
    rows = []
    with SpeedSampler() as sampler:
        for call, render in prepared:
            before = len(os.listdir(cache_dir)) if cache_dir else None
            row = {"s": None, "digest": None, "complete": None, "error": None}
            sampler.sample()
            spent, n_before = sampler.spent, len(sampler.samples)
            start = time.perf_counter()
            try:
                result = call()
                row["s"] = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - a failed operation is data
                row["s"] = time.perf_counter() - start
                row["error"] = f"{type(exc).__name__}: {exc}"
            row["s"] -= sampler.spent - spent
            # the speed samples taken during the operation, as a slice
            row["during"] = [n_before, len(sampler.samples)]
            if row["error"] is None:
                try:
                    text, row["complete"] = render(result)
                    row["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
                except Exception as exc:  # noqa: BLE001 - so is a failed render
                    row["error"] = f"{type(exc).__name__}: {exc}"
            if cache_dir:
                row["miss"] = len(os.listdir(cache_dir)) > before
            rows.append(row)
        sampler.sample()
    return rows, sampler.samples


def main():
    workload = sys.argv[1]
    ready = _import_library(workload)
    after_import = SpeedSampler()
    for _ in range(SAMPLES_AFTER_IMPORT):
        after_import.sample()

    import json
    import os
    import resource

    ops = json.loads(sys.stdin.read())
    tracer = None
    if "--trace" in sys.argv[2:]:
        from layertrace import Tracer

        tracer = Tracer()
    rows, cal = run_ops(
        workload, ops, os.environ.get("LIESPEC_CACHE_DIR"), tracer
    )

    from liespec import lattices

    kernel_name = getattr(lattices, "kernel_name", None)
    result = {
        "ready": ready,
        "ops": rows,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cal": cal,
        "cal_after_import": after_import.samples,
        "kernel": kernel_name() if callable(kernel_name) else None,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent + [
            f"{key} counts" for key in sorted(tracer.broken_counters)
        ]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
