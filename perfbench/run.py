"""Cold-process benchmark of liespec.

    python3 perfbench/run.py --workload torus-batch --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  One workload runs a fixed number of
repetitions (``REPETITIONS``), each in a fresh worker process
(``worker.py``), one worker at a time, so every ``lru_cache`` starts cold
as it does for a command-line user.  The counts are sized so the seed
code needs 20 to 28 s of a 30-s ``--seconds`` on a shared 2-core host; a
run ends early only when one more repetition would pass ``--seconds``,
and then records how many it made.  A discarded warm-up worker runs
first, so bytecode compilation does not land in set-up time.  Times are
reported at a fixed reference speed of the CPU, measured by the workers
while they run (see ``speed``).

With ``--trace 0`` the end-to-end metrics are printed (see ``end_to_end``);
with ``--trace 1`` traced repetitions alternate with
untraced ones and the per-layer metrics are printed (see layertrace.py).
Every operation's output digest is checked against ``refs.json``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--rows FILE`` also appends the result with
its provenance to a JSON-lines file for ``compare.py``.

Exit status: 0 with a result; 1 when a worker crashed or timed out, or
repetitions disagreed on a count; 2 when the checkout holds no liespec
source.  No result is printed unless the status is 0.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
TMP = ROOT / ".perfbench_tmp"
CPUS = sorted(os.sched_getaffinity(0))

PROBES_PER_REP = 2
# Seconds ``worker.calibration_work`` takes at the reference speed; times
# are reported as they would read at that speed (see ``speed``).
CAL_REF_S = 0.001
# Repetitions per run, so every operation's median time is taken over the
# same number of cold samples whatever the speed of the code measured.
# A traced run makes half as many pairs of untraced and traced repetitions,
# and at least two, so its counts can be compared.
REPETITIONS = {"torus-batch": 5, "natred-cli": 6, "scan-b2": 6, "group-e8": 8}
CALIBRATION_LOOP = 50_000
RUN_LIMIT_S = 120  # no repetition starts after this
DEADLINE_S = 170  # every worker is killed by then

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = dict(
    layertrace.metric_units(),
    **{"cli.cache_miss_s": "s", "cli.cache_hit_ms": "ms", "trace.overhead_s": "s"},
)


PROVENANCE = (
    "workload",
    "seed",
    "git_commit",
    "python",
    "implementation",
    "nproc",
    "kernel",
    "liespec_pure",
)


class BenchFault(Exception):
    """The benchmark could not measure; no result is printed."""


def _worker_env(cache_dir=None) -> dict:
    env = dict(os.environ)
    env.pop("LIESPEC_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["LIESPEC_CACHE_DIR"] = cache_dir
    return env


def _loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus):
    """Move this process, and so the next worker, to the CPU that runs a
    short fixed loop fastest.

    On a shared host each CPU slows down on its own, by a third or more
    and for seconds at a time, while the other often runs at full speed.
    """
    if len(cpus) < 2:
        return
    seconds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        seconds[cpu] = min(_loop_seconds() for _ in range(2))
    os.sched_setaffinity(0, {min(seconds, key=seconds.get)})


def run_worker(workload, ops, deadline, trace=False, cache_dir=None):
    """Run one worker to completion; returns (setup seconds, its result).

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` reading).
    """
    pin_to_fastest_cpu(CPUS)
    argv = [sys.executable, str(WORKER), workload]
    if trace:
        argv.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            input=json.dumps(ops),
            capture_output=True,
            text=True,
            env=_worker_env(cache_dir),
            cwd=ROOT,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchFault(f"{workload} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchFault(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchFault(f"{workload} worker printed no result") from exc
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # worker's reading and ours share an origin.
    return result["ready"] - start, result


def run_rep(workload, ops, deadline, trace=False):
    """One repetition; natred-cli gets a private cache deleted afterwards."""
    if workload != "natred-cli":
        return run_worker(workload, ops, deadline, trace)
    TMP.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=TMP)
    try:
        return run_worker(workload, ops, deadline, trace, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def speed(samples) -> float:
    """How many times faster the reference speed is than the CPU ran
    while ``samples`` (seconds of ``worker.calibration_work``) were taken.

    On a shared host the CPU's speed changes by tens of percent from one
    second to the next and from one minute to the next, as other tenants'
    load comes and goes; a slowdown stretches the samples as it stretches
    the operations timed among them.  The work an operation does is its
    time multiplied by the CPU's mean speed over it, so the factor is the
    mean of the samples' speeds, ``CAL_REF_S / seconds``, not the
    reference over their mean time.
    """
    return statistics.mean(CAL_REF_S / seconds for seconds in samples)


def _rep_speed(result) -> float:
    return speed(result["cal"])


def _scaled_op_seconds(result) -> list:
    """Each operation's seconds at the reference speed.

    An operation is scaled by the speed of the samples around it: the one
    taken just before it, those taken during it, and the next one after.
    The CPU's speed changes within a second, so a millisecond operation
    is scaled by the speed measured next to it, not over its whole worker.
    """
    cal = result["cal"]
    return [
        op["s"] * speed(cal[max(op["during"][0] - 1, 0) : op["during"][1] + 1])
        for op in result["ops"]
    ]


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _wall(result):
    return sum(op["s"] for op in result["ops"])


def _op_times(reps):
    """Each operation's median time at the reference speed over the
    repetitions."""
    scaled = (_scaled_op_seconds(r) for r in reps)
    return [statistics.median(times) for times in zip(*scaled)]


def check_ops(workload, ops, result, refs) -> int:
    """Number of failed operations in one repetition."""
    failed = 0
    first = result["ops"][0]["digest"] if result["ops"] else None
    for op, row in zip(ops, result["ops"]):
        expected = refs.get(workloads.ref_key(workload, op))
        bad = (
            row["error"] is not None
            or row["complete"] is False
            or (expected is not None and row["digest"] != expected)
            # cache hits must return the bytes of the miss
            or (workload == "natred-cli" and row["digest"] != first)
        )
        failed += bad
    return failed + abs(len(ops) - len(result["ops"]))


def end_to_end(setups, reps) -> dict:
    """Medians over the run's cold workers; times at the reference speed.

    ``setups`` holds (set-up seconds, worker result) pairs."""
    times = _op_times(reps)
    return {
        "setup_s": statistics.median(
            s * speed(r["cal_after_import"]) for s, r in setups
        ),
        "wall_s": sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": _p90(times) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
    }


def per_layer(reps, traced):
    """(metrics, names of counts that differ between traced repetitions)."""
    metrics, unsteady = {}, []
    for name, unit in layertrace.metric_units().items():
        values = [t["trace"].get(name, 0) for t in traced]
        if unit in ("count", "ratio"):
            if len(set(values)) > 1:
                unsteady.append(name)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(
                v * _rep_speed(t) for v, t in zip(values, traced)
            )
    misses, hits = [], []
    for r in reps:
        ops = list(zip(r["ops"], _scaled_op_seconds(r)))
        misses.append(sum(s for op, s in ops if op.get("miss")))
        hit_times = [s for op, s in ops if op.get("miss") is False]
        hits.append(statistics.median(hit_times) if hit_times else 0.0)
    metrics["cli.cache_miss_s"] = statistics.median(misses)
    metrics["cli.cache_hit_ms"] = statistics.median(hits) * 1e3
    metrics["trace.overhead_s"] = sum(_op_times(traced)) - sum(_op_times(reps))
    return metrics, unsteady


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace):
    ops = workloads.make_ops(workload, seed)
    refs = workloads.load_refs()[workload]
    planned = REPETITIONS[workload]
    if trace:
        planned = max(2, planned // 2)
    deadline = time.perf_counter() + DEADLINE_S
    run_worker("warmup", [], deadline)
    setups, reps, traced = [], [], []
    start = time.perf_counter()
    while len(reps) < planned:
        for _ in range(PROBES_PER_REP):
            setups.append(run_worker(workload, [], deadline))
        setup, result = run_rep(workload, ops, deadline)
        setups.append((setup, result))
        reps.append(result)
        if trace:
            traced.append(run_rep(workload, ops, deadline, trace=True)[1])
        elapsed = time.perf_counter() - start
        # End early only when one more repetition of average length would
        # overrun; counts are compared, so a traced run makes at least two.
        if len(traced) == 1:
            continue
        if elapsed * (len(reps) + 1) / len(reps) > min(seconds, RUN_LIMIT_S):
            break
    attempted = sum(len(ops) for _ in reps + traced)
    failed = sum(check_ops(workload, ops, r, refs) for r in reps + traced)
    if trace:
        metrics, unsteady = per_layer(reps, traced)
        if unsteady:
            raise BenchFault(
                "counts differ between repetitions of one seed: "
                + ", ".join(unsteady)
            )
        units = PER_LAYER
        absent = sorted(set().union(*(t["absent"] for t in traced)))
    else:
        metrics, units, absent = end_to_end(setups, reps), END_TO_END, []
    row = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "planned_repetitions": planned,
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "kernel": reps[0]["kernel"],
        "liespec_pure": os.environ.get("LIESPEC_PURE"),
        "absent": absent,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
        "samples": {
            "setup_s": [s for s, _ in setups],
            "wall_s": [_wall(r) for r in reps],
            "traced_wall_s": [_wall(t) for t in traced],
            "speed": [_rep_speed(r) for r in reps],
            "ops_s": [[op["s"] for op in r["ops"]] for r in reps],
            "scaled_ops_s": [_scaled_op_seconds(r) for r in reps],
        },
    }
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", help="append the result row to this file")
    args = parser.parse_args(argv)
    if not (SRC / "liespec" / "__init__.py").is_file():
        print(f"no liespec source under {SRC}", file=sys.stderr)
        return 2
    try:
        row = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    print(
        f"liespec {row['workload']} seed={row['seed']} trace={row['trace']} "
        f"repetitions={row['repetitions']}/{row['planned_repetitions']} "
        f"seconds={row['elapsed_s']:.1f} "
        f"python={row['python']} kernel={row['kernel']}"
    )
    for name, metric in row["metrics"].items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  {'error_rate':<48} {row['error_rate']:.6g} ratio "
        f"({row['failed']}/{row['attempted']} operations failed)"
    )
    if row["absent"]:
        print(f"  absent trace targets: {', '.join(row['absent'])}")
    print("provenance " + json.dumps({k: row[k] for k in PROVENANCE}))
    if args.rows:
        with open(args.rows, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": row["failed"] == 0,
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": row["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
