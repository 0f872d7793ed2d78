"""Compare benchmark rows of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold rows appended by ``run.py --rows``; run the two sides in
alternating order with the same seeds and ``--seconds``.  Rows pair up in
file order within each (workload, trace) group.  A pair is never paired,
but listed and left out, when its seed, ``--seconds`` or number of
repetitions differ (each operation's time is a median over the
repetitions, so unequal counts change its spread), or its Python, interpreter,
kernel, core count or LIESPEC_PURE differ.

Per workload and metric the report gives each side's median and
quartiles, the share of pairs the change won, and a verdict:

* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread is wider than that bound;
* ``same`` otherwise.

Per-layer metrics have no bound; they get ``gain`` or ``same`` only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUST_MATCH = (
    "seed",
    "run_seconds",
    "repetitions",
    "python",
    "implementation",
    "kernel",
    "nproc",
    "liespec_pure",
)


def _load(path):
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                groups.setdefault((row["workload"], row["trace"]), []).append(row)
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _verdict(parent, change, lower_better, bound):
    sign = 1 if lower_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1:
        return "gain", wins
    if bound is not None and p_med:
        if sign * (c_med - p_med) > bound * abs(p_med):
            return "worse", wins
        if (q3 - q1) > bound * abs(p_med):
            return "unresolved", wins
    return "same", wins


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_rows, change_rows = _load(argv[0]), _load(argv[1])
    for group in sorted(set(parent_rows) & set(change_rows)):
        pairs = []
        for p, c in zip(parent_rows[group], change_rows[group]):
            diff = {
                k: (p.get(k), c.get(k)) for k in MUST_MATCH if p.get(k) != c.get(k)
            }
            if diff:
                print(f"{group[0]} seed {p['seed']}: not paired, {diff}")
                continue
            pairs.append((p, c))
        if not pairs:
            continue
        print(f"{group[0]} trace={group[1]}: {len(pairs)} pairs")
        for name in pairs[0][0]["metrics"]:
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            meta = metrics.get(name, {})
            verdict, wins = _verdict(
                parent, change, meta.get("better", "lower") == "lower",
                meta.get("bound"),
            )
            print(
                f"  {name:<48} parent {statistics.median(parent):.6g} "
                f"[{_quartiles(parent)[0]:.6g}, {_quartiles(parent)[1]:.6g}]  "
                f"change {statistics.median(change):.6g} "
                f"[{_quartiles(change)[0]:.6g}, {_quartiles(change)[1]:.6g}]  "
                f"won {wins}/{len(pairs)}  {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
