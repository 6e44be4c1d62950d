"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the run records that bench/run.py writes (one JSON
file per run; see --results). For every workload and metric, prints the
median and quartiles of each set, the change of the median as a share of
the base median, and a verdict against the metric's bound in
BENCHMARK.json:

  ok          the new median is no worse than the base by more than the bound
  worse       it is worse by more than the bound
  unresolved  a set's spread (quartile distance over median) exceeds the
              bound, and not every new run beats every base run

With one directory, prints each metric's spread and whether it is below
a third of the bound ("steady"), within it ("wide") or beyond it.
Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over every run record in directory."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        workload = record["environment"]["workload"]
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")


def relative_change(base: list[float], new: list[float]) -> float:
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    return (new_median - base_median) / abs(base_median) if base_median else 0.0


def verdict(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> tuple[float, str]:
    change = relative_change(base, new)
    worsening = -change if higher_is_better else change
    all_better = (min(new) > max(base)) if higher_is_better else (max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return change, "unresolved"
    return change, "worse" if worsening > bound else "ok"


def fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_set(Path(arg)) for arg in argv]
    keys = sorted(set().union(*sets), key=lambda k: (k[0], list(metrics).index(k[1]) if k[1] in metrics else 999))
    for workload, name in keys:
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        higher = meta.get("better") == "higher"
        columns = [fmt(s[(workload, name)]) if (workload, name) in s else "-" for s in sets]
        line = f"{workload:<11} {name:<27} " + " | ".join(f"{c:<44}" for c in columns)
        if len(sets) == 1:
            value = spread(sets[0][(workload, name)])
            note = f"spread={value:.4f}"
            if bound is not None:
                note += " steady" if value < bound / 3 else " wide" if value <= bound else " unresolved"
            line += note
        elif all((workload, name) in s for s in sets):
            base, new = sets[0][(workload, name)], sets[1][(workload, name)]
            if bound is None:
                line += f"delta={relative_change(base, new):+.4f}"
            else:
                change, word = verdict(base, new, bound, higher)
                line += f"delta={change:+.4f} {word}"
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
