"""Compare two sets of benchmark runs under the BENCHMARK.json bounds.

    python3 benchmarks/suite/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines ``run.py --out PATH`` appends, one per
workload run; run each side several times (with different seeds) into
its own file.  For every end-to-end metric of every workload the table
gives each side's median and quartiles, the change of the median and a
verdict:

* ``regressed`` — the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` — either side's spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell a change of that
  size from noise — unless every run of the change reads better than
  every run of the base, which is ``ok``;
* ``ok`` — otherwise.

A workload with an incorrect run on the change's side (a wrong
reply, a failed request) reads ``incorrect`` instead.  Per-layer
metrics present on both sides (traced runs) are listed with their
medians and no verdict.  The exit code is 0 when every verdict is
``ok``, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from run import load_spec

#: The pseudo-metric counting a workload's incorrect runs.
INCORRECT = "incorrect"


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values, end-to-end and per-layer alike, and
    under ``INCORRECT`` one entry per incorrect run."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    with open(path, encoding="utf-8") as source:
        for line in source:
            if not line.strip():
                continue
            result = json.loads(line)
            values = dict(result.get("metrics", {}))
            values.update(result.get("layers", {}))
            for name, value in values.items():
                runs[result["workload"]][name].append(value)
            if not result["correct"]:
                runs[result["workload"]][INCORRECT].append(1.0)
    return runs


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), first, third


def spread(values: Sequence[float]) -> float:
    median, first, third = summary(values)
    return (third - first) / median if median else 0.0


def verdict(base: Sequence[float], change: Sequence[float],
            bound: float, lower_is_better: bool) -> Tuple[str, float]:
    """``(verdict, relative worsening of the median)``."""
    base_median = summary(base)[0]
    change_median = summary(change)[0]
    worse = (change_median - base_median) / base_median
    if not lower_is_better:
        worse = -worse
    if lower_is_better:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if max(spread(base), spread(change)) > bound:
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def _cell(values: Optional[Sequence[float]]) -> str:
    if not values:
        return "-"
    median, first, third = summary(values)
    return "{:.4g} [{:.4g}, {:.4g}]".format(median, first, third)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="runs of the parent (JSON lines)")
    parser.add_argument("change", help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    spec = load_spec()
    base, change = load_runs(args.base), load_runs(args.change)

    print("{:<18} {:<32} {:>32} {:>32} {:>8}  {}".format(
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "worse", "verdict"))
    verdicts = []
    for workload in sorted(set(base) | set(change)):
        incorrect = len(change[workload].get(INCORRECT, ()))
        if incorrect:
            print("{:<18} {} incorrect run(s) of the change".format(
                workload, incorrect))
        for entry in spec["end_to_end"]:
            name = entry["name"]
            before = base[workload].get(name)
            after = change[workload].get(name)
            if incorrect:
                outcome, shown = INCORRECT, "-"
            elif before and after:
                outcome, worse = verdict(before, after, entry["bound"],
                                         entry["better"] == "lower")
                shown = "{:+.1%}".format(worse)
            else:
                outcome, shown = "unresolved", "-"
            verdicts.append(outcome)
            print("{:<18} {:<32} {:>32} {:>32} {:>8}  {}".format(
                workload, name, _cell(before), _cell(after), shown,
                outcome))
        for entry in spec["per_layer"]:
            name = entry["name"]
            before = base[workload].get(name)
            after = change[workload].get(name)
            if before and after:
                print("{:<18} {:<32} {:>32} {:>32}".format(
                    workload, name, _cell(before), _cell(after)))
    return 0 if all(outcome == "ok" for outcome in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
