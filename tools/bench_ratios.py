"""Ratios between the sides of committed BENCH_*.json files.

A BENCH file holds, per workload, the last JSON line of
``perfbench/run.py`` for each trace setting, seed and side ("parent" or
"change").  Its ratios are read off the untraced (``trace0``) runs.

    python3 tools/bench_ratios.py BENCH_30.json

prints, per workload and end-to-end metric, the median over the seeds
of change/parent: the "ratios" entry of that file.

    python3 tools/bench_ratios.py BENCH_30.json BENCH_29.json

prints, per workload and metric, the median over the seeds of the first
file's change runs divided by that of the second file's.  Each ratio is
rounded to 4 places, and is null where its base is 0.  The output is
one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def _ratio(num: float, den: float) -> float | None:
    return round(num / den, 4) if den else None


def _metrics(seeds: dict) -> list[str]:
    """The metric names of the first seed's change run."""
    return list(next(iter(seeds.values()))["change"]["metrics"])


def ratios(bench: dict) -> dict[str, dict[str, float | None]]:
    """Per workload and metric, the median over seeds of change/parent."""
    out: dict[str, dict[str, float | None]] = {}
    for workload, runs in bench["runs"].items():
        seeds = runs["trace0"]
        row: dict[str, float | None] = {}
        for metric in _metrics(seeds):
            pairs = [
                (_value(s["change"], metric), _value(s["parent"], metric))
                for s in seeds.values()
            ]
            if all(parent for _, parent in pairs):
                row[metric] = round(statistics.median(c / p for c, p in pairs), 4)
            else:
                row[metric] = None
        out[workload] = row
    return out


def change_ratios(bench: dict, base: dict) -> dict[str, dict[str, float | None]]:
    """Per workload and metric that both files hold, the median over
    seeds of bench's change runs over the same median of base's."""
    out: dict[str, dict[str, float | None]] = {}
    for workload, runs in bench["runs"].items():
        if workload not in base["runs"]:
            continue
        seeds, base_seeds = runs["trace0"], base["runs"][workload]["trace0"]
        base_metrics = set(_metrics(base_seeds))
        out[workload] = {
            metric: _ratio(
                statistics.median(_value(s["change"], metric) for s in seeds.values()),
                statistics.median(_value(s["change"], metric) for s in base_seeds.values()),
            )
            for metric in _metrics(seeds)
            if metric in base_metrics
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = load(argv[0])
    result = ratios(bench) if len(argv) == 1 else change_ratios(bench, load(argv[1]))
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
