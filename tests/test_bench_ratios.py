"""tools/bench_ratios.py, the ratio script for committed BENCH files."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "tools" / "bench_ratios.py"


def _module():
    spec = importlib.util.spec_from_file_location("bench_ratios", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reproduces_the_stored_ratios_of_bench_29():
    bench = json.loads((ROOT / "BENCH_29.json").read_text())
    assert _module().ratios(bench) == bench["ratios"]


def test_prints_one_json_object_per_call():
    def run(*files: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), *files],
            capture_output=True,
            text=True,
            cwd=ROOT,
            check=True,
        )
        return json.loads(proc.stdout)

    stored = json.loads((ROOT / "BENCH_29.json").read_text())["ratios"]
    assert run("BENCH_29.json") == stored
    # a file's change runs over themselves
    same = run("BENCH_29.json", "BENCH_29.json")
    assert same.keys() == stored.keys()
    assert all(v == 1.0 for row in same.values() for v in row.values())


def test_change_ratios_take_the_median_over_seeds_of_each_side():
    def bench(values: list[float]) -> dict:
        seeds = {
            str(i): {"change": {"metrics": {"solve_s": {"value": v}}}}
            for i, v in enumerate(values)
        }
        return {"runs": {"w": {"trace0": seeds}}}

    got = _module().change_ratios(bench([1.0, 3.0, 2.0]), bench([4.0, 8.0, 5.0]))
    assert got == {"w": {"solve_s": 0.4}}
    assert _module().change_ratios(bench([1.0]), bench([0.0])) == {"w": {"solve_s": None}}
