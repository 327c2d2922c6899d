"""Byte-for-byte regression corpus for the command line.

Every case runs one ``bibic`` command line in process and compares its
stdout and exit code with the recorded files under ``tests/golden``.
The fixture graphs in ``golden/inputs`` cover every trace tag, several
needy components, a massive hub and a two-critical broom; the patch
cases feed recorded ``augment`` output back through ``verify --edges``.

Rewrite the recorded outputs only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bipartite_biconnect.cli import main

SRC = Path(__file__).parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
EXIT_CODES = EXPECTED / "exit_codes.json"

FIXTURES = sorted(p.stem for p in INPUTS.glob("*.txt"))
# few enough candidate edges for the exhaustive oracle
SMALL = {
    "critical_broom",
    "demo",
    "infeasible_star",
    "m1_star",
    "m1_star_block",
    "m2_two_stars",
    "m3_block_tie",
    "m3_m2_tail",
    "m3_two_paths",
    "m4_lone_edge",
    "m5_edge_block",
    "s1_p4",
    "s2_comb",
    "s3_broom2",
    "s4_1_spider",
    "s4_2_caterpillar",
    "s5_spider4",
}
GEN_KINDS = ("spider", "broom", "caterpillar", "random")


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) pairs; a patch case reads an earlier case's output."""
    out: list[tuple[str, list[str]]] = []
    for name in FIXTURES:
        path = str(INPUTS / f"{name}.txt")
        patch = str(EXPECTED / f"{name}.augment.out")
        trace_patch = str(EXPECTED / f"{name}.augment_trace_stats.out")
        out += [
            (f"{name}.augment", ["augment", path]),
            (f"{name}.augment_trace_stats", ["augment", path, "--trace", "--stats"]),
            (
                f"{name}.augment_json_stats_verify",
                ["augment", path, "--json", "--stats", "--verify"],
            ),
            (f"{name}.verify", ["verify", path]),
            (f"{name}.verify_trace_patch", ["verify", path, "--edges", trace_patch]),
            (f"{name}.tree", ["tree", path]),
        ]
        if name in SMALL:
            out += [
                (f"{name}.oracle", ["oracle", path]),
                (
                    f"{name}.verify_patch_oracle",
                    ["verify", path, "--edges", patch, "--oracle"],
                ),
            ]
    for kind in GEN_KINDS:
        for size, seed in ((12, 0), (60, 7)):
            out.append(
                (
                    f"gen.{kind}.{size}.{seed}",
                    ["gen", "--kind", kind, "--size", str(size), "--seed", str(seed)],
                )
            )
    out.append(("bench.broom", ["bench", "--kind", "broom", "--sizes", "40,80"]))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run; stderr is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    expected_rc = json.loads(EXIT_CODES.read_text())[name]
    expected_out = (EXPECTED / f"{name}.out").read_text(encoding="utf-8")
    rc, out = run_cli(argv)
    assert out == expected_out
    assert rc == expected_rc


def test_golden_output_under_python_O():
    # the solver's invariant checks are plain raises, not asserts, so an
    # optimized interpreter runs the same code path to the same bytes
    name = "massive_spider.augment_trace_stats"
    argv = dict(CASES)[name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bipartite_biconnect", *argv],
        capture_output=True,
        env=env,
        check=False,
    )
    assert proc.returncode == json.loads(EXIT_CODES.read_text())[name]
    assert proc.stdout == (EXPECTED / f"{name}.out").read_bytes()


def test_corpus_has_no_stale_files():
    names = {name for name, _ in CASES}
    recorded = {p.name[: -len(".out")] for p in EXPECTED.glob("*.out")}
    assert recorded == names
    assert set(json.loads(EXIT_CODES.read_text())) == names


def _write() -> None:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for old in EXPECTED.glob("*.out"):
        old.unlink()
    codes = {}
    for name, argv in CASES:  # in order, so patch files exist when read
        rc, out = run_cli(argv)
        (EXPECTED / f"{name}.out").write_text(out, encoding="utf-8")
        codes[name] = rc
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
