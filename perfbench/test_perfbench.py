"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import bipartite_biconnect as bb  # noqa: E402


def _solve(text: str) -> tuple[str, int]:
    res = bb.augment(bb.parse_graph(text))
    out = "".join(f"ADD {a} {b}\n" for a, b in res.added_edges) + f"SIZE {res.size}\n"
    return out, res.target


def _drop(out: str, k: int) -> str:
    """The patch without its k-th ADD line, SIZE lowered to match."""
    adds = [line for line in out.splitlines() if line.startswith("ADD")]
    del adds[k]
    return "".join(f"{line}\n" for line in adds) + f"SIZE {len(adds)}\n"


def test_generators_repeat_their_bytes_across_processes():
    code = (
        "import hashlib, sys; sys.path.insert(0, 'perfbench'); import workloads; "
        "print({w: hashlib.sha256(''.join(f(7)).encode()).hexdigest() "
        "for w, f in sorted(workloads.WORKLOADS.items())})"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout)
    assert len(digests) == 1


def test_seeds_name_different_inputs():
    for gen in workloads.WORKLOADS.values():
        assert gen(1) == gen(1)
        assert gen(1) != gen(2)


def test_random_sparse_has_the_requested_density():
    side, edges = checker.parse_text(workloads.random_sparse(3)[0])
    n = len(side)
    assert n == workloads.RANDOM_N
    assert 0.9 * n < len(edges) < 1.1 * n  # average degree about 2


def test_first_cut_on_small_shapes():
    cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
    assert checker.first_cut(4, cycle) is None
    path = [[1], [0, 2], [1]]
    assert checker.first_cut(3, path) == "cut vertex 1"
    assert checker.first_cut(2, [[1], [0]]).startswith("two vertex component")
    assert checker.first_cut(1, [[]]) is None
    # two 4-cycles sharing vertex 0
    bowtie = [[1, 3, 4, 6], [0, 2], [1, 3], [2, 0], [0, 5], [4, 6], [5, 0]]
    assert checker.first_cut(7, bowtie) == "cut vertex 0"


def test_reference_ladder_is_biconnected():
    assert checker.check_instance(workloads.ladder(run.REFERENCE_RUNGS), "SIZE 0\n", 0) is None
    assert run.reference(workloads.ladder(50)) > 0


def test_checker_rejects_a_patch_with_one_edge_removed():
    texts = workloads.referee_batch(5)[:40] + workloads.many_components(5)
    checked = 0
    for text in texts:
        out, target = _solve(text)
        assert checker.check_instance(text, out, target) is None
        if target == 0:
            continue
        short = _drop(out, target // 2)
        assert checker.check_instance(text, short, target) is not None
        # with the target lowered too, only the lowpoint search can object
        why = checker.check_instance(text, short, target - 1)
        assert why is not None and why.startswith("not componentwise"), why
        checked += 1
    assert checked >= 20


def test_checker_rejects_illegal_edges():
    text = "A a1 a2\nB b1 b2\nE a1 b1\n"
    assert "not A-B" in checker.check_instance(text, "ADD b1 a2\nSIZE 1\n", 1)
    assert "exists" in checker.check_instance(text, "ADD a1 b1\nSIZE 1\n", 1)
    assert "exists" in checker.check_instance(text, "ADD a2 b2\nADD a2 b2\nSIZE 2\n", 2)


def test_checker_agrees_with_verify_result():
    for text in workloads.referee_batch(9)[:200]:
        out, target = _solve(text)
        g = bb.parse_graph(text)
        for patch in [out] + [_drop(out, k) for k in range(min(target, 3))]:
            pairs, size = checker.parse_patch(patch)
            ours = checker.check_instance(text, patch, size) is None
            assert ours == bb.verify_result(g, pairs).passed


def test_tracer_rebinds_every_import_and_restores_it():
    aug = sys.modules["bipartite_biconnect.augment"]
    bounds = sys.modules["bipartite_biconnect.bounds"]
    originals = (aug.decompose, bounds.pendant_records, aug.profile, bb.parse_graph)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for fn in (aug.decompose, bounds.pendant_records, aug.profile, bb.parse_graph):
            assert hasattr(fn, "__wrapped__")
        for text in workloads.tree_solve(2):
            bb.augment(bb.parse_graph(text))
    finally:
        tracer.uninstall()
    assert (aug.decompose, bounds.pendant_records, aug.profile, bb.parse_graph) == originals
    counts = tracer.summary(1.0)
    assert counts["blocks.decompose.calls"] >= 1
    assert counts["blocks.BlockTree.collapse.calls"] > 0
    assert counts["blocks.collapse.merged_children"] > 0


def test_traced_self_times_add_up_to_the_pass():
    texts = workloads.referee_batch(4)[:100]
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = run.perf_counter()
        run.solve_all(bb, texts, True)
        pass_s = run.perf_counter() - t0
    finally:
        tracer.uninstall()
    got = tracer.summary(pass_s)
    total = sum(got[f"{layer}.self_s"] for layer in spans.LAYERS) + got["bench.self_s"]
    assert abs(total - pass_s) < 1e-9 * max(1, got["trace.spans"])
    assert got["verify.verify_result.calls"] == 100


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
