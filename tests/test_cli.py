"""The command line surface: every subcommand, every exit code, both
output formats, and byte-for-byte determinism."""

from __future__ import annotations

import importlib
import io
import json
import sys

import pytest

from bipartite_biconnect.cli import main
from bipartite_biconnect.graph import generate_instance, parse_graph, serialize_graph

P4 = "A a1 a2\nB b1 b2\nE a1 b1\nE a2 b1\nE a2 b2\n"
C4 = "A a1 a2\nB b1 b2\nE a1 b1\nE a1 b2\nE a2 b1\nE a2 b2\n"
STAR = "A a1\nB b1 b2\nE a1 b1\nE a1 b2\n"
TWO_PATHS = P4 + "A a3 a4\nB b3 b4\nE a3 b3\nE a4 b3\nE a4 b4\n"


@pytest.fixture()
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(P4)
    return str(f)


@pytest.fixture()
def c4_file(tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text(C4)
    return str(f)


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ----------------------------------------------------------------------
# augment


def test_augment_plain(capsys, p4_file):
    rc, out, err = run(capsys, ["augment", p4_file])
    assert rc == 0
    assert out == "ADD a1 b2\nSIZE 1\n"
    assert err == ""


def stdin_of(data: bytes) -> io.TextIOWrapper:
    """A stdin over data, with the error handler a POSIX locale gives it."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_augment_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(P4.encode()))
    rc, out, _ = run(capsys, ["augment", "-"])
    assert rc == 0
    assert "ADD a1 b2" in out


def test_augment_trace_tags(capsys, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file, "--trace"])
    assert rc == 0
    assert out.splitlines()[0] == "ADD a1 b2  # S1"


def test_augment_nothing_needed(capsys, c4_file):
    rc, out, _ = run(capsys, ["augment", c4_file])
    assert rc == 0
    assert out == "SIZE 0\n"


def test_augment_json(capsys, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "schema": 1,
        "added_edges": [["a1", "b2"]],
        "size": 1,
        "target": 1,
        "trace": ["S1"],
    }


def test_augment_json_with_everything(capsys, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file, "--json", "--verify", "--stats"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["stats"]["m_case"] == "M1"
    assert doc["stats"]["census"]["c1"] == 1
    assert doc["stats"]["components"][0]["s_case"] == "S1"
    assert doc["counters"]["edges_added"] == 1
    # keys come out sorted for stable diffs
    assert list(doc) == sorted(doc)


def test_augment_stat_lines(capsys, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file, "--stats"])
    assert rc == 0
    lines = out.splitlines()
    assert "# STAT m_case M1" in lines
    assert "# STAT census c1=1 c2=0 c3=0 c_iso=0 c_total=1" in lines
    assert "# STAT pendants A=1 B=1 AB=0 m=1 r=0" in lines
    assert any(l.startswith("# STAT component 0 s_case=S1") for l in lines)


@pytest.mark.parametrize(
    "flags", [[], ["--stats"], ["--json", "--stats"]], ids=["plain", "stats", "json"]
)
def test_augment_analyses_its_input_once(capsys, monkeypatch, tmp_path, flags):
    # --stats reports the solver's own analysis instead of redoing it;
    # every module's binding of each front end function is counted
    aug = importlib.import_module("bipartite_biconnect.augment")
    calls = dict.fromkeys(["decompose", "pendant_records", "census", "classify_m"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        real, wrapper = getattr(aug, name), counted(name, getattr(aug, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("bipartite_biconnect") and vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, wrapper)
    f = tmp_path / "two_paths.txt"
    f.write_text(TWO_PATHS)
    assert run(capsys, ["augment", str(f), *flags])[0] == 0
    assert calls == dict.fromkeys(calls, 1)


def test_augment_verified(capsys, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file, "--verify"])
    assert rc == 0
    assert "SIZE 1" in out


def test_augment_infeasible(capsys, tmp_path):
    f = tmp_path / "star.txt"
    f.write_text(STAR)
    rc, out, err = run(capsys, ["augment", str(f)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_augment_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["augment", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "cannot read" in err


def test_augment_bad_graph(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("A a1\nB b1\nE a1 zz\n")
    rc, _, err = run(capsys, ["augment", str(f)])
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["augment", "verify", "oracle", "tree"])
def test_input_not_utf8_exits_one(capsys, tmp_path, command):
    f = tmp_path / "latin1.txt"
    f.write_bytes("A a\xe91\nB b1\n".encode("latin-1"))
    rc, out, err = run(capsys, [command, str(f)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["augment", "-"], ["verify", None, "--edges", "-"]])
def test_stdin_not_utf8_exits_one(capsys, monkeypatch, p4_file, argv):
    # stdin is decoded strictly, as a file is, whatever its error handler
    monkeypatch.setattr("sys.stdin", stdin_of(b"A a\xff1\n"))
    rc, out, err = run(capsys, [p4_file if a is None else a for a in argv])
    assert rc == 1
    assert out == ""
    assert err == "error: cannot read -: not UTF-8 at byte 3\n"


def test_closed_stdin_exits_one(capsys, monkeypatch):
    # python sets sys.stdin to None when the process starts without one
    monkeypatch.setattr("sys.stdin", None)
    rc, out, err = run(capsys, ["augment", "-"])
    assert (rc, out) == (1, "")
    assert err == "error: cannot read -: no standard input\n"


# ----------------------------------------------------------------------
# verify


def test_verify_good_graph(capsys, c4_file):
    rc, out, _ = run(capsys, ["verify", c4_file])
    assert rc == 0
    assert out == "OK (1 components checked)\n"


def test_verify_bad_graph(capsys, p4_file):
    rc, out, _ = run(capsys, ["verify", p4_file])
    assert rc == 3
    assert out.startswith("BAD COMPONENT 0:")


def test_verify_edges_round_trip(capsys, tmp_path, p4_file):
    rc, out, _ = run(capsys, ["augment", p4_file])
    assert rc == 0
    edges = tmp_path / "patch.txt"
    edges.write_text(out)
    rc, out, _ = run(capsys, ["verify", p4_file, "--edges", str(edges)])
    assert rc == 0
    assert "OK" in out


@pytest.mark.parametrize("flags", [[], ["--trace"]])
def test_verify_edges_round_trip_with_hash_in_label(capsys, tmp_path, flags):
    # the graph format only reads '#' as a comment at the start of a line
    f = tmp_path / "g.txt"
    f.write_text("A a#1 a2\nB b1 b2\nE a#1 b1\nE a2 b1\nE a2 b2\n")
    rc, out, _ = run(capsys, ["augment", str(f), *flags])
    assert rc == 0
    assert out.startswith("ADD a#1 b2")
    edges = tmp_path / "patch.txt"
    edges.write_text(out)
    rc, out, _ = run(capsys, ["verify", str(f), "--edges", str(edges)])
    assert rc == 0
    assert out == "OK (1 components checked)\n"


def test_verify_edges_with_oracle(capsys, tmp_path, p4_file):
    edges = tmp_path / "patch.txt"
    edges.write_text("ADD a1 b2\n")
    rc, out, _ = run(capsys, ["verify", p4_file, "--edges", str(edges), "--oracle"])
    assert rc == 0


def test_verify_flags_wasteful_edges(capsys, tmp_path):
    # four legged spider fixed with four edges where three suffice
    f = tmp_path / "spider.txt"
    f.write_text(
        "A x a3 a4\nB b1 b2 b3 b4\n"
        "E x b1\nE x b2\nE x b3\nE x b4\nE a3 b3\nE a4 b4\n"
    )
    edges = tmp_path / "fat.txt"
    edges.write_text("ADD a3 b1\nADD a4 b2\nADD a4 b1\nADD a3 b2\n")
    rc, out, _ = run(
        capsys, ["verify", str(f), "--edges", str(edges), "--oracle"]
    )
    assert rc == 3


def test_verify_edges_bad_line(capsys, tmp_path, p4_file):
    edges = tmp_path / "junk.txt"
    # only a token starting with '#' may follow the two labels
    for line in ("WIRE a1 b2\n", "ADD a1\n", "ADD a1 b2 b1\n", "ADD a1 b2 x # S1\n"):
        edges.write_text(line)
        rc, _, err = run(capsys, ["verify", p4_file, "--edges", str(edges)])
        assert rc == 1
        assert "bad edge line" in err


# ----------------------------------------------------------------------
# oracle


def test_oracle_small(capsys, p4_file):
    rc, out, _ = run(capsys, ["oracle", p4_file])
    assert rc == 0
    assert out == "ADD a1 b2\nSIZE 1\n"


def test_oracle_infeasible(capsys, tmp_path):
    f = tmp_path / "star.txt"
    f.write_text(STAR)
    rc, _, err = run(capsys, ["oracle", str(f)])
    assert rc == 2
    assert "error:" in err


def test_oracle_cap_hit(capsys, p4_file):
    rc, _, err = run(capsys, ["oracle", p4_file, "--cap", "0"])
    assert rc == 3
    assert "error:" in err


@pytest.mark.parametrize("cap", ["-1", "9"])
@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_cap_outside_range_exits_one(capsys, tmp_path, p4_file, command, cap):
    argv = [command, p4_file, "--cap", cap]
    if command == "verify":
        patch = tmp_path / "patch.txt"
        patch.write_text("ADD a1 b2\n")
        argv += ["--edges", str(patch), "--oracle"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_oracle_refuses_large_inputs(capsys, tmp_path):
    labels_a = " ".join(f"a{i}" for i in range(8))
    labels_b = " ".join(f"b{i}" for i in range(8))
    f = tmp_path / "big.txt"
    f.write_text(f"A {labels_a}\nB {labels_b}\n")
    rc, _, err = run(capsys, ["oracle", str(f)])
    assert rc == 3
    assert "error:" in err


def test_oracle_refuses_a_large_input_before_listing_candidates(monkeypatch):
    # the refusal counts the candidates and lists none: a 3,000 vertex
    # spider has about two million missing pairs
    verify = importlib.import_module("bipartite_biconnect.verify")

    def listed(g):
        raise AssertionError("candidates listed before the size guard")

    monkeypatch.setattr(verify, "legal_nonedges", listed)
    with pytest.raises(ValueError, match="too many candidate pairs"):
        verify.brute_force_optimal(generate_instance("spider", 3000))


# ----------------------------------------------------------------------
# gen and tree


@pytest.mark.parametrize("kind", ["spider", "broom", "caterpillar", "random"])
def test_gen_emits_parsable_graphs(capsys, kind):
    rc, out, _ = run(capsys, ["gen", "--kind", kind, "--size", "30", "--seed", "3"])
    assert rc == 0
    g = parse_graph(out)
    assert g.n > 0
    assert serialize_graph(g) == out


def test_gen_rejects_zero_size(capsys):
    rc, _, err = run(capsys, ["gen", "--kind", "spider", "--size", "0"])
    assert rc == 1
    assert "error:" in err


def test_tree_dot_output(capsys, p4_file):
    rc, out, _ = run(capsys, ["tree", p4_file])
    assert rc == 0
    assert out.startswith("graph blocktree {")
    assert out.rstrip().endswith("}")
    assert "shape=diamond" in out
    for lab in ("a1", "a2", "b1", "b2"):
        assert lab in out


def test_gen_to_tree_pipe(capsys, tmp_path):
    rc, out, _ = run(capsys, ["gen", "--kind", "broom", "--size", "12"])
    assert rc == 0
    f = tmp_path / "g.txt"
    f.write_text(out)
    rc, out, _ = run(capsys, ["tree", str(f)])
    assert rc == 0
    assert "graph blocktree {" in out


# ----------------------------------------------------------------------
# bench


def test_bench_streams_split(capsys):
    rc, out, err = run(capsys, ["bench", "--kind", "broom", "--sizes", "20,40"])
    assert rc == 0
    bench = out.splitlines()
    times = err.splitlines()
    assert len(bench) == 2 and len(times) == 2
    assert bench[0].startswith("BENCH kind=broom size=20 ")
    assert "total=" in bench[0]
    assert "added=" in bench[0]
    assert times[0].startswith("TIME kind=broom size=20 seconds=")


def test_bench_scientific_sizes(capsys):
    rc, out, _ = run(capsys, ["bench", "--kind", "caterpillar", "--sizes", "1e1"])
    assert rc == 0
    assert "size=10" in out


@pytest.mark.parametrize("sizes", ["2", "3", "20,2"])
def test_bench_infeasible_size_exits_two(capsys, sizes):
    # a random graph this small has one vertex on a side: no augmentation
    # exists, which is exit 2 as in augment, not a traceback
    rc, out, err = run(capsys, ["bench", "--kind", "random", "--sizes", sizes])
    assert rc == 2
    assert out.count("BENCH") == sizes.count(",")
    assert err.splitlines()[-1] == "error: a side with 1 vertices cannot anchor any cycle"


@pytest.mark.parametrize("sizes", ["abc", "inf", "nan", "0", "-5", "20,1e999"])
def test_bench_bad_sizes_exit_one(capsys, sizes):
    rc, out, err = run(capsys, ["bench", "--kind", "broom", "--sizes", sizes])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["nan", "inf", "-1", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "random", "--size", "20"],
        ["bench", "--kind", "random", "--sizes", "20"],
    ],
    ids=["gen", "bench"],
)
def test_bad_p_exits_one(capsys, argv, p):
    rc, out, err = run(capsys, [*argv, "--p", p])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["0", "0.25", "1"])
def test_p_in_unit_interval_is_accepted(capsys, p):
    rc, out, _ = run(capsys, ["gen", "--kind", "random", "--size", "20", "--p", p])
    assert rc == 0
    assert out


# ----------------------------------------------------------------------
# argparse behavior


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_gen_kind_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "torus", "--size", "5"])
    assert exc.value.code == 1


# ----------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["augment", "{f}", "--trace"],
        ["augment", "{f}", "--json", "--stats", "--verify"],
        ["verify", "{f}"],
        ["oracle", "{f}"],
        ["tree", "{f}"],
        ["gen", "--kind", "random", "--size", "40", "--seed", "9"],
        ["bench", "--kind", "spider", "--sizes", "30"],
    ],
)
def test_byte_identical_reruns(capsys, p4_file, argv):
    argv = [a.format(f=p4_file) for a in argv]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2
    assert out1 == out2
