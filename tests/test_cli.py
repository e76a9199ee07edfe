import io
import json
import os
import subprocess
import sys
from pathlib import Path

import sepenum
from sepenum.cli import EXIT_OK, _stream, main
from sepenum.graph import parse_graph
from sepenum.mincut import flow_call_count

DATA = Path(__file__).parent / "data"
P4 = str(DATA / "p4.edges")
DIAMOND = str(DATA / "diamond.edges")
THETA = str(DATA / "theta.edges")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minsep_plain(capsys):
    code, out, _ = run(capsys, "minsep", DIAMOND, "-s", "s", "-t", "t")
    assert code == 0
    assert out == "kappa 2\na,b\n"


def test_minsep_json(capsys):
    code, out, _ = run(capsys, "minsep", DIAMOND, "-s", "s", "-t", "t", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [{"kappa": 2}, {"separator": ["a", "b"], "size": 2}]


def test_list_minimal_p4(capsys):
    code, out, _ = run(capsys, "list-minimal", P4, "-s", "s", "-t", "t", "-k", "1")
    assert code == 0
    assert out == "a\nb\n"


def test_list_minimal_limit(capsys):
    code, out, _ = run(
        capsys, "list-minimal", P4, "-s", "s", "-t", "t", "-k", "1", "--limit", "1"
    )
    assert code == 0
    assert out == "a\n"


def _separators_then_fail(count):
    for v in range(count):
        yield (v,)
    raise AssertionError("pulled a separator past the limit")


def test_stream_pulls_nothing_past_the_limit(capsys):
    g = parse_graph("a b\nb c")
    assert _stream(g, _separators_then_fail(2), 2, False) == EXIT_OK
    assert capsys.readouterr().out == "a\nb\n"
    assert _stream(g, _separators_then_fail(0), 0, False) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_limit_one_costs_only_the_first_separators_flows(capsys):
    before = flow_call_count()
    run(capsys, "ranked", THETA, "-s", "s", "-t", "t", "--limit", "1")
    assert flow_call_count() - before == 1
    before = flow_call_count()
    run(capsys, "list-minimal", THETA, "-s", "s", "-t", "t", "-k", "2", "--limit", "1")
    assert flow_call_count() - before == 1


def test_list_minimal_bottom_on_adjacent_terminals(capsys, tmp_path):
    path = tmp_path / "adj.edges"
    path.write_text("s t\ns a\na t\n")
    code, out, _ = run(capsys, "list-minimal", str(path), "-s", "s", "-t", "t", "-k", "2")
    assert code == 2
    assert out == "BOTTOM\n"


def test_ranked_theta(capsys):
    code, out, _ = run(capsys, "ranked", THETA, "-s", "s", "-t", "t")
    assert code == 0
    assert out == "a,b\na,c\n"


def test_ranked_limit_and_json(capsys):
    code, out, _ = run(capsys, "ranked", THETA, "-s", "s", "-t", "t",
                       "--limit", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"separator": ["a", "b"], "size": 2}


def test_minimum_all_theta(capsys):
    code, out, _ = run(capsys, "minimum-all", THETA, "-s", "s", "-t", "t")
    assert code == 0
    assert out == "a,b\na,c\n"


def test_important_theta(capsys):
    code, out, _ = run(capsys, "important", THETA, "-s", "s", "-t", "t", "-k", "2")
    assert code == 0
    assert out == "a,b\n"


def test_important_empty_enumeration_is_success(capsys):
    code, out, _ = run(capsys, "important", DIAMOND, "-s", "s", "-t", "t", "-k", "1")
    assert code == 0
    assert out == ""


def test_check_minimum_separator(capsys):
    code, out, _ = run(capsys, "check", DIAMOND, "-s", "s", "-t", "t", "--set", "a,b")
    assert code == 0
    assert out == "separator true\nminimal true\nimportant true\nminimum true\n"


def test_check_dominated_separator(capsys):
    code, out, _ = run(capsys, "check", P4, "-s", "s", "-t", "t", "--set", "b")
    assert code == 0
    assert out == "separator true\nminimal true\nimportant false\nminimum true\n"


def test_check_non_separator_json(capsys):
    code, out, _ = run(capsys, "check", DIAMOND, "-s", "s", "-t", "t",
                       "--set", "a", "--json")
    assert code == 0
    assert json.loads(out) == {
        "separator": False, "minimal": False, "important": False, "minimum": False,
    }


def test_check_set_with_a_terminal_names_it_by_label(capsys):
    code, out, err = run(capsys, "check", P4, "-s", "s", "-t", "t", "--set", "s")
    assert (code, out, err) == (1, "", "error: --set contains terminal 's'\n")
    code, out, err = run(capsys, "check", P4, "-s", "s", "-t", "t", "--set", "a,t")
    assert (code, out, err) == (1, "", "error: --set contains terminal 't'\n")


def test_already_separated_terminals_are_named_by_label(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("s a\nt b\n")
    for command, *extra in (("minsep",), ("ranked",), ("minimum-all",),
                            ("list-minimal", "-k", "1"), ("important", "-k", "1")):
        got = run(capsys, command, str(path), "-s", "s", "-t", "t", *extra)
        assert got == (3, "", "error: terminals s,t already separated\n"), command


def test_check_survives_disconnected_input(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("s a\nt b\n")
    code, out, _ = run(capsys, "check", str(path), "-s", "s", "-t", "t", "--set", "a")
    assert code == 0
    assert out == "separator true\nminimal false\nimportant false\nminimum false\n"


def test_witness_finds_separator_through_vertex(capsys):
    code, out, _ = run(capsys, "witness", THETA, "-s", "s", "-t", "t", "-v", "c")
    assert code == 0
    assert out == "a,c\n"


def test_witness_none(capsys, tmp_path):
    path = tmp_path / "pendant.edges"
    path.write_text("s a\na t\na d\n")
    code, out, _ = run(capsys, "witness", str(path), "-s", "s", "-t", "t", "-v", "d")
    assert code == 0
    assert out == "none\n"


def test_witness_json_none(capsys, tmp_path):
    path = tmp_path / "pendant.edges"
    path.write_text("s a\na t\na d\n")
    code, out, _ = run(capsys, "witness", str(path), "-s", "s", "-t", "t",
                       "-v", "d", "--json")
    assert code == 0
    assert json.loads(out) == {"separator": None}


def test_exit_codes(capsys, tmp_path):
    # unknown label
    code, _, err = run(capsys, "minsep", P4, "-s", "s", "-t", "zz")
    assert code == 2 and "zz" in err
    # equal terminals
    code, _, _ = run(capsys, "minsep", P4, "-s", "s", "-t", "s")
    assert code == 2
    # adjacent terminals, non list-minimal subcommand
    adj = tmp_path / "adj.edges"
    adj.write_text("s t\n")
    code, _, _ = run(capsys, "minsep", str(adj), "-s", "s", "-t", "t")
    assert code == 2
    # already separated
    disc = tmp_path / "disc.edges"
    disc.write_text("s a\nt b\n")
    code, _, _ = run(capsys, "minsep", str(disc), "-s", "s", "-t", "t")
    assert code == 3
    code, _, _ = run(capsys, "list-minimal", str(disc), "-s", "s", "-t", "t", "-k", "1")
    assert code == 3
    # malformed input file
    bad = tmp_path / "bad.edges"
    bad.write_text("s a b\n")
    code, _, _ = run(capsys, "minsep", str(bad), "-s", "s", "-t", "t")
    assert code == 1
    # missing file
    code, _, _ = run(capsys, "minsep", str(tmp_path / "nope"), "-s", "s", "-t", "t")
    assert code == 1
    # a file that is not text
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"s \xff\n")
    code, _, _ = run(capsys, "minsep", str(binary), "-s", "s", "-t", "t")
    assert code == 1
    # usage error
    code, _, _ = run(capsys, "list-minimal", P4, "-s", "s", "-t", "t")
    assert code == 1
    # negative limit
    code, _, _ = run(capsys, "ranked", P4, "-s", "s", "-t", "t", "--limit", "-1")
    assert code == 1
    # witness guard: graph larger than --max-n
    code, _, _ = run(capsys, "witness", P4, "-s", "s", "-t", "t", "-v", "a",
                     "--max-n", "2")
    assert code == 1


def test_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("s a\na b\nb t\n"))
    code, out, _ = run(capsys, "minsep", "-", "-s", "s", "-t", "t")
    assert code == 0
    assert out == "kappa 1\na\n"


def test_byte_identical_across_runs(capsys):
    outs = set()
    for _ in range(2):
        for args in (
            ("list-minimal", THETA, "-s", "s", "-t", "t", "-k", "3"),
            ("ranked", DIAMOND, "-s", "s", "-t", "t"),
            ("minimum-all", P4, "-s", "s", "-t", "t"),
        ):
            outs.add((args[0], run(capsys, *args)[1]))
    assert len(outs) == 3


def test_cli_closes_its_input_file():
    env = dict(os.environ, PYTHONPATH=str(Path(sepenum.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "sepenum.cli", "minsep", P4, "-s", "s", "-t", "t"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert proc.returncode == 0 and proc.stdout == "kappa 1\na\n"
