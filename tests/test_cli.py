import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepenum
from sepenum.cli import EXIT_OK, EXIT_PIPE_CLOSED, _stream, main
from sepenum.graph import parse_graph
from sepenum.mincut import flow_call_count

DATA = Path(__file__).parent / "data"
P4 = str(DATA / "p4.edges")
DIAMOND = str(DATA / "diamond.edges")
THETA = str(DATA / "theta.edges")
SRC = str(Path(sepenum.__file__).parents[1])


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


def test_check_reads_kappa_from_its_flow_alone(capsys, monkeypatch, tmp_path):
    # On a minimal set, is_important runs one flow and κ another; check
    # reads κ as that flow's value, with no closest cut and no paths.
    called = []
    for name in ("closest_cut", "disjoint_paths"):
        monkeypatch.setattr(sepenum.FlowNetwork, name,
                            lambda self, name=name: called.append(name))
    fan = tmp_path / "fan.edges"  # κ = 1 through c, and {a, b} is minimal too
    fan.write_text("s a\ns b\na c\nb c\nc t\n")
    for graph, members, minimum in ((DIAMOND, "a,b", "true"), (str(fan), "a,b", "false")):
        before = flow_call_count()
        code, out, _ = run(capsys, "check", graph, "-s", "s", "-t", "t", "--set", members)
        assert code == 0
        assert out == f"separator true\nminimal true\nimportant true\nminimum {minimum}\n"
        assert flow_call_count() - before == 2
    assert called == []


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


def test_witness_answers_a_clique_neighbourhood_before_its_size_guard(capsys, tmp_path):
    # A pendant p lies on no chordless path, so no search is needed and
    # --max-n, which guards the search, does not apply.
    cell = [[f"r{r}c{c}" for c in range(6)] for r in range(6)]
    edges = [(row[c], row[c + 1]) for row in cell for c in range(5)]
    edges += [(cell[r][c], cell[r + 1][c]) for r in range(5) for c in range(6)]
    path = tmp_path / "grid_pendant.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in [*edges, ("r2c2", "p")]))
    code, out, err = run(capsys, "witness", str(path), "-s", "r0c0", "-t", "r5c5", "-v", "p")
    assert (code, out, err) == (0, "none\n", "")
    code, _, err = run(capsys, "witness", str(path), "-s", "r0c0", "-t", "r5c5", "-v", "r2c3")
    assert (code, err) == (1, "error: n=37 exceeds --max-n 20\n")


def test_witness_on_a_path_longer_than_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "long.edges"
    labels = ["s", *map(str, range(1, 1500)), "t"]
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(labels, labels[1:])))
    code, out, _ = run(capsys, "witness", str(path), "-s", "s", "-t", "t",
                       "-v", "700", "--max-n", "5000")
    assert code == 0
    assert out == "700\n"


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
    code, _, err = run(capsys, "witness", P4, "-s", "s", "-t", "t", "-v", "a",
                       "--max-n", "2")
    assert code == 1 and err == "error: n=4 exceeds --max-n 2\n"
    # witness vertex that is a terminal
    for v in ("s", "t"):
        code, out, err = run(capsys, "witness", THETA, "-s", "s", "-t", "t", "-v", v)
        assert code == 2 and out == ""
        assert err == "error: witness vertex must differ from the terminals\n"


class _ReaderGoneAfterOneLine:
    """A stdout whose reader goes away after the first line, as `head -1` does."""

    def __init__(self):
        self.text = ""

    def write(self, text):
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, first", [
    (("ranked", THETA, "-s", "s", "-t", "t"), "a,b\n"),
    (("minimum-all", THETA, "-s", "s", "-t", "t", "--json"),
     '{"separator": ["a", "b"], "size": 2}\n'),
])
def test_closed_stdout_exits_141_quietly(argv, first, capsys, monkeypatch):
    stdout = _ReaderGoneAfterOneLine()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(list(argv)) == EXIT_PIPE_CLOSED == 141
    assert stdout.text == first
    assert capsys.readouterr().err == ""


def test_parse_errors_and_unknown_labels_keep_their_messages(capsys, monkeypatch):
    text = "# theta\r\ns a\r\n\ta t\r\ns b\r\nb c\r\nc t"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "minsep", "-", "-s", "q", "-t", "t") == (
        2, "", "error: no vertex labeled 'q'\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "minsep", "-", "-s", "s", "-t", "t") == (0, "kappa 2\na,b\n", "")
    for bad, line in (("s a\n# c\nc c\nd e f\n", "line 3: self-loop at 'c'"),
                      ("s a\r\n\r\nd e f\r\nc c\r\n", "line 3: expected 2 tokens, got 3")):
        monkeypatch.setattr("sys.stdin", io.StringIO(bad))
        assert run(capsys, "minsep", "-", "-s", "s", "-t", "a") == (1, "", f"error: {line}\n")


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
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "sepenum.cli", "minsep", P4, "-s", "s", "-t", "t"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert proc.returncode == 0 and proc.stdout == "kappa 1\na\n"


def test_a_closed_pipe_ends_the_process_with_141_and_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sepenum.cli", "ranked", THETA, "-s", "s", "-t", "t"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_cli_start_up_imports_no_typing_dataclasses_inspect_or_json():
    # -S: no site-packages, which may import typing before any program runs
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys, sepenum.cli; print(sorted("
             "{'typing', 'dataclasses', 'inspect', 'json'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "sepenum.cli", "minsep", DIAMOND, "-s", "s",
         "-t", "t", "--json"], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == '{"kappa": 2}\n{"separator": ["a", "b"], "size": 2}\n'
