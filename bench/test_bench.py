"""Tests of the benchmark itself: generators, checker, span arithmetic and a
tiny smoke run of every workload, untraced and traced."""

import pytest

from bench import checker, gen, run, tracing
from bench.workloads import WORKLOADS, Query


def test_generators_are_deterministic(tmp_path):
    for make in (lambda: gen.random_connected("r", 300, seed=7), lambda: gen.band(3, 5),
                 lambda: gen.grid(4), lambda: gen.cycle(10), lambda: gen.binary_tree(3)):
        a, b = make(), make()
        assert a == b
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        assert a.write(tmp_path / "a").read_bytes() == b.write(tmp_path / "b").read_bytes()
    assert gen.random_connected("r", 300, 7).text() != gen.random_connected("r", 300, 8).text()


def test_random_graph_is_connected_four_regular_with_distant_terminals():
    fam = gen.random_connected("r", 500, seed=3)
    graph = checker.InputGraph(fam.text())
    assert len(graph.adj) == 500
    assert all(len(nbrs) == 4 for nbrs in graph.adj.values())
    assert graph.component(fam.s, frozenset()) == set(graph.adj)
    assert fam.t not in graph.adj[fam.s] and fam.s != fam.t


def test_workload_inputs_depend_only_on_the_seed():
    for make in WORKLOADS.values():
        first, again, other = make(1, tiny=True), make(1, tiny=True), make(2, tiny=True)
        assert first == again
        for q1, q2 in zip(first, other):
            assert (q1.family == q2.family) != q1.seeded


BAND = gen.band(2, 3)  # s joined to column 0 and t to column 2 of a 2-by-3 grid


def _check(lines, command="list-minimal", options=("-k", "3"), kappa=None):
    query = Query(BAND, command, options)
    return checker.check_query(query, checker.InputGraph(BAND.text()), lines, kappa)


def test_checker_accepts_correct_output():
    assert _check(["r0c0,r1c0", "r0c1,r1c0", "r0c1,r1c1"]) == []
    assert _check(["kappa 2", "r0c0,r1c0"], "minsep", (), kappa=2) == []


def test_checker_rejects_a_non_separating_set():
    assert any("does not separate" in e for e in _check(["r0c0"]))


def test_checker_rejects_a_non_minimal_set():
    assert any("not minimal" in e for e in _check(["r0c0,r1c0,r0c1"]))


def test_checker_rejects_a_duplicate_emission():
    assert any("duplicate" in e for e in _check(["r0c0,r1c0", "r0c0,r1c0"]))


def test_checker_rejects_wrong_kappa_and_oversized_sets():
    assert any("reference says 3" in e
               for e in _check(["kappa 2", "r0c0,r1c0"], "minsep", (), kappa=3))
    assert any("exceeds k=1" in e for e in _check(["r0c0,r1c0"], options=("-k", "1")))


def test_checker_kappa_counts_vertex_disjoint_paths():
    for fam, kappa in ((gen.band(3, 6), 3), (gen.grid(5), 2), (gen.cycle(12), 2),
                       (gen.binary_tree(3), 2), (gen.random_connected("r", 200, 4), 4)):
        assert checker.InputGraph(fam.text()).kappa(fam.s, fam.t) == kappa


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("a", 0, 100, -1, 0),
        tracing.Span("b", 10, 40, 0, 0),
        tracing.Span("c", 20, 30, 1, 0),
        tracing.Span("b", 50, 70, 0, 0),
        tracing.Span("a", 200, 210, -1, 1),
    ]
    totals = tracing.layer_totals(spans)
    ns = 1e-6
    assert totals["a"]["calls"] == 2
    assert totals["a"]["ms"] == pytest.approx(110 * ns)
    assert totals["a"]["self_ms"] == pytest.approx((100 - 30 - 20 + 10) * ns)
    assert totals["b"]["self_ms"] == pytest.approx((30 - 10 + 20) * ns)
    assert totals["c"]["self_ms"] == pytest.approx(10 * ns)


def test_tracer_patches_caller_namespaces_and_restores_them(monkeypatch):
    import sepenum.cli
    import sepenum.fpt
    import sepenum.graph
    import sepenum.ranked

    originals = (sepenum.graph.saturate, sepenum.fpt.add_star, sepenum.cli.parse_graph)
    monkeypatch.setitem(tracing.LAYERS, "gone.layer",
                        [("sepenum.graph", "no_such_function", False),
                         ("sepenum.mincut", "NoSuchClass.__init__", False),
                         ("sepenum.mincut", "FlowNetwork.no_such_method", False)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sepenum.ranked.saturate is not originals[0]
        assert sepenum.ranked.saturate is sepenum.graph.saturate
        assert sepenum.fpt.add_star is not originals[1]
        assert sepenum.cli.parse_graph is not originals[2]
        assert tracer.missing == ["sepenum.graph.no_such_function",
                                  "sepenum.mincut.NoSuchClass.__init__",
                                  "sepenum.mincut.FlowNetwork.no_such_method"]
    finally:
        tracer.uninstall()
    assert (sepenum.graph.saturate, sepenum.fpt.add_star,
            sepenum.cli.parse_graph) == originals


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, tmp_path, capsys):
    report = run.run_workload(workload, seed=5, seconds=0, trace=False, tiny=True,
                              work_root=tmp_path)
    assert report["errors"] == []
    # one pass before the reference clock starts, then at least one more
    assert report["correct"] and report["failed"] == 0 and report["attempted"] == 6
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in report["metrics"].values())

    traced = run.run_workload(workload, seed=5, seconds=0, trace=True, tiny=True,
                              work_root=tmp_path)
    assert traced["correct"]
    run.print_report(traced)
    printed = capsys.readouterr().out
    assert all(f"name not found: {name}" in printed for name in traced["missing_names"])
    assert set(traced["metrics"]) == set(run.PER_LAYER_UNITS)
    assert traced["metrics"]["cli.main.calls"]["value"] == 3
    assert (tmp_path / f"{workload}-seed5" / "spans.tsv").is_file()
