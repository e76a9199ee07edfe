"""Replay the differential corpus in tests/data/golden.json (see golden.py).

Each query's stdout and stderr digests and exit code must match the file
exactly, and it may run no more flow calls than the file records.  The
corpus reaches n = 2,000, past the brute-force oracles' n <= 16, so a
change of order or content that only larger inputs show fails here.
"""

import json

from sepenum.graph import parse_graph

from golden import GOLDEN, digest, inputs, run


def test_the_cli_gives_the_recorded_answers_with_no_more_flows():
    golden = json.loads(GOLDEN.read_text())
    texts = inputs()
    assert {name: digest(text) for name, text in texts.items()} == golden["inputs"]
    assert len(texts) >= 30 and sum(parse_graph(t).n >= 1000 for t in texts.values()) >= 3
    changed, costlier = [], []
    for record in golden["queries"]:
        got = run(record["argv"], texts[record["argv"][1]])
        if [got[key] for key in ("stdout", "stderr", "exit")] != \
                [record[key] for key in ("stdout", "stderr", "exit")]:
            changed.append(record["argv"])
        if got["flows"] > record["flows"]:
            costlier.append((record["argv"], record["flows"], got["flows"]))
    assert not changed, f"{len(changed)} queries answer differently, first {changed[:5]}"
    assert not costlier, f"{len(costlier)} queries run more flows, first {costlier[:5]}"
    assert len(golden["queries"]) > 800
