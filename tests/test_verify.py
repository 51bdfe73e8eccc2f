"""The verify suites' own checks and parameter handling.

The block-graphs suite's half-perimeter and pseudo-median checks are numpy
scans over D; ``conftest`` keeps the triple walks they replaced, built on
``metric.interval``, as the reference.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from swk import (
    all_pairs_distances,
    classify_triples,
    complete_bipartite_graph,
    cycle_graph,
    fibonacci_cube,
    hypercube,
    path_graph,
    sw3_product_modular,
)
from swk.cli import main
from swk.errors import PreconditionError
from swk.generators import paw_graph, random_block_graph, random_connected, random_tree
from swk.graphs import Graph, write_graph6
from swk.verify import _median_free_checks, run_suite

from conftest import bfs_runs, walk_half_perimeter, walk_pseudo_median


def _reference(G: Graph, D) -> tuple[bool, bool]:
    return walk_half_perimeter(D), walk_pseudo_median(G, D)


def _checks(D) -> tuple[bool, bool]:
    """``_median_free_checks`` on a stack of one."""
    return next(_median_free_checks(D[None]))


def test_median_free_checks_match_walks_on_block_graphs():
    rng = random.Random(2024)
    for _ in range(150):
        G = random_block_graph(rng, 12)
        D = all_pairs_distances(G)
        assert _checks(D) == _reference(G, D) == (True, True)


def test_median_free_checks_match_walks_on_random_graphs():
    rng = random.Random(31)
    seen = set()
    for _ in range(200):
        G = random_connected(rng, 10)
        D = all_pairs_distances(G)
        result = _checks(D)
        assert result == _reference(G, D)
        seen.add(result)
    # the corpus fails the pseudo-median check alone, both checks, and
    # neither; a gating triangle makes 2 d = perimeter + 1, so a graph
    # that passes the pseudo-median check passes the half-perimeter one
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize(
    "G,expected",
    [
        # its triple {2, 3, 4} has two medians, 0 and 1
        (complete_bipartite_graph(2, 3), (True, False)),
        # {0, 1, 3} has no median and C_5 has no triangle
        (cycle_graph(5), (True, False)),
        # {0, 2, 4} has no median, no triangle, and d = 4 > (6 + 1) / 2
        (cycle_graph(6), (False, False)),
        (hypercube(3), (True, True)),
        (paw_graph(), (True, True)),
        # two triangles and a pendant path: a block graph
        (Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]),
         (True, True)),
    ],
)
def test_median_free_checks_hand_cases(G, expected):
    D = all_pairs_distances(G)
    assert _checks(D) == _reference(G, D) == expected


@pytest.mark.parametrize("run", [1, 40])
def test_median_free_checks_in_short_runs_match_walks(monkeypatch, run):
    # runs of one to three triples: a graph takes many runs, and the runs
    # of its modular triples hold no median-free triple
    import swk.verify

    monkeypatch.setattr(swk.verify, "_RUN", run)
    rng = random.Random(77)
    mixed = 0
    for G in [random_block_graph(rng, 10) for _ in range(30)] + [
        random_connected(rng, 9) for _ in range(40)
    ]:
        D = all_pairs_distances(G)
        assert _checks(D) == _reference(G, D)
        cls = classify_triples(G)
        mixed += 0 < cls.nonmodular < cls.total
    assert mixed > 20


class _CountedReads(np.ndarray):
    """A distance matrix (and everything computed from it) that counts its
    reads through index arrays."""

    reads = 0

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, np.ndarray) for k in keys):
            _CountedReads.reads += 1
        return super().__getitem__(key)


def _reads(G: Graph) -> tuple[tuple[bool, bool], int]:
    _CountedReads.reads = 0
    result = _checks(all_pairs_distances(G).view(_CountedReads))
    return result, _CountedReads.reads


def test_median_free_checks_stop_after_a_run_that_fails_both(monkeypatch):
    import swk.verify

    # C_6 labelled so that its first triple {0, 1, 2} has no median, no
    # triangle and d = 4 > (6 + 1) / 2; in plain C_6 the first such
    # triple, {0, 2, 4}, is the sixth
    first = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    late = cycle_graph(6)
    for G in (first, late):
        D = all_pairs_distances(G)
        assert _checks(D) == _reference(G, D) == (False, False)
    one_run = {G: _reads(G) for G in (first, late)}
    monkeypatch.setattr(swk.verify, "_RUN", 1)  # one triple per run
    # stopping after the first run reads what a single run of all triples reads
    assert _reads(first) == one_run[first]
    assert _reads(late)[0] == (False, False)
    assert _reads(late)[1] > one_run[late][1]


def test_median_free_checks_use_no_library_triple_kernel(monkeypatch):
    import swk.steiner
    import swk.structure
    import swk.verify

    def forbidden(*args, **kwargs):
        raise AssertionError("library kernel called")

    for module, name in [
        (swk.steiner, "_sw3"),
        (swk.steiner, "steiner_distance_3"),
        (swk.verify, "steiner_distance_3"),
        (swk.structure, "_median_counts"),
        (swk.structure, "_interval_words"),
        (swk.structure, "median_set"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(5)
    for _ in range(20):
        G = random_connected(rng, 9)
        _checks(all_pairs_distances(G))


def test_trees_suite_records_checks_in_draw_order(monkeypatch):
    # SW_3 runs once per order over the drawn trees; a failure must still be
    # counted against, and reported as, the draw it belongs to
    import swk.verify

    exact = swk.verify._by_order

    def off_by_one(kernel, graphs):
        results = exact(kernel, graphs)
        if kernel is not swk.verify._sw3:
            return results
        return [s3 + (i in (2, 6)) for i, s3 in enumerate(results)]

    monkeypatch.setattr(swk.verify, "_by_order", off_by_one)
    report = run_suite("trees", count=10)
    rng = random.Random(42)  # the suite's default seed and draws
    draws = [random_tree(rng.randint(3, 12), rng) for _ in range(10)]
    assert len({T.n for T in draws}) > 1
    checks = {c["name"]: c for c in report.checks}
    for name in ("tree-double-sw3-equals-(n-2)-wiener", "tree-block-formula-agrees"):
        assert checks[name]["instances"] == 10 and checks[name]["failures"] == 2
        assert checks[name]["first_failure"]["graph6"] == write_graph6(draws[2]).decode("ascii")
    assert checks["tree-is-median-with-no-nonmodular-triples"]["failures"] == 0


def test_block_graphs_suite_at_defaults():
    report = run_suite("block-graphs")
    assert [(c["name"], c["instances"], c["holds"]) for c in report.checks] == [
        ("block-formula-equals-double-brute-sw3", 1000, True),
        ("blockwise-nonmodular-count-equals-triple-scan", 1000, True),
        ("nonmodular-triples-exceed-half-perimeter-by-half", 1000, True),
        ("pseudo-median-triples", 1000, True),
    ]


@pytest.mark.parametrize("family", ["fibonacci", "lucas"])
def test_cube_suite_counts_orders_without_building_tuples(monkeypatch, family):
    import swk.graphs as graphs_mod

    monkeypatch.setattr(graphs_mod, "_tuples_from_csr",
                        lambda *_: pytest.fail("adjacency tuples built"))
    report = run_suite(family, max_n=8, wiener_max_n=12)
    assert report.ok()
    rows = {c["name"]: c["instances"] for c in report.checks}
    assert rows["vertex-count-matches-number-sequence"] == 21
    # the distance checks of orders 1-12 run their BFS over the CSR arrays
    assert rows["wiener-closed-form-matches-bfs"] == (13 if family == "fibonacci" else 12)


def test_products_suite_runs_one_bfs_per_graph(apsp_calls):
    report = run_suite("products", max_size=10)
    assert report.ok() and [c["instances"] for c in report.checks] == [45, 45, 6, 45]
    graphs = {id(G) for G, _ in apsp_calls}
    assert len(graphs) == 16 + 45  # the factors and the products
    assert len(bfs_runs(apsp_calls)) == len(graphs)
    assert len({(id(G), id(D)) for G, D in apsp_calls}) == len(graphs)


def test_products_suite_checks_each_factor_once(monkeypatch):
    import swk.steiner
    import swk.verify

    monkeypatch.setattr(swk.steiner, "is_modular", lambda G: pytest.fail("is_modular called"))
    exact, scanned = swk.verify._every_triple, []

    def counting(D, *args):
        scanned.append(D.shape[0])
        return exact(D, *args)

    monkeypatch.setattr(swk.verify, "_every_triple", counting)
    report = run_suite("products", max_size=10)
    assert report.ok() and [c["instances"] for c in report.checks] == [45, 45, 6, 45]
    assert sum(scanned) == 16 + 45  # each factor once, and each product


@pytest.mark.parametrize("at,which", [(0, "first"), (None, "second")])
def test_products_suite_refuses_a_nonmodular_factor(monkeypatch, capsys, at, which):
    import swk.verify

    factors = swk.verify._product_factors()
    factors.insert(len(factors) if at is None else at, ("C5", cycle_graph(5)))
    monkeypatch.setattr(swk.verify, "_product_factors", lambda: factors)
    assert main(["verify", "products", "--max-size", "10"]) == 3
    # the first pair with C5 is C5 x path2 (first) or path2 x C5 (second)
    pair = (cycle_graph(5), path_graph(2)) if which == "first" else (path_graph(2), cycle_graph(5))
    with pytest.raises(PreconditionError, match=f"{which} factor is not modular") as refused:
        sw3_product_modular(*pair)
    assert str(refused.value) in capsys.readouterr().err


def _json_without_timings(report) -> dict:
    doc = json.loads(report.to_json())
    del doc["timing_ms"]
    return doc


def test_corpus_chunks_end_at_the_entry_budget(monkeypatch):
    import swk.verify

    rng = random.Random(8)
    corpus = "\n".join(
        write_graph6(random_connected(rng, 9, min_n=6)).decode("ascii") for _ in range(12)
    )
    whole = _json_without_timings(run_suite("modular-bound", corpus=corpus))
    exact, chunks = swk.verify._by_order, []

    def recording(kernel, graphs):
        chunks.append(sum(G.n * G.n for G in graphs))
        return exact(kernel, graphs)

    monkeypatch.setattr(swk.verify, "_by_order", recording)
    monkeypatch.setattr(swk.verify, "_CHUNK_ENTRIES", 100)  # two or three graphs a chunk
    assert _json_without_timings(run_suite("modular-bound", corpus=corpus)) == whole
    assert len(chunks) >= 2 * 4  # two kernels per chunk
    assert all(entries < 100 + 81 for entries in chunks)
    # a corpus of two graphs of up to 362 vertices is one chunk at the real budget
    monkeypatch.undo()
    monkeypatch.setattr(swk.verify, "_by_order", recording)
    chunks.clear()
    pair = "\n".join(write_graph6(G).decode("ascii") for G in (fibonacci_cube(9), hypercube(6)))
    assert run_suite("modular-bound", corpus=pair).ok()
    assert chunks == [89**2 + 64**2] * 2


# graph6 lines: a disconnected graph and a 2-vertex graph, which the
# modular-bound suite skips, among graphs it checks
_MIXED_CORPUS = [
    write_graph6(G).decode("ascii")
    for G in (cycle_graph(5), Graph(4, [(0, 1), (2, 3)]), hypercube(3), cycle_graph(4),
              Graph(2, [(0, 1)]), cycle_graph(6), paw_graph(), complete_bipartite_graph(2, 3))
]


@pytest.mark.parametrize(
    "suite,params,per_draw",
    [
        ("trees", {"count": 10}, "wiener_index"),
        ("modular-bound", {"count": 10}, "wiener_index"),
        ("modular-bound", {"corpus": "\n".join(_MIXED_CORPUS)}, "wiener_index"),
        ("block-graphs", {"count": 10}, "sw3_block_formula"),
    ],
)
def test_chunked_draws_give_the_same_report(monkeypatch, suite, params, per_draw):
    # the fifth instance fails; with 3-draw chunks it lies in the second chunk
    import swk.verify

    exact = getattr(swk.verify, per_draw)

    def report_with_chunk(chunk):
        calls = []

        def fifth_off(*args):
            calls.append(None)
            return exact(*args) + (len(calls) == 5)

        monkeypatch.setattr(swk.verify, per_draw, fifth_off)
        monkeypatch.setattr(swk.verify, "_CHUNK", chunk)
        report = run_suite(suite, **params)
        return report.checks, report.results

    whole = report_with_chunk(swk.verify._CHUNK)
    assert whole == report_with_chunk(3)
    failing = [c for c in whole[0] if c["failures"]]
    assert failing and all(c["failures"] == 1 and "first_failure" in c for c in failing)
    if "corpus" in params:
        assert {"name": "skipped-instances", "exact": 2, "decimal": "2"} in whole[1]
