"""Command-line surface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import comb

import pytest

from swk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_edgelist_file(tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    p3.write_text("0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "index", "--input", str(p3), "-k", "3")
    assert code == 0
    assert "steiner_wiener_k3 = 2" in out
    assert "wiener = 4" in out


def test_index_fibonacci_family(capsys):
    code, out, _ = run_cli(capsys, "index", "--family", "fibonacci", "-n", "5", "-k", "3")
    assert code == 0
    assert "steiner_wiener_k3 = 968" in out


def test_index_lucas_family(capsys):
    code, out, _ = run_cli(capsys, "index", "--family", "lucas", "-n", "4", "-k", "3")
    assert code == 0
    assert "steiner_wiener_k3 = 100" in out


def test_index_graph6_file(tmp_path, capsys):
    g6 = tmp_path / "c5.g6"
    g6.write_text("Dhc\n")
    code, out, _ = run_cli(capsys, "index", "--input", str(g6), "-k", "2")
    assert code == 0
    assert "wiener = 15" in out


@pytest.mark.parametrize("cmd", ["index", "structure"])
def test_graph6_file_with_two_graphs_is_parse_error(tmp_path, capsys, cmd):
    g6 = tmp_path / "two.g6"
    g6.write_text("Dhc\nC~\n")
    code, out, err = run_cli(capsys, cmd, "--input", str(g6))
    assert code == 2
    assert "parse error" in err and "found 2" in err
    assert out == ""


def test_index_json_uses_strings_for_integers(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--family", "fibonacci", "-n", "8", "-k", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    value = by_name["steiner_wiener_k3"]["exact"]
    assert isinstance(value, str) and value == "131652"
    assert payload["graph"]["n"] == "55"


def test_report_json_preserves_huge_integers():
    from fractions import Fraction

    from swk.report import Report

    huge = 10**40 + 7
    report = Report()
    report.add_result("huge", huge)
    report.add_result("ratio", Fraction(huge, 3))
    payload = json.loads(report.to_json())
    assert payload["results"][0]["exact"] == str(huge)
    assert payload["results"][1]["exact"] == f"{huge}/3"
    assert int(payload["results"][0]["exact"]) == huge


def test_structure_c5(capsys, tmp_path):
    f = tmp_path / "c5.el"
    f.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run_cli(capsys, "structure", "--input", str(f))
    assert code == 0
    assert "modular = False" in out
    assert "nonmodular_triples = 5" in out


def test_structure_paw_block_formula(capsys, tmp_path):
    f = tmp_path / "paw.el"
    f.write_text("0 1\n0 2\n1 2\n0 3\n")
    code, out, _ = run_cli(capsys, "structure", "--input", str(f))
    assert code == 0
    assert "block_graph = True" in out
    assert "sw3_block_formula = 9" in out


def test_structure_hypercube(capsys):
    code, out, _ = run_cli(capsys, "structure", "--family", "hypercube", "-n", "3")
    assert code == 0
    assert "modular = True" in out
    assert "median = True" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("0 0\n")
    code, _, err = run_cli(capsys, "index", "--input", str(bad))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "index", "--input", "/nonexistent/file.el")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("index", "--input", "{path}", "-k", "2"),
        ("structure", "--input", "{path}"),
        ("verify", "modular-bound", "--corpus", "{path}"),
    ],
)
def test_non_utf8_input_is_parse_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xffDhc\n")
    code, _, err = run_cli(capsys, *(a.format(path=bad) for a in argv))
    assert code == 2
    assert "parse error" in err and "UTF-8" in err


@pytest.mark.parametrize("flag", ["--count", "--max-n", "--max-size", "--wiener-max-n", "--k-cap"])
def test_verify_rejects_negative_sizes(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "trees", flag, "-5")
    assert code == 3
    assert flag in err and "nonnegative" in err
    assert out == ""


def test_disconnected_exit_code(tmp_path, capsys):
    f = tmp_path / "split.el"
    f.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "index", "--input", str(f))
    assert code == 3
    assert "connected" in err


@pytest.mark.parametrize("cmd", ["index", "structure"])
def test_family_too_large_for_distances_exits_3_before_building(capsys, cmd):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, cmd, "--family", "hypercube", "-n", "20")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "1048576 vertices (cap 8192)" in err
    assert out == ""


def test_out_of_range_k_exit_code(capsys):
    code, _, _ = run_cli(capsys, "index", "--family", "path", "-n", "4", "-k", "20")
    assert code == 3


def test_k_above_the_terminal_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "index", "--family", "path", "-n", "14", "-k", "13")
    assert code == 3
    assert "2..12" in err
    assert out == ""


def test_sw3_above_the_triple_scan_limit_exit_code(capsys, monkeypatch, apsp_calls):
    # index -k 3 and structure refuse once the graph is built, before its
    # distance matrix
    import swk.steiner as steiner_mod
    import swk.structure as structure_mod

    monkeypatch.setattr(steiner_mod, "_sw3", lambda D: pytest.fail("SW_3 scan started"))
    monkeypatch.setattr(structure_mod, "_classify", lambda D: pytest.fail("triple scan started"))
    for cmd, *extra in (("index", "-k", "3"), ("structure",)):
        for n in ("10", "13"):
            code, out, err = run_cli(capsys, cmd, "--family", "hypercube", "-n", n, *extra)
            assert code == 3
            assert "limited to 512 vertices" in err
            assert out == ""
    assert apsp_calls == []


@pytest.mark.parametrize("k,kernel", [(3, "_sw3"), (4, "_dreyfus_wagner")])
def test_index_evaluates_sw_k_once(capsys, monkeypatch, k, kernel):
    import swk.steiner as steiner_mod
    from swk.graphs import fibonacci_cube

    G = fibonacci_cube(4)
    expected = steiner_mod.steiner_wiener(G, k)
    calls = []
    inner = getattr(steiner_mod, kernel)
    monkeypatch.setattr(steiner_mod, kernel, lambda *a: calls.append(1) or inner(*a))
    code, out, _ = run_cli(
        capsys, "index", "--family", "fibonacci", "-n", "4", "-k", str(k), "--json"
    )
    assert code == 0
    # one SW_3 scan, or one Dreyfus-Wagner run per k-subset
    assert len(calls) == (1 if k == 3 else comb(G.n, k))
    by_name = {r["name"]: r["exact"] for r in json.loads(out)["results"]}
    assert by_name[f"steiner_wiener_k{k}"] == str(expected)
    assert by_name[f"mean_steiner_k{k}"] == str(Fraction(expected, comb(G.n, k)))


def test_verify_bounds_refuses_k_cap_and_max_n_above_the_subset_cap(capsys, monkeypatch):
    import swk.verify as verify_mod

    def no_draw(*_):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(verify_mod, "random_connected", no_draw)
    code, out, err = run_cli(capsys, "verify", "bounds", "--k-cap", "13", "--max-n", "13")
    assert code == 3
    assert "--k-cap 13 and --max-n 13 both exceed 12" in err
    assert out == ""


def test_verify_bounds_k_cap_above_the_subset_cap_runs_on_small_graphs(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bounds", "--k-cap", "20", "--max-n", "10", "--count", "2",
        "--json",
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["holds"] for c in checks)


@pytest.mark.parametrize(
    "suite,flag,low,least",
    [
        ("trees", "--max-n", 2, 3),
        ("modular-bound", "--max-n", 2, 3),
        ("block-graphs", "--max-n", 2, 3),
        ("block-graphs", "--max-n", 0, 3),
        ("bounds", "--max-n", 2, 3),
        ("steiner-oracle", "--max-n", 4, 5),
        ("bounds", "--k-cap", 2, 3),
        ("bounds", "--k-cap", 0, 3),
    ],
)
def test_verify_size_below_suite_minimum_exits_3(capsys, suite, flag, low, least):
    code, out, err = run_cli(capsys, "verify", suite, flag, str(low))
    assert code == 3
    assert f"{flag} must be at least {least}" in err
    assert out == ""
    code, _, _ = run_cli(capsys, "verify", suite, flag, str(least), "--count", "2")
    assert code == 0


def test_verify_corpus_ignores_max_n(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("Dhc\nC~\n")
    code, out, _ = run_cli(
        capsys, "verify", "modular-bound", "--corpus", str(corpus), "--max-n", "2"
    )
    assert code == 0
    assert "equality-iff-modular (2 instances)" in out


def test_input_and_family_mutually_exclusive(capsys):
    code, _, err = run_cli(capsys, "index")
    assert code == 2


def test_verify_fibonacci_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "fibonacci", "--max-n", "6", "--wiener-max-n", "8"
    )
    assert code == 0
    assert "closed-form-matches-reference-sequence" in out


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("trees", ["--count", "25"]),
        ("lucas", ["--max-n", "5", "--wiener-max-n", "7"]),
        ("block-graphs", ["--count", "25"]),
        ("products", ["--max-size", "50"]),
        ("bounds", ["--count", "10"]),
        ("modular-bound", ["--count", "200"]),
        ("steiner-oracle", ["--count", "15"]),
    ],
)
def test_verify_suites_smoke(capsys, suite, flags):
    code, out, _ = run_cli(capsys, "verify", suite, "--seed", "11", *flags)
    assert code == 0
    assert "FAIL" not in out


def test_verify_corpus_input(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("Dhc\nC~\n")
    code, out, _ = run_cli(capsys, "verify", "modular-bound", "--corpus", str(corpus))
    assert code == 0
    assert "equality-iff-modular" in out


def test_verify_failure_exits_1_and_names_instance(capsys, monkeypatch):
    # the shipped suites verify true statements, so force a failing report
    # through the same plumbing to pin down the exit path
    import swk.cli as cli_mod
    from swk.graphs import cycle_graph
    from swk.report import Report
    from swk.verify import Check

    def fake_suite(name, **params):
        report = Report()
        check = Check("always-fails")
        check.record(False, cycle_graph(5), detail="forced")
        check.add_to(report)
        return report

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, out, err = run_cli(capsys, "verify", "trees", "--json")
    assert code == 1
    payload = json.loads(out)
    row = payload["checks"][0]
    assert row["holds"] is False
    assert row["first_failure"]["graph6"] == "Dhc"
    assert "always-fails" in err


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


@pytest.mark.parametrize("cmd", ["index", "structure"])
def test_seed_is_a_usage_error_outside_verify(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--family", "path", "-n", "4", "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --seed 1" in captured.err
    assert captured.out == ""


def test_verify_json_deterministic_given_seed(capsys):
    args = ["verify", "trees", "--count", "20", "--seed", "3", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_verify_json_block_graphs(capsys):
    args = ["verify", "block-graphs", "--count", "10", "--seed", "5", "--json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert [c["instances"] for c in payload["checks"]] == ["10"] * 4
    assert all(c["holds"] for c in payload["checks"])


@pytest.mark.parametrize(
    "argv",
    [("trees", "--count", "0"), ("products", "--max-size", "1"), ("bounds", "--count", "0")],
)
def test_verify_with_no_instances_fails(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks and all(c["instances"] == "0" and not c["holds"] for c in checks)
    assert "failed checks" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 3\n"))
    code, out, _ = run_cli(capsys, "index", "--input", "-", "-k", "2")
    assert code == 0
    assert "wiener = 10" in out


def _without_timings(out: str):
    report = json.loads(out)
    report.pop("timing_ms")
    return report


def _three_calls(capsys):
    """index, a call that fails to parse, then verify with its default --seed."""
    results = []
    for argv in (
        ["index", "--family", "fibonacci", "-n", "5", "-k", "3", "--json"],
        ["index", "--family", "path", "-n", "5", "-k", "two"],
        ["verify", "modular-bound", "--count", "5", "--max-n", "7", "--json"],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = _without_timings(captured.out) if captured.out else ""
        results.append((code, out, captured.err))
    return results


def test_cached_parser_gives_the_outputs_of_fresh_parsers(capsys, monkeypatch):
    import swk.cli as cli_mod

    cached = _three_calls(capsys)
    assert [code for code, _, _ in cached] == [0, 2, 0]
    assert "invalid int value: 'two'" in cached[1][2]
    assert cli_mod.build_parser() is cli_mod.build_parser()
    monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser.__wrapped__)
    assert cli_mod.build_parser() is not cli_mod.build_parser()
    assert _three_calls(capsys) == cached


def test_structure_runs_block_work_once(capsys, monkeypatch):
    import swk.blocks as blocks_mod
    import swk.cli as cli_mod

    calls = {"is_block_graph": 0, "nm_block_graph": 0}
    for name in calls:
        inner = getattr(blocks_mod, name)

        def counting(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        for module in (blocks_mod, cli_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, out, _ = run_cli(capsys, "structure", "--family", "path", "-n", "60", "--json")
    assert code == 0
    assert calls == {"is_block_graph": 1, "nm_block_graph": 1}
    by_name = {r["name"]: r["exact"] for r in json.loads(out)["results"]}
    # a path on n vertices has no non-modular triple and SW_3 = (n-2) W / 2
    assert by_name["nonmodular_triples_blockwise"] == "0"
    assert by_name["sw3_block_formula"] == str(58 * comb(61, 3) // 2)


def test_structure_reports_a_non_block_graph(capsys):
    code, out, _ = run_cli(capsys, "structure", "--family", "cycle", "-n", "5", "--json")
    assert code == 0
    by_name = {r["name"]: r["exact"] for r in json.loads(out)["results"]}
    assert by_name["block_graph"] is False
    assert "nonmodular_triples_blockwise" not in by_name and "sw3_block_formula" not in by_name


@pytest.mark.parametrize(
    "source",
    [("--family", "fibonacci", "-n", "9"), ("--input", "{g6}"), ("--input", "{el}")],
)
def test_index_on_array_inputs_builds_no_tuples(tmp_path, capsys, monkeypatch, source):
    import swk.graphs as graphs_mod
    from swk.graphs import fibonacci_cube, write_graph6

    G = fibonacci_cube(9)
    g6, el = tmp_path / "fib9.g6", tmp_path / "fib9.el"
    g6.write_bytes(write_graph6(G) + b"\n")
    el.write_text("".join(f"{u} {v}\n" for u, v in G.edges()))
    monkeypatch.setattr(graphs_mod, "_tuples_from_csr",
                        lambda *_: pytest.fail("adjacency tuples built"))
    argv = [a.format(g6=g6, el=el) for a in source]
    code, out, _ = run_cli(capsys, "index", *argv, "-k", "2", "--json")
    assert code == 0
    by_name = {r["name"]: r["exact"] for r in json.loads(out)["results"]}
    assert by_name["wiener"] == "14592"


def test_declared_count_with_an_isolated_last_vertex_exits_3(tmp_path, capsys):
    f = tmp_path / "isolated.el"
    f.write_text("n 3\n0 1\n")
    code, out, err = run_cli(capsys, "index", "--input", str(f))
    assert code == 3
    assert "connected" in err
    assert out == ""
