import dataclasses
import json
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    corrupt_assembly_step,
    duplicate_root,
    forget_common_leaf,
    misreport_root_leaves,
    misreport_untouched_vertex,
    starve_leaf_pool,
)
from rainbowtrees import (
    MIN_INDEX,
    build_forest,
    forest_to_dot,
    forest_to_json,
    oracle,
    parse_forest,
    permuted_round_robin,
    round_robin,
    serialize_coloring,
    trace_from_jsonl,
    trace_to_jsonl,
)
from rainbowtrees import cli
from rainbowtrees.cli import main
from rainbowtrees.errors import InternalInvariantError, SwapError


def run_cli(argv, capsys=None):
    """Invoke the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_end_to_end_pipeline(tmp_path, capsys):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    trace = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "5", "--scheme", "round-robin", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), "--trace", str(trace)]) == 0
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["tree_count"] == 2


def test_verify_without_trace(tmp_path, capsys):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    assert run_cli(["gen", "--m", "7", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest)]) == 0
    assert run_cli(["verify", "-i", str(col), "-f", str(forest)]) == 0
    assert json.loads(capsys.readouterr().out)["trace_bounds"] is None


def test_gen_without_output_writes_the_document_to_stdout(capsysbinary):
    assert run_cli(["gen", "--m", "3"]) == 0
    assert capsysbinary.readouterr().out == serialize_coloring(round_robin(3))


def test_gen_writes_its_document_a_row_at_a_time(tmp_path):
    # the coloring's two tables take about 2.5 times the document; gen never
    # holds the whole document beside them
    out = tmp_path / "c.json"
    tracemalloc.start()
    try:
        assert run_cli(["gen", "--m", "200", "--permute-seed", "1", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = out.read_bytes()
    assert data == serialize_coloring(permuted_round_robin(200, 1))
    assert peak <= 3.5 * len(data)


def _traced_peak(call):
    """call()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_build_and_verify_never_hold_the_whole_coloring_document(tmp_path):
    # the coloring's table takes about 0.3 times the document; the file is
    # read a chunk at a time beside it, and the forest is encoded one tree
    # at a time
    coloring = permuted_round_robin(200, 1)
    path = tmp_path / "c.json"
    path.write_bytes(serialize_coloring(coloring))
    size = path.stat().st_size
    assert size == 1_051_330
    read, peak = _traced_peak(lambda: cli._read_coloring(str(path)))
    assert read == coloring and read.digest() == coloring.digest()
    assert peak <= 0.8 * size
    forest, _ = build_forest(coloring, policy=MIN_INDEX, trace_on=True)
    out, peak = _traced_peak(lambda: forest_to_json(forest))
    assert parse_forest(out) == forest
    assert peak <= 4 * len(out)


def test_gen_m_zero_is_usage_error():
    assert run_cli(["gen", "--m", "0"]) == 2


def test_gen_non_integer_m_is_usage_error(capsys):
    assert run_cli(["gen", "--m", "abc"]) == 2
    # one line naming the fault, without argparse's usage block
    err = capsys.readouterr().err
    assert err.splitlines() == ["rainbowtrees gen: error: argument --m: 'abc' is not an integer"]


@pytest.mark.parametrize(
    "policy_args, fault",
    [
        (["--policy", "min", "--seed", "5"], "policy 'min' takes no seed, not 5"),
        (["--policy", "random"], "a random policy needs an int seed, not None"),
    ],
    ids=["seed-without-random", "random-without-seed"],
)
def test_build_policy_follows_the_library_rules(tmp_path, capsys, policy_args, fault):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    assert run_cli(["gen", "--m", "3", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), *policy_args]) == 2
    assert capsys.readouterr().err.splitlines() == [f"rainbowtrees build: error: {fault}"]
    assert not forest.exists()


def test_gen_rejects_unknown_scheme():
    assert run_cli(["gen", "--m", "3", "--scheme", "fancy"]) == 2


def test_missing_input_file_is_input_error(tmp_path):
    assert run_cli(["build", "-i", str(tmp_path / "nope.json"), "-o", str(tmp_path / "f.json")]) == 2


def test_malformed_coloring_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli(["build", "-i", str(bad), "-o", str(tmp_path / "f.json")]) == 2
    improper = tmp_path / "improper.json"
    improper.write_text(json.dumps({"n": 5, "edges": []}))
    assert run_cli(["build", "-i", str(improper), "-o", str(tmp_path / "f.json")]) == 2


def test_coloring_edge_count_is_checked_before_the_table(tmp_path, capsys):
    # n = 200000 would need a table of 4e10 cells; the missing edges are found first
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 200000, "edges": []}))
    assert run_cli(["build", "-i", str(huge), "-o", str(tmp_path / "f.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has no color" in err and err.count("\n") == 1


def test_verify_empty_forest_exits_one(tmp_path, capsys):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    run_cli(["gen", "--m", "5", "-o", str(col)])
    forest.write_text(json.dumps({"m": 5, "trees": []}))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_verify_corrupted_forest_exits_one(tmp_path, capsys):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    run_cli(["gen", "--m", "5", "-o", str(col)])
    run_cli(["build", "-i", str(col), "-o", str(forest)])
    doc = json.loads(forest.read_text())
    del doc["trees"][0]["edges"][0]  # deleted edge
    forest.write_text(json.dumps(doc))
    assert run_cli(["verify", "-i", str(col), "-f", str(forest)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_determinism_identical_bytes(tmp_path):
    paths = []
    for tag in ("one", "two"):
        col = tmp_path / f"c-{tag}.json"
        forest = tmp_path / f"f-{tag}.json"
        trace = tmp_path / f"t-{tag}.jsonl"
        assert run_cli(["gen", "--m", "9", "--permute-seed", "17", "-o", str(col)]) == 0
        assert (
            run_cli(
                [
                    "build",
                    "-i",
                    str(col),
                    "-o",
                    str(forest),
                    "--policy",
                    "random",
                    "--seed",
                    "23",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        paths.append((col.read_bytes(), forest.read_bytes(), trace.read_bytes()))
    assert paths[0] == paths[1]


def test_policies_accepted(tmp_path):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "6", "-o", str(col)])
    for policy in ("min", "max"):
        assert run_cli(["build", "-i", str(col), "-o", str(tmp_path / f"{policy}.json"), "--policy", policy]) == 0
    assert (
        run_cli(
            ["build", "-i", str(col), "-o", str(tmp_path / "r.json"), "--policy", "random", "--seed", "3"]
        )
        == 0
    )


def test_oracle_subcommand(tmp_path, capsys, monkeypatch):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "2", "-o", str(col)])
    # both answers come from one enumeration
    enumerations = []
    enumerate_once = oracle._tree_masks

    def counted(coloring):
        enumerations.append(coloring)
        return enumerate_once(coloring)

    monkeypatch.setattr(oracle, "_tree_masks", counted)
    assert run_cli(["oracle", "-i", str(col)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"count": 4, "max_disjoint": 1}
    assert len(enumerations) == 1


def test_oracle_cap_exceeded(tmp_path, capsys):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "5", "-o", str(col)])
    assert run_cli(["oracle", "-i", str(col)]) == 2  # n = 10 exceeds the packing cap
    assert run_cli(["oracle", "-i", str(col), "--cap", "4"]) == 2
    # the packing cap rejects first
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: packing needs n = 10 <= 8 vertices",
        "error: packing needs n = 10 <= 4 vertices",
    ]


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--m-from", "1", "--m-to", "6", "--reps", "2", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,omega,trees_built,build_micros,verify_pass,min_candidate_slack"
    assert len(lines) == 7
    row5 = lines[5].split(",")
    assert row5[0] == "5" and row5[1] == "2" and row5[2] == "2" and row5[4] == "true"
    assert row5[5] != ""
    row1 = lines[1].split(",")
    assert row1[1] == "1" and row1[5] == ""


def test_bench_exits_one_when_a_row_fails_verify(tmp_path, monkeypatch):
    import rainbowtrees.cli as cli_mod

    verify_all = cli_mod.verify_all

    def fail_at_m_5(coloring, forest, trace=None):
        report = verify_all(coloring, forest, trace)
        return dataclasses.replace(report, digest_match=False) if coloring.m == 5 else report

    monkeypatch.setattr(cli_mod, "verify_all", fail_at_m_5)
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--m-from", "4", "--m-to", "6", "--csv", str(out)]) == 1
    # the whole CSV is written before the status says a row failed
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[4]) for row in rows] == [("4", "true"), ("5", "false"), ("6", "true")]


def test_out_of_memory_is_one_line_and_exit_two(tmp_path, monkeypatch, capsys):
    import rainbowtrees.cli as cli_mod

    def exhausted(m):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "round_robin", exhausted)
    out = tmp_path / "big.json"
    assert run_cli(["gen", "--m", "20000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_bench_bad_range(capsys):
    assert run_cli(["bench", "--m-from", "5", "--m-to", "3"]) == 2
    assert capsys.readouterr().err == "rainbowtrees bench: error: --m-to must be at least --m-from\n"


def test_dot_writes_the_forest_as_graphviz_to_stdout_or_a_file(tmp_path, capsysbinary):
    _, forest, _ = _built_trace(tmp_path)
    expected = forest_to_dot(parse_forest(forest.read_bytes())).encode()
    capsysbinary.readouterr()
    assert run_cli(["dot", "-f", str(forest)]) == 0
    assert capsysbinary.readouterr().out == expected
    out = tmp_path / "f.dot"
    assert run_cli(["dot", "-f", str(forest), "-o", str(out)]) == 0
    assert out.read_bytes() == expected
    assert capsysbinary.readouterr().out == b""


def test_internal_invariant_exits_three_and_dumps_trace(tmp_path, monkeypatch, capsys):
    import rainbowtrees.cli as cli_mod
    from rainbowtrees import ConstructionTrace
    from rainbowtrees.errors import EmptyCandidateSet

    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "5", "-o", str(col)])

    def boom(coloring, policy, trace_on):
        exc = EmptyCandidateSet("synthetic failure")
        exc.trace = ConstructionTrace(m=coloring.m)
        raise exc

    monkeypatch.setattr(cli_mod, "build_forest", boom)
    trace_path = tmp_path / "dump.jsonl"
    code = run_cli(
        ["build", "-i", str(col), "-o", str(tmp_path / "f.json"), "--trace", str(trace_path)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert str(trace_path) in err
    assert trace_path.exists()


def test_python_dash_m_entry(tmp_path):
    col = tmp_path / "c.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowtrees", "gen", "--m", "3", "-o", str(col)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(col.read_text())["n"] == 6


def _built_trace(tmp_path):
    col = tmp_path / "c.json"
    forest = tmp_path / "f.json"
    trace = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "5", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), "--trace", str(trace)]) == 0
    return col, forest, trace


def _drop_roots(rec):
    del rec["roots"]


def _string_in_roots(rec):
    rec["roots"][0] = str(rec["roots"][0])


def _drop_pool(rec):
    del rec["pool"]


def _string_pool(rec):
    rec["pool"] = str(rec["pool"])


def _string_k(rec):
    rec["k"] = "2"


def _steps_not_a_list(rec):
    rec["steps"] = rec["steps"][0]


def _step_not_an_object(rec):
    rec["steps"][0] = list(rec["steps"][0].values())


def _list_eliminated(rec):
    rec["steps"][0]["eliminated"] = list(rec["steps"][0]["eliminated"].values())


def _string_chosen(rec):
    rec["steps"][0]["chosen"] = str(rec["steps"][0]["chosen"])


def _broken(rec):
    return "{broken"  # replaces the whole line


def _not_an_object(rec):
    return "[1]"


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_roots,
        _string_in_roots,
        _drop_pool,
        _string_pool,
        _string_k,
        _steps_not_a_list,
        _step_not_an_object,
        _list_eliminated,
        _string_chosen,
        _broken,
        _not_an_object,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_malformed_trace_is_input_error(tmp_path, capsys, corrupt):
    col, forest, trace = _built_trace(tmp_path)
    header, first_round = trace.read_text().splitlines()[:2]
    rec = json.loads(first_round)
    line = corrupt(rec) or json.dumps(rec)
    trace.write_text(header + "\n" + line + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 2") and err.count("\n") == 1


def _drop_header(lines):
    return lines[1:]


def _version_1_header(lines):
    return ['{"m":5,"trace_version":1}'] + lines[1:]


def _other_m_header(lines):
    return ['{"m":6,"trace_version":3}'] + lines[1:]


def _bool_m_header(lines):
    return ['{"m":true,"trace_version":3}'] + lines[1:]


def _list_header(lines):
    return ["[]"] + lines[1:]


def _no_lines(lines):
    return []


@pytest.mark.parametrize(
    "corrupt",
    [_drop_header, _version_1_header, _other_m_header, _bool_m_header, _list_header, _no_lines],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_trace_without_its_v2_header_is_input_error(tmp_path, capsys, corrupt):
    # the test keeps its name from trace version 2; the header it asks for
    # is now {"m": m, "trace_version": 3}
    col, forest, trace = _built_trace(tmp_path)
    lines = corrupt(trace.read_text().splitlines())
    trace.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace ") and err.count("\n") == 1


def test_version_2_trace_is_input_error(tmp_path, capsys):
    col, forest, trace = _built_trace(tmp_path)
    header, *records = trace.read_text().splitlines()
    assert header == '{"m":5,"trace_version":3}'
    trace.write_text("".join(line + "\n" for line in ['{"m":5,"trace_version":2}', *records]))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 1 is not the header") and err.count("\n") == 1


def test_trace_of_another_run_is_verification_failure(tmp_path, capsys):
    col, forest, trace = tmp_path / "c.json", tmp_path / "f.json", tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "30", "--permute-seed", "1", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest)]) == 0
    assert run_cli(["build", "-i", str(col), "--policy", "max", "--trace", str(trace),
                    "-o", str(tmp_path / "other.json")]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and not report["trace_bounds"]["passed"]


@pytest.mark.parametrize(
    "command, document",
    [("build", "coloring"), ("verify", "forest"), ("verify-trace", "trace"), ("dot", "forest")],
    ids=["build", "verify", "verify-trace", "dot"],
)
def test_non_utf8_input_file_is_input_error(tmp_path, capsys, command, document):
    col, forest, _ = _built_trace(tmp_path)
    junk = tmp_path / "junk.json"
    junk.write_bytes(b"\xff\xfe")
    if command == "build":
        argv = ["build", "-i", str(junk), "-o", str(tmp_path / "out.json")]
    elif command == "verify":
        argv = ["verify", "-i", str(col), "-f", str(junk)]
    elif command == "dot":
        argv = ["dot", "-f", str(junk)]
    else:
        argv = ["verify", "-i", str(col), "-f", str(forest), "-t", str(junk)]
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {document} is not UTF-8: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag",
    [("verify", "-i"), ("verify", "-f"), ("verify", "-t"), ("dot", "-f")],
    ids=["-i", "-f", "-t", "dot-f"],
)
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command, flag):
    # json.loads gives up on deep nesting with a RecursionError
    col, forest, trace = _built_trace(tmp_path)
    files = {"-i": col, "-f": forest, "-t": trace}
    files[flag].write_text("[" * 200000)
    if command == "dot":
        argv = ["dot", "-f", str(forest)]
    else:
        argv = ["verify"] + [str(x) for pair in files.items() for x in pair]
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON nests too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, where", [("-i", "coloring"), ("-f", "forest"), ("-t", "trace line 1")]
)
def test_overlong_integer_literal_is_input_error(tmp_path, capsys, flag, where):
    # json.loads refuses an int literal past 4300 digits with a ValueError
    col, forest, trace = _built_trace(tmp_path)
    huge = "9" * 5000
    if flag == "-i":
        col.write_text(f'{{"edges":[],"n":{huge}}}\n')
    elif flag == "-f":
        forest.write_text(forest.read_text().replace('"m":5', f'"m":{huge}'))
    else:
        header, *records = trace.read_text().splitlines()
        lines = [f'{{"m":{huge},"trace_version":3}}', *records]
        trace.write_text("".join(f"{line}\n" for line in lines))
    argv = ["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: integer literal too long") and err.count("\n") == 1


def test_out_of_range_trace_vertex_is_verification_failure(tmp_path, capsys):
    col, forest, trace = _built_trace(tmp_path)
    header, first_round = trace.read_text().splitlines()[:2]
    rec = json.loads(first_round)
    rec["steps"][0]["chosen"] = 10**6
    trace.write_text(header + "\n" + json.dumps(rec) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_round_without_steps_before_the_last_is_verification_failure(tmp_path, capsys):
    # m = 12 has rounds 2 and 3; a step-less round 2 parses but does not replay
    col, forest, trace = tmp_path / "c.json", tmp_path / "f.json", tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "12", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), "--trace", str(trace)]) == 0
    header, round_2, round_3 = trace.read_text().splitlines()
    rec = json.loads(round_2)
    rec["steps"] = []
    trace.write_text("\n".join([header, json.dumps(rec), round_3]) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["trace_bounds"]["failures"] == ["round 2: record holds the wrong number of steps"]


def test_assembly_cycle_exits_three_with_in_flight_step(tmp_path, monkeypatch, capsys):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "5", "-o", str(col)])
    corrupt_assembly_step(monkeypatch, 2, 1, lambda rnd: rnd.w_k)
    dump = tmp_path / "dump.jsonl"
    code = run_cli(["build", "-i", str(col), "-o", str(tmp_path / "f.json"), "--trace", str(dump)])
    assert code == 3
    assert "internal invariant violated" in capsys.readouterr().err
    rnd = json.loads(dump.read_text().splitlines()[-1])
    (in_flight,) = rnd["steps"]
    assert (rnd["k"], rnd["pool"], in_flight["i"]) == (2, 9, 1)
    assert set(in_flight["eliminated"]) == {f"R{j}" for j in range(2, 12)}
    # round 2 enters with the star's leaves, every vertex but the first root
    eliminated = set().union(*in_flight["eliminated"].values())
    pool = set(range(10)) - {rnd["roots"][0], rnd["r_k"], rnd["w_k"]}
    assert in_flight["chosen"] in pool - eliminated
    assert in_flight["w_prime"] == -1 and rnd["w_k_prime"] == -1


@pytest.mark.parametrize(
    "fault, last_k",
    [
        # round 3 finds one common leaf: the dump ends with round 3, which has no steps
        (lambda mp: starve_leaf_pool(mp, 3, keep=1), 3),
        # tree 3 repeats the first root: the dump ends with the whole of round 3
        (lambda mp: duplicate_root(mp, 3), 3),
        # the bookkeeping faults surface when round 2 closes, after its last step
        (lambda mp: misreport_root_leaves(mp, 2), 2),
        (lambda mp: forget_common_leaf(mp, 2), 2),
        # a vertex no exchange touched surfaces in the recount after the last round
        (lambda mp: misreport_untouched_vertex(mp, 3), 3),
    ],
    ids=[
        "leaf-set-exhausted",
        "f-validation-failed",
        "root-leaf-bookkeeping",
        "common-leaf-update",
        "untouched-vertex",
    ],
)
def test_invariant_faults_exit_three_with_a_v3_dump(tmp_path, monkeypatch, capsys, fault, last_k):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "12", "-o", str(col)])
    fault(monkeypatch)
    dump = tmp_path / "dump.jsonl"
    code = run_cli(["build", "-i", str(col), "-o", str(tmp_path / "f.json"), "--trace", str(dump)])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert err.endswith(f"trace dumped to {dump}\n")
    lines = dump.read_text().splitlines()
    assert lines[0] == '{"m":12,"trace_version":3}'
    assert [json.loads(line)["k"] for line in lines[1:]] == list(range(2, last_k + 1))
    # the dump is the trace the exception carries, and it survives the roundtrip
    with pytest.raises((SwapError, InternalInvariantError)) as info:
        build_forest(round_robin(12))
    trace = info.value.trace
    assert trace_to_jsonl(trace) == dump.read_bytes()
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


_FULL_K4 = [[0, 1, 0], [0, 2, 1], [0, 3, 2], [1, 2, 2], [1, 3, 1]]


@pytest.mark.parametrize(
    "flag, doc, message",
    [
        ("-f", [], "document root must be an object"),
        ("-f", {"m": 0, "trees": []}, '"m" must be a positive integer'),
        ("-f", {"m": 5, "trees": {}}, '"trees" must be a list'),
        ("-f", {"m": 5, "trees": [], "coloring_digest": 5},
         '"coloring_digest" must be a string when present'),
        ("-f", {"m": 5, "trees": [[]]}, "tree 0 is not an object"),
        ("-f", {"m": 5, "trees": [{"root": 10, "edges": []}]},
         "tree 0 root must be a vertex in [0, 9]"),
        ("-f", {"m": 5, "trees": [{"root": 0, "edges": {}}]}, 'tree 0 "edges" must be a list'),
        ("-f", {"m": 5, "trees": [{"root": 0, "edges": [[0, 1]]}]},
         "tree 0 edge [0, 1] is not an integer triple"),
        ("-f", {"m": 5, "trees": [{"root": 0, "edges": [[0, 10, 0]]}]},
         "tree 0 edge (0,10) is not a vertex pair"),
        ("-i", [], "document root must be an object"),
        ("-i", {"n": 4, "edges": {}}, '"edges" must be a list'),
        # as many entries as K_4 has pairs, one of them not a list
        ("-i", {"n": 4, "edges": _FULL_K4 + [5]},
         "edge entry 5 is not an integer triple [u, v, c]"),
    ],
    ids=[
        "forest-root-not-object",
        "forest-m-zero",
        "forest-trees-not-list",
        "forest-digest-not-string",
        "forest-tree-not-object",
        "forest-root-out-of-range",
        "forest-edges-not-list",
        "forest-edge-not-triple",
        "forest-edge-out-of-range",
        "coloring-root-not-object",
        "coloring-edges-not-list",
        "coloring-entry-not-list",
    ],
)
def test_malformed_document_shape_is_input_error(tmp_path, capsys, flag, doc, message):
    col, forest = tmp_path / "c.json", tmp_path / "f.json"
    assert run_cli(["gen", "--m", "5", "-o", str(col)]) == 0
    forest.write_text(json.dumps({"m": 5, "trees": []}))
    (col if flag == "-i" else forest).write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    if flag == "-f":
        assert run_cli(["dot", "-f", str(forest)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_blank_trace_lines_are_skipped(tmp_path, capsys):
    col, forest, trace = tmp_path / "c.json", tmp_path / "f.json", tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "12", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), "--trace", str(trace)]) == 0
    header, round_2, round_3 = trace.read_text().splitlines()
    trace.write_text("\n".join([header, round_2, "", "  ", round_3]) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_trace_lines_end_only_at_newlines(tmp_path, capsys):
    # a JSON string may hold U+0085, U+2028 and U+2029 raw, and str.splitlines
    # would break the line there; only \n, \r\n and \r end a trace line
    col, forest, trace = tmp_path / "c.json", tmp_path / "f.json", tmp_path / "t.jsonl"
    assert run_cli(["gen", "--m", "12", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest), "--trace", str(trace)]) == 0
    header, round_2, round_3 = trace.read_text().splitlines()
    rec = json.loads(round_2)
    rec["steps"][0]["eliminated"]["note\u2028\u0085\u2029"] = []
    round_2 = json.dumps(rec, ensure_ascii=False)
    assert "\u2028" in round_2
    trace.write_bytes(f"{header}\n{round_2}\r\n{round_3}\r".encode())
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    trace.write_bytes(f"{header}\n{round_2}\r\n{{broken\r{round_3}\n".encode())
    assert run_cli(["verify", "-i", str(col), "-f", str(forest), "-t", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 3: malformed JSON") and err.count("\n") == 1


def test_internal_invariant_without_trace_flag_dumps_to_a_temporary_file(
    tmp_path, monkeypatch, capsys
):
    col = tmp_path / "c.json"
    run_cli(["gen", "--m", "12", "-o", str(col)])
    misreport_root_leaves(monkeypatch, 2)
    capsys.readouterr()
    assert run_cli(["build", "-i", str(col), "-o", str(tmp_path / "f.json")]) == 3
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("internal invariant violated: round 2: root-leaf bookkeeping")
    assert second.startswith("trace dumped to ")
    dump = pathlib.Path(second.removeprefix("trace dumped to "))
    try:
        trace = trace_from_jsonl(dump.read_bytes(), m=12)
    finally:
        dump.unlink()
    assert [rnd.k for rnd in trace.rounds] == [2]
    assert not (tmp_path / "f.json").exists()


def _repeat_first_edge(doc):
    doc["trees"][0]["edges"].append(doc["trees"][0]["edges"][0])
    u, v, _ = doc["trees"][0]["edges"][0]
    return f"edge ({u}, {v}) appears twice"


def _color_99(doc):
    doc["trees"][0]["edges"][0][2] = 99
    u, v, _ = doc["trees"][0]["edges"][0]
    return f"edge ({u}, {v}) carries out-of-range color 99"


@pytest.mark.parametrize("corrupt", [_repeat_first_edge, _color_99], ids=["repeat", "color-99"])
def test_hand_edited_tree_is_verification_failure(tmp_path, capsys, corrupt):
    col, forest = tmp_path / "c.json", tmp_path / "f.json"
    assert run_cli(["gen", "--m", "5", "-o", str(col)]) == 0
    assert run_cli(["build", "-i", str(col), "-o", str(forest)]) == 0
    doc = json.loads(forest.read_text())
    message = corrupt(doc)
    forest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col), "-f", str(forest)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert message in report["trees"][0]["failures"]
    assert report["trees"][1]["passed"] and report["verdict"] == "fail"


def test_forest_for_a_larger_m_is_verification_failure(tmp_path, capsys):
    # an m = 6 forest names vertices 10 and 11, which an m = 5 coloring lacks
    col5, col6, forest = tmp_path / "c5.json", tmp_path / "c6.json", tmp_path / "f.json"
    assert run_cli(["gen", "--m", "5", "-o", str(col5)]) == 0
    assert run_cli(["gen", "--m", "6", "-o", str(col6)]) == 0
    assert run_cli(["build", "-i", str(col6), "-o", str(forest)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(col5), "-f", str(forest)]) == 1
    report = json.loads(capsys.readouterr().out)
    failures = [f for tree in report["trees"] for f in tree["failures"]]
    assert any(f.endswith(",11) is not a valid vertex pair") for f in failures)
    assert report["digest_match"] is False and report["verdict"] == "fail"


def _valid_documents():
    coloring = permuted_round_robin(5, 1)
    forest, trace = build_forest(coloring)
    return {
        "coloring": serialize_coloring(coloring),
        "forest": forest_to_json(forest),
        "trace": trace_to_jsonl(trace),
        # the oracle's packing search refuses n = 10
        "small_coloring": serialize_coloring(permuted_round_robin(4, 3)),
    }


VALID_DOCUMENTS = _valid_documents()
# the documents each command reads, and so may find edited
READS = {
    "build": ["coloring"],
    "verify": ["coloring", "forest", "trace"],
    "dot": ["forest"],
    "oracle": ["small_coloring"],
}
BYTE_EDITS = ("truncate", "overwrite", "delete_span", "digit")


def _byte_edit(doc, kind, draw):
    if kind == "digit":
        at = draw(st.sampled_from([i for i, b in enumerate(doc) if b in b"0123456789"]), label="at")
        other = draw(st.sampled_from(b"0123456789".replace(doc[at : at + 1], b"")), label="digit")
        return doc[:at] + bytes([other]) + doc[at + 1 :]
    at = draw(st.integers(0, len(doc) - 1), label="at")
    if kind == "truncate":
        return doc[:at]
    if kind == "overwrite":
        return doc[:at] + bytes([draw(st.integers(0, 255), label="byte")]) + doc[at + 1 :]
    return doc[:at] + doc[at + draw(st.integers(1, 40), label="span") :]  # delete_span


def _json_edit(doc, draw):
    lines = doc.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1), label="line")
    value = json.loads(lines[at])
    # walk down from the root, so the shallow values that shape checks read
    # are edited about as often as the many edge entries below them
    container = value
    while True:
        keys = list(container) if isinstance(container, dict) else range(len(container))
        key = draw(st.sampled_from(keys), label="key")
        child = container[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.booleans(), label="deeper")):
            break
        container = child
    new = draw(
        st.sampled_from(["drop", None, True, False, 1.5, "x", str(child), [], [child], 2**70]),
        label="value",
    )
    if new == "drop":  # a key, or a list entry
        del container[key]
    else:
        container[key] = new
    lines[at] = (json.dumps(value) + "\n").encode()
    return b"".join(lines)


@settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(sorted(READS)),
    edit=st.sampled_from(BYTE_EDITS + ("json",)),
    data=st.data(),
)
def test_edited_documents_exit_0_1_or_2_with_one_line_errors(tmp_path, capsys, command, edit, data):
    # one byte edit or one JSON edit of one document a command reads: the
    # command ends with a status, never an exception, and a refused input is
    # one line on stderr; the oracle verifies nothing, so it never exits 1
    docs = dict(VALID_DOCUMENTS)
    name = data.draw(st.sampled_from(READS[command]), label="document")
    if edit == "json":
        docs[name] = _json_edit(docs[name], data.draw)
    else:
        docs[name] = _byte_edit(docs[name], edit, data.draw)
    paths = {}
    for doc_name, doc in docs.items():
        paths[doc_name] = tmp_path / doc_name
        paths[doc_name].write_bytes(doc)
    argv = {
        "build": ["build", "-i", str(paths["coloring"]), "-o", str(tmp_path / "out.json")],
        "verify": ["verify", "-i", str(paths["coloring"]), "-f", str(paths["forest"]),
                   "-t", str(paths["trace"])],
        "dot": ["dot", "-f", str(paths["forest"])],
        "oracle": ["oracle", "-i", str(paths["small_coloring"])],
    }[command]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in ((0, 2) if command == "oracle" else (0, 1, 2))
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
