import io
import json

import pytest

from forceps import _core, to_graph6
from forceps._core import _pykernel
from forceps.cli import main
from forceps.families import cycle, path

from corpus import atlas_graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_number_text(capsys):
    code, out, _ = run(capsys, "number", "--family", "path:5", "--ell", "1")
    assert code == 0 and out == "2 witness=[0,4]\n"


def test_number_jsonl(capsys):
    code, out, _ = run(capsys, "number", "--family", "path:5", "--ell", "1",
                       "--format", "jsonl")
    assert code == 0
    assert json.loads(out) == {
        "value": 2, "witness": [0, 4], "forced_core": [0, 4],
        "ell": 1, "rule": "psd",
    }


def test_check_clamps_budget(capsys):
    code, out, _ = run(capsys, "check", "--graph6", "A_", "--blue", "0,1", "--ell", "5")
    assert code == 0 and out == "true\n"


def test_budget_past_a_machine_word_is_clamped(capsys, monkeypatch):
    # any int budget reads as the order, with the same lines on either twin
    huge = "99999999999999999999999"
    for kernel in (_pykernel, _core.kernel):
        for name in ("components", "first_failing_leaks", "minimal_fort_masks"):
            monkeypatch.setattr(_core, name, getattr(kernel, name))
        code, out, _ = run(capsys, "check", "--family", "path:3", "--blue", "0", "--ell", huge)
        assert code == 0 and out == "false witness_leaks=[0,1,2]\n"
        code, out, _ = run(capsys, "forts", "--family", "path:3", "--ell", huge)
        assert code == 0 and out.splitlines() == [f"[{v}] ell={huge} connected=true" for v in range(3)]


def test_check_reports_witness(capsys):
    code, out, _ = run(capsys, "check", "--family", "path:3", "--blue", "0,1", "--ell", "1")
    assert code == 0 and out == "false witness_leaks=[1]\n"


def test_closure_trace(capsys):
    code, out, _ = run(capsys, "closure", "--family", "path:5", "--blue", "0")
    assert code == 0
    assert out.splitlines() == [
        "1 0->1", "2 1->2", "3 2->3", "4 3->4", "blue=[0,1,2,3,4] forced=true",
    ]


def test_forces_listing(capsys):
    code, out, _ = run(capsys, "forces", "--family", "path:3", "--blue", "0,2")
    assert code == 0 and out.splitlines() == ["0->1", "2->1"]


def test_forts_jsonl(capsys):
    code, out, _ = run(capsys, "forts", "--family", "path:3", "--ell", "1",
                       "--format", "jsonl")
    assert code == 0
    assert [json.loads(l) for l in out.splitlines()] == [
        {"vertices": [0], "ell": 1, "connected": True},
        {"vertices": [2], "ell": 1, "connected": True},
    ]


def test_hitting_matches_number(capsys):
    code, out, _ = run(capsys, "hitting", "--family", "path:3", "--ell", "1")
    assert code == 0 and out == "2 witness=[0,2] number=2 match=true\n"


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--family", "cycle:5", "--max-ell", "2")
    assert code == 0 and "values=[2, 2, 5]" in out
    # above 62 vertices graph6 has no short form; the audit does not need one
    code, out, _ = run(capsys, "audit", "--family", "path:64", "--max-ell", "1")
    assert code == 0 and "values=[1, 2]" in out
    code, out, _ = run(capsys, "audit", "--family", "cycle:63", "--max-ell", "1")
    assert code == 0 and "values=[2, 2]" in out


def test_jsonl_for_remaining_commands(capsys):
    code, out, _ = run(capsys, "check", "--family", "path:3", "--blue", "0,1",
                       "--ell", "1", "--format", "jsonl")
    assert code == 0 and json.loads(out) == {"ok": False, "witness_leaks": [1]}

    code, out, _ = run(capsys, "closure", "--family", "path:3", "--blue", "1",
                       "--format", "jsonl")
    assert code == 0
    assert json.loads(out) == {
        "chronology": [[1, 1, 0], [1, 1, 2]], "blue": [0, 1, 2], "forced": True,
    }

    code, out, _ = run(capsys, "forces", "--family", "path:3", "--blue", "0,2",
                       "--format", "jsonl")
    assert code == 0 and json.loads(out) == {"forces": [[0, 1], [2, 1]]}

    code, out, _ = run(capsys, "audit", "--family", "path:4", "--max-ell", "2",
                       "--format", "jsonl")
    assert code == 0 and json.loads(out) == {"values": [1, 2, 4], "max_ell": 2}

    code, out, _ = run(capsys, "hitting", "--family", "path:3", "--ell", "1",
                       "--format", "jsonl")
    assert code == 0 and json.loads(out) == {
        "hitting": 2, "witness": [0, 2], "number": 2, "match": True,
    }


def test_scan_edges_stream(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("\n".join(to_graph6(g) for g in [path(3), cycle(3)]) + "\n")
    code, out, err = run(capsys, "scan-edges", str(stream), "--ell", "1",
                         "--format", "jsonl")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()]
    assert len(recs) == 5
    assert recs[0]["graph6"] == to_graph6(path(3))
    assert {r["diff"] for r in recs} <= {-1, 0, 1}
    assert "records=5" in err


def test_scan_skips_malformed_lines(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("A_\n~~~bogus\nBw\n")
    code, out, err = run(capsys, "scan-edges", str(stream), "--ell", "1")
    assert code == 0
    assert err.splitlines()[0].startswith("skipping malformed graph6 at line 2: ")
    assert len(out.splitlines()) == 1 + 3  # K2 has one edge, K3 has three


def test_scan_byte_identical_across_worker_counts(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    graphs = [g for g in atlas_graphs(5) if g.n == 5][:24]
    stream.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
    _, out1, _ = run(capsys, "scan-edges", str(stream), "--ell", "1", "--workers", "1")
    _, out2, _ = run(capsys, "scan-edges", str(stream), "--ell", "1", "--workers", "2")
    assert out1 == out2


@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_workers_below_one_is_exit_one(capsys, count):
    code, out, err = run(capsys, "number", "--family", "path:5", "--ell", "1", "--workers", count)
    assert code == 1 and out == ""
    assert err.endswith(f"error: argument --workers: expected an integer >= 1, got '{count}'\n")


@pytest.mark.parametrize("argv, takes_workers", [
    (["number", "--family", "path:5", "--ell", "1"], True),
    (["hitting", "--family", "path:5", "--ell", "1"], True),
    (["families", "--family", "path:5"], True),
    (["check", "--family", "path:5", "--blue", "0", "--ell", "1"], False),
    (["closure", "--family", "path:5", "--blue", "0"], False),
    (["forces", "--family", "path:5", "--blue", "0"], False),
    (["forts", "--family", "path:5", "--ell", "1"], False),
    (["audit", "--family", "path:5"], False),
])
def test_workers_only_where_read(capsys, argv, takes_workers):
    # a command that never runs a pool rejects the flag as a usage error
    code, _, err = run(capsys, *argv, "--workers", "2")
    if takes_workers:
        assert code == 0
    else:
        assert code == 1 and "unrecognized arguments: --workers 2" in err


def test_scan_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    code, out, err = run(capsys, "scan-edges", "--ell", "1")
    assert code == 0
    assert len(out.splitlines()) == 1 and "records=1" in err


def test_families_paper_suite_exits_zero_iff_all_match(capsys):
    code, out, err = run(capsys, "families", "--paper-suite", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert all(r["match"] for r in rows)
    assert [r["ell"] for r in rows if r["family"] == "hypercube:4"] == [0, 1, 2, 3]
    assert "mismatches=0" in err


@pytest.mark.parametrize("argv, err_part", [
    (["--paper-suite", "--family", "path:3"], "not allowed with argument"),
    ([], "one of the arguments --paper-suite --family is required"),
    (["--family", "path:3", "--extended"], "unrecognized arguments: --extended"),
])
def test_families_takes_the_suite_or_families(capsys, argv, err_part):
    code, out, err = run(capsys, "families", *argv)
    assert code == 1 and out == "" and err_part in err


def test_families_custom_rows(capsys):
    code, out, _ = run(capsys, "families", "--family", "wheel:6",
                       "--ells", "0,2", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows == [
        {"family": "wheel:6", "ell": 0, "computed": 3, "expected": 3, "match": True},
        {"family": "wheel:6", "ell": 2, "computed": 4, "expected": 4, "match": True},
    ]


def test_number_standard_rule(capsys):
    # paths: standard rule needs one endpoint leak-free, psd needs any vertex
    code, out, _ = run(capsys, "number", "--family", "path:5", "--ell", "0",
                       "--rule", "standard")
    assert code == 0 and out == "1 witness=[0]\n"


def test_graph6_file_source(tmp_path, capsys):
    src = tmp_path / "one.g6"
    src.write_text(to_graph6(cycle(5)) + "\n")
    code, out, _ = run(capsys, "number", "--graph6-file", str(src), "--ell", "1")
    assert code == 0 and out == "2 witness=[0,1]\n"


def test_graph6_file_of_blank_lines_is_exit_one(tmp_path, capsys):
    src = tmp_path / "blank.g6"
    src.write_text("\n   \n\n")
    code, out, err = run(capsys, "number", "--graph6-file", str(src), "--ell", "1")
    assert code == 1 and out == "" and err == f"error: no graph6 line found in {src}\n"


def test_scan_skips_blank_lines(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("\nA_\n  \n\nBw\n\n")
    code, out, err = run(capsys, "scan-edges", str(stream), "--ell", "1")
    assert code == 0 and "skipping" not in err
    assert len(out.splitlines()) == 1 + 3 and "records=4" in err


def test_empty_blue_list_is_the_empty_set(capsys):
    code, out, _ = run(capsys, "closure", "--family", "path:3", "--blue", "")
    assert code == 0 and out == "blue=[] forced=false\n"


def test_family_with_an_empty_field_is_exit_one(capsys):
    code, out, err = run(capsys, "number", "--family", "grid:4::4", "--ell", "1")
    assert code == 1 and out == "" and err.startswith("error: bad family parameters in 'grid:4::4'")


@pytest.mark.parametrize("text", ["path:1_0", "path:+3", "grid:4:04"])
def test_family_with_a_non_decimal_field_is_exit_one(capsys, text):
    code, out, err = run(capsys, "number", "--family", text, "--ell", "1")
    assert code == 1 and out == "" and err.startswith(f"error: bad family parameters in {text!r}")


def test_oversized_family_is_exit_one(capsys):
    code, out, err = run(capsys, "number", "--family", "complete_bipartite:30000:30000",
                         "--ell", "1")
    assert code == 1 and out == "" and err == "error: vertex count 60000 outside [0, 64]\n"


def test_forts_text_output(capsys):
    code, out, _ = run(capsys, "forts", "--family", "cycle:4", "--ell", "0")
    assert code == 0
    assert out.splitlines() == [
        "[0,1,2] ell=0 connected=true",
        "[0,1,3] ell=0 connected=true",
        "[0,2,3] ell=0 connected=true",
        "[1,2,3] ell=0 connected=true",
    ]


def test_empty_graph_number(capsys):
    code, out, _ = run(capsys, "number", "--graph6", "?", "--ell", "0")
    assert code == 0 and out == "0 witness=[]\n"


def test_usage_error_is_exit_one(capsys):
    assert run(capsys, "number", "--family", "path:5")[0] == 1  # missing --ell
    assert run(capsys, "number", "--ell", "1")[0] == 1  # missing source
    code, out, err = run(capsys, "check", "--family", "path:3", "--blue", "0,x", "--ell", "1")
    assert code == 1 and out == ""
    assert err.endswith("error: argument --blue: expected comma-separated integers, got '0,x'\n")


def test_operational_error_is_exit_one(capsys):
    code, _, err = run(capsys, "number", "--graph6", "~oops", "--ell", "0")
    assert code == 1 and "error:" in err


def test_guard_error_is_exit_one(capsys):
    code, _, err = run(capsys, "forts", "--family", "grid:5:5", "--ell", "0")
    assert code == 1 and "guard" in err


def test_audit_failure_is_exit_two(capsys, monkeypatch):
    import forceps.cli as cli_mod
    from forceps import AuditFailure

    def broken_audit(g, max_ell):
        raise AuditFailure("forced failure", {"kind": "rule-dominance", "ell": 0})

    monkeypatch.setattr(cli_mod, "monotonicity_audit", broken_audit)
    code, _, err = run(capsys, "audit", "--family", "path:3")
    assert code == 2 and '"kind": "rule-dominance"' in err


def test_large_graph_finding_names_its_edges(capsys, monkeypatch):
    from types import SimpleNamespace

    def decreasing(g, ell, rule):
        return SimpleNamespace(value=2 - ell if rule.value == "psd" else 5)

    monkeypatch.setattr("forceps.solve.leaky_number", decreasing)
    code, _, err = run(capsys, "audit", "--family", "path:64", "--max-ell", "1")
    assert code == 2
    assert json.loads(err.split("finding: ", 1)[1]) == {
        "kind": "leak-monotonicity", "n": 64,
        "edges": [[v, v + 1] for v in range(63)], "values": [2, 1],
    }


def test_hitting_mismatch_is_exit_two(capsys, monkeypatch):
    import forceps.cli as cli_mod

    real = cli_mod.leaky_number

    def inflated(g, ell, rule, workers=1):
        res = real(g, ell, rule, workers=workers)
        return type(res)(res.value + 1, res.witness, res.forced_core,
                         res.rule, res.ell, res.stats)

    monkeypatch.setattr(cli_mod, "leaky_number", inflated)
    code, out, err = run(capsys, "hitting", "--family", "path:3", "--ell", "1")
    assert code == 2 and "match=false" in out
    finding = json.loads(err.split("finding: ", 1)[1])
    assert finding["kind"] == "fort-hitting-mismatch" and finding["graph6"] == "Bg"


def test_scan_window_violation_is_exit_two(capsys, monkeypatch):
    import forceps.cli as cli_mod
    from forceps.solve import ScanRecord

    def widened(graphs, ell, workers):
        for g in graphs:
            yield ScanRecord(g, (0, 1), 3, 1)

    monkeypatch.setattr(cli_mod, "edge_deletion_scan", widened)
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    code, out, err = run(capsys, "scan-edges", "--ell", "1")
    assert code == 2 and out == "A_ edge=(0,1) value=3 deleted=1 diff=2\n"
    assert err.splitlines() == [
        "records=1 min_diff=2 max_diff=2",
        "deletions that raised the value by 1: 0",
        'finding: {"kind": "edge-deletion-window", "min_diff": 2, "max_diff": 2}',
    ]


def test_families_mismatch_is_exit_two(capsys, monkeypatch):
    import forceps.cli as cli_mod
    from forceps.solve import FamilyRow

    def table(specs, ells, workers=1):
        return [FamilyRow("path:3", 0, 1, 1), FamilyRow("path:3", 1, 3, 2)]

    monkeypatch.setattr(cli_mod, "family_table", table)
    code, out, err = run(capsys, "families", "--family", "path:3", "--format", "jsonl")
    assert code == 2
    assert [json.loads(l)["match"] for l in out.splitlines()] == [True, False]
    assert err.splitlines() == [
        'finding: {"kind": "family-value-mismatch", "family": "path:3", "ell": 1, '
        '"computed": 3, "expected": 2}',
        "rows=2 mismatches=1",
    ]
