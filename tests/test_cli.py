import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pnlab import corpus
from pnlab.cli import main
from pnlab.net import parse_net, print_net


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "ladder3.pnet"
    code, _, _ = run_cli(capsys, "gen", "dr-ladder", "3", "--out", str(path))
    assert code == 0
    net = parse_net(path.read_text())
    assert net.size() == 6

    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0 and "ok" in out


def test_check_rejects_invalid_net(tmp_path, capsys):
    path = tmp_path / "bad.pnet"
    good = print_net(parse_net(
        "pnet 1\nsystem MELL\nvertex v1 prem\nvertex v2 concl\n"
        "edge e1 v1 edge v2 edge a\nend\n"))
    path.write_text(good.replace("edge a", "fun a").replace("v2 fun", "v2 fun"))
    bad = good.replace("vertex v2 concl", "vertex v2 llolli")
    path.write_text(bad)
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1


def test_check_system_gate(tmp_path, capsys):
    path = tmp_path / "copy.pnet"
    code, _, _ = run_cli(capsys, "gen", "copy-example", "--out", str(path))
    assert code == 0
    code, _, _ = run_cli(capsys, "check", str(path), "--system", "ELL")
    assert code == 1
    code, _, _ = run_cli(capsys, "check", str(path), "--system", "MELL")
    assert code == 0


def test_normalize_report(tmp_path, capsys):
    path = tmp_path / "ladder5.pnet"
    run_cli(capsys, "gen", "dr-ladder", "5", "--out", str(path))
    code, out, _ = run_cli(capsys, "normalize", str(path), "--strategy", "arrow")
    assert code == 0
    report = json.loads(out)
    assert report["normalize"]["steps"] == 4
    assert report["normalize"]["status"] == "normal"
    assert report["report_version"] == 1
    assert "timing" not in report


def test_normalize_exponential_count(tmp_path, capsys):
    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    code, out, _ = run_cli(capsys, "normalize", str(path), "--strategy", "triangle")
    report = json.loads(out)
    assert report["normalize"]["exponential_steps"] == 1  # the contraction
    assert report["normalize"]["final_size"] == 8


def test_normalize_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "ladder5.pnet"
    run_cli(capsys, "gen", "dr-ladder", "5", "--out", str(path))
    code, _, _ = run_cli(capsys, "normalize", str(path), "--budget", "1")
    assert code == 2


def test_normalize_reaching_normal_form_at_the_budget_is_normal(tmp_path, capsys):
    """dr-ladder 5 normalizes in exactly 4 arrow steps."""
    path = tmp_path / "ladder5.pnet"
    run_cli(capsys, "gen", "dr-ladder", "5", "--out", str(path))
    for budget, code_want, status in (("4", 0, "normal"), ("3", 2, "budget")):
        code, out, _ = run_cli(capsys, "normalize", str(path),
                               "--strategy", "arrow", "--budget", budget)
        report = json.loads(out)["normalize"]
        assert (code, report["status"]) == (code_want, status)
        assert report["steps"] == int(budget)


@pytest.mark.parametrize("formula", ["!" * 3000 + "a",
                                     "(" * 3000 + "a" + ")" * 3000])
def test_deeply_nested_formulas_are_read(tmp_path, capsys, formula):
    path = tmp_path / "deep.pnet"
    path.write_text("pnet 1\nvertex v1 prem\nvertex v2 concl\n"
                    f"edge e1 v1 edge v2 edge {formula}\nend\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (0, "check: ok\n", "")


def test_deeply_nested_formulas_are_written(tmp_path, capsys):
    deep = "!" * 3000 + "a"
    path, out_path = tmp_path / "deep.pnet", tmp_path / "out.pnet"
    path.write_text("pnet 1\nvertex v1 prem\nvertex v2 concl\n"
                    f"edge e1 v1 edge v2 edge {deep}\nend\n")
    code, out, err = run_cli(capsys, "normalize", str(path),
                             "--out", str(out_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["normalize"]["status"] == "normal"
    written = out_path.read_text()
    assert f"edge e1 v1 edge v2 edge {deep}\n" in written
    # texts, not nets: the generated == of a formula still recurses
    assert print_net(parse_net(written)) == written
    code, out, err = run_cli(capsys, "check", str(out_path))
    assert (code, out, err) == (0, "check: ok\n", "")


def test_machine_trace_golden(tmp_path, capsys):
    path = tmp_path / "ladder1.pnet"
    run_cli(capsys, "gen", "dr-ladder", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "machine", str(path),
                           "--start", "concl / eps / a / -")
    assert code == 0
    assert out.splitlines() == [
        "1 (e1, [], eps, +)",
        "2 (e2, [], o, +)",
        "outcome final after 2 step(s) at (e2, [], o, +)",
    ]


def test_machine_determinism(tmp_path, capsys):
    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    _, out1, _ = run_cli(capsys, "weight", str(path))
    _, out2, _ = run_cli(capsys, "weight", str(path))
    assert out1 == out2


def test_weight_report(tmp_path, capsys):
    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    code, out, _ = run_cli(capsys, "weight", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["weight"]["weight"] == 1
    [entry] = report["weight"]["boxes"].values()
    assert entry["sequences"][0]["copies"] == ["l(e)", "r(e)"]

    code, out, _ = run_cli(capsys, "weight", str(path), "--no-jumps")
    assert json.loads(out)["weight"]["weight"] == 1  # no jump needed here


def test_verify_subcommand(tmp_path, capsys):
    path = tmp_path / "ladder2.pnet"
    run_cli(capsys, "gen", "dr-ladder", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "verify", str(path), "--system", "MELL")
    assert code == 0
    report = json.loads(out)
    assert report["soundness"]["ok"] is True


def test_lambda_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lambda", "\\x:t. x")
    assert code == 0
    net = parse_net(out)
    assert net.size() == 3

    code, out, _ = run_cli(
        capsys, "lambda", "(\\x:t. y x x) z",
        "--sig", "y:t -> t -> u", "--sig", "z:t")
    assert code == 0
    assert parse_net(out).size() == 21


def test_lambda_needs_signature(capsys):
    code, _, err = run_cli(capsys, "lambda", "y")
    assert code == 3 and "error" in err


def test_lambda_rejects_stray_type_characters(capsys):
    code, _, err = run_cli(capsys, "lambda", "z", "--sig", "z:t $")
    assert code == 3 and "error" in err


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    code, out, _ = run_cli(capsys, "export-dot", str(path))
    assert code == 0
    assert out.startswith("digraph")
    assert "cluster_" in out  # the box renders as a cluster
    assert "color=red" in out  # the cut edge is highlighted


def test_export_dot_axiom(tmp_path, capsys):
    path = tmp_path / "ax.pnet"
    path.write_text("pnet 1\nsystem MELL\nvertex v1 prem\nvertex v2 concl\n"
                    "edge e1 v1 edge v2 edge a\nend\n")
    code, out, _ = run_cli(capsys, "export-dot", str(path))
    assert code == 0
    assert out.count("->") == 1
    assert out.count('[label="P"]') == 1 and out.count('[label="C"]') == 1


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.pnet"
    path.write_text("(rlolli\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3 and "error" in err


def test_bad_multiplexer_arity_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "mux.pnet"
    path.write_text("pnet 1\nvertex v1 mux x\nend\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3 and "bad multiplexer arity" in err


def test_box_without_principal_vertex_fails_validation(tmp_path, capsys):
    path = tmp_path / "box.pnet"
    path.write_text("pnet 1\nbox v1 - -\nend\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1 and "principal vertex missing" in err


def test_box_listing_an_unknown_vertex_fails_validation(tmp_path, capsys):
    path = tmp_path / "box.pnet"
    path.write_text("pnet 1\nvertex v1 rbang\nvertex v2 concl\n"
                    "edge e1 v1 principal v2 edge !a\nbox v1 - v9\nend\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1 and "unknown content vertex v9" in err


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "pnlab", "gen", "dr-ladder", "2"],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert parse_net(out.stdout).size() == 4
    importlib.import_module("pnlab.__main__")  # importing it runs nothing


def test_machine_validates_its_input(tmp_path, capsys):
    path = tmp_path / "bad.pnet"
    path.write_text("pnet 1\nvertex v1 concl\nvertex v2 rlolli\n"
                    "edge e1 v2 concl v1 edge a\nend\n")
    code, out, err = run_cli(capsys, "machine", str(path),
                             "--start", "e1 / eps / a / -")
    assert code == 1 and err and not out


@pytest.mark.parametrize("start", ["e1 / eps / q / -", "e1 / eps / m(x) / -",
                                   "e1 / eps / l / -", "e1 / eps / n(e / -",
                                   "e1 / l( / a / -"])
def test_machine_rejects_a_malformed_signature(tmp_path, capsys, start):
    path = tmp_path / "ladder3.pnet"
    run_cli(capsys, "gen", "dr-ladder", "3", "--out", str(path))
    code, out, err = run_cli(capsys, "machine", str(path), "--start", start)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("port", ["split9", "splitx"])
def test_an_edge_at_a_port_the_mux_lacks_fails_validation(tmp_path, capsys, port):
    """The multiplexer v6 of the SLL fixture has arity 3."""
    path = tmp_path / "mux.pnet"
    path.write_text(print_net(corpus.sll_fixture()).replace(
        "end\n", f"vertex v10 weak\nedge e12 v6 {port} v10 edge !a\nend\n"))
    for cmd, *flags in (("check",), ("weight",), ("verify", "--system", "SLL")):
        code, _, err = run_cli(capsys, cmd, str(path), *flags)
        assert code == 1 and f"has no port {port}" in err, cmd


def test_a_vertex_with_an_unknown_label_fails_validation(tmp_path, capsys):
    path = tmp_path / "bogus.pnet"
    path.write_text("pnet 1\nvertex v1 bogus\nvertex v2 concl\n"
                    "edge e1 v1 out v2 edge a\nend\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (1, "check: 1 problem(s)\n",
                                "vertex v1: unknown label bogus\n")


def test_proof_term_input_accepted(tmp_path, capsys):
    path = tmp_path / "term.sexp"
    path.write_text("(cut (promote (ax a)) (derelict (ax a) 1) 1)\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0


def test_usage_error(capsys):
    assert main(["gen", "no-such-family"]) == 3
