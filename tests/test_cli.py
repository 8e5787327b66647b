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


@pytest.mark.parametrize("depth", [1, 3000])
@pytest.mark.parametrize("modality, code", [("!", 0), ("sec ", 1)])
def test_membership_reads_deep_formulas(tmp_path, capsys, depth, modality, code):
    """A formula 3,000 deep is checked for sec at the default recursion limit."""
    path = tmp_path / "deep.pnet"
    path.write_text("pnet 1\nvertex v1 prem\nvertex v2 concl\n"
                    f"edge e1 v1 edge v2 edge {modality * depth}a\nend\n")
    got, out, err = run_cli(capsys, "check", str(path), "--system", "MELL")
    assert got == code and "Traceback" not in err
    assert out == ("check: ok\n" if code == 0 else "check: 1 problem(s)\n")


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


def test_typing_checks_of_deep_formulas(tmp_path, capsys):
    """validate compares formulas, and matches an lforall instance,
    without a Python frame per level."""
    arrows = "t -> " * 1500 + "t"
    path = tmp_path / "arrows.pnet"
    code, _, err = run_cli(capsys, "lambda", "f z", "--sig", f"f:({arrows}) -> t",
                           "--sig", f"z:{arrows}", "--out", str(path))
    assert (code, err) == (0, "")
    assert run_cli(capsys, "check", str(path)) == (0, "check: ok\n", "")
    code, out, err = run_cli(capsys, "weight", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["weight"]["weight"] == 0
    deep = tmp_path / "instance.pnet"
    for bangs in (3000, 2999):
        deep.write_text(
            "pnet 1\nvertex v1 prem\nvertex v4 lforall\nvertex v6 concl\n"
            f"edge e3 v1 edge v4 fa all b. {'!' * 3000}b\n"
            f"edge e6 v4 inst v6 edge {'!' * bangs}a\nend\n")
        code, out, err = run_cli(capsys, "check", str(deep))
        if bangs == 3000:
            assert (code, out, err) == (0, "check: ok\n", "")
        else:
            assert code == 1 and "Traceback" not in err
            assert "vertex v4: lforall instance does not match the quantified body" in err


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


def test_verify_fails_the_weight_bound_of_a_negative_weight(tmp_path, capsys,
                                                           monkeypatch):
    """A box-edge with no copy gives W = -1, and no Theorem-1 bound
    applies: verify reports the weight bound failed.  No front end builds
    such a net, so the copy example's box-edge e2 loses its copies l(e) and
    r(e): the compiled entry of (e2, +), the contraction that reads their
    head, is patched to give no successor."""
    from pnlab import machine

    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    compile_entry = machine._compile

    def compile_stuck(net, edge, pol):
        entry = compile_entry(net, edge, pol)
        if (edge, pol) == ("e2", "+"):
            return entry._replace(rule=lambda us, st, config: [])
        return entry

    monkeypatch.setattr(machine, "_compile", compile_stuck)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)["soundness"]
    assert report["weight"] == -1 and report["ok"] is False
    assert report["checks"][1] == {
        "name": "weight-bound", "ok": False,
        "detail": "W=-1: some box-edge has no copy on a canonical sequence"}


def test_weight_fails_on_infinitely_many_copies(tmp_path, capsys, monkeypatch):
    """A box-edge with infinitely many copies has no weight, and no budget
    can list them: weight fails with the reason, not a budget message.  No
    front end builds such a net, so the copy example's (e2, +) is patched
    to drop its signature and step to the conclusion with e, which every
    signature then reaches."""
    from pnlab import machine
    from pnlab.signatures import E

    path = tmp_path / "copy.pnet"
    run_cli(capsys, "gen", "copy-example", "--out", str(path))
    compile_entry = machine._compile

    def compile_reset(net, edge, pol):
        entry = compile_entry(net, edge, pol)
        if (edge, pol) == ("e2", "+"):
            return entry._replace(
                rule=lambda us, st, config: [machine.Context("e10", (), (E,), "+")])
        return entry

    monkeypatch.setattr(machine, "_compile", compile_reset)
    code, out, err = run_cli(capsys, "weight", str(path))
    assert (code, out) == (1, "")
    assert err == "error: e2 has infinitely many copies\n"


def test_weight_out_of_budget_prints_no_copies(tmp_path, capsys):
    """A narrowing walk that runs out of budget ends with exit code 2, not
    with a short copy set."""
    path = tmp_path / "compose.pnet"
    run_cli(capsys, "gen", "compose", "3", "3", "--out", str(path))
    code, out, err = run_cli(capsys, "weight", str(path), "--budget", "1000")
    assert code == 2 and out == ""
    assert err == "budget exhausted: machine step budget exhausted\n"


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


def test_export_dot_validates_its_input(tmp_path, capsys):
    path = tmp_path / "box.pnet"
    path.write_text("pnet 1\nbox v1 v2 v3\nend\n")
    code, out, err = run_cli(capsys, "export-dot", str(path))
    assert code == 1 and not out
    assert "box v1: principal vertex missing or mislabelled" in err


NEST_DOT_SCRIPT = """
import sys
from pnlab.dot import export_dot
from pnlab.formulas import Atom
from pnlab.terms import Ax, Promote, elaborate
term = Ax(Atom("a"))
for _ in range(100):
    term = Promote(term)
net = elaborate(term)
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
print(export_dot(net).count("subgraph cluster_"))
"""


def test_export_dot_needs_no_frame_per_box():
    """A promote nest 100 deep, exported under a recursion limit 60 frames
    above the caller's depth."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", NEST_DOT_SCRIPT],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "100"


LFORALL_CHECK_SCRIPT = """
import sys
from pnlab.cli import main
depth, frame = 0, sys._getframe()
while frame is not None:
    depth, frame = depth + 1, frame.f_back
sys.setrecursionlimit(depth + 60)
sys.exit(main(["check", sys.argv[1]]))
"""


def test_a_deep_lforall_mismatch_is_reported_without_a_frame_per_level(tmp_path):
    """An instance 3,000 derelictions deep that does not match the
    quantified body: its message is written under a recursion limit 60
    frames above the caller's depth, as it is for 3 derelictions."""
    src = Path(__file__).resolve().parents[1] / "src"
    for depth in (3, 3000):
        path = tmp_path / f"lforall{depth}.txt"
        path.write_text("(lforall " + "(derelict " * depth + "(ax a)"
                        + " 1)" * depth + " 1 (all b. b) c)\n")
        out = subprocess.run([sys.executable, "-c", LFORALL_CHECK_SCRIPT, str(path)],
                             env={"PYTHONPATH": str(src)}, capture_output=True,
                             text=True, timeout=120)
        assert (out.returncode, out.stdout) == (3, ""), out.stderr[-2000:]
        assert out.stderr == ("error: lforall: premise 1 is " + "!" * depth
                              + "a, expected c\n")


def test_budget_must_be_positive(tmp_path, capsys):
    path = tmp_path / "c3.pnet"
    run_cli(capsys, "gen", "church", "3", "--out", str(path))
    for command in (["normalize"], ["weight"], ["verify"],
                    ["machine", "--start", "concl / eps / a / -"]):
        for budget in ("0", "-1", "x"):
            code, out, err = run_cli(capsys, *command, str(path),
                                     "--budget", budget)
            assert code == 3 and not out, (command, budget)
            assert "--budget: expected a positive integer" in err
        code, _, _ = run_cli(capsys, *command, str(path), "--budget", "1")
        assert code == 2, command


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.pnet"
    path.write_text("(rlolli\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3 and "error" in err


def test_a_cut_mismatch_prints_formulas_as_they_are_read(tmp_path, capsys):
    path = tmp_path / "cut.txt"
    path.write_text("(cut (ax (a -o b)) (ax (c * d)) 1)\n")
    assert run_cli(capsys, "check", str(path)) == (
        3, "", "error: cut: conclusion a -o b does not match premise 1 (c * d)\n")


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


DEEP_SIG = "l(" * 3000 + "e" + ")" * 3000


def test_machine_reads_and_prints_a_deep_signature(tmp_path, capsys):
    """A signature 3,000 deep is read and printed at the default recursion
    limit, with the output of the same run on l(e), that text aside."""
    path = tmp_path / "ladder3.pnet"
    run_cli(capsys, "gen", "dr-ladder", "3", "--out", str(path))
    # carried in U to the final context
    code, out, err = run_cli(capsys, "machine", str(path),
                             "--start", f"concl / {DEEP_SIG} / a / -")
    shallow = run_cli(capsys, "machine", str(path),
                      "--start", "concl / l(e) / a / -")
    assert (code, err) == (0, "") and shallow[0] == 0
    assert out == shallow[1].replace("l(e)", DEEP_SIG)
    # on the stack, stuck two steps in, as l(e) is
    code, out, err = run_cli(capsys, "machine", str(path),
                             "--start", f"e1 / eps / {DEEP_SIG} / -")
    shallow = run_cli(capsys, "machine", str(path),
                      "--start", "e1 / eps / l(e) / -")
    assert (code, err) == (1, "") and shallow[0] == 1
    assert out == shallow[1].replace("l(e)", DEEP_SIG)


@pytest.mark.parametrize("depth", [1, 3000])
@pytest.mark.parametrize("broken, message", [
    ("{open}e", "expected ) in signature {text!r}"),
    ("{open}n(e", "expected , in signature {text!r}"),
    ("{open}n(e,", "truncated signature"),
    ("{open},{close}", "unexpected token ','"),
    ("{open}m(e){close}", "bad m(i) signature"),
    ("{open}e{close})", "trailing signature input [')']"),
], ids=["unclosed", "n-without-comma", "n-truncated", "comma", "bad-m",
        "trailing"])
def test_machine_rejects_a_deep_malformed_signature(tmp_path, capsys, depth,
                                                    broken, message):
    path = tmp_path / "ladder3.pnet"
    run_cli(capsys, "gen", "dr-ladder", "3", "--out", str(path))
    text = broken.format(open="l(" * depth, close=")" * depth)
    code, out, err = run_cli(capsys, "machine", str(path),
                             "--start", f"e1 / eps / {text} / -")
    assert (code, out) == (3, "")
    expect = f"bad context literal {f'e1 / eps / {text} / -'!r}: "
    assert err == f"error: {expect}{message.format(text=text)}\n"


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
