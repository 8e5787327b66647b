import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from pnlab.cli import main
from pnlab.families import FamilyError, gen_family
from pnlab.formulas import Atom, Lolli, parse_formula
from pnlab.net import print_net, validate
from pnlab.rewrite import canonical_key


def _workloads():
    """The benchmark's workload module, read from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_dr_ladder_sizes_and_conclusion():
    g1 = gen_family("dr-ladder", 1, Atom("a"))
    assert validate(g1) == []
    assert g1.size() == 2
    assert g1.edges[g1.conclusion_edge()].formula == Lolli(Atom("a"), Atom("a"))
    for n in (2, 5, 8):
        g = gen_family("dr-ladder", n)
        assert validate(g) == []
        assert g.size() == 2 * n


def test_dr_ladder_custom_base():
    g = gen_family("dr-ladder", 2, parse_formula("b * b"))
    assert validate(g) == []
    assert g.edges[g.conclusion_edge()].formula == parse_formula("(b * b) -o (b * b)")


def test_copy_example_shape(copy_net):
    assert validate(copy_net) == []
    assert copy_net.size() == 10
    assert len(copy_net.box_edges()) == 1
    labels = [v.label for v in copy_net.vertices.values()]
    assert labels.count("contr") == 1


def test_jump_example_shape(jump_net):
    assert validate(jump_net) == []
    assert len(jump_net.boxes) == 2
    kinds = sorted(c.kind for c in
                   __import__("pnlab.rewrite", fromlist=["find_cuts"]).find_cuts(jump_net))
    assert kinds == ["!", "X"]


def test_generation_is_deterministic():
    a = gen_family("copy-example")
    b = gen_family("copy-example")
    assert canonical_key(a) == canonical_key(b)


def test_unknown_family_and_bad_n():
    with pytest.raises(FamilyError):
        gen_family("no-such-family")
    with pytest.raises(FamilyError):
        gen_family("dr-ladder", 0)


def test_church_and_compose_are_the_benchmark_nets():
    """The families print byte for byte as the nets the benchmark builds
    through the lambda front end."""
    bench = _workloads()
    for k in range(13):
        assert (print_net(gen_family("church", k))
                == print_net(bench.church_applied(k, "a"))), k
    for jk in itertools.product(range(4), repeat=2):
        assert (print_net(gen_family("compose", jk))
                == print_net(bench.composed(jk, "a"))), jk
    assert (print_net(gen_family("church", 3, Atom("t7")))
            == print_net(bench.church_applied(3, "t7")))


def test_family_sizes_are_checked():
    assert print_net(gen_family("compose")) == \
        print_net(gen_family("compose", (1, 1)))
    for name, n in (("dr-ladder", (2, 3)), ("church", (1, 2)),
                    ("compose", 2), ("compose", (2,)),
                    ("compose", (1, 2, 3)), ("church", -1),
                    ("compose", (2, -1))):
        with pytest.raises(FamilyError):
            gen_family(name, n)
    with pytest.raises(FamilyError):
        gen_family("church", 2, parse_formula("a -o a"))


def test_gen_takes_one_or_two_sizes(tmp_path, capsys):
    out = tmp_path / "compose.pnet"
    assert main(["gen", "compose", "2", "3", "--out", str(out)]) == 0
    assert out.read_text() == print_net(gen_family("compose", (2, 3)))
    assert main(["gen", "church", "4", "--base", "b", "--out", str(out)]) == 0
    assert out.read_text() == print_net(gen_family("church", 4, Atom("b")))
    assert main(["gen", "dr-ladder", "3", "4"]) == 3
    assert main(["gen", "compose", "2"]) == 3
    assert main(["gen", "church", "x"]) == 3
    capsys.readouterr()
