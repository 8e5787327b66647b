"""Byte-level pins on outputs that depend on fresh-id order and tie-breaks.

The answer checks elsewhere compare counts and weights; these hashes also
catch a reduct whose vertices or edges got different ids, a trace that
picked a different cut among equals, or a report whose key order drifted.
The triangle normalize, weight and verify pins were computed before the
net indexes were introduced; the machine pins before the token machine's
walks were rebuilt on one explorer; the arrow and double normalize pins
before rewriting kept a redex worklist and inherited box tables; the walk
pins before each walk read one table entry per node; the ladder pins before
the formula reader shared equal parenthesized groups; the corpus and family
pins before the proof-term reader, the elaborator and the lambda translation
ran on explicit stacks.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from pnlab import cli, corpus, families, lam
from pnlab.machine import parse_context, run
from pnlab.formulas import alpha_canon
from pnlab.net import parse_net, print_net
from pnlab.rewrite import STRATEGIES, TRIANGLE, normalize
from pnlab.suite import check_no_stuck
from pnlab.weights import (WeightComputer, canonical_walk,
                           search_copy_candidates)


def _church(k: int, ty: str) -> str:
    body = "x"
    for _ in range(k):
        body = f"f ({body})"
    return f"(\\f:{ty} -> {ty}. \\x:{ty}. {body})"


def _applied(text: str):
    sig = {"g": lam.parse_type("t -> t"), "z": lam.parse_type("t")}
    return lam.from_lambda(lam.parse_lambda(f"{text} g z"), sig)


def composed(j: int, k: int):
    """church j (church k) g z, church j at type (t -> t) -> t -> t."""
    body = "y"
    for _ in range(j):
        body = f"h ({body})"
    outer = f"(\\h:(t -> t) -> (t -> t). \\y:(t -> t). {body})"
    return _applied(f"{outer} {_church(k, 't')}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize_output(j: int, k: int, strategy=TRIANGLE) -> str:
    nf, trace = normalize(composed(j, k), strategy)
    return trace.render() + print_net(nf)


def weight_output() -> str:
    rep = WeightComputer(_applied(_church(12, "t"))).report()
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True)


def verify_output(tmp_path) -> str:
    path = tmp_path / "jump.pnet"
    path.write_text(print_net(corpus.named_fixtures()["jump"]))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", str(path)])
    return f"{code}\n{buf.getvalue()}"


def machine_output(tmp_path, net, start: str, *flags: str) -> str:
    path = tmp_path / "net.pnet"
    path.write_text(print_net(net))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["machine", str(path), "--start", start, *flags])
    return f"{code}\n{buf.getvalue()}"


def _lines(rows) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _tree(result, depth=0):
    """The rows of a run's outcome tree, branches included, depth first."""
    yield depth, result.kind, result.steps, result.context
    for b in result.branches or ():
        yield from _tree(b, depth + 1)


def run_output(net, start: str) -> str:
    """run's outcome tree, then its trace."""
    trace = []
    result = run(net, parse_context(net, start), trace=trace)
    return _lines(_tree(result)) + "--\n" + _lines((c,) for c in trace)


def weight_walks_output() -> tuple[str, str, int]:
    """The weight report of church 6 g z, its canonical transitions as a
    sorted set of lines, and the number of nodes of its narrowing walks'
    trees."""
    comp = WeightComputer(_applied(_church(6, "t")))
    report = json.dumps(comp.report().to_dict(), indent=2, sort_keys=True)
    transitions = "".join(sorted({_lines([t]) for t in canonical_walk(comp).transitions}))
    return report, transitions, comp.walk_nodes


def search_output() -> str:
    """check_no_stuck on the canonical walk of composed (2,2), then the
    copies of each principal edge on each of its canonical sequences."""
    net = composed(2, 2)
    comp = WeightComputer(net)
    rows = [(e, u, sorted(search_copy_candidates(net, e, u, comp.config)))
            for e in sorted(net.principal_edges())
            for u in comp.canonical_sequences(e)]
    stuck = check_no_stuck(canonical_walk(comp).stuck)
    return _lines((p,) for p in stuck) + "--\n" + _lines(rows)


def gen_ladder(tmp_path, n: int):
    """The path of `pnlab gen dr-ladder n`'s output."""
    path = tmp_path / f"ladder{n}.pnet"
    assert cli.main(["gen", "dr-ladder", str(n), "--out", str(path)]) == 0
    return path


def gen_output(tmp_path, *args: str) -> str:
    """The text of `pnlab gen args`."""
    path = tmp_path / "gen.pnet"
    assert cli.main(["gen", *args, "--out", str(path)]) == 0
    return path.read_text()


def corpus_output() -> str:
    """Each corpus net's name and print_net, in the corpus's order."""
    return "".join(f"{name}\n{print_net(net)}"
                   for name, net in corpus.full_corpus().items())


def ladder_parse_output(tmp_path, n: int) -> str:
    """print_net of the parsed ladder, then every edge's alpha_canon."""
    net = parse_net(gen_ladder(tmp_path, n).read_text())
    return (print_net(net) + "--\n"
            + _lines((e.id, alpha_canon(e.formula)) for e in net.edges_sorted()))


def ladder_cli_output(tmp_path, n: int, cmd: str, *flags: str) -> str:
    """Exit code and stdout of `pnlab cmd` on the ladder, then the net it
    wrote with --out, if any."""
    path = gen_ladder(tmp_path, n)
    out = tmp_path / "out.pnet"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([cmd, str(path), *flags, "--out", str(out)]
                        if cmd == "normalize" else [cmd, str(path), *flags])
    written = out.read_text() if out.exists() else ""
    return f"{code}\n{buf.getvalue()}--\n{written}"


NORMALIZE_SHA = {
    (2, 2):
        "807f54150352056a0b0273d4900a91ac85e32e10930991e87b607ea3c76d34d9",
    (2, 3):
        "ffa298e0ac2ba6ce49ccd8d991f5c2735ec093b3159e1162a779d434073b4182",
    (3, 2):
        "1a6a2df2ecd6ebf3cf32c1a7a27e9d1a0cfd25a6590476c550823abb49dfce39",
}
# (strategy, j, k) -> sha256 of the trace and normal form; arrow and double
# pick the same cuts on these nets, and triangle does not
UNLEVELLED_NORMALIZE_SHA = {
    ("arrow", 2, 2):
        "8f50e4485c6c883340957e8bc349f5bf0851affe038528b0e845b91f2dd76be3",
    ("double", 2, 2):
        "8f50e4485c6c883340957e8bc349f5bf0851affe038528b0e845b91f2dd76be3",
    ("arrow", 3, 2):
        "ceb86effea330c920a2aec3fb31854187bdbd6f463422c491d294e1098a7f231",
    ("double", 3, 2):
        "ceb86effea330c920a2aec3fb31854187bdbd6f463422c491d294e1098a7f231",
}
WEIGHT_SHA = "164a7f5424d5d3802983d4ce3d6d9aef984a4f17c97e3a8ecef381e1b51951d2"
VERIFY_SHA = "fae97bea09e3b2a5c2b3b580a471e3139b8d038e4d7822f9c2322f5a846e03df"
# (net, start, flags) -> sha256 of exit code and stdout of `pnlab machine`
MACHINE_SHA = {
    # the exponential ladder path to its final context
    ("dr-ladder-6", "concl / eps / a / -", ()):
        "9140caea56fff3b2f796136def5d695efe21cb01c3c396bc0c42af49b2efc237",
    # the same run cut by the step budget (exit 2)
    ("dr-ladder-6", "concl / eps / a / -", ("--budget", "40")):
        "64a78b3da5fd12659a9ae3d6831779496367c81fd32be6d872461d6f2c1907ad",
    # a door-to-principal box jump on the way to a final context
    ("jump-example", "e3 / eps / l(e) / +", ()):
        "60a6bbf2bbe8261435347bad0351150e09936cbf3a175f733c86b8cfcb5b59ca",
    # a jump from a two-door box's principal edge: one branch per door
    ("lambda-church", "e12 / eps / e / -", ()):
        "f18bb724f4b05dfe625563f6fa1dd034c72b32dc18732627e250a47f3e30d25b",
}
# (net, start) -> sha256 of run's outcomes and trace, computed before the
# transition recorder was removed
RUN_SHA = {
    ("dr-ladder-8", "concl / eps / a / -"):
        "6edb8b5dfb308fc662f10215d5d0a12a348c508a5e7d276cff39814c0f3e2d1a",
    # a jump to both doors of a box, one branch each
    ("lambda-church", "e12 / eps / e / -"):
        "a73798daf5aec3ceb86051f077b818848e757c4732b1ee9e971e0312197bbae7",
}
# church 6 g z: the report; the set of canonical transitions, the same as
# the transitions recorded run by run before the copies of a box-edge were
# verified in one shared walk; the node count of the narrowing walks' trees
WEIGHT_WALKS_REPORT_SHA = \
    "01b08969f2a6245b42909bd0380cc6e33f47e59ba26a9bef11d0729fe556af5c"
WEIGHT_WALKS_TRANSITIONS_SHA = \
    "86eee0fcf43d16df947ba3782dd8743fde501334a5c6d4e1be42fc0e204a1b35"
WEIGHT_WALKS_NODES = 81
SEARCH_SHA = "d77c85c64a78b9f03c642735f473807789517f5f796fc928603299534227be42"
# dr-ladder types repeat their parenthesized groups: parse_net's output on
# ladder 11, and the weight and triangle normalize runs of `pnlab` on 8 and 9
LADDER_PARSE_SHA = \
    "06e30a4704c34f294b215eccd614d1df8f6cf8b16ad4678aa6a9f5d42c290808"
LADDER_WEIGHT_SHA = \
    "3ce2390ba95d9f7798d94a4b9d85a7899ac8a73427bedf816dd3bec0d1368191"
LADDER_NORMALIZE_SHA = \
    "a5597f859dbfe1bdeb2942d71522c74fbec1a6129329a8435493a0a7ba1a4b91"
# every net the front ends build for the corpus, and three generated families
CORPUS_SHA = "8533d6db7ff5a97220f3fff2a2183951d611f8bc798c22ea7dcee63374da487d"
GEN_SHA = {
    ("church", "20"):
        "e54211379e5548951c5417c5d7e097337264f03020d967fa607d7cc0d441e7f0",
    ("compose", "3", "3"):
        "3a397e9bf5647b039dd4676194377b11d8656730984abbb5f71f3598519da9e9",
    ("dr-ladder", "11"):
        "1f9b0fc0cd4a294888086bddcd9d89ec8440350b22c61658a330776a8bee9f92",
}
MACHINE_NETS = {
    "dr-ladder-8": lambda: families.gen_family("dr-ladder", 8),
    "dr-ladder-6": lambda: families.gen_family("dr-ladder", 6),
    "jump-example": lambda: families.gen_family("jump-example"),
    "lambda-church": lambda: corpus.named_fixtures()["lambda-church"],
}


@pytest.mark.parametrize("jk", sorted(NORMALIZE_SHA))
def test_triangle_normal_form_and_trace_are_pinned(jk):
    assert _sha(normalize_output(*jk)) == NORMALIZE_SHA[jk]


@pytest.mark.parametrize("case", sorted(UNLEVELLED_NORMALIZE_SHA))
def test_arrow_and_double_normal_forms_and_traces_are_pinned(case):
    name, j, k = case
    out = normalize_output(j, k, STRATEGIES[name])
    assert _sha(out) == UNLEVELLED_NORMALIZE_SHA[case]


def test_weight_report_is_pinned():
    assert _sha(weight_output()) == WEIGHT_SHA


def test_verify_report_is_pinned(tmp_path):
    assert _sha(verify_output(tmp_path)) == VERIFY_SHA


@pytest.mark.parametrize("case", sorted(MACHINE_SHA))
def test_machine_output_is_pinned(tmp_path, case):
    name, start, flags = case
    out = machine_output(tmp_path, MACHINE_NETS[name](), start, *flags)
    assert _sha(out) == MACHINE_SHA[case]


@pytest.mark.parametrize("case", sorted(RUN_SHA))
def test_run_outcomes_trace_and_transitions_are_pinned(case):
    name, start = case
    assert _sha(run_output(MACHINE_NETS[name](), start)) == RUN_SHA[case]


def test_weight_walks_are_pinned():
    report, transitions, nodes = weight_walks_output()
    assert _sha(report) == WEIGHT_WALKS_REPORT_SHA
    assert _sha(transitions) == WEIGHT_WALKS_TRANSITIONS_SHA
    assert nodes == WEIGHT_WALKS_NODES


def test_no_stuck_and_copy_search_are_pinned():
    assert _sha(search_output()) == SEARCH_SHA


def test_ladder_parse_and_canonical_texts_are_pinned(tmp_path):
    assert _sha(ladder_parse_output(tmp_path, 11)) == LADDER_PARSE_SHA


def test_ladder_weight_report_is_pinned(tmp_path):
    assert _sha(ladder_cli_output(tmp_path, 8, "weight")) == LADDER_WEIGHT_SHA


def test_ladder_triangle_trace_and_normal_form_are_pinned(tmp_path):
    out = ladder_cli_output(tmp_path, 9, "normalize", "--strategy", "triangle",
                            "--trace")
    assert _sha(out) == LADDER_NORMALIZE_SHA


def test_corpus_nets_are_pinned():
    assert _sha(corpus_output()) == CORPUS_SHA


@pytest.mark.parametrize("args", sorted(GEN_SHA))
def test_generated_families_are_pinned(tmp_path, args):
    assert _sha(gen_output(tmp_path, *args)) == GEN_SHA[args]
