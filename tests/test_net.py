import pytest

from pnlab import net as N
from pnlab.net import parse_net, print_net, validate
from pnlab.terms import Ax, Promote, elaborate, parse_proof_term

AXIOM = """\
pnet 1
system MELL
vertex v1 prem
vertex v2 concl
edge e1 v1 edge v2 edge a
end
"""


def test_axiom_net_is_valid():
    net = parse_net(AXIOM)
    assert validate(net) == []
    assert net.size() == 2
    assert net.box_edges() == []
    assert net.interior_vertices() == ["v1", "v2"]


def type_mismatch_net():
    """The axiom net with a badly typed application spliced in."""
    bad = AXIOM.replace("edge e1 v1 edge v2 edge a",
                        "edge e1 v1 edge v3 fun a\nvertex v3 llolli\n"
                        "edge e2 v3 res v2 edge b\nedge e3 v1b edge v3 arg b\n"
                        "vertex v1b prem")
    return parse_net(bad)


def overlapping_boxes_net():
    """Two nested boxes hand-edited so their contents overlap without nesting."""
    from pnlab.formulas import Atom

    nested = elaborate(Promote(Promote(Ax(Atom("a")))))
    text = print_net(nested)
    box_lines = [ln for ln in text.splitlines() if ln.startswith("box")]
    assert len(box_lines) == 2
    (ip, idoor, _), (op, odoor, ocont) = (ln.split()[1:] for ln in box_lines)
    edited = text.replace(box_lines[0], f"box {ip} {idoor} {odoor}")
    edited = edited.replace(box_lines[1], f"box {op} {odoor} {ip},{odoor}")
    return parse_net(edited)


def test_axiom_with_type_mismatch_gets_typing_diagnostic():
    diags = validate(type_mismatch_net())
    assert any("formula mismatch" in d for d in diags)
    assert len([d for d in diags if "mismatch" in d]) == 1


# label, a net with one vertex of that label, its principal port, and the
# diagnostic that a wrong formula there gives
BUILT_FORMULAS = [
    ("rlolli", "(rlolli (llolli (ax a) (ax b) 1) 1)", "concl",
     "rlolli conclusion formula mismatch"),
    ("llolli", "(llolli (ax a) (ax b) 1)", "fun", "llolli formula mismatch"),
    ("rtensor", "(rtensor (ax a) (ax b))", "concl",
     "rtensor conclusion formula mismatch"),
    ("ltensor", "(ltensor (rtensor (ax a) (ax b)) 1 2)", "pair",
     "ltensor formula mismatch"),
    ("der", "(derelict (ax a) 1)", "bang", "dereliction formula mismatch"),
    ("dig", "(dig (ax !!a) 1)", "dbang", "digging formula mismatch"),
    ("rbang", "(promote (ax a))", "principal", "box principal formula mismatch"),
    ("lbang", "(promote (derelict (ax a) 1))", "outer",
     "box door formula mismatch"),
    ("rsec", "(spromote (ax a))", "principal",
     "sec-box principal formula mismatch"),
]


@pytest.mark.parametrize("label,term,port,message", BUILT_FORMULAS,
                         ids=[row[0] for row in BUILT_FORMULAS])
def test_a_wrong_principal_formula_gets_its_diagnostic(label, term, port,
                                                       message):
    """The formula at the principal port is replaced by an atom that no
    other vertex checks, so exactly one diagnostic names the vertex."""
    net = elaborate(parse_proof_term(term),
                    system="LLL" if label == "rsec" else "MELL")
    assert validate(net) == []
    [vid] = [v.id for v in net.vertices.values() if v.label == label]
    e = net.edge_at(vid, port)
    line = f"edge {e.id} {' '.join(e.src)} {' '.join(e.tgt)} "
    text = print_net(net)
    [old] = [ln for ln in text.splitlines() if ln.startswith(line)]
    wrong = parse_net(text.replace(old + "\n", line + "q\n"))
    assert validate(wrong) == [f"vertex {vid}: {message}"]


def test_overlapping_boxes_get_nesting_diagnostic():
    diags = validate(overlapping_boxes_net())
    assert any("overlap" in d for d in diags), diags


def test_depth_and_accessors():
    from pnlab.formulas import Atom

    net = elaborate(Promote(Ax(Atom("a"))))
    assert validate(net) == []
    [be] = net.box_edges()
    assert net.depth(be) == 0  # the principal edge lies outside its box
    assert net.premise_count(be) == 1
    pid = net.edges[be].src[0]
    inner = net.edge_at(pid, "inner")
    assert net.depth(inner.id) == 1
    assert net.theta(inner.id) == pid
    assert net.sigma(inner.id) == be
    # the principal edge itself lies outside the box: theta and sigma undefined
    assert net.theta(be) is None
    assert net.sigma(be) is None

    nested = elaborate(Promote(Promote(Ax(Atom("a")))))
    outer_edge = [e for e in nested.box_edges() if nested.depth(e) == 0]
    inner_edges = [e for e in nested.box_edges() if nested.depth(e) == 1]
    assert len(outer_edge) == 1 and len(inner_edges) == 1
    inner_pid = nested.edges[inner_edges[0]].src[0]
    innermost = nested.edge_at(inner_pid, "inner")
    assert nested.depth(innermost.id) == 2
    assert nested.sigma(inner_edges[0]) == outer_edge[0]
    assert nested.net_depth() == 2


def test_depth_unknown_identifier():
    net = parse_net(AXIOM)
    with pytest.raises(N.NetError):
        net.depth("nosuch")


def test_rho_wrong_label():
    net = parse_net(AXIOM)
    with pytest.raises(N.NetError):
        net.rho("v1")


def test_partition_into_interior_doors_principals(all_nets):
    for name, net in all_nets.items():
        interior = set(net.interior_vertices())
        principals = {pid for pid in net.boxes}
        doors = {d for b in net.boxes.values() for d in b.doors}
        assert interior | principals | doors == set(net.vertices), name
        assert not interior & principals and not interior & doors


def test_box_contents_have_consistent_depth(all_nets):
    # direct contents sit exactly one level below the principal edge;
    # nested boxes carry their own material deeper
    for name, net in all_nets.items():
        for pid, box in net.boxes.items():
            want = net.depth(net.rho(pid)) + 1
            deeper = set()
            for qid, q in net.boxes.items():
                if qid in box.contents:
                    deeper |= q.contents
            for c in box.contents:
                if c in deeper:
                    assert net.depth(c) > want, (name, pid, c)
                else:
                    assert net.depth(c) == want, (name, pid, c)


def test_serialization_roundtrip(all_nets):
    for name, net in all_nets.items():
        text = print_net(net)
        back = parse_net(text)
        assert print_net(back) == text, name
        assert validate(back) == [], name


def test_parse_net_rejects_garbage():
    with pytest.raises(N.NetError):
        parse_net("hello\n")
    with pytest.raises(N.NetError):
        parse_net("pnet 99\nend\n")


def test_every_elaborated_net_validates(all_nets):
    for name, net in all_nets.items():
        assert validate(net) == [], name
