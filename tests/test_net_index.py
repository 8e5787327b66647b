"""The net indexes agree with the linear scans they replaced.

The reference functions below are the scans `ProofNet` and `validate` used
before the indexes, copied as they were.  Each index must give the same
answer on every net the front ends build, on every one-step reduct of those
nets, and on malformed nets, where ties and dangling references decide the
answer.  After a rewrite step, the port index, the box tables, the box
ranks and the largest ids the rewriter hands to the reduct must equal ones
rebuilt from its dicts, and the source net's tables must be unchanged.
"""

import pytest

from pnlab import net as N
from pnlab.families import FAMILIES, gen_family
from pnlab.lam import from_lambda, parse_lambda, parse_type
from pnlab.net import Box, NetError, ProofNet, parse_net
from pnlab.rewrite import CUT_KINDS, TRIANGLE, find_cuts, fire, pick_cut

from test_net import overlapping_boxes_net, type_mismatch_net

# --- the reference scans ------------------------------------------------------


def ref_edge_at(net, vid, port):
    for e in net.edges.values():
        if e.src == (vid, port) or e.tgt == (vid, port):
            return e
    raise NetError(f"no edge at {vid}.{port}")


def ref_edge_end_inside(end, b):
    vid, port = end
    if vid in b.contents:
        return True
    if vid == b.principal and port == "inner":
        return True
    if vid in b.doors and port == "inner":
        return True
    return False


def ref_edge_in_box(net, eid, b):
    e = net.edges[eid]
    return ref_edge_end_inside(e.src, b) and ref_edge_end_inside(e.tgt, b)


def ref_depth(net, item):
    if item in net.vertices:
        return sum(1 for b in net.boxes.values() if item in b.contents)
    if item in net.edges:
        return sum(1 for b in net.boxes.values() if ref_edge_in_box(net, item, b))
    raise NetError(f"unknown identifier {item}")


def ref_theta(net, item):
    best = None
    best_depth = -1
    for pid, b in net.boxes.items():
        inside = (item in b.contents) if item in net.vertices else (
            item in net.edges and ref_edge_in_box(net, item, b))
        if inside:
            d = ref_depth(net, pid)
            if d > best_depth:
                best, best_depth = pid, d
    return best


def ref_rho(net, vid):
    v = net.vertices[vid]
    if v.label not in N.BOX_PRINCIPALS:
        raise NetError(f"rho expects a box principal vertex, got {v.label}")
    return ref_edge_at(net, vid, "principal").id


def ref_sigma(net, item):
    t = ref_theta(net, item)
    return ref_rho(net, t) if t is not None else None


def ref_door_box(net, door):
    for pid, b in net.boxes.items():
        if door in b.doors:
            return pid
    return None


def ref_principal_edges(net, labels=N.BOX_PRINCIPALS):
    out = []
    for e in net.edges_sorted():
        v = net.vertices[e.src[0]]
        if v.label in labels and e.src[1] == "principal":
            out.append(e.id)
    return out


def ref_max_id(d, prefix):
    best = 0
    for k in d:
        if k.startswith(prefix) and k[len(prefix):].isdigit():
            best = max(best, int(k[len(prefix):]))
    return best


def ref_ports(net):
    """The port index rebuilt from the edges: the first edge at each end."""
    out = {}
    for e in net.edges.values():
        out.setdefault(e.src, e)
        out.setdefault(e.tgt, e)
    return out


def ref_check_boxes(net, say):
    all_doors = set()
    for pid, b in net.boxes.items():
        v = net.vertices.get(pid)
        if v is None or v.label not in N.BOX_PRINCIPALS or pid != b.principal:
            say(f"box {pid}: principal vertex missing or mislabelled")
            continue
        for d in b.doors:
            dv = net.vertices.get(d)
            if dv is None or dv.label not in N.BOX_DOORS:
                say(f"box {pid}: door {d} missing or mislabelled")
            if d in all_doors:
                say(f"box {pid}: door {d} shared with another box")
            all_doors.add(d)
        for cid in b.contents:
            if cid not in net.vertices:
                say(f"box {pid}: unknown content vertex {cid}")
        if pid in b.contents or set(b.doors) & b.contents:
            say(f"box {pid}: principal or door listed in contents")
        for e in net.edges.values():
            srcin = ref_edge_end_inside(e.src, b)
            tgtin = ref_edge_end_inside(e.tgt, b)
            if srcin != tgtin:
                say(f"box {pid}: edge {e.id} crosses the box boundary")
    for v in net.vertices.values():
        if v.label in N.BOX_PRINCIPALS and v.id not in net.boxes:
            say(f"vertex {v.id}: box principal without a box record")
        if v.label in N.BOX_DOORS and v.id not in all_doors:
            say(f"vertex {v.id}: box door not attached to any box")
    boxes = list(net.boxes.values())
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            inter = a.contents & b.contents
            if inter and not (
                a.contents | {a.principal, *a.doors} <= b.contents
                or b.contents | {b.principal, *b.doors} <= a.contents
            ):
                say(
                    f"boxes {a.principal} and {b.principal}: contents overlap "
                    "without nesting"
                )
    for pid, b in net.boxes.items():
        for qid, q in net.boxes.items():
            if qid in b.contents:
                missing = ({qid, *q.doors} | q.contents) - (b.contents | {qid})
                if missing:
                    say(f"box {pid}: nested box {qid} leaks {sorted(missing)}")
    for pid, b in net.boxes.items():
        if pid not in net.vertices:
            continue  # reported above; the depth check has no principal edge
        try:
            pe = ref_rho(net, pid)
        except NetError:
            continue
        want = ref_depth(net, pe) + 1
        nested = set()
        for qid, q in net.boxes.items():
            if qid in b.contents:
                nested |= {qid, *q.doors} | q.contents
        for cid in b.contents - nested:
            if cid not in net.vertices:
                continue  # reported above; it has no depth
            if ref_depth(net, cid) != want:
                say(f"box {pid}: content {cid} has inconsistent depth")

    if net.system != "LLL":
        for v in net.vertices.values():
            if v.label in (N.RSEC, N.LSEC):
                say(f"vertex {v.id}: sec-boxes require LLL mode")


# --- comparison -------------------------------------------------------------------


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the scans and the indexes must fail alike
        return "raises", type(exc)


def diagnostics(check, net):
    out = []
    return outcome(check, net, out.append), out


def assert_indexes_agree(net, name):
    ends = {end for e in net.edges.values() for end in (e.src, e.tgt)}
    ends |= {(v.id, p) for v in net.vertices.values() for p in N.vertex_ports(v)}
    ends.add(("nosuch", "edge"))
    for vid, port in sorted(ends):
        assert outcome(net.edge_at, vid, port) == \
            outcome(ref_edge_at, net, vid, port), (name, vid, port)
    items = sorted({*net.vertices, *net.edges, "nosuch",
                    *(c for b in net.boxes.values() for c in b.contents)})
    for item in items:
        assert outcome(net.depth, item) == outcome(ref_depth, net, item), (name, item)
        assert outcome(net.theta, item) == outcome(ref_theta, net, item), (name, item)
        assert outcome(net.sigma, item) == outcome(ref_sigma, net, item), (name, item)
    for vid in sorted({*net.vertices, "nosuch"}):
        assert net.door_box(vid) == ref_door_box(net, vid), (name, vid)
    if all(e.src[0] in net.vertices for e in net.edges.values()):
        assert list(net.principal_edges()) == ref_principal_edges(net), name
        assert net.box_edges() == ref_principal_edges(net, {N.RBANG}), name
    assert diagnostics(N._check_boxes, net) == diagnostics(ref_check_boxes, net), name


def assert_handed_over(reduct, name):
    """The rewriter's port index, box tables, box ranks and id maxima, as
    the reduct received them."""
    handed = vars(reduct._index)
    assert handed["ports"] == ref_ports(reduct), name
    for key, d, prefix in (("max_vertex_id", reduct.vertices, "v"),
                           ("max_edge_id", reduct.edges, "e")):
        if key in handed:
            assert handed[key] == ref_max_id(d, prefix), (name, key)
    rebuilt = N._Index(reduct.vertices, reduct.edges, reduct.boxes)
    # the lists are compared in order: ties in theta depend on it
    assert handed["enclosing"] == rebuilt.enclosing, name
    assert handed["inner_boxes"] == rebuilt.inner_boxes, name
    ranks = handed["box_rank"]
    assert list(ranks) == list(reduct.boxes), name
    assert sorted(ranks.values()) == list(ranks.values()), name
    for pid, b in reduct.boxes.items():
        plain = frozenset(b.contents)
        assert b.principal == pid, name
        assert b.contents == plain and hash(b.contents) == hash(plain), name
    assert parse_net(N.print_net(reduct)) == reduct, name


def table_snapshot(net):
    """Deep copies of a net's dicts, box records and tables."""
    idx = net._index
    return (dict(net.vertices), dict(net.edges),
            {pid: (b.doors, frozenset(b.contents)) for pid, b in net.boxes.items()},
            dict(idx.ports), dict(idx.box_rank),
            {k: list(v) for k, v in idx.enclosing.items()},
            {k: list(v) for k, v in idx.inner_boxes.items()})


# --- the nets ---------------------------------------------------------------------


def family_nets():
    nets = {f"dr-ladder{n}": gen_family("dr-ladder", n) for n in (1, 2, 3, 4)}
    for name in FAMILIES:
        if name != "dr-ladder":
            nets[name] = gen_family(name)
    return nets


NESTED = """\
pnet 1
system MELL
vertex v1 rbang
vertex v2 lbang
vertex v3 rbang
vertex v4 lbang
vertex v5 prem
vertex v6 concl
edge e1 v2 inner v1 inner a
edge e2 v1 principal v3 inner !a
edge e3 v4 inner v2 outer !a
edge e4 v3 principal v6 edge !!a
edge e5 v5 edge v4 outer !!a
box v1 v2 -
box v3 v4 v1,v2
end
"""

SIBLINGS = """\
pnet 1
system MELL
vertex v1 rbang
vertex v2 lbang
vertex v3 rbang
vertex v4 lbang
vertex v5 prem
vertex v6 concl
edge e1 v2 inner v1 inner a
edge e2 v1 principal v4 outer !a
edge e3 v5 edge v2 outer !a
edge e4 v4 inner v3 inner a
edge e5 v3 principal v6 edge !a
box v1 v2 -
box v3 v4 -
end
"""


def _edit(text, *pairs):
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new)
    return parse_net(text)


def malformed_nets():
    nets = {
        "type-mismatch": type_mismatch_net(),
        "overlapping-boxes": overlapping_boxes_net(),
        # a door left out of the outer box: two edges cross its boundary
        "crossing": _edit(NESTED, ("box v3 v4 v1,v2", "box v3 v4 v1")),
        # sibling boxes sharing a vertex: equal depths, box order decides
        "tie": _edit(SIBLINGS, ("box v1 v2 -", "box v1 v2 v5"),
                     ("box v3 v4 -", "box v3 v4 v5")),
        "tie-reordered": _edit(SIBLINGS, ("box v1 v2 -\nbox v3 v4 -",
                                          "box v3 v4 v5\nbox v1 v2 v5")),
        "unknown-content": _edit(NESTED, ("box v1 v2 -", "box v1 v2 v99")),
        "missing-principal": _edit(NESTED, ("end", "box v9 - v5\nend")),
        "shared-door": _edit(NESTED, ("box v3 v4 v1,v2", "box v3 v2 v1")),
        "door-as-principal": _edit(SIBLINGS, ("box v1 v2 -", "box v2 v1 -")),
        "door-listed-twice": _edit(SIBLINGS, ("box v1 v2 -", "box v1 v2,v2 -")),
        "doubled-port": _edit(NESTED, ("end", "edge e6 v5 edge v6 edge !!a\nend")),
        "principal-in-contents": _edit(NESTED, ("box v1 v2 -", "box v1 v2 v1")),
    }
    # box records whose principal differs from their key
    good = parse_net(SIBLINGS)
    swapped = {"v1": Box("v3", ("v4",), frozenset()),
               "v3": Box("v1", ("v2",), frozenset({"v5"}))}
    nets["swapped-principals"] = ProofNet(good.vertices, good.edges, swapped)
    return nets


def higher_order_net():
    """(\\h. h (h g)) (\\k. \\x. k (k x)): boxes nested inside copied boxes."""
    return from_lambda(
        parse_lambda("(\\h:(t -> t) -> t -> t. h (h g)) (\\k:t -> t. \\x:t. k (k x))"),
        {"g": parse_type("t -> t")})


# --- tests ------------------------------------------------------------------------


def test_indexes_agree_on_the_corpus(all_nets):
    for name, net in all_nets.items():
        assert_indexes_agree(net, name)


def test_indexes_agree_on_the_families():
    for name, net in family_nets().items():
        assert_indexes_agree(net, name)


@pytest.mark.parametrize("name", sorted(malformed_nets()))
def test_indexes_agree_on_malformed_nets(name):
    net = malformed_nets()[name]
    assert outcome(N.validate, net) != ("ok", []), name  # really malformed
    assert_indexes_agree(net, name)


def test_indexes_agree_on_every_one_step_reduct(all_nets):
    nets = {**all_nets, **family_nets(), "higher-order": higher_order_net()}
    kinds = set()
    for name, net in nets.items():
        for cut in find_cuts(net):
            reduct, _ = fire(net, cut)
            label = f"{name} after {cut.kind} at {cut.edge}"
            assert_handed_over(reduct, label)
            assert_indexes_agree(reduct, label)
            kinds.add(cut.kind)
    assert kinds == set(CUT_KINDS)


def test_firing_leaves_the_source_tables_unchanged(all_nets):
    """Every reduct shares lists and box records with its source; firing
    all cuts of one net, as `reduction_metrics` does, must not edit them."""
    nets = {**all_nets, **family_nets(), "higher-order": higher_order_net()}
    cur = higher_order_net()
    while cuts := TRIANGLE.permitted(find_cuts(cur)):  # reducts of reducts too
        cur, _ = fire(cur, pick_cut(cuts))
        nets[f"higher-order after {len(nets)}"] = cur
    kinds = set()
    for name, net in nets.items():
        before = table_snapshot(net)
        for cut in find_cuts(net):
            fire(net, cut)
            kinds.add(cut.kind)
        assert table_snapshot(net) == before, name
    assert kinds == set(CUT_KINDS)


def test_indexes_agree_along_a_triangle_trace():
    cur = higher_order_net()
    kinds = set()
    while cuts := TRIANGLE.permitted(find_cuts(cur)):
        cut = pick_cut(cuts)
        kinds.add(cut.kind)
        cur, _ = fire(cur, cut)
        assert_handed_over(cur, cut)
        assert_indexes_agree(cur, cut)
    assert {"X", "D", "N", "!"} <= kinds


def test_retag_shares_the_index():
    net = gen_family("copy-example")
    other = N.retag(net, "ELL")
    assert other._index is net._index
    assert other.box_edges() == net.box_edges()


# --- the box checks on edited box records --------------------------------------


def _edited_boxes(net, rng):
    """net with one to three random edits of its box records: a content
    dropped or added, a door dropped or added, a principal renamed, a box
    record dropped."""
    boxes = {pid: [b.principal, list(b.doors), set(b.contents)]
             for pid, b in net.boxes.items()}
    vertices = sorted(net.vertices) + ["v999"]
    for _ in range(rng.randint(1, 3)):
        if not boxes:
            break
        pid = rng.choice(sorted(boxes))
        principal, doors, contents = boxes[pid]
        kind = rng.randrange(6)
        if kind == 0 and contents:
            contents.discard(rng.choice(sorted(contents)))
        elif kind == 1:
            contents.add(rng.choice(vertices))
        elif kind == 2 and doors:
            doors.pop(rng.randrange(len(doors)))
        elif kind == 3:
            doors.append(rng.choice(vertices))
        elif kind == 4:
            boxes[pid][0] = rng.choice(vertices)
        elif kind == 5:
            del boxes[pid]
    edited = {pid: Box(p, tuple(d), frozenset(c))
              for pid, (p, d, c) in boxes.items()}
    return ProofNet(net.vertices, net.edges, edited, net.system)


def test_box_checks_agree_on_edited_box_records():
    import random

    church = "(\\f:t -> t. \\x:t. f (f (f x))) g z"
    sig = {"g": parse_type("t -> t"), "z": parse_type("t")}
    bases = [from_lambda(parse_lambda(church), sig), higher_order_net(),
             parse_net(NESTED), parse_net(SIBLINGS), gen_family("jump-example")]
    rng = random.Random(11)
    said = 0
    for _ in range(400):
        net = _edited_boxes(rng.choice(bases), rng)
        got = diagnostics(N._check_boxes, net)
        assert got == diagnostics(ref_check_boxes, net)
        said += bool(got[1])
    assert said > 300  # most edits break a box check


def test_box_checks_are_linear_in_a_deep_nest():
    """A promote nest 300 deep, once cubic in its depth (2.5-2.9 s)."""
    import time

    from pnlab.formulas import Atom
    from pnlab.terms import Ax, Promote, elaborate

    term = Ax(Atom("a"))
    for _ in range(300):
        term = Promote(term)
    net = elaborate(term)
    start = time.perf_counter()
    assert N.validate(net) == []
    assert time.perf_counter() - start < 1.0
