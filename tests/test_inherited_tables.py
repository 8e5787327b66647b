"""A reduct weighs from what it inherits as a net read afresh weighs.

`rewrite.fire` hands a reduct the compiled machine entries and the chains
of `weights.Chains` that its parent built, less those that read a vertex
the step changed, and the copy searches whose trees hold only chains it
kept (`docs/DECISIONS.md`, "What a reduct inherits").  Along
the double and triangle walks of the corpus, the Church numerals, the
composed numerals, the repro and the light-system fixtures, each reduct's
weight report, cycle flag and narrowing-walk nodes must equal those of the
same net printed and read again, which starts with empty tables.
"""

from __future__ import annotations

import pytest

from pnlab import corpus, net as N, rewrite
from pnlab.families import gen_family
from pnlab.machine import BudgetExhausted, MachineConfig
from pnlab.net import parse_net, print_net
from pnlab.rewrite import DOUBLE, TRIANGLE, Walk
from pnlab.weights import Chains, WeightComputer, WeightError, _Chain

from test_shared_verify import REPRO


def walked_nets():
    nets = dict(corpus.full_corpus())
    nets.update((f"church-{k}", gen_family("church", k)) for k in range(2, 7))
    nets.update((f"compose-{j}-{k}", gen_family("compose", (j, k)))
                for j in (1, 2) for k in (1, 2))
    nets["repro"] = REPRO
    nets["ell"] = corpus.ell_fixture()
    nets["sll"] = corpus.sll_fixture()
    nets["lll"] = corpus.lll_fixture()
    nets["lll-sec"] = corpus.lll_sec_fixture()
    return nets


def weighed(net, config=None):
    """The net's weight report, or the error that ends it, with the cycle
    flag, the narrowing walks' nodes and the computer."""
    comp = WeightComputer(net, config)
    try:
        report = comp.report().to_dict()
    except (WeightError, BudgetExhausted) as exc:
        report = (type(exc).__name__, str(exc))
    return (report, comp.cycle_seen, comp.walk_nodes), comp


@pytest.mark.parametrize("strategy", [DOUBLE, TRIANGLE], ids=lambda s: s.kind)
def test_a_reduct_weighs_from_its_inheritance_as_afresh(strategy):
    steps = walked = inherited = searched = taken = 0
    for name, net in walked_nets().items():
        weighed(net)  # the tables the first reduct inherits
        for i, (cut, reduct, _) in enumerate(Walk(net, strategy)):
            got, comp = weighed(reduct)
            fresh = parse_net(print_net(reduct))
            assert fresh._index.inherited is None
            assert got == weighed(fresh)[0], (name, i, cut)
            steps += 1
            walked += comp.chains_walked
            inherited += comp.chains_inherited
            searched += len(comp._copies)
            taken += comp.copies_inherited
    # the reducts start with far more chains than they walk, and take over
    # a good share of their copy searches
    assert steps > 350 and inherited > 5 * walked > 0
    assert 3 * taken > searched > taken > 0


def test_church_4_double_walk_inherits_its_pinned_searches():
    net = gen_family("church", 4)
    weighed(net)
    searched = taken = 0
    for _, reduct, _ in Walk(net, DOUBLE):
        comp = weighed(reduct)[1]
        searched += len(comp._copies)
        taken += comp.copies_inherited
    assert (taken, searched) == (110, 206)


def sll_with_a_mux(arity):
    """The reduct of the weighed SLL fixture by an edit that adds a
    multiplexer of the arity on no edge, which no chain reads."""
    net = corpus.sll_fixture()
    weighed(net)
    s = rewrite._Surgeon(net)
    s.add_vertex(N.Vertex(s.fresh_v(), N.MUX, arity), ())
    return s.freeze()


def test_a_step_that_changes_the_standard_heads_inherits_no_search():
    """The fixture's widest multiplexer has arity 3, so a split where any
    head may come offers m(1) to m(3); with one of arity 4 it also offers
    m(4), and a search the parent made may not stand."""
    kept = sll_with_a_mux(3)
    comp = weighed(kept)[1]
    assert comp.chains_walked == 0 and comp.copies_inherited == 1
    reduct = sll_with_a_mux(4)
    got, comp = weighed(reduct)
    assert comp.chains_walked == 0 and comp.chains_inherited > 0
    assert comp.copies_inherited == 0
    assert got == weighed(parse_net(print_net(reduct)))[0]


def test_a_smaller_budget_does_not_reuse_a_search_found_under_a_larger():
    """The third reduct of church 2's double walk, an N step, takes over
    three of its five searches under its parent's budget.  Under 20 steps
    a fresh copy of it runs out of budget, and so must the reduct, although
    its parent found those copies; under 21 it searches them again."""
    walk = iter(Walk(gen_family("church", 2), DOUBLE))
    for _ in range(2):  # the tables the third reduct inherits
        weighed(next(walk)[1])
    reduct = next(walk)[1]
    small = MachineConfig(step_budget=20)
    fresh = weighed(parse_net(print_net(reduct)), small)[0]
    assert fresh[0][0] == "BudgetExhausted"
    got, comp = weighed(reduct, small)
    assert got == fresh and comp.copies_inherited == 0
    got, comp = weighed(reduct, MachineConfig(step_budget=21))
    assert got[0] == weighed(reduct)[0][0] and comp.copies_inherited == 0
    assert weighed(reduct)[1].copies_inherited == 3


def chain_fields(ch):
    return (ch.join, ch.end, ch.steps, ch.kind, getattr(ch, "need", None),
            getattr(ch, "hole", None), getattr(ch, "demanded", None),
            [link[:3] for link in ch.links], ch.reads)


def test_each_edit_of_a_step_drops_the_chains_it_changes():
    """One surgeon edit at a time on a weighed net: each chain the reduct
    keeps walks again on the reduct to the same chain, and so does each
    root.  Relabelling a box's principal turns its principal edge from a
    join into none, which only the chains starting there read."""
    net = gen_family("church", 2)
    weighed(net)
    config = MachineConfig()
    parent = net._index.chains[True]
    door = next(v.id for v in net.vertices.values() if v.label == N.LBANG)
    host, guest = [pid for pid, b in net.boxes.items() if len(b.doors) == 1][:2]
    edge = net.edges[next(iter(net.edges))]
    other = next(vid for vid in net.vertices if vid not in (*edge.src, *edge.tgt))
    edits = {
        "relabel-door": lambda s: s.relabel(door, N.DER),
        "relabel-principal": lambda s: s.relabel(host, N.CONTR),
        "drop": lambda s: s.drop_vertex(other),
        "delete": lambda s: s.del_edge(edge.id),
        "reend": lambda s: s.reend(edge.id, tgt=(other, "x")),
        "give-a-door": lambda s: s.extend_box(
            host, 0, net.boxes[guest].doors, ()),
    }
    for name, edit in edits.items():
        s = rewrite._Surgeon(net)
        edit(s)
        reduct = s.freeze()
        chains = Chains.of(reduct, config)
        kept = chains.chains
        assert 0 < len(kept) < len(parent.chains), name
        for start, ch in kept.items():
            again = chains._walk_chain(reduct, config, _Chain(start))
            assert chain_fields(ch) == chain_fields(again), (name, start)
        assert set(chains.roots.values()) <= set(kept.values())
