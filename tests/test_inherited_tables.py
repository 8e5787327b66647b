"""A reduct weighs from what it inherits as a net read afresh weighs.

`rewrite.fire` hands a reduct the compiled machine entries and the chains
of `weights.Chains` that its parent built, less those that read a vertex
the step changed (`docs/DECISIONS.md`, "What a reduct inherits").  Along
the double and triangle walks of the corpus, the Church numerals, the
composed numerals, the repro and the light-system fixtures, each reduct's
weight report, cycle flag and narrowing-walk nodes must equal those of the
same net printed and read again, which starts with empty tables.
"""

from __future__ import annotations

import pytest

from pnlab import corpus
from pnlab.families import gen_family
from pnlab.machine import BudgetExhausted
from pnlab.net import parse_net, print_net
from pnlab.rewrite import DOUBLE, TRIANGLE, Walk
from pnlab.weights import WeightComputer, WeightError

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


def weighed(net):
    """The net's weight report, or the error that ends it, with the cycle
    flag, the narrowing walks' nodes and the computer."""
    comp = WeightComputer(net)
    try:
        report = comp.report().to_dict()
    except (WeightError, BudgetExhausted) as exc:
        report = (type(exc).__name__, str(exc))
    return (report, comp.cycle_seen, comp.walk_nodes), comp


@pytest.mark.parametrize("strategy", [DOUBLE, TRIANGLE], ids=lambda s: s.kind)
def test_a_reduct_weighs_from_its_inheritance_as_afresh(strategy):
    steps = walked = inherited = 0
    for name, net in walked_nets().items():
        weighed(net)  # the tables the first reduct inherits
        for i, (_, cut, reduct, _) in enumerate(Walk(net, strategy)):
            got, comp = weighed(reduct)
            fresh = parse_net(print_net(reduct))
            assert fresh._index.inherited is None
            assert got == weighed(fresh)[0], (name, i, cut)
            steps += 1
            walked += comp.chains_walked
            inherited += comp.chains_inherited
    # the reducts start with far more chains than they walk
    assert steps > 350 and inherited > 5 * walked > 0


def chain_fields(ch):
    return (ch.join, ch.end, ch.steps, ch.kind, getattr(ch, "need", None),
            getattr(ch, "hole", None), getattr(ch, "demanded", None),
            [link[:3] for link in ch.links], ch.reads)


def test_each_edit_of_a_step_drops_the_chains_it_changes():
    """One surgeon edit at a time on a weighed net: each chain the reduct
    keeps walks again on the reduct to the same chain, and so does each
    root.  Relabelling a box's principal turns its principal edge from a
    join into none, which only the chains starting there read."""
    from pnlab import net as N, rewrite
    from pnlab.machine import MachineConfig
    from pnlab.weights import Chains, _Chain

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
