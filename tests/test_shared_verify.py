"""The narrowing walk against runs of the machine that share no code with it.

The reference confirms a candidate by running reach_final from each of its
simplifications in turn, in sorted order, up to the first that reaches no
final context, with one memo for the whole computer.  On every net here
each copy the walk returns must pass the reference, with the same cycle
flag, and the walk must agree with the generate-and-test oracle on the
copies up to size 6, or 5 on the larger composed numerals.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pnlab import corpus, lam
from pnlab.families import gen_family
from pnlab.machine import Context, reach_final
from pnlab.signatures import all_standard_sigs, sig_size, simplifications
from pnlab.weights import (
    WeightComputer,
    WeightError,
    mux_indices,
    search_copy_candidates,
)

# --- the reference: one reach_final per simplification ------------------------


def ref_confirm(comp, edge, us, candidates, memo):
    """(confirmed candidates, whether confirming them met a cycle)."""
    confirmed, cycle_seen = set(), False
    for t in candidates:
        cyclic = False
        for u in sorted(simplifications(t)):
            ok, cycle = reach_final(comp.net, Context(edge, us, (u,), "+"),
                                    comp.config, memo)
            cyclic = cyclic or cycle
            if not ok:
                break
        else:
            confirmed.add(t)
            cycle_seen = cycle_seen or cyclic
    return confirmed, cycle_seen


def assert_walk_matches_reference(net, name):
    comp = WeightComputer(net)
    rep = comp.report()
    memo, cycle_seen = {}, False
    for e, be in rep.entries.items():
        for u in be.sequences:
            confirmed, cyclic = ref_confirm(comp, e, u, sorted(be.copies[u]), memo)
            assert confirmed == be.copies[u], (name, e, u)
            cycle_seen = cycle_seen or cyclic
    assert rep.acyclic == (not cycle_seen), name


# --- the nets -------------------------------------------------------------------


def _church(k):
    body = "x"
    for _ in range(k):
        body = f"f ({body})"
    return f"(\\f:t -> t. \\x:t. {body})"


def _applied(text):
    sig = {"g": lam.parse_type("t -> t"), "z": lam.parse_type("t")}
    return lam.from_lambda(lam.parse_lambda(f"{text} g z"), sig)


def _composed(j, k):
    body = "y"
    for _ in range(j):
        body = f"h ({body})"
    outer = f"(\\h:(t -> t) -> (t -> t). \\y:(t -> t). {body})"
    return _applied(f"{outer} {_church(k)}")


def family_nets():
    """The families on which the search agrees with the oracle."""
    nets = {f"church-{k}": _applied(_church(k)) for k in range(2, 7)}
    for n in (2, 3, 4):
        nets[f"dr-ladder-{n}"] = gen_family("dr-ladder", n)
    nets["copy-example"] = gen_family("copy-example")
    nets["jump-example"] = gen_family("jump-example")
    return nets


FAMILIES = family_nets()
COMPOSED = {f"compose-{j}-{k}": _composed(j, k)
            for j in (1, 2) for k in (1, 2)}
# the numeral of the ROADMAP's repro, on which the copies were once missed
REPRO = lam.from_lambda(
    lam.parse_lambda("(\\h:(t -> t) -> t -> t. h (h g)) (\\k:t -> t. \\x:t. k (k x))"),
    {"g": lam.parse_type("t -> t")})
# composed numerals past (2,2), compared with the oracle at size 5
LARGER = {f"compose-{j}-{k}": _composed(j, k)
          for j in (1, 2, 3) for k in (1, 2, 3) if 3 in (j, k)}
# the light subsystems' fixtures
SYSTEMS = {"ell": corpus.ell_fixture(), "sll": corpus.sll_fixture(),
           "lll": corpus.lll_fixture(), "lll-sec": corpus.lll_sec_fixture()}
CORPUS = corpus.full_corpus()


# --- tests ----------------------------------------------------------------------


def test_walk_matches_reference_on_the_corpus():
    for name, net in CORPUS.items():
        assert_walk_matches_reference(net, name)


@pytest.mark.parametrize("name", [*FAMILIES, *COMPOSED, *SYSTEMS, "repro",
                                  *LARGER])
def test_walk_matches_reference_on_the_families(name):
    net = {**FAMILIES, **COMPOSED, **SYSTEMS, "repro": REPRO, **LARGER}[name]
    assert_walk_matches_reference(net, name)


ORACLE_NETS = {**FAMILIES, **COMPOSED, "repro": REPRO, **LARGER}


@pytest.mark.parametrize("name", sorted(ORACLE_NETS))
def test_search_agrees_with_the_oracle_up_to_size_6(name):
    net = ORACLE_NETS[name]
    size = 5 if name in LARGER else 6
    comp = WeightComputer(net)
    for e in net.box_edges():
        for u in comp.canonical_sequences(e):
            got = frozenset(t for t in comp.copies(e, u) if sig_size(t) <= size)
            assert got == comp.copies_bruteforce(e, u, size), (name, e, u)


BOXED = sorted(name for name, net in CORPUS.items() if net.box_edges())


@st.composite
def candidate_sets(draw):
    name = draw(st.sampled_from(BOXED))
    net = CORPUS[name]
    e = draw(st.sampled_from(net.box_edges()))
    u = draw(st.sampled_from(WeightComputer(net).canonical_sequences(e)))
    pool = all_standard_sigs(5, mux_indices(net))
    cands = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    return name, e, u, sorted(cands)


@settings(max_examples=150, deadline=None)
@given(candidate_sets())
def test_walk_matches_reference_on_drawn_candidates(case):
    """The drawn candidates among the walk's copies are those the
    reference confirms, and the walk flags a cycle exactly when the
    reference meets one on the way to its copies."""
    name, e, u, cands = case
    net = CORPUS[name]
    comp = WeightComputer(net)
    copies = comp.copies(e, u)
    assert {t for t in cands if t in copies} == ref_confirm(comp, e, u, cands, {})[0]
    assert copies.cyclic == ref_confirm(comp, e, u, sorted(copies), {})[1]


# --- cycles: random graphs of contexts with holes ------------------------------


def _symbolic_graph(rng, joins: bool):
    """A net whose transition table moves one signature between a few
    nodes, with cycles: node v is the context (ev, [], t, +) for a
    signature t.  A node passes t to its successors, wraps it in l or r,
    reads its head at a contraction (l to one successor, r to another),
    is final (a conclusion: t must be e) or is stuck.

    With joins, each edge leaves a box principal, so that every context is
    a join, and a node may also replace t by e: the graph is not
    reversible, so the runs may meet their path again anywhere, and with
    a context that is the same for some signatures only."""
    from pnlab.signatures import lsig, rsig

    n = rng.randrange(2, 9)
    kinds = ["pass", "pass", "wrap", "read", "read", "final", "stuck"]
    kinds = [rng.choice(kinds + ["reset"] * joins) for _ in range(n)]
    nodes = []
    for kind in kinds:
        ws = [rng.randrange(n) for _ in range(rng.choice((1, 1, 2, 3)))]
        wrap = rng.choice((lsig, rsig)) if kind == "wrap" else None
        if kind == "read":
            ws = [ws[0], rng.randrange(n)]
        nodes.append((kind, ws, wrap))
    return _graph_net(nodes, joins)


def _graph_net(nodes, joins: bool):
    """The net of _symbolic_graph whose node v is nodes[v]: its kind, its
    successors (the l and the r one for a read) and its wrap."""
    from pnlab import net as N
    from pnlab.machine import Entry
    from pnlab.signatures import E

    vertices, edges = {}, {}
    for v, (kind, _, _) in enumerate(nodes):
        label = {"final": N.CONCL, "stuck": N.PREM, "read": N.CONTR}.get(kind, N.DER)
        vertices[f"v{v}"] = N.Vertex(f"v{v}", label)
        port = "merged" if kind == "read" else "edge"
        src = (f"w{v}", "principal" if joins else "edge")
        if joins:
            vertices[f"w{v}"] = N.Vertex(f"w{v}", N.RBANG)
        edges[f"e{v}"] = N.Edge(f"e{v}", src, (f"v{v}", port), None)
    net = N.ProofNet(vertices, edges, {})

    def at(w, t):
        return Context(f"e{w}", (), (t,), "+")

    for v, (kind, ws, wrap) in enumerate(nodes):
        if kind == "pass":
            rule = lambda us, st, config, ws=ws: [at(w, st[-1]) for w in ws]
        elif kind == "wrap":
            rule = lambda us, st, config, w=ws[0], wrap=wrap: [at(w, wrap(st[-1]))]
        elif kind == "reset":
            rule = lambda us, st, config, w=ws[0]: [at(w, E)]
        elif kind == "read":
            rule = (lambda us, st, config, left=ws[0], right=ws[1]:
                    [at(left if st[-1][0] == "l" else right, st[-1][1])]
                    if st[-1][0] in ("l", "r") else [])
        else:
            rule = lambda us, st, config: []
        net._index.transitions[f"e{v}", "+"] = Entry(
            vertices[f"v{v}"], "merged" if kind == "read" else "edge", rule,
            "+" if kind == "final" else None)
    return net


def _reads_deeper_than(net, depth: int) -> bool:
    """Whether a run from (e0, [], [t], +) reads t deeper than depth, for
    some t of depth constructors l and r over a marker: whether some
    context reached by step from one has the marker on top of the stack
    at a contraction."""
    from itertools import product

    from pnlab import net as N
    from pnlab.machine import MachineConfig, step
    from pnlab.signatures import lsig, rsig

    mark, config = ("x",), MachineConfig()
    reads = {e for e in net.edges if net.vertices[f"v{e[1:]}"].label == N.CONTR}
    for wraps in product((lsig, rsig), repeat=depth):
        t = mark
        for wrap in wraps:
            t = wrap(t)
        todo, seen = [Context("e0", (), (t,), "+")], set()
        while todo:
            c = todo.pop()
            if c not in seen:
                if c[2][-1] == mark and c[0] in reads:
                    return True
                seen.add(c)
                todo.extend(step(net, c, config))
    return False


@pytest.mark.parametrize("joins", [False, True])
def test_walks_match_references_on_cyclic_graphs(joins):
    """On each graph the reference finishes in 300 steps, the walk with
    as many finds the copies the reference confirms among the standard
    signatures up to size 4, every copy it returns passes the reference,
    the cycle flags agree, and a walk of 3000 steps finds the same.  Where
    the walk finds infinitely many copies, the reference confirms some of
    every size from the smallest up to 4.  Where it runs out of budget,
    the machine's runs read the signature deeper than 6 constructors, so
    its tree of reads is deeper than any signature of the pool."""
    from pnlab.machine import BudgetExhausted, MachineConfig

    rng = random.Random(5)
    short, config = MachineConfig(step_budget=300), MachineConfig(step_budget=3000)
    pool = all_standard_sigs(4)
    compared = cyclic = deep = 0
    for _ in range(300):
        net = _symbolic_graph(rng, joins)
        try:
            want, _ = ref_confirm(WeightComputer(net, short), "e0", (), pool, {})
        except (BudgetExhausted, RecursionError):
            continue  # a runaway graph, left out by the reference alone
        try:
            copies = search_copy_candidates(net, "e0", (), short)
        except WeightError as exc:
            assert "infinitely many copies" in str(exc)
            sizes = {sig_size(t) for t in want}  # a pattern's instances
            assert sizes == set(range(min(sizes, default=5), 5)) != set()
            continue
        except BudgetExhausted:
            assert _reads_deeper_than(net, 6)
            deep += 1
            continue
        comp = WeightComputer(net, config)
        confirmed, cycle_seen = ref_confirm(comp, "e0", (), sorted(copies), {})
        assert confirmed == copies
        assert copies.cyclic == cycle_seen
        assert {t for t in copies if sig_size(t) <= 4} == want
        assert search_copy_candidates(net, "e0", (), config) == copies
        compared += 1
        cyclic += any(reach_final(net, Context("e0", (), (u,), "+"), config)[1]
                      for u in pool)
    assert compared > 150 and cyclic > 30 and deep > 50


def test_a_start_that_drops_its_signature_has_infinitely_many_copies():
    """e0 replaces its signature by e and passes it to e1, a conclusion:
    every standard signature is a copy of e0, which the walk cannot list."""
    net = _graph_net([("reset", [1], None), ("final", [0], None)], joins=True)
    assert ref_confirm(WeightComputer(net), "e0", (), all_standard_sigs(4),
                       {})[0] == set(all_standard_sigs(4))
    with pytest.raises(WeightError, match="e0 has infinitely many copies"):
        search_copy_candidates(net, "e0", (), WeightComputer(net).config)
