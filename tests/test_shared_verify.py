"""The shared verification walk against the runs it replaced.

A copy candidate used to be confirmed by running reach_final from each of
its simplifications in turn, in sorted order, up to the first that reached
no final context, with one memo for the whole computer.  That loop is kept
below as the reference.  On every net here the shared walk must confirm
the same candidates and report the same cycle flag; and the copy search
must agree with the generate-and-test oracle on the copies up to size 6.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pnlab import corpus, lam
from pnlab.families import gen_family
from pnlab.machine import Context, reach_final
from pnlab.signatures import all_standard_sigs, sig_size, simplifications, standard
from pnlab.weights import WeightComputer, search_copy_candidates

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
            cands = sorted(t for t in search_copy_candidates(net, e, u, comp.config)
                           if standard(t))
            confirmed, cyclic = ref_confirm(comp, e, u, cands, memo)
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
# the light subsystems' fixtures
SYSTEMS = {"ell": corpus.ell_fixture(), "sll": corpus.sll_fixture(),
           "lll": corpus.lll_fixture(), "lll-sec": corpus.lll_sec_fixture()}
CORPUS = corpus.full_corpus()


# --- tests ----------------------------------------------------------------------


def test_walk_matches_reference_on_the_corpus():
    for name, net in CORPUS.items():
        assert_walk_matches_reference(net, name)


@pytest.mark.parametrize("name", [*FAMILIES, *COMPOSED, *SYSTEMS])
def test_walk_matches_reference_on_the_families(name):
    net = {**FAMILIES, **COMPOSED, **SYSTEMS}[name]
    assert_walk_matches_reference(net, name)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_search_agrees_with_the_oracle_up_to_size_6(name):
    net = FAMILIES[name]
    comp = WeightComputer(net)
    for e in net.box_edges():
        for u in comp.canonical_sequences(e):
            got = frozenset(t for t in comp.copies(e, u) if sig_size(t) <= 6)
            assert got == comp.copies_bruteforce(e, u, 6), (name, e, u)


SIGS = all_standard_sigs(5)
BOXED = sorted(name for name, net in CORPUS.items() if net.box_edges())


@st.composite
def candidate_sets(draw):
    name = draw(st.sampled_from(BOXED))
    net = CORPUS[name]
    e = draw(st.sampled_from(net.box_edges()))
    u = draw(st.sampled_from(WeightComputer(net).canonical_sequences(e)))
    mux = [v.arity for v in net.vertices.values() if v.label == "mux"]
    pool = all_standard_sigs(1, tuple(range(1, max(mux) + 1))) if mux else SIGS
    cands = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    return name, e, u, sorted(cands)


@settings(max_examples=150, deadline=None)
@given(candidate_sets())
def test_walk_matches_reference_on_drawn_candidates(case):
    name, e, u, cands = case
    net = CORPUS[name]
    comp = WeightComputer(net)
    got = comp._confirm(e, u, cands)
    want, cyclic = ref_confirm(comp, e, u, cands, {})
    assert got == want
    assert comp.cycle_seen == cyclic


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
    from pnlab import net as N
    from pnlab.machine import Entry
    from pnlab.signatures import E, lsig, rsig

    n = rng.randrange(2, 9)
    kinds = ["pass", "pass", "wrap", "read", "read", "final", "stuck"]
    kinds = [rng.choice(kinds + ["reset"] * joins) for _ in range(n)]
    vertices, edges = {}, {}
    for v, kind in enumerate(kinds):
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

    for v, kind in enumerate(kinds):
        ws = [rng.randrange(n) for _ in range(rng.choice((1, 1, 2, 3)))]
        if kind == "pass":
            rule = lambda us, st, config, ws=ws: [at(w, st[-1]) for w in ws]
        elif kind == "wrap":
            wrap = rng.choice((lsig, rsig))
            rule = lambda us, st, config, w=ws[0], wrap=wrap: [at(w, wrap(st[-1]))]
        elif kind == "reset":
            rule = lambda us, st, config, w=ws[0]: [at(w, E)]
        elif kind == "read":
            left, right = ws[0], rng.randrange(n)
            rule = (lambda us, st, config, left=left, right=right:
                    [at(left if st[-1][0] == "l" else right, st[-1][1])]
                    if st[-1][0] in ("l", "r") else [])
        else:
            rule = lambda us, st, config: []
        net._index.transitions[f"e{v}", "+"] = Entry(
            vertices[f"v{v}"], "merged" if kind == "read" else "edge", rule,
            "+" if kind == "final" else None)
    return net


@pytest.mark.parametrize("joins", [False, True])
def test_walks_match_references_on_cyclic_graphs(joins):
    from test_explorer import ref_search_copy_candidates

    from pnlab import weights
    from pnlab.machine import BudgetExhausted, MachineConfig

    rng = random.Random(5)
    config = MachineConfig(step_budget=3000)
    pool = all_standard_sigs(4)
    compared = cyclic = 0
    for _ in range(300):
        net = _symbolic_graph(rng, joins)
        try:
            want = ref_search_copy_candidates(net, "e0", (), config, budget=300)
            comp = WeightComputer(net, config)
            cands = sorted(set(rng.sample(pool, 8)) | want)
            confirmed, cycle_seen = ref_confirm(comp, "e0", (), cands, {})
        except (BudgetExhausted, RecursionError):
            continue  # a runaway graph: the budgets count different units
        old_budget, weights.SEARCH_BUDGET = weights.SEARCH_BUDGET, 10**5
        try:
            assert search_copy_candidates(net, "e0", (), config) == want
        finally:
            weights.SEARCH_BUDGET = old_budget
        assert comp._confirm("e0", (), cands) == confirmed
        assert comp.cycle_seen == cycle_seen
        compared += 1
        cyclic += any(reach_final(net, Context("e0", (), (u,), "+"), config)[1]
                      for u in cands)
    assert compared > 150 and cyclic > 30
