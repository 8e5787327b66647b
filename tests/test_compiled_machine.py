"""The compiled transition table and the formula reader, against the code
they replace.

`step` once dispatched on the endpoint's label and port at every call, and
`parse_formula` was a recursive-descent reader.  Both are copied below as
references.  Compiled `step` must give the same successors, in the same
order, or raise the same exception type, on every edge, both polarities,
jumps on and off, and stacks topped by each symbol, each signature
constructor and a hole; the reader must accept the same texts and give
equal values, with the same error texts, also where it reuses the
parenthesized groups it has read before.
"""

import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pnlab import corpus, families, formulas, machine, rewrite, suite, weights
from pnlab import net as N
from pnlab.formulas import (
    Atom,
    Bang,
    Forall,
    FormulaError,
    Lolli,
    Sec,
    Tensor,
    format_formula,
    parse_formula,
)
from pnlab.machine import (
    SYMBOLS,
    Context,
    MachineConfig,
    MachineError,
    dual,
    final_bindings,
    step,
    table_entry,
)
from pnlab.net import parse_net, print_net
from pnlab.rewrite import DOUBLE, find_cuts, fire, normalize
from pnlab.signatures import E, is_sig, lsig, msig, nsig, psig, rsig
from pnlab.weights import WeightComputer

from test_golden import _applied, _church, composed
from test_net_index import family_nets, malformed_nets


# --- the reference step -----------------------------------------------------


def ref_endpoint(net, c):
    e = net.edges[c.edge]
    return e.tgt if c.pol == "+" else e.src


def ref_leave(net, vid, port, pol, us, stack):
    e = net.edge_at(vid, port)
    if pol == "+":
        assert e.src == (vid, port), f"leaving {vid}.{port} with + but edge enters it"
    else:
        assert e.tgt == (vid, port), f"leaving {vid}.{port} with - but edge exits it"
    return Context(e.id, us, stack, pol)


def ref_step(net, c, config=None):
    config = config or MachineConfig()
    if c.edge not in net.edges:
        raise MachineError(f"unknown edge {c.edge}")
    vid, port = ref_endpoint(net, c)
    v = net.vertices[vid]
    us, st, pol = c.us, c.stack, c.pol
    top = st[-1] if st else None
    out = []
    go = lambda p, b, u2, s2: out.append(ref_leave(net, vid, p, b, u2, s2))

    label = v.label
    if label == N.RLOLLI:
        if port == "bound" and pol == "-":
            go("concl", "+", us, st + ("a",))
        elif port == "body" and pol == "+":
            go("concl", "+", us, st + ("o",))
        elif port == "concl" and pol == "-":
            if top == "a":
                go("bound", "+", us, st[:-1])
            elif top == "o":
                go("body", "-", us, st[:-1])
    elif label == N.LLOLLI:
        if port == "fun" and pol == "+":
            if top == "a":
                go("arg", "-", us, st[:-1])
            elif top == "o":
                go("res", "+", us, st[:-1])
        elif port == "arg" and pol == "+":
            go("fun", "-", us, st + ("a",))
        elif port == "res" and pol == "-":
            go("fun", "-", us, st + ("o",))
    elif label == N.RTENSOR:
        if port == "left" and pol == "+":
            go("concl", "+", us, st + ("f",))
        elif port == "right" and pol == "+":
            go("concl", "+", us, st + ("x",))
        elif port == "concl" and pol == "-":
            if top == "f":
                go("left", "-", us, st[:-1])
            elif top == "x":
                go("right", "-", us, st[:-1])
    elif label == N.LTENSOR:
        if port == "pair" and pol == "+":
            if top == "f":
                go("left", "+", us, st[:-1])
            elif top == "x":
                go("right", "+", us, st[:-1])
        elif port == "left" and pol == "-":
            go("pair", "-", us, st + ("f",))
        elif port == "right" and pol == "-":
            go("pair", "-", us, st + ("x",))
    elif label == N.RFORALL:
        if port == "prem" and pol == "+":
            go("concl", "+", us, st + ("s",))
        elif port == "concl" and pol == "-" and top == "s":
            go("prem", "-", us, st[:-1])
    elif label == N.LFORALL:
        if port == "fa" and pol == "+" and top == "s":
            go("inst", "+", us, st[:-1])
        elif port == "inst" and pol == "-":
            go("fa", "-", us, st + ("s",))
    elif label == N.CONTR:
        if port == "merged" and pol == "+":
            if is_sig(top) and top[0] == "l":
                go("left", "+", us, st[:-1] + (top[1],))
            elif is_sig(top) and top[0] == "r":
                go("right", "+", us, st[:-1] + (top[1],))
        elif port == "left" and pol == "-" and is_sig(top):
            go("merged", "-", us, st[:-1] + (lsig(top),))
        elif port == "right" and pol == "-" and is_sig(top):
            go("merged", "-", us, st[:-1] + (rsig(top),))
    elif label == N.DER:
        if port == "bang" and pol == "+" and top == E and len(st) >= 2:
            go("plain", "+", us, st[:-1])
        elif port == "plain" and pol == "-":
            go("bang", "-", us, st + (E,))
    elif label == N.DIG:
        if port == "bang" and pol == "+":
            if is_sig(top) and top[0] == "n":
                go("dbang", "+", us, st[:-1] + (top[1], top[2]))
            elif len(st) == 1 and is_sig(top) and top[0] == "p":
                go("dbang", "+", us, (top[1],))
        elif port == "dbang" and pol == "-":
            if len(st) >= 2 and is_sig(st[-1]) and is_sig(st[-2]):
                go("bang", "-", us, st[:-2] + (nsig(st[-2], st[-1]),))
            elif len(st) == 1 and is_sig(top):
                go("bang", "-", us, (psig(top),))
    elif label == N.MUX:
        if port == "merged" and pol == "+":
            if is_sig(top) and top[0] == "m" and 1 <= top[1] <= v.arity:
                go(f"split{top[1]}", "+", us, st[:-1])
        elif port.startswith("split") and pol == "-":
            go("merged", "-", us, st + (msig(int(port[5:])),))
    elif label in (N.RBANG, N.RSEC):
        box = net.boxes[vid]
        if port == "principal" and pol == "-":
            if is_sig(top) and len(st) >= 2:
                go("inner", "-", us + (top,), st[:-1])
            elif is_sig(top) and len(st) == 1 and config.jumps_enabled \
                    and label == N.RBANG:
                for door in box.doors:
                    door_edge = net.edge_at(door, "outer")
                    out.append(Context(door_edge.id, us, st, "-"))
        elif port == "inner" and pol == "+" and us:
            go("principal", "+", us[:-1], st + (us[-1],))
    elif label in (N.LBANG, N.LSEC):
        if port == "outer" and pol == "+":
            if is_sig(top) and len(st) >= 2:
                go("inner", "+", us + (top,), st[:-1])
            elif is_sig(top) and len(st) == 1 and config.jumps_enabled \
                    and label == N.LBANG:
                box_pid = net.door_box(vid)
                if box_pid is None:
                    raise MachineError(f"door {vid} not attached to a box")
                pedge = net.rho(box_pid)
                out.append(Context(pedge, us, st, "+"))
        elif port == "inner" and pol == "-" and us:
            go("outer", "-", us[:-1], st + (us[-1],))
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the type is what is compared
        return ("raise", type(exc))


# --- cases ------------------------------------------------------------------------

HOLE = ("h", 3)
TOPS = (*SYMBOLS, E, lsig(E), rsig(E), psig(E), nsig(E, E), msig(1), msig(2), HOLE)
STACKS = ((),) + tuple(stack for top in TOPS
                        for stack in ((top,), (E, top), ("o", top)))
US = ((), (E, rsig(E)))
CONFIGS = (None, MachineConfig(jumps_enabled=True),
           MachineConfig(jumps_enabled=False))


def contexts(net, stacks=STACKS):
    for eid in net.edges:
        for pol in ("+", "-"):
            for us in US:
                for stack in stacks:
                    yield Context(eid, us, stack, pol)


def assert_steps_agree(net, name, stacks=STACKS):
    kinds = set()
    for c in contexts(net, stacks):
        for config in CONFIGS:
            got = outcome(step, net, c, config)
            want = outcome(ref_step, net, c, config)
            assert got == want, (name, c, config)
            kinds.add(got[1] if got[0] == "raise" else "ok")
    return kinds


BROKEN = {
    # no edge at v1.bound, and the edge at v1.body leaves it: leaving by
    # the one raises NetError, by the other AssertionError
    "missing-and-reversed-exits": (
        "vertex v1 rlolli\nvertex v2 concl\nvertex v3 prem\n"
        "edge e1 v1 concl v2 edge a -o a\nedge e2 v1 body v3 edge a\n"),
    # e2 ends at a vertex that does not exist: KeyError
    "dangling": ("vertex v1 rlolli\nvertex v2 concl\nvertex v3 prem\n"
                 "edge e1 v1 concl v2 edge a -o a\nedge e2 v1 bound v9 body a\n"
                 "edge e3 v3 edge v1 body a\n"),
    # a split port whose index is no number: ValueError
    "bad-split": ("vertex v1 mux 1\nvertex v2 concl\nvertex v3 prem\n"
                  "edge e1 v1 splitx v2 edge a\nedge e2 v3 edge v1 merged !a\n"),
    # the same faults where a rule pushes: v1 has no concl edge, and the
    # concl edge of v4 enters it
    "pushing-exits": ("vertex v1 rlolli\nvertex v2 prem\nvertex v3 prem\n"
                      "vertex v4 rlolli\nvertex v5 prem\nvertex v6 concl\n"
                      "edge e1 v2 edge v1 body a\nedge e2 v1 bound v3 edge a\n"
                      "edge e3 v5 edge v4 concl a -o a\nedge e4 v4 bound v6 edge a\n"),
    # a principal vertex without a box record: KeyError at every port
    "box-less": ("vertex v1 rbang\nvertex v2 concl\nvertex v3 prem\n"
                 "edge e1 v1 principal v2 edge !a\nedge e2 v3 edge v1 inner a\n"),
    # a door in no box: its jump raises MachineError
    "lone-door": ("vertex v1 lbang\nvertex v2 concl\nvertex v3 prem\n"
                  "edge e1 v1 inner v2 edge a\nedge e2 v3 edge v1 outer !a\n"),
    # a box without a principal edge: the door's jump raises NetError
    "edgeless-box": ("vertex v1 rbang\nvertex v2 lbang\nvertex v3 concl\n"
                     "vertex v4 prem\nedge e1 v2 inner v1 inner a\n"
                     "edge e2 v4 edge v2 outer !a\nedge e3 v1 bound v3 edge !a\n"
                     "box v1 v2 -\n"),
    # a door without an outer edge: the principal's jump raises NetError
    "doorless-jump": ("vertex v1 rbang\nvertex v2 lbang\nvertex v3 concl\n"
                      "edge e1 v2 inner v1 inner a\n"
                      "edge e2 v1 principal v3 edge !a\nbox v1 v2 -\n"),
}


def broken_nets():
    """Nets on which leaving some vertex raises, each in its own way."""
    return {name: parse_net(f"pnet 1\nsystem MELL\n{text}end\n")
            for name, text in BROKEN.items()}


def machine_nets():
    nets = dict(corpus.full_corpus())
    nets.update(family_nets())
    for k in range(7):
        nets[f"church-{k}"] = _applied(_church(k, "t"))
    nets["compose-2-2"] = composed(2, 2)
    # the SLL multiplexer and the LLL sec-boxes
    for fixture in (corpus.sll_fixture, corpus.lll_fixture, corpus.lll_sec_fixture):
        nets[fixture.__name__] = fixture()
    return nets


# --- compiled step --------------------------------------------------------------


def test_compiled_step_matches_reference_on_valid_nets():
    kinds = set()
    for name, net in machine_nets().items():
        kinds |= assert_steps_agree(net, name)
    assert kinds == {"ok"}


@pytest.mark.parametrize("name", sorted(malformed_nets()))
def test_compiled_step_matches_reference_on_malformed_nets(name):
    assert_steps_agree(malformed_nets()[name], name)


def test_compiled_step_raises_as_the_reference_on_broken_nets():
    kinds = set()
    for name, net in broken_nets().items():
        kinds |= assert_steps_agree(net, name)
    assert {N.NetError, AssertionError, KeyError, ValueError,
            MachineError} <= kinds


def test_a_broken_exit_raises_only_when_taken():
    net = broken_nets()["missing-and-reversed-exits"]
    with pytest.raises(N.NetError):  # would leave by the missing bound
        step(net, Context("e1", (), ("a",), "-"))
    with pytest.raises(AssertionError):  # would leave by body against e2
        step(net, Context("e1", (), ("o",), "-"))
    assert step(net, Context("e1", (), ("s",), "-")) == []


def test_unknown_edge_is_a_machine_error():
    net = machine_nets()["dr-ladder1"]
    with pytest.raises(MachineError):
        step(net, Context("e99", (), ("a",), "+"))
    assert ("e99", "+") not in net._index.transitions


def test_entries_hold_the_endpoint_and_finality():
    for name, net in machine_nets().items():
        for e in net.edges.values():
            for pol, (vid, port) in (("+", e.tgt), ("-", e.src)):
                entry = table_entry(net, e.id, pol)
                assert (entry.vertex, entry.port) == \
                    (net.vertices[vid], port), name
                assert net._index.transitions[e.id, pol] is entry
        for c in contexts(net, ((E,), ("a", E), (E, "o"))):
            # is_final as it was written before the table
            vid, port = ref_endpoint(net, c)
            label = net.vertices[vid].label
            maybe = ((c.pol == "+" and label in (N.CONCL, N.WEAK))
                     or (c.pol == "-" and label == N.PREM)
                     or (c.pol == "+" and label == N.DER and port == "bang"))
            if not maybe:
                assert final_bindings(net, c, {}) is None, (name, c)


def test_a_final_context_has_no_successor():
    """The walks call an entry's rule first and test finality only when it
    gives no successor; that order is safe because a context that
    final_bindings accepts, holes included, gets no successor from its
    rule, with jumps on or off."""
    finals, kinds = 0, set()
    for name, net in machine_nets().items():
        for c in contexts(net):
            if final_bindings(net, c, {}) is None:
                continue
            entry = table_entry(net, c.edge, c.pol)
            for config in CONFIGS:
                assert entry.rule(c.us, c.stack, config) == [], (name, c)
            finals += 1
            kinds.add((entry.final, HOLE in c.stack))
    assert finals == 9970
    assert kinds == {(f, hole) for f in ("+", "-", "der") for hole in (False, True)}


def kept_entries(reduct, table):
    """The entries of table, the parent's, that the reduct takes as its
    own when it first queries their keys."""
    return {key: entry for key, entry in table.items()
            if outcome(table_entry, reduct, *key)[1] is entry}


def test_reducts_inherit_the_entries_their_step_left_alone():
    """A reduct takes its parent's entry for a pair when that entry read no
    vertex the step moved: every entry the reduct finds, the parent's or
    its own, equals one compiled on the reduct, and the reduct steps as
    the reference does.  A net that built no table hands on none; retag
    shares the table."""
    stacks = ((E,), (E, "a"), (E, E), (lsig(E),), ("o",))
    kept = dropped = 0
    for name, net in machine_nets().items():
        for cut in find_cuts(net):
            assert fire(net, cut)[0]._index.inherited is None, (name, cut)
        for c in contexts(net, stacks):
            step(net, c)
        table = net._index.transitions
        assert len(table) == 2 * len(net.edges)
        assert N.retag(net, "ELL")._index.transitions is table
        for cut in find_cuts(net):
            reduct, _ = fire(net, cut)
            taken = kept_entries(reduct, table)
            for eid in reduct.edges:
                for pol in ("+", "-"):
                    entry = table_entry(reduct, eid, pol)
                    again = machine._compile(reduct, eid, pol)
                    assert (entry.vertex, entry.port, entry.final, entry.reads) == \
                        (again.vertex, again.port, again.final, again.reads)
            kept += len(taken)
            dropped += len(table) - len(taken)
            assert_steps_agree(reduct, (name, cut), stacks)
    assert kept > dropped > 0


def test_each_edit_of_a_step_drops_the_entries_it_changes():
    """One surgeon edit at a time on a net whose table is full: each entry
    the reduct takes from it compiles again on the reduct to the same
    endpoint, finality and reads, and its rule gives the same successors;
    the edit that gives a box a door drops the entry that jumps to its
    doors."""
    net = _applied(_church(2, "t"))
    for eid in net.edges:
        for pol in ("+", "-"):
            table_entry(net, eid, pol)
    table = net._index.transitions
    doors = {pid: b.doors for pid, b in net.boxes.items()}
    host, guest = [pid for pid in doors if len(doors[pid]) == 1][:2]
    door = next(v.id for v in net.vertices.values() if v.label == N.LBANG)
    edge = net.edges[next(iter(net.edges))]
    other = next(vid for vid in net.vertices if vid not in (*edge.src, *edge.tgt))
    edits = {
        "relabel": lambda s: s.relabel(door, N.DER),
        "drop": lambda s: s.drop_vertex(other),
        "delete": lambda s: s.del_edge(edge.id),
        "reend": lambda s: s.reend(edge.id, tgt=(other, "x")),
        "put": lambda s: s.put_edge(N.Edge("e999", (other, "x"), ("v999", "edge"),
                                           edge.formula)),
        "give-a-door": lambda s: s.extend_box(host, 0, doors[guest], ()),
    }
    stacks = ((E,), (E, "a"), (E, E), (lsig(E),), (rsig(E), "o"))
    for name, edit in edits.items():
        s = rewrite._Surgeon(net)
        edit(s)
        reduct = s.freeze()
        kept = kept_entries(reduct, table)
        assert 0 < len(kept) < len(table), name
        for (eid, pol), entry in kept.items():
            again = machine._compile(reduct, eid, pol)
            assert (entry.vertex, entry.port, entry.final, entry.reads) == \
                (again.vertex, again.port, again.final, again.reads), (name, eid)
            for us in ((), (E,)):
                for st in stacks:
                    for config in CONFIGS:
                        assert outcome(entry.rule, us, st, config) == \
                            outcome(again.rule, us, st, config), (name, eid, st)
    jump = net.rho(host), "-"
    s = rewrite._Surgeon(net)
    edits["give-a-door"](s)
    assert jump in table and jump not in kept_entries(s.freeze(), table)


def test_every_transition_on_a_nonempty_stack_has_its_dual():
    """d in step(c) implies dual(c) in step(dual(d)), checked on the table
    itself: every edge of every machine net, both polarities, both U values
    and every nonempty stack of STACKS.  The suite's reversibility check
    sees only the transitions a walk records; this one reaches every rule
    the table derives, on contexts no walk from a final one meets.

    Empty stacks are left out, because there the duality fails: 474 of the
    1064 transitions from an empty stack have no dual.  A box exit onto an
    empty stack, for one, leaves a single signature, from which the dual
    context crosses the boundary by a jump instead of re-entering the box.
    """
    checked = 0
    for name, net in machine_nets().items():
        for c in contexts(net, STACKS[1:]):
            for d in step(net, c):
                assert dual(c) in step(net, dual(d)), (name, c, d)
                checked += 1
    assert checked == 62812


# --- Context ------------------------------------------------------------------


def test_context_is_a_tuple_with_a_polarity_check():
    c = Context("e1", (E,), ("a", lsig(E)), "+")
    assert isinstance(c, tuple) and c == ("e1", (E,), ("a", lsig(E)), "+")
    # the hash of the tuple of fields, as the dataclass it replaces had
    assert hash(c) == hash(("e1", (E,), ("a", lsig(E)), "+"))
    assert str(c) == "(e1, [e], a l(e), +)"
    assert str(Context("e2", (), (), "-")) == "(e2, [], eps, -)"
    assert repr(c).startswith("Context(edge='e1', ")
    with pytest.raises(MachineError):
        Context("e1", (), ("a",), "0")
    with pytest.raises(AttributeError):
        c.extra = 1  # no instance dict


# --- the reader -----------------------------------------------------------------


_REF_TOKEN = re.compile(r"\s*(-o|\*|!|\(|\)|\.|[A-Za-z_][A-Za-z0-9_]*)")


def ref_tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaError(f"bad formula syntax at {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class RefParser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def eat(self, tok=None):
        cur = self.peek()
        if cur is None or (tok is not None and cur != tok):
            raise FormulaError(f"expected {tok or 'token'}, found {cur!r}")
        self.i += 1
        return cur

    def formula(self):
        left = self.tensor()
        if self.peek() == "-o":
            self.eat()
            return Lolli(left, self.formula())
        return left

    def tensor(self):
        f = self.unary()
        while self.peek() == "*":
            self.eat()
            f = Tensor(f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.eat()
            return Bang(self.unary())
        if tok == "sec":
            self.eat()
            return Sec(self.unary())
        if tok == "all":
            self.eat()
            name = self.eat()
            self.eat(".")
            return Forall(name, self.formula())
        if tok == "(":
            self.eat()
            f = self.formula()
            self.eat(")")
            return f
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            self.eat()
            return Atom(tok)
        raise FormulaError(f"unexpected token {tok!r}")


def ref_parse_formula(text):
    p = RefParser(ref_tokenize(text))
    f = p.formula()
    if p.peek() is not None:
        raise FormulaError(f"trailing input {p.toks[p.i:]!r}")
    return f


def read(fn, text):
    try:
        return ("ok", fn(text))
    except FormulaError as exc:
        return ("error", str(exc))


_pieces = st.sampled_from(["-o", "*", "!", "(", ")", ".", "a", "b1", "_x",
                           "sec", "all", "-", "$", "1", "o"])
_gaps = st.sampled_from(["", " ", "  ", "\t", "\n"])


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(_gaps, _pieces), max_size=14), _gaps)
def test_reader_matches_the_recursive_reader(pieces, tail):
    text = "".join(g + p for g, p in pieces) + tail
    assert read(parse_formula, text) == read(ref_parse_formula, text)


def test_reader_matches_on_printed_formulas():
    for net in machine_nets().values():
        for e in net.edges.values():
            text = format_formula(e.formula)
            assert parse_formula(text) == ref_parse_formula(text) == e.formula


def test_reader_needs_no_frame_per_level():
    deep = "all x. " * 5000 + "x"
    f = parse_formula(deep)
    for _ in range(5000):
        assert isinstance(f, Forall)
        f = f.body
    assert f == Atom("x")
    with pytest.raises(FormulaError):
        parse_formula("(" * 5000 + "a" + ")" * 4999)


# --- groups read once --------------------------------------------------------
#
# A '(' that starts the text of a group read before, in the same text or in
# an earlier one sharing the groups map, up to the ')' that closed it, is
# skipped; a group whose tokens equal those of one read before shares its
# formula.  Texts below repeat groups, some copies byte-identical and some
# spaced differently, nested in each other and followed by junk.

_group_pieces = st.lists(st.sampled_from(["-o", "*", "!", "(", ")", "a", "b1",
                                          "sec", "all x.", "all", ".", "x",
                                          "all ).", "$"]),
                         max_size=7)
# the tokens of a well-formed formula, so that most texts read to the end;
# a binder may be a parenthesis, which the reader takes as a name
_formula_tokens = st.recursive(
    st.sampled_from([["a"], ["b1"], ["x"]]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["-o", "*"]), sub).map(
            lambda t: ["(", *t[0], t[1], *t[2], ")"]),
        st.tuples(st.sampled_from([["!"], ["sec"], ["all", "x", "."],
                                   ["all", ")", "."], ["all", "(", "."]]),
                  sub).map(lambda t: t[0] + t[1])),
    max_leaves=6)
_templates = st.sampled_from([
    "({f}) -o ({f}) * ({g})",
    "(({f}) -o ({f})) * ({f})",
    "({f}) * ({f}){junk}",
    "!({f}) -o all x. ({f}) -o ({g}{junk})",
    "(({f})) -o ({f} -o ({f}))",
    "({g}) -o ({f}) -o ({g}) -o ({f}{junk}",
    # groups long enough to be looked up by their text
    "(({f}) -o ({g}) * ({f})) -o (({f}) -o ({g}) * ({f}))",
    "((({f}) * ({g})) -o ({f})) * ((({f}) * ({g})) -o ({f})){junk}",
    "!(all x. ({f}) -o ({g}) -o x) -o (all x. ({f}) -o ({g}) -o x{junk})",
    "((all ). ({f}) -o ({g}))) -o ((all ). ({f}) -o ({g}))) -o ({g})",
])


@st.composite
def repeated_group_texts(draw):
    """A template filled with the piece lists f, g and junk.  The first
    copy of a piece list is spaced at random; each later copy is either
    byte-identical to it or spaced anew."""
    f, g = (draw(st.one_of(_formula_tokens, _group_pieces)) for _ in "fg")
    pieces = {"f": f, "g": g, "junk": draw(_group_pieces)}
    first: dict[str, str] = {}

    def spaced(name):
        if name in first and draw(st.booleans()):
            return first[name]
        text = "".join(draw(_gaps) + p for p in pieces[name])
        return first.setdefault(name, text)

    template = draw(_templates)
    out, rest = [], template
    while "{" in rest:
        head, _, rest = rest.partition("{")
        name, _, rest = rest.partition("}")
        out.append(head + spaced(name))
    return "".join(out) + rest


@settings(max_examples=600, deadline=None)
@given(st.lists(repeated_group_texts(), min_size=1, max_size=4))
def test_reader_reusing_groups_matches_the_recursive_reader(texts):
    groups: dict = {}  # shared by the texts, as parse_net shares it
    for text in texts:
        want = read(ref_parse_formula, text)
        assert read(parse_formula, text) == want
        assert read(lambda t: parse_formula(t, groups), text) == want


def test_a_group_read_past_its_matching_parenthesis_is_kept():
    # a binder may be a parenthesis, so the ')' that closes a group as read
    # need not be the one that matches its '(' by counting; the group read
    # is still a function of its text, and a copy of it reuses it
    texts = ["(all ). a) -o (all ). a)", "(all)", "(all ( . a) * (( . a)",
             "(all ). a -o b1 * a) -o (all ). a -o b1 * a) * x",
             "(all ). a -o b1 * a) -o (all ).a-o b1*a)"]
    groups: dict = {}
    for text in texts:
        want = read(ref_parse_formula, text)
        assert read(lambda t: parse_formula(t, groups), text) == want, text
    f = parse_formula(texts[-2], groups)
    assert f.left is f.right.left
    g = parse_formula(texts[-1], groups)
    assert g.left is g.right is f.left


def test_a_repeated_group_is_skipped_by_its_text(monkeypatch):
    read_tokens = []  # as the reader's stretches hand them out, None at the end
    fill = formulas._Tokens.fill

    def counting(self):
        more = fill(self)
        read_tokens.extend(reversed(self.buf) if more else [None])
        return more

    monkeypatch.setattr(formulas._Tokens, "fill", counting)
    group = "((a -o b1) * !(all x. x -o a))"
    f = parse_formula(f"{group} -o {group}")
    # the copy costs its '(' token, then one comparison of text
    assert read_tokens == [*ref_tokenize(group), "-o", "(", None]
    assert f.left is f.right
    # a copy spaced differently is read again, and shares the formula
    read_tokens.clear()
    respaced = "( (a -o b1)*!(all x. x -o a))"
    g = parse_formula(f"{group} -o {respaced}")
    assert read_tokens == [*ref_tokenize(group), "-o", *ref_tokenize(respaced), None]
    assert g.left is g.right


def test_equal_groups_share_one_formula():
    f = parse_formula("(a -o b) -o ( a -o b ) * (b)")
    assert f.left is f.right.left
    groups: dict = {}
    first = parse_formula("!(a * (b -o a))", groups)
    again = parse_formula("(b -o a) -o (a * (b -o a))", groups)
    assert again.right is first.body and again.left is first.body.right


def test_groups_differing_in_one_token_share_nothing():
    for text in ["(all x. x) -o (all y. x)", "(all ). a) -o (all (. a)",
                 "(a -o b1) -o (a * b1)", "(!a) -o (sec a)", "((a)) -o ((b1))"]:
        f = parse_formula(text)
        assert f == ref_parse_formula(text) and f.left != f.right, text


def _reachable(formulas) -> int:
    """The number of distinct formula objects reachable from formulas."""
    seen: set[int] = set()
    todo = list(formulas)
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen.add(id(f))
            todo += [getattr(f, a) for a in ("left", "right", "body")
                     if hasattr(f, a)]
    return len(seen)


@pytest.mark.parametrize("n", [6, 11, 16])
def test_ladder_types_are_read_as_their_distinct_groups(n):
    # the types' text doubles with n; their distinct subformulas grow with n
    net = parse_net(print_net(families.gen_family("dr-ladder", n)))
    assert _reachable(e.formula for e in net.edges.values()) <= 30 * n


def test_deeply_nested_groups_are_read_in_linear_time():
    d = 20_000
    text = "(" * d + "a" + ")" * d + " -o " + "(" * d + "b" + ")" * d
    t0 = time.perf_counter()
    f = parse_formula(text)
    assert time.perf_counter() - t0 < 1.0
    assert f == Lolli(Atom("a"), Atom("b"))


def _right_spine(f, n):
    """The left operands of the first n lollis down f's right spine, and
    the formula below them."""
    lefts = []
    for _ in range(n):
        assert type(f) is Lolli
        lefts.append(f.left)
        f = f.right
    return lefts, f


def test_a_doubling_ladder_is_read_in_time_of_its_groups():
    # B(j+1) = (B(j)) -o B(j): the text doubles with j, while the distinct
    # groups, (B(0)) to (B(j)), and the tokens outside them grow with j
    k = 19
    text = "a -o a"
    for _ in range(k):
        text = f"({text}) -o {text}"
    assert len(text) > 6_000_000
    t0 = time.perf_counter()
    f = parse_formula(text)
    elapsed = time.perf_counter() - t0
    a_o_a = Lolli(Atom("a"), Atom("a"))
    lefts, last = _right_spine(f, k)
    assert last == a_o_a
    groups = lefts[::-1]  # groups[j] is the formula of (B(j))
    assert groups[0] == a_o_a
    for j in range(1, k):
        inner, last = _right_spine(groups[j], j)
        assert all(x is y for x, y in zip(inner, groups[j - 1::-1])), j
        assert last == a_o_a
    assert _reachable([f]) <= 2 * k * k
    # reading the groups takes milliseconds; tokenizing all 6.3 MB, a second
    assert elapsed < 0.25


# --- parse_net ---------------------------------------------------------------


def test_parse_net_shares_a_formula_between_equal_texts():
    shared = 0
    for name, net in machine_nets().items():
        back = parse_net(print_net(net))
        assert back == net, name
        by_text = {}
        for e in back.edges.values():
            text = format_formula(e.formula)
            if text in by_text:
                assert e.formula is by_text[text], (name, e.id)
                shared += 1
            else:
                by_text[text] = e.formula
    assert shared


# --- the double-strategy walk of check_monotonicity -----------------------------


def test_monotonicity_walk_is_normalize_double_trace(monkeypatch):
    nets = dict(corpus.full_corpus())
    for k in (2, 3, 4):
        nets[f"church-{k}"] = _applied(_church(k, "t"))
    expected = {name: [(s.kind, s.edge) for s in normalize(net, DOUBLE)[1].steps]
                for name, net in nets.items()}
    fired = []

    def recording_fire(net, cut, **kwargs):
        fired.append((cut.kind, cut.edge))
        return fire(net, cut, **kwargs)

    monkeypatch.setattr(rewrite, "fire", recording_fire)
    for name, net in nets.items():
        fired.clear()
        assert suite.check_monotonicity(net, WeightComputer(net)) == [], name
        assert fired == expected[name], name


def test_run_suite_searches_each_copy_of_its_inputs_once(monkeypatch):
    nets = dict(corpus.full_corpus())
    for k in (2, 3):
        nets[f"church-{k}"] = _applied(_church(k, "t"))
    inputs = {id(net): name for name, net in nets.items()}
    searched = Counter()
    search = weights.search_copy_candidates

    def counting(net, edge, us, config):
        if id(net) in inputs:
            searched[inputs[id(net)], edge, us] += 1
        return search(net, edge, us, config)

    monkeypatch.setattr(weights, "search_copy_candidates", counting)
    assert suite.run_suite(nets=nets) == []
    assert {name for name, _, _ in searched} >= {"church-2", "church-3"}
    assert set(searched.values()) == {1}


def test_monotonicity_reports_a_walk_over_budget(monkeypatch):
    net = _applied(_church(2, "t"))
    steps = len(normalize(net, DOUBLE)[1].steps)
    monkeypatch.setattr(suite, "REWRITE_BUDGET", steps)
    assert suite.check_monotonicity(net, WeightComputer(net)) == []
    monkeypatch.setattr(suite, "REWRITE_BUDGET", steps - 1)
    assert suite.check_monotonicity(net, WeightComputer(net)) == [
        f"the double-strategy walk left cuts after {steps - 1} steps"]
