"""The compiled transition table and the formula reader, against the code
they replace.

`step` once dispatched on the endpoint's label and port at every call, and
`parse_formula` was a recursive-descent reader.  Both are copied below as
references.  Compiled `step` must give the same successors, in the same
order, or raise the same exception type, on every edge, both polarities,
jumps on and off, and stacks topped by each symbol, each signature
constructor and a hole; the reader must accept the same texts and give
equal values.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from pnlab import corpus, rewrite, suite
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


def test_reducts_get_a_table_of_their_own():
    """The table of a net is never handed to a reduct; retag shares it."""
    stacks = ((E,), (E, "a"), (E, E), (lsig(E),), ("o",))
    for name, net in machine_nets().items():
        for c in contexts(net, stacks):
            step(net, c)
        assert len(net._index.transitions) == 2 * len(net.edges)
        assert N.retag(net, "ELL")._index.transitions is net._index.transitions
        for cut in find_cuts(net):
            reduct, _ = fire(net, cut)
            assert reduct._index.transitions == {}, (name, cut)
            assert_steps_agree(reduct, (name, cut), stacks)


def test_every_transition_on_a_nonempty_stack_has_its_dual():
    """d in step(c) implies dual(c) in step(dual(d)), checked on the table
    itself: every edge of every machine net, both polarities, both U values
    and every nonempty stack of STACKS.  The suite's reversibility check
    sees only the transitions a walk records; this one reaches every rule
    the table derives, on contexts no walk from a final one meets.

    Empty stacks are left out, because there the duality fails: 439 of the
    973 transitions from an empty stack have no dual.  A box exit onto an
    empty stack, for one, leaves a single signature, from which the dual
    context crosses the boundary by a jump instead of re-entering the box.
    """
    checked = 0
    for name, net in machine_nets().items():
        for c in contexts(net, STACKS[1:]):
            for d in step(net, c):
                assert dual(c) in step(net, dual(d)), (name, c, d)
                checked += 1
    assert checked == 58071


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

    def recording_fire(net, cut):
        fired.append((cut.kind, cut.edge))
        return fire(net, cut)

    monkeypatch.setattr(rewrite, "fire", recording_fire)
    for name, net in nets.items():
        fired.clear()
        assert suite.check_monotonicity(net) == [], name
        assert fired == expected[name], name


def test_monotonicity_reports_a_walk_over_budget(monkeypatch):
    net = _applied(_church(2, "t"))
    steps = len(normalize(net, DOUBLE)[1].steps)
    monkeypatch.setattr(suite, "REWRITE_BUDGET", steps)
    assert suite.check_monotonicity(net) == []
    monkeypatch.setattr(suite, "REWRITE_BUDGET", steps - 1)
    assert suite.check_monotonicity(net) == [
        f"the double-strategy walk left cuts after {steps - 1} steps"]
