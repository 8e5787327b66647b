"""Graphviz export: boxes render as nested clusters, cut edges in red."""

from __future__ import annotations

from . import net as N
from .formulas import format_formula
from .rewrite import classify_edge

_SHOW = {
    N.RLOLLI: "R-o", N.LLOLLI: "L-o", N.RTENSOR: "R*", N.LTENSOR: "L*",
    N.RFORALL: "Rall", N.LFORALL: "Lall", N.RBANG: "R!", N.LBANG: "L!",
    N.RSEC: "Rsec", N.LSEC: "Lsec", N.WEAK: "W", N.CONTR: "X",
    N.DER: "D", N.DIG: "N", N.PREM: "P", N.CONCL: "C", N.MUX: "M",
}


def export_dot(net: N.ProofNet) -> str:
    lines = ["digraph proofnet {", "  rankdir=BT;", "  node [shape=circle];"]

    children: dict[str | None, list[str]] = {}
    for pid in net.boxes:
        children.setdefault(net.theta(pid), []).append(pid)

    placed: set[str] = set()

    def vertex_line(vid: str, indent: str) -> str:
        v = net.vertices[vid]
        label = _SHOW.get(v.label, v.label)
        if v.label == N.MUX:
            label = f"M{v.arity}"
        return f'{indent}{vid} [label="{label}"];'

    def kids(pid):
        """The boxes right inside pid, or the outermost ones for None, in
        the reverse of their id order, as the stack below pops them."""
        return sorted(children.get(pid, []), key=N._numkey)[::-1]

    # boxes to open, as (pid, indent), and (None, indent) to close one
    todo = [(pid, "  ") for pid in kids(None)]
    while todo:
        pid, indent = todo.pop()
        if pid is None:
            lines.append(f"{indent}}}")
            continue
        b = net.boxes[pid]
        lines.append(f"{indent}subgraph cluster_{pid} {{")
        lines.append(f'{indent}  label="box {pid}"; style=rounded;')
        for vid in sorted([pid, *b.doors], key=N._numkey):
            lines.append(vertex_line(vid, indent + "  "))
            placed.add(vid)
        direct = set(b.contents)
        for q in children.get(pid, []):
            inner = net.boxes[q]
            direct -= inner.contents | {q, *inner.doors}
        for vid in sorted(direct, key=N._numkey):
            lines.append(vertex_line(vid, indent + "  "))
            placed.add(vid)
        todo.append((None, indent))
        todo.extend((q, indent + "  ") for q in kids(pid))
    for v in net.vertices_sorted():
        if v.id not in placed:
            lines.append(vertex_line(v.id, "  "))

    for e in net.edges_sorted():
        attrs = [f'label="{format_formula(e.formula)}"']
        if classify_edge(net, e.id):
            attrs.append("color=red")
        lines.append(
            f"  {e.src[0]} -> {e.tgt[0]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
