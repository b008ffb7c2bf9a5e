"""Graphviz export with a stable, byte-reproducible layout."""
from __future__ import annotations

from .automata import EPSILON, Automaton


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def dot_export(a: Automaton, name: str = "automaton") -> str:
    """DOT text for the automaton.

    Initial states get an arrow from an invisible point, hidden moves show as
    dashed edges, and everything is emitted in a fixed order so the same
    automaton always yields the same bytes.
    """
    starts = sorted(a.initials, key=a.sort_key)
    # DOT reads a quoted and a bare ID alike, so no start point may take a
    # state's name.
    start = "__start"
    while any(f"{start}{i}" in a.states for i in range(len(starts))):
        start = "_" + start
    lines = [f"digraph {_quote(name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=circle];")
    for i in range(len(starts)):
        lines.append(f"  {start}{i} [shape=point, style=invis];")
    for q in a.states:
        lines.append(f"  {_quote(q)};")
    for i, q in enumerate(starts):
        lines.append(f"  {start}{i} -> {_quote(q)};")
    for src, label, dst in sorted(
        a.transitions, key=lambda t: (a.sort_key(t[0]), t[1], a.sort_key(t[2]))
    ):
        if label == EPSILON:
            lines.append(
                f"  {_quote(src)} -> {_quote(dst)} [label=\"ε\", style=dashed];"
            )
        else:
            lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
