"""JSON and DOT encodings.

All dumps are deterministic (sorted keys, fixed indentation, trailing
newline), so canonical forms of isomorphic systems serialize to identical
bytes.  Symbols appear by display name in files; indices stay internal.

Spec payloads carry a `kind` discriminator: `sft`, `sofic`, `dyck`,
`markov_dyck`, `full`, `expanded`.  System files mirror the dataclass:
levels with tags, per-layer labeled edges, and the collapse arrays.
Reports, specs and verdicts go through `json.dumps(indent=2,
sort_keys=True)`.  System files are written directly from the system's
tuples, in the same bytes that call would give, and each distinct gap
and level is rendered once: a gap that repeats the gap above it
(`LambdaGraphSystem.repeats`), and a level equal to the level above,
reuse the text of the one above.  The loader shares them again.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .alphabet import Alphabet
from .labeled_graph import from_names
from .subshift import (
    DyckN,
    Expanded,
    FullShift,
    MarkovDyck,
    SftForbidden,
    SoficGraph,
    SubshiftSpec,
)
from .system import LambdaGraphSystem, VertexLevel
from .invariants import InvariantReport
from .verdict import Verdict


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Fields(dict):
    """A JSON object read by `spec_loads` or `system_loads`: reading a field
    it lacks is invalid input, a ValueError that names the field."""

    def __missing__(self, key: str) -> Any:
        raise ValueError(f"missing field {key!r}")


# -- subshift specs ------------------------------------------------------


def spec_to_payload(spec: SubshiftSpec) -> dict:
    if isinstance(spec, SftForbidden):
        return {
            "kind": "sft",
            "alphabet": list(spec.alphabet.names),
            "forbidden": sorted(spec.alphabet.text(f) for f in spec.forbidden),
        }
    if isinstance(spec, SoficGraph):
        g = spec.graph
        return {
            "kind": "sofic",
            "alphabet": list(g.alphabet.names),
            "vertices": list(g.vertices),
            "edges": [
                [g.vertices[s], g.alphabet.names[a], g.vertices[t]]
                for s, a, t in sorted(g.edges)
            ],
        }
    if isinstance(spec, DyckN):
        return {"kind": "dyck", "n": spec.n}
    if isinstance(spec, MarkovDyck):
        return {"kind": "markov_dyck", "matrix": [list(row) for row in spec.matrix]}
    if isinstance(spec, FullShift):
        return {"kind": "full", "n": spec.n}
    if isinstance(spec, Expanded):
        return {
            "kind": "expanded",
            "base": spec_to_payload(spec.base),
            "target": spec.base.alphabet.names[spec.target],
            "fresh": spec.fresh_name,
        }
    raise ValueError(f"unserializable spec {type(spec).__name__}")


def _strings(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


def _integer(value: Any, what: str) -> int:
    # bool is a subclass of int, and JSON true/false are not counts
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def spec_from_payload(payload: dict) -> SubshiftSpec:
    """Spec from its JSON payload; a malformed field raises ValueError."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError("spec payload must be an object with a 'kind' field")
    kind = payload["kind"]
    if kind == "sft":
        alphabet = Alphabet(tuple(_strings(payload["alphabet"], "alphabet")))
        forbidden = frozenset(alphabet.word(w) for w in _strings(payload["forbidden"], "forbidden"))
        return SftForbidden(alphabet, forbidden)
    if kind == "sofic":
        alphabet = Alphabet(tuple(_strings(payload["alphabet"], "alphabet")))
        edges = payload["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 3 and all(isinstance(x, str) for x in e)
            for e in edges
        ):
            raise ValueError("edges must be [source, label, target] string triples")
        graph = from_names(
            alphabet,
            _strings(payload["vertices"], "vertices"),
            [tuple(e) for e in edges],
        )
        return SoficGraph(graph)
    if kind == "dyck":
        return DyckN(_integer(payload["n"], "n"))
    if kind == "markov_dyck":
        rows = payload["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("matrix must be a list of rows")
        matrix = tuple(tuple(_integer(x, "matrix entry") for x in row) for row in rows)
        return MarkovDyck(matrix)
    if kind == "full":
        return FullShift(_integer(payload["n"], "n"))
    if kind == "expanded":
        base = spec_from_payload(payload["base"])
        if not isinstance(base, (DyckN, MarkovDyck)):
            raise ValueError("expanded specs wrap only Dyck-type bases")
        target, fresh = payload["target"], payload["fresh"]
        if not isinstance(target, str) or not isinstance(fresh, str):
            raise ValueError("expanded specs need string 'target' and 'fresh' fields")
        return Expanded(base=base, target=base.alphabet.index(target), fresh_name=fresh)
    raise ValueError(f"unknown spec kind {kind!r}")


def spec_dumps(spec: SubshiftSpec) -> str:
    return dumps(spec_to_payload(spec))


def spec_loads(text: str) -> SubshiftSpec:
    return spec_from_payload(json.loads(text, object_pairs_hook=_Fields))


# -- systems -------------------------------------------------------------


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _level(value: Any) -> VertexLevel:
    if not isinstance(value, dict):
        raise ValueError("each level must be an object with 'size' and 'tags'")
    size = _integer(value["size"], "level size")
    return VertexLevel(size=size, tags=tuple(_strings(value["tags"], "level tags")))


def _edge(value: Any, alphabet: Alphabet) -> tuple[int, int, int]:
    if not (isinstance(value, list) and len(value) == 3 and isinstance(value[1], str)):
        raise ValueError(f"edges must be [source, label, target] triples, got {value!r}")
    s, a, t = value
    return (_integer(s, "edge source"), alphabet.index(a), _integer(t, "edge target"))


def _shared_runs(items: list, parse: Callable[[Any], Any], plain: Callable[[Any], bool]) -> tuple:
    """`parse` each item, except that an item equal to the one before it
    gets that item's parsed object, so a repeated gap shares its level,
    edge layer and collapse.  `plain(item)` must hold as well: Python
    equates JSON true and 1.0 with 1, which are not counts."""
    parsed: list = []
    for k, item in enumerate(items):
        if k and item == items[k - 1] and plain(item):
            parsed.append(parsed[-1])
        else:
            parsed.append(parse(item))
    return tuple(parsed)


def system_from_payload(payload: dict) -> LambdaGraphSystem:
    """System from its JSON payload; a malformed field raises ValueError."""
    if not isinstance(payload, dict):
        raise ValueError("system payload must be an object")
    alphabet = Alphabet(tuple(_strings(payload["alphabet"], "alphabet")))
    levels = _shared_runs(
        _list(payload["levels"], "levels"),
        _level,
        lambda level: type(level["size"]) is int,
    )
    edges = _shared_runs(
        _list(payload["edges"], "edges"),
        lambda layer: tuple(sorted({_edge(e, alphabet) for e in _list(layer, "edge layer")})),
        lambda layer: all(type(s) is int and type(t) is int for s, _, t in layer),
    )
    iota = _shared_runs(
        _list(payload["iota"], "iota"),
        lambda mapping: tuple(_integer(v, "iota image") for v in _list(mapping, "iota layer")),
        lambda mapping: all(type(v) is int for v in mapping),
    )
    return LambdaGraphSystem(alphabet=alphabet, levels=levels, edges=edges, iota=iota)


def _block(items: list[str], pad: str) -> str:
    """The `dumps` text of a list whose items are rendered already: one item
    a line indented by `pad`, the closing bracket two spaces less."""
    if not items:
        return "[]"
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def system_dumps(sys: LambdaGraphSystem) -> str:
    """`dumps` of the payload {alphabet, edges, iota, levels}, written
    straight from the system: the edges are [source, symbol name, target]
    triples and each level is {size, tags}.  A repeated gap and a level
    equal to the one above reuse the text of the one above."""
    quote = encode_basestring_ascii
    names = [quote(name) for name in sys.alphabet.names]
    # the text of an edge between its source and its target
    middles = [f",\n        {name},\n        " for name in names]
    edges: list[str] = []
    iota: list[str] = []
    for l, (layer, mapping) in enumerate(zip(sys.edges, sys.iota)):
        if sys.repeats[l]:
            edges.append(edges[-1])
            iota.append(iota[-1])
            continue
        edges.append(_block([f"[\n        {s}{middles[a]}{t}\n      ]" for s, a, t in layer], "      "))
        iota.append(_block([str(image) for image in mapping], "      "))
    levels: list[str] = []
    above = None
    for level in sys.levels:
        # the builders and the loader share a repeated level's object
        if level is above or level == above:
            levels.append(levels[-1])
            continue
        above = level
        tags = _block([quote(tag) for tag in level.tags], "        ")
        levels.append(f'{{\n      "size": {level.size},\n      "tags": {tags}\n    }}')
    return (
        f'{{\n  "alphabet": {_block(names, "    ")},\n'
        f'  "edges": {_block(edges, "    ")},\n'
        f'  "iota": {_block(iota, "    ")},\n'
        f'  "levels": {_block(levels, "    ")}\n}}\n'
    )


def system_loads(text: str) -> LambdaGraphSystem:
    return system_from_payload(json.loads(text, object_pairs_hook=_Fields))


# -- verdicts and reports ------------------------------------------------


def verdict_payload(verdict: Verdict) -> dict:
    """Every witness is an int or a nested tuple of ints, which `dumps`
    writes as lists."""
    out: dict[str, Any] = {"verdict": verdict.kind}
    if verdict.witness is not None:
        out["witness"] = verdict.witness
    if verdict.note:
        out["note"] = verdict.note
    return out


def group_payload(group) -> dict:
    return {
        "rank": group.free_rank,
        "torsion": list(group.torsion),
        "text": str(group),
    }


def report_to_payload(report: InvariantReport) -> dict:
    stabilized: dict[str, Any] = {"verdict": report.stabilized.kind}
    if report.stabilized.is_yes:
        stabilized["level"] = report.stabilized.witness
    if report.stabilized.note:
        stabilized["note"] = report.stabilized.note
    return {
        "sizes": list(report.sizes),
        "levels": [
            {
                "level": g.level,
                "k0": group_payload(g.k0),
                "k1": group_payload(g.k1),
                "bf0": group_payload(g.bf0),
                "bf1": group_payload(g.bf1),
            }
            for g in report.groups
        ],
        "connecting": list(report.connecting),
        "stabilized": stabilized,
    }


def report_dumps(report: InvariantReport) -> str:
    return dumps(report_to_payload(report))


# -- DOT -----------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(sys: LambdaGraphSystem) -> str:
    """Graphviz rendering: one cluster per level, solid labeled edges
    downward, dashed edges for the collapse map.  Requires every edge layer
    to be populated; rejects degenerate systems."""
    for l, layer in enumerate(sys.edges):
        if not layer:
            raise ValueError(f"edge layer {l} is empty; nothing to draw")
    lines = ["digraph system {", "  rankdir=TB;", "  node [shape=box];"]
    for l, level in enumerate(sys.levels):
        lines.append(f"  subgraph cluster_{l} {{")
        lines.append(f'    label="level {l}";')
        for v in range(level.size):
            tag = level.tags[v] if level.tags[v] else str(v)
            lines.append(f"    {_dot_quote(f'{l}/{v}')} [label={_dot_quote(tag)}];")
        lines.append("  }")
    for l, layer in enumerate(sys.edges):
        for s, a, t in layer:
            lines.append(
                f"  {_dot_quote(f'{l}/{s}')} -> {_dot_quote(f'{l + 1}/{t}')} "
                f"[label={_dot_quote(sys.alphabet.names[a])}];"
            )
    for l, mapping in enumerate(sys.iota):
        for v, image in enumerate(mapping):
            lines.append(
                f"  {_dot_quote(f'{l + 1}/{v}')} -> {_dot_quote(f'{l}/{image}')} "
                f"[style=dashed, arrowhead=empty, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
