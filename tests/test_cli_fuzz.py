"""`lgk.cli.main` on mutated spec and system payloads.

Every run ends in one of the documented exit codes, 0 to 3, and no
exception escapes `main`.  The mutations drop keys, retype values,
duplicate or delete a level gap of a system, and put a JSON `true` or
`1.0` where an integer of an edge, collapse or level stands, repeated
gaps included.  Integers stay in -2..6, depths at most 3 and the budget at
20000 units, so no run asks for much.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIB, golden_mean_spec
from lgk.cli import main
from lgk.serialize import system_dumps
from lgk.system import build_cantor_horizon_dyck, build_cantor_horizon_markov_dyck, build_lambda_synchronizing

SPECS = Path(__file__).resolve().parent.parent / "specs"
SPEC_PAYLOADS = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(SPECS.glob("*.json"))]
# the golden mean's quotient repeats its gaps from gap 2 on
SYSTEM_PAYLOADS = [
    json.loads(system_dumps(sys))
    for sys in (
        build_lambda_synchronizing(golden_mean_spec(), 4),
        build_cantor_horizon_dyck(2, 2),
        build_cantor_horizon_markov_dyck(FIB, 3),
    )
]
SYMBOLS = ["a1", "b2", "0", "1", "x"]

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.just(1.0),
    st.sampled_from(["", "a", "a1", "x y", "dyck", "sft"]),
    st.lists(st.integers(-2, 6), max_size=3),
    st.just({}),
)


def _places(node, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _places(child, path + (key,))


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _mutate(payload, data):
    kind = data.draw(st.sampled_from(["drop", "retype", "gap", "flag"]), label="mutation")
    places = [path for path, _ in _places(payload) if path]
    if kind == "gap" and isinstance(payload.get("edges"), list) and payload["edges"]:
        gap = data.draw(st.integers(0, len(payload["edges"]) - 1), label="gap")
        duplicate = data.draw(st.booleans(), label="duplicate")
        for key, at in (("edges", gap), ("iota", gap), ("levels", gap + 1)):
            items = payload.get(key)
            if isinstance(items, list) and at < len(items):
                if duplicate:
                    items.insert(at, copy.deepcopy(items[at]))
                else:
                    del items[at]
    elif kind == "flag":
        ints = [path for path, value in _places(payload) if type(value) is int]
        if ints:
            path = data.draw(st.sampled_from(ints), label="where")
            _parent(payload, path)[path[-1]] = data.draw(st.sampled_from([True, 1.0]), label="flag")
    elif places:
        path = data.draw(st.sampled_from(places), label="where")
        if kind == "drop":
            del _parent(payload, path)[path[-1]]
        else:
            _parent(payload, path)[path[-1]] = data.draw(json_values, label="value")


def _argv(data, input_flag, path):
    depth = ["--depth", str(data.draw(st.integers(0, 3), label="depth"))]
    budget = ["--budget", "20000"]
    symbol = ["--expand", data.draw(st.sampled_from(SYMBOLS), label="symbol")]
    if input_flag == "--system":
        command = data.draw(st.sampled_from(["verify", "invariants", "export-dot"]), label="command")
        return [command, "--system", path] + budget
    command = data.draw(
        st.sampled_from(["build", "verify", "invariants", "export-dot", "flowcheck", "expand"]), label="command"
    )
    if command == "expand":
        return [command, "--spec", path] + symbol
    return [command, "--spec", path] + depth + budget + (symbol if command == "flowcheck" else [])


@pytest.fixture(scope="module")
def payload_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "payload.json"


@settings(max_examples=200)
@given(st.data())
def test_cli_survives_mutated_payloads(payload_file, data):
    input_flag = data.draw(st.sampled_from(["--spec", "--system"]), label="input")
    bases = SPEC_PAYLOADS if input_flag == "--spec" else SYSTEM_PAYLOADS
    payload = copy.deepcopy(data.draw(st.sampled_from(bases), label="base"))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        _mutate(payload, data)
    payload_file.write_text(json.dumps(payload), encoding="utf-8")
    argv = _argv(data, input_flag, str(payload_file))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
