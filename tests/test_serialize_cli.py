"""JSON/DOT encodings and the command-line surface.

CLI tests drive `main(argv)` in-process against the spec files shipped in
specs/, so they double as a format check on those files.
"""

import hashlib
import json
import os
import subprocess
import sys as _sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIB, even_shift_spec, golden_mean_spec
from lgk.alphabet import Alphabet
from lgk.cli import main
from lgk.serialize import (
    dumps,
    export_dot,
    report_dumps,
    spec_dumps,
    spec_loads,
    system_dumps,
    system_loads,
    verdict_payload,
)
from lgk.subshift import DyckN, Expanded, FullShift, MarkovDyck
from lgk.system import (
    LambdaGraphSystem,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_lambda_synchronizing,
    canonical_form,
)
from lgk.invariants import invariant_report
from lgk.verdict import Verdict

SPECS = Path(__file__).resolve().parent.parent / "specs"


def unseparated_system(depth: int = 2) -> LambdaGraphSystem:
    """Two disjoint equally-labeled loops: passes every local check except
    predecessor separation."""
    level = VertexLevel(size=2, tags=("", ""))
    return LambdaGraphSystem(
        alphabet=Alphabet(("x",)),
        levels=(level,) * (depth + 1),
        edges=(((0, 0, 0), (1, 0, 1)),) * depth,
        iota=((0, 1),) * depth,
    )


# -- serialization -------------------------------------------------------


def test_spec_roundtrip_every_kind():
    specs = [
        golden_mean_spec(),
        even_shift_spec(),
        DyckN(2),
        MarkovDyck(FIB),
        FullShift(3),
        Expanded(base=DyckN(2), target=0, fresh_name="e"),
    ]
    for spec in specs:
        text = spec_dumps(spec)
        assert text.endswith("\n")
        assert spec_loads(text) == spec
        assert spec_dumps(spec_loads(text)) == text


def test_spec_dump_is_deterministic():
    text = spec_dumps(golden_mean_spec())
    payload = json.loads(text)
    # key order in the file does not matter for loading
    shuffled = json.dumps(dict(reversed(list(payload.items()))))
    assert spec_loads(shuffled) == golden_mean_spec()
    assert list(payload) == sorted(payload)


def test_spec_payload_validation():
    with pytest.raises(ValueError):
        spec_loads("[]")
    with pytest.raises(ValueError):
        spec_loads('{"kind": "mystery"}')
    bad_expanded = {
        "kind": "expanded",
        "base": {"kind": "full", "n": 2},
        "target": "0",
        "fresh": "e",
    }
    with pytest.raises(ValueError):
        spec_loads(json.dumps(bad_expanded))
    for mistyped in (
        {"kind": "dyck", "n": True},
        {"kind": "full", "n": "3"},
        {"kind": "markov_dyck", "matrix": [[1, 1], [1, 0.0]]},
        {"kind": "markov_dyck", "matrix": 5},
        {"kind": "sofic", "alphabet": ["0"], "vertices": ["u"], "edges": [["u", "0"]]},
        {"kind": "expanded", "base": {"kind": "dyck", "n": 2}, "target": "a1", "fresh": None},
    ):
        with pytest.raises(ValueError):
            spec_loads(json.dumps(mistyped))


def test_system_roundtrip():
    for sys in [
        build_lambda_synchronizing(golden_mean_spec(), 3),
        build_cantor_horizon_dyck(2, 3),
    ]:
        text = system_dumps(sys)
        assert system_loads(text) == sys


# Characters a JSON encoder escapes or, writing ASCII, spells out: quotes,
# backslashes, control characters, non-ASCII text and lone surrogates.
ODD = st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'), st.characters())


@st.composite
def odd_systems(draw) -> LambdaGraphSystem:
    """A system whose symbol names and tags hold odd characters, with empty
    edge layers and depth 0 allowed, and a tail of up to three gaps that
    repeat the last drawn gap, as the same objects or as equal copies."""
    symbol = st.text(ODD, min_size=1, max_size=3).filter(lambda name: not any(c.isspace() for c in name))
    names = draw(st.lists(symbol, min_size=1, max_size=3, unique=True))
    depth = draw(st.integers(0, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=depth + 1, max_size=depth + 1))
    tail = draw(st.integers(0, 3)) if depth else 0
    if tail:
        sizes[-1] = sizes[-2]
    tags = st.text(ODD, max_size=3)
    levels = [VertexLevel(m, tuple(draw(st.lists(tags, min_size=m, max_size=m)))) for m in sizes]
    edges, iota = [], []
    for l in range(depth):
        triples = st.tuples(
            st.integers(0, sizes[l] - 1), st.integers(0, len(names) - 1), st.integers(0, sizes[l + 1] - 1)
        )
        edges.append(tuple(sorted(draw(st.sets(triples, max_size=4)))))
        images = st.integers(0, sizes[l] - 1)
        iota.append(tuple(draw(st.lists(images, min_size=sizes[l + 1], max_size=sizes[l + 1]))))
    for _ in range(tail):
        if draw(st.booleans()):
            levels.append(VertexLevel(levels[-1].size, tuple(list(levels[-1].tags))))
            edges.append(tuple(list(edges[-1])))
            iota.append(tuple(list(iota[-1])))
        else:
            levels.append(levels[-1])
            edges.append(edges[-1])
            iota.append(iota[-1])
    return LambdaGraphSystem(Alphabet(tuple(names)), tuple(levels), tuple(edges), tuple(iota))


def assert_written_as_the_generic_encoder_writes(sys):
    levels = [(level.size, level.tags) for level in sys.levels]
    text = system_dumps(sys)
    assert text == oracles.system_json(sys.alphabet.names, levels, sys.edges, sys.iota)
    loaded = system_loads(text)
    assert loaded == sys and loaded.repeats == sys.repeats
    for l, repeated in enumerate(sys.repeats):
        if repeated:
            assert loaded.edges[l] is loaded.edges[l - 1] and loaded.iota[l] is loaded.iota[l - 1]
    for l in range(sys.depth):
        if sys.levels[l + 1] == sys.levels[l]:
            assert loaded.levels[l + 1] is loaded.levels[l]


@settings(max_examples=200)
@given(odd_systems())
@example(LambdaGraphSystem(Alphabet(('"',)), (VertexLevel(1, ("\\",)),), (), ()))
def test_system_dumps_writes_what_the_generic_encoder_writes(sys):
    assert_written_as_the_generic_encoder_writes(sys)


@pytest.mark.parametrize("name", ["goldenmean", "even_shift", "full3", "dyck2", "markovdyck_fib"])
def test_built_systems_are_written_as_the_generic_encoder_writes(name):
    spec = spec_loads((SPECS / f"{name}.json").read_text())
    for depth in (1, 2, 8):
        assert_written_as_the_generic_encoder_writes(build_lambda_synchronizing(spec, depth))


def test_system_loads_sorts_and_dedups_edges():
    sys = build_lambda_synchronizing(golden_mean_spec(), 2)
    payload = json.loads(system_dumps(sys))
    layer = payload["edges"][1]
    payload["edges"][1] = [layer[-1]] + layer + [layer[0]]
    assert system_loads(json.dumps(payload)) == sys


def test_system_loads_shares_repeated_gaps():
    sys = build_lambda_synchronizing(golden_mean_spec(), 5)
    text = system_dumps(sys)
    loaded = system_loads(text)
    assert loaded == sys and loaded.repeats == sys.repeats == (False, False, True, True, True)
    for l in (2, 3, 4):
        assert loaded.levels[l + 1] is loaded.levels[l]
        assert loaded.edges[l] is loaded.edges[l - 1] and loaded.iota[l] is loaded.iota[l - 1]
    # Python equates JSON true and 1.0 with 1, but a repeated item holding
    # them is no more a count than the first such item would be.
    for field, lookalike in (
        ("levels", lambda level: {**level, "size": float(level["size"])}),
        ("edges", lambda layer: [[s, a, float(t)] for s, a, t in layer]),
        ("iota", lambda mapping: [bool(v) for v in mapping]),
    ):
        payload = json.loads(text)
        payload[field][4] = lookalike(payload[field][4])
        with pytest.raises(ValueError, match="must be an integer"):
            system_loads(json.dumps(payload))


def test_canonical_forms_serialize_to_identical_bytes():
    from lgk.subshift import SoficGraph, sft_cover

    direct = build_lambda_synchronizing(golden_mean_spec(), 4)
    cover = sft_cover(golden_mean_spec())
    via_cover = build_lambda_synchronizing(SoficGraph(cover), 4)
    assert system_dumps(canonical_form(direct)) == system_dumps(canonical_form(via_cover))


def test_report_payload_shape():
    report = invariant_report(build_lambda_synchronizing(golden_mean_spec(), 4))
    payload = json.loads(report_dumps(report))
    assert set(payload) == {"sizes", "levels", "connecting", "stabilized"}
    assert payload["sizes"] == [1, 2, 2, 2, 2]
    assert payload["stabilized"] == {"verdict": "yes", "level": 1}
    assert payload["levels"][0]["k0"] == {"rank": 1, "torsion": [], "text": "Z"}
    assert all(payload["connecting"])


def test_verdict_payloads():
    assert verdict_payload(Verdict.yes()) == {"verdict": "yes"}
    # tuples, nested ones too, are written as JSON lists
    nested = dumps(verdict_payload(Verdict.no(witness=(1, (2, 3)))))
    assert json.loads(nested) == {"verdict": "no", "witness": [1, [2, 3]]}
    assert verdict_payload(Verdict.unknown(note="depth")) == {
        "verdict": "unknown",
        "note": "depth",
    }


def test_export_dot_structure():
    sys = build_lambda_synchronizing(golden_mean_spec(), 2)
    dot = export_dot(sys)
    assert dot.startswith("digraph system {")
    assert dot.endswith("}\n")
    for l in range(3):
        assert f"subgraph cluster_{l}" in dot
    assert dot.count("style=dashed") == sum(len(m) for m in sys.iota)
    assert '[label="1"]' in dot


def test_export_dot_rejects_empty_layer():
    sys = LambdaGraphSystem(
        alphabet=Alphabet(("x",)),
        levels=(VertexLevel(1, ("",)), VertexLevel(1, ("",))),
        edges=((),),
        iota=((0,),),
    )
    with pytest.raises(ValueError):
        export_dot(sys)


# -- CLI -----------------------------------------------------------------


@pytest.fixture(autouse=True)
def _no_budget_env(monkeypatch):
    monkeypatch.delenv("LGK_BUDGET", raising=False)


def test_cli_build_text(capsys):
    assert main(["build", "--spec", str(SPECS / "goldenmean.json"), "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "level  vertices" in out
    assert out.count("2") >= 3


def test_cli_build_json_stdout(capsys):
    code = main(
        ["build", "--spec", str(SPECS / "dyck2.json"), "--depth", "3", "--format", "json"]
    )
    assert code == 0
    sys = system_loads(capsys.readouterr().out)
    assert sys.sizes == (1, 2, 4, 8)
    assert sys == build_cantor_horizon_dyck(2, 3)


def test_cli_build_out_file(tmp_path, capsys):
    target = tmp_path / "system.json"
    code = main(
        ["build", "--spec", str(SPECS / "goldenmean.json"), "--depth", "2", "--out", str(target)]
    )
    assert code == 0
    assert "system written to" in capsys.readouterr().out
    assert system_loads(target.read_text()) == build_lambda_synchronizing(
        golden_mean_spec(), 2
    )


def test_cli_verify_passes_on_clean_system(capsys):
    code = main(["verify", "--spec", str(SPECS / "goldenmean.json"), "--depth", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simplicity predicted:" in out
    assert "no" not in out.replace("unknown", "")


def test_cli_verify_json(capsys):
    code = main(
        ["verify", "--spec", str(SPECS / "full2.json"), "--depth", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["left-resolving"] == {"verdict": "yes"}
    assert payload["simplicity predicted"]["verdict"] == "yes"


def test_cli_verify_shallow_depth_is_inconclusive(capsys):
    code = main(["verify", "--spec", str(SPECS / "even_shift.json"), "--depth", "5"])
    assert code == 3
    assert "unknown" in capsys.readouterr().out


def test_cli_verify_flags_broken_system(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(system_dumps(unseparated_system()))
    code = main(["verify", "--system", str(bad)])
    assert code == 1
    assert "predecessor-separated:" in capsys.readouterr().out


def test_cli_invariants_json(capsys):
    code = main(
        ["invariants", "--spec", str(SPECS / "dyck2.json"), "--depth", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == [1, 2, 4, 8, 16]
    assert payload["levels"][1]["k0"]["text"] == "Z^2 ⊕ Z/2"
    assert payload["stabilized"]["verdict"] == "unknown"


def test_cli_invariants_text(capsys):
    code = main(["invariants", "--spec", str(SPECS / "markovdyck_fib.json"), "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sizes: 1 2 3 5" in out
    assert "stabilized: unknown" in out


def test_cli_expand(capsys):
    code = main(["expand", "--spec", str(SPECS / "goldenmean.json"), "--expand", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sft"
    assert payload["alphabet"] == ["0", "1", "e"]
    assert payload["forbidden"] == ["0 1", "1 1", "e 0", "e 1 e 1", "e e"]


def test_cli_expand_fresh_name(capsys):
    code = main(
        ["expand", "--spec", str(SPECS / "dyck2.json"), "--expand", "b2", "--fresh", "c"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "kind": "expanded",
        "base": {"kind": "dyck", "n": 2},
        "target": "b2",
        "fresh": "c",
    }


@pytest.mark.parametrize("fresh", ["e f", ""])
def test_cli_expand_rejects_a_bad_fresh_name(fresh, capsys):
    # A bracket spec keeps the fresh name in a wrapper spec; that name must
    # be checked as a symbol name at once, as the SFT expansion does.
    argv = ["expand", "--spec", str(SPECS / "dyck2.json"), "--expand", "a1", "--fresh", fresh]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad symbol name {fresh!r}\n"


@pytest.mark.parametrize("command", ["verify", "invariants"])
def test_cli_system_without_a_level_gap_is_invalid(command, tmp_path, capsys):
    flat = tmp_path / "flat.json"
    level = VertexLevel(size=1, tags=("",))
    flat.write_text(system_dumps(LambdaGraphSystem(Alphabet(("a",)), (level,), (), ())))
    assert main([command, "--system", str(flat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one level gap\n"


def test_cli_flowcheck_pass(capsys):
    code = main(
        ["flowcheck", "--spec", str(SPECS / "goldenmean.json"), "--depth", "5", "--expand", "1"]
    )
    assert code == 0
    assert "flow invariance: PASS" in capsys.readouterr().out


def test_cli_flowcheck_bracket_fixed_depth(capsys):
    code = main(
        ["flowcheck", "--spec", str(SPECS / "dyck2.json"), "--depth", "2", "--expand", "a1"]
    )
    assert code == 0
    assert "at this depth" in capsys.readouterr().out


VERIFY_DYCK2 = ["verify", "--spec", str(SPECS / "dyck2.json"), "--depth", "6", "--format", "json"]


def _synchronizing_note(out: str) -> str:
    return json.loads(out)["checks"]["synchronizing system"].get("note", "")


def test_cli_verify_budget_flag(capsys):
    # The launching search of verify draws 90 units on Dyck-2 at depth 6;
    # an exhausted budget leaves its verdict unknown, which exits 3.
    assert main(VERIFY_DYCK2 + ["--budget", "50"]) == 3
    captured = capsys.readouterr()
    assert _synchronizing_note(captured.out) == "budget exhausted after 51 units"
    assert captured.err == ""


@pytest.mark.parametrize("budget, code", [("89", 3), ("90", 0)])
def test_cli_verify_budget_threshold(budget, code, capsys):
    # The budget runs out exactly at the launching search's 90th unit: one
    # per (readable set, symbol) it reads backward.
    assert main(VERIFY_DYCK2 + ["--budget", budget]) == code
    captured = capsys.readouterr()
    note = _synchronizing_note(captured.out)
    assert (note == "budget exhausted after 90 units") == (code == 3)
    assert captured.err == ""


def test_cli_budget_env_and_override(monkeypatch, capsys):
    monkeypatch.setenv("LGK_BUDGET", "50")
    assert main(VERIFY_DYCK2) == 3
    assert _synchronizing_note(capsys.readouterr().out) == "budget exhausted after 51 units"
    assert main(VERIFY_DYCK2 + ["--budget", "2000000"]) == 0


def test_cli_expanded_builds_draw_no_budget(capsys, monkeypatch):
    # An expanded bracket shift builds from its interfaces and enumerates
    # no words, so flowcheck gives its golden bytes on a budget of 0.
    monkeypatch.chdir(SPECS.parent)
    job = ["flowcheck", "--spec", "specs/dyck2.json", "--depth", "3", "--expand", "a1", "--format", "json"]
    assert main(job + ["--budget", "0"]) == 0
    goldens = json.loads((Path(__file__).resolve().parent / "cli_goldens.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == goldens[" ".join(job)]["stdout_sha256"]


NEGATIVE_BUDGET_JOBS = [
    ["verify", "--spec", str(SPECS / "goldenmean.json"), "--depth", "4"],
    ["flowcheck", "--spec", str(SPECS / "dyck2.json"), "--depth", "2", "--expand", "a1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_BUDGET_JOBS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("words", ["-5", "-1"])
def test_cli_negative_budget_is_invalid(argv, words, monkeypatch, capsys):
    # A negative budget is invalid input (exit 2), not an exhausted budget
    # (exit 3); a budget of 0 stays legal.  It exhausts verify's launching
    # and transitivity searches, which report `unknown` in a full report,
    # while flowcheck of an expanded bracket shift draws nothing.
    assert main(argv + ["--budget", words]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv("LGK_BUDGET", words)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv("LGK_BUDGET", "0")
    if argv[0] == "verify":
        assert main(argv + ["--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        checks = json.loads(captured.out)["checks"]
        for name in ("synchronizing system", "synchronizingly transitive"):
            assert checks[name]["verdict"] == "unknown"
            assert checks[name]["note"] == "budget exhausted after 1 units"
    else:
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", NEGATIVE_BUDGET_JOBS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("words", ["abc", "1.5", ""])
def test_cli_non_integer_budget_variable_is_invalid(argv, words, monkeypatch, capsys):
    # A budget variable that is not an integer is invalid input, and the
    # message names the variable and its value.
    monkeypatch.setenv("LGK_BUDGET", words)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: LGK_BUDGET must be an integer, got {words!r}\n"


@pytest.mark.parametrize("command", ["invariants", "export-dot"])
@pytest.mark.parametrize("words", ["-5", "-1"])
def test_cli_negative_budget_is_invalid_on_system_input(command, words, tmp_path, monkeypatch, capsys):
    # A --system input is read, not built, so it draws no words: a budget
    # of 0 runs to exit 0, yet a negative one is still invalid input.
    system = tmp_path / "system.json"
    system.write_text(system_dumps(build_lambda_synchronizing(golden_mean_spec(), 3)))
    argv = [command, "--system", str(system)]
    assert main(argv + ["--budget", words]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv("LGK_BUDGET", words)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setenv("LGK_BUDGET", "0")
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--depth", "3"],
        ["invariants", "--depth", "3"],
        ["flowcheck", "--depth", "3", "--expand", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_empty_shift_is_invalid_input(argv, tmp_path, capsys):
    # Forbidding every symbol leaves no point, so the cover has no vertices.
    spec = tmp_path / "empty.json"
    spec.write_text('{"kind": "sft", "alphabet": ["0", "1"], "forbidden": ["0", "1"]}\n')
    assert main(argv + ["--spec", str(spec)]) == 2
    assert capsys.readouterr().err == "error: the shift is empty: its cover has no vertices\n"


def test_cli_memory_exhaustion_is_inconclusive(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("lgk.cli.build_lambda_synchronizing", exhausted)
    assert main(["build", "--spec", str(SPECS / "goldenmean.json"), "--depth", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: ") and "Traceback" not in err


def test_cli_unknown_symbol_message_has_no_stray_quotes(capsys):
    argv = ["flowcheck", "--spec", str(SPECS / "goldenmean.json"), "--depth", "2", "--expand", "z"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: symbol 'z' not in alphabet ['0', '1']\n"


def test_cli_flowcheck_json(capsys):
    code = main(
        [
            "flowcheck",
            "--spec", str(SPECS / "full3.json"),
            "--depth", "4",
            "--expand", "0",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["base"]["stabilized"]["verdict"] == "yes"


def test_cli_export_dot(tmp_path):
    target = tmp_path / "system.dot"
    code = main(
        ["export-dot", "--spec", str(SPECS / "even_shift.json"), "--depth", "3", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith("digraph system {")


def test_cli_invalid_inputs(tmp_path, capsys):
    assert main(["build", "--spec", str(tmp_path / "missing.json")]) == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "mystery"}\n')
    assert main(["build", "--spec", str(bogus)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["invariants", "--spec", str(broken)]) == 2
    assert main(["verify"]) == 2
    assert main(["expand", "--spec", str(SPECS / "goldenmean.json"), "--expand", "7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload",
    [
        '{"kind": "sft", "alphabet": ["a", "b"], "forbidden": 5}',
        '{"kind": "sft", "alphabet": [1, 2], "forbidden": []}',
        '{"kind": "full", "n": null}',
        '{"kind": "dyck", "n": 2.5}',
    ],
)
def test_cli_malformed_spec_fields_exit_2(tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(payload, encoding="utf-8")
    run = subprocess.run(
        [_sys.executable, "-m", "lgk.cli", "build", "--spec", str(spec), "--depth", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SPECS.parent / "src")},
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("build --spec", '{"kind": "sft", "alphabet": ["0", "1"]}', "missing field 'forbidden'"),
        (
            "invariants --system",
            '{"alphabet": ["a"], "levels": [{"size": 1}], "edges": [], "iota": []}',
            "missing field 'tags'",
        ),
        (
            "build --spec",
            '{"kind": "sofic", "alphabet": ["a"], "vertices": ["u"], "edges": [["u", "a", "v"]]}',
            "edge endpoint 'v' is not a declared vertex",
        ),
    ],
)
def test_cli_invalid_input_names_what_is_wrong(command, payload, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(payload, encoding="utf-8")
    assert main(command.split() + [str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["flowcheck", "--expand", "a1"], "provide --spec"),
        (["build"], "provide --spec"),
        (["verify"], "provide --spec or --system"),
    ],
)
def test_cli_without_an_input_names_the_flags_it_has(argv, message):
    # build and flowcheck read specs only, so they do not offer --system
    run = subprocess.run(
        [_sys.executable, "-m", "lgk.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SPECS.parent / "src")},
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr == f"error: {message}\n"


def test_cli_parser_is_built_once_and_parses_each_call_afresh(capsys):
    from lgk.cli import _build_parser

    assert _build_parser() is _build_parser()
    first = _build_parser().parse_args(
        ["verify", "--spec", "a.json", "--depth", "7", "--budget", "5", "--format", "json"]
    )
    second = _build_parser().parse_args(["invariants", "--system", "b.json"])
    assert (first.command, first.spec, first.depth, first.budget, first.format) == (
        "verify", "a.json", 7, 5, "json"
    )
    assert (second.command, second.spec, second.system, second.depth, second.budget, second.format) == (
        "invariants", None, "b.json", 4, None, "text"
    )
    assert not hasattr(second, "expand")
    spec = str(SPECS / "goldenmean.json")
    assert main(["build", "--spec", spec, "--depth", "2", "--format", "json"]) == 0
    assert system_loads(capsys.readouterr().out).depth == 2
    assert main(["build", "--spec", spec]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4      2"


@pytest.mark.parametrize(
    "payload",
    [
        '{"alphabet": ["a"], "levels": [{"size": 1, "tags": [""]}], "edges": [], "iota": [5]}',
        '{"alphabet": ["a"], "levels": [{"size": 1, "tags": 5}], "edges": [], "iota": []}',
        '{"alphabet": [1], "levels": [], "edges": [], "iota": []}',
        '{"alphabet": ["a"], "levels": [{"size": true, "tags": [""]}], "edges": [], "iota": []}',
        '{"alphabet": ["a"], "levels": [{"size": 1.0, "tags": [""]}], "edges": [], "iota": []}',
        '{"alphabet": ["a"], "levels": [5], "edges": [], "iota": []}',
        '{"alphabet": ["a"], "levels": [{"size": 1, "tags": [""]}, {"size": 1, "tags": [""]}],'
        ' "edges": [[[0, "a", 0.0]]], "iota": [[0]]}',
        '{"alphabet": ["a"], "levels": [{"size": 1, "tags": [""]}, {"size": 1, "tags": [""]}],'
        ' "edges": [[[0, ["a"], 0]]], "iota": [[0]]}',
        '{"alphabet": ["a"], "levels": [{"size": 1, "tags": [""]}, {"size": 1, "tags": [""]}],'
        ' "edges": [[[0, "a"]]], "iota": [[0]]}',
        '[1]',
    ],
)
def test_cli_malformed_system_fields_exit_2(tmp_path, payload):
    system = tmp_path / "system.json"
    system.write_text(payload, encoding="utf-8")
    run = subprocess.run(
        [_sys.executable, "-m", "lgk.cli", "invariants", "--system", str(system)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SPECS.parent / "src")},
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")
