"""The package's records: value semantics, immutability, validation, and a
start-up that loads no `dataclasses`.

Every public record keeps what a frozen dataclass gave it: equal fields
give equal records, the hash is the hash of the field tuple, a record is
never equal to another class's record or to a plain tuple, setting or
deleting an attribute raises AttributeError, and the repr is
``Name(field=value, ...)``.  The field names below are written out here,
not read from the classes.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIB, even_shift_graph, golden_mean_spec
from lgk import (
    AbelianGroup,
    Alphabet,
    Budget,
    DyckN,
    Expanded,
    ExpansionPlan,
    FullShift,
    InvariantReport,
    LabeledGraph,
    LambdaGraphSystem,
    LevelGroups,
    MarkovDyck,
    SftForbidden,
    SoficGraph,
    Verdict,
    VertexLevel,
    build_lambda_synchronizing,
    invariant_report,
)
from lgk.system import Adjacency, LocalChecks, local_checks

SRC = Path(__file__).resolve().parent.parent / "src"


def gm_system(depth: int = 3) -> LambdaGraphSystem:
    return build_lambda_synchronizing(golden_mean_spec(), depth)


# Each record class -> its field names and a factory; each call of the
# factory builds a new, equal record.
RECORDS = {
    Alphabet: (("names",), lambda: Alphabet(("a", "b"))),
    Verdict: (("kind", "witness", "note"), lambda: Verdict("no", witness=(0, 1), note="why")),
    LabeledGraph: (("alphabet", "vertices", "edges"), even_shift_graph),
    AbelianGroup: (("free_rank", "torsion"), lambda: AbelianGroup(1, (2, 4))),
    ExpansionPlan: (("target", "fresh", "fresh_name"), lambda: ExpansionPlan(0, 2, "e")),
    Budget: (("max_words", "max_depth"), lambda: Budget(max_words=5)),
    SftForbidden: (("alphabet", "forbidden"), golden_mean_spec),
    SoficGraph: (("graph",), lambda: SoficGraph(even_shift_graph())),
    DyckN: (("n",), lambda: DyckN(2)),
    MarkovDyck: (("matrix",), lambda: MarkovDyck(FIB)),
    FullShift: (("n",), lambda: FullShift(2)),
    Expanded: (("base", "target", "fresh_name"), lambda: Expanded(DyckN(2), 0, "e")),
    VertexLevel: (("size", "tags"), lambda: VertexLevel(2, ("u", "w"))),
    LambdaGraphSystem: (("alphabet", "levels", "edges", "iota"), gm_system),
    LevelGroups: (
        ("level", "k0", "k1", "bf0", "bf1"),
        lambda: LevelGroups(1, *(AbelianGroup(*parts) for parts in ((1, ()), (0, (2,)), (0, ()), (2, ())))),
    ),
    InvariantReport: (("sizes", "groups", "connecting", "stabilized"), lambda: invariant_report(gm_system())),
    LocalChecks: (("local", "labels", "intertwining"), lambda: local_checks(gm_system())),
    # The read tables are kept beside the adjacency lists and are no part
    # of its value; its dict fields make it unhashable.
    Adjacency: (("out", "into", "fiber"), lambda: gm_system().adjacency),
}
HASHABLE = [cls for cls in RECORDS if cls is not Adjacency]


def values(record, cls) -> tuple:
    return tuple(getattr(record, name) for name in RECORDS[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records(cls):
    a, b = RECORDS[cls][1](), RECORDS[cls][1]()
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    assert a != values(a, cls)
    assert a != object()


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    a, b = RECORDS[cls][1](), RECORDS[cls][1]()
    assert hash(a) == hash(b) == hash(values(a, cls))


def test_adjacency_is_unhashable_and_ignores_its_reads():
    a, b = gm_system().adjacency, gm_system().adjacency
    with pytest.raises(TypeError):
        hash(a)
    b.reads[0].after[1] = 1
    assert a == b
    assert "reads" not in repr(a)


def test_records_of_different_classes_are_unequal():
    assert DyckN(2) != FullShift(2)
    assert FullShift(2) != DyckN(2)
    assert DyckN(2) != (2,)
    assert len({DyckN(2), FullShift(2)}) == 2
    assert Verdict.yes() != Verdict.no()
    assert Budget() == Budget(1_000_000, 12) != Budget(1_000_000, 13)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = RECORDS[cls][1]()
    for name in RECORDS[cls][0] + ("unknown_attribute",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert RECORDS[cls][1]() == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields(cls):
    record = RECORDS[cls][1]()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[cls][0])
    assert repr(record) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    record = RECORDS[cls][1]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_a_pickled_system_keeps_its_shared_gaps():
    sys = build_lambda_synchronizing(golden_mean_spec(), 6)
    sys.adjacency
    twin = pickle.loads(pickle.dumps(sys))
    assert twin == sys and "adjacency" not in vars(twin)
    assert all(layer is twin.edges[1] for layer in twin.edges[1:])
    assert twin.repeats == sys.repeats


def test_repr_examples():
    assert repr(DyckN(2)) == "DyckN(n=2)"
    assert repr(AbelianGroup(1, (2,))) == "AbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(Verdict.unknown("budget")) == "Verdict(kind='unknown', witness=None, note='budget')"
    assert repr(Alphabet(("0", "1"))) == "Alphabet(names=('0', '1'))"


def test_cached_properties_stay_out_of_the_value():
    spec, sys = DyckN(3), gm_system()
    assert spec.alphabet is spec.alphabet and spec.matrix is spec.matrix
    assert sys.repeats is sys.repeats and sys.adjacency is sys.adjacency
    assert spec == DyckN(3) and hash(spec) == hash((3,))
    assert sys == gm_system() and repr(sys) == repr(gm_system())


def test_sft_forbidden_stores_its_normalized_words():
    spec = SftForbidden(Alphabet(("0", "1")), frozenset({(1, 1), (1, 1, 0)}))
    assert spec.forbidden == frozenset({(1, 1)})
    assert spec == golden_mean_spec()


def test_alphabet_validation_hook_runs_once_per_construction(monkeypatch):
    # `Alphabet.__init__` validates through `Alphabet.__post_init__`, which
    # the benchmark tracer wraps to count constructions.
    calls = []
    original = Alphabet.__post_init__

    def counting(self):
        calls.append(self.names)
        original(self)

    monkeypatch.setattr(Alphabet, "__post_init__", counting)
    Alphabet(("a",)).extend("b")
    assert calls == [("a",), ("a", "b")]


AB = Alphabet(("a", "b"))
LEVEL = VertexLevel(1, ("",))


def one_gap(edges: tuple, iota: tuple) -> LambdaGraphSystem:
    """A system of two one-vertex levels over AB."""
    return LambdaGraphSystem(AB, (LEVEL, LEVEL), (edges,), (iota,))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Alphabet(()), "alphabet must be nonempty"),
        (lambda: Alphabet(("a", "")), "bad symbol name ''"),
        (lambda: Alphabet(("a b",)), "bad symbol name 'a b'"),
        (lambda: Alphabet(("a", "a")), "duplicate symbol name 'a'"),
        (lambda: Verdict("maybe"), "bad verdict kind: 'maybe'"),
        (lambda: LabeledGraph(AB, ("u", "u"), ()), "duplicate vertex names"),
        (lambda: LabeledGraph(AB, ("u",), ((0, 2, 0),)), "edge (0, 2, 0) out of range"),
        (lambda: LabeledGraph(AB, ("u",), ((0, 0, 0), (0, 0, 0))), "duplicate edges"),
        (lambda: AbelianGroup(0, (1,)), "torsion entries must be >= 2 (normalize first)"),
        (lambda: AbelianGroup(0, (2, 3)), "torsion must form a divisibility chain"),
        (lambda: ExpansionPlan(2, 2, "e"), "target must be a base symbol below the fresh index"),
        (lambda: SftForbidden(AB, frozenset({()})), "forbidden words must be nonempty"),
        (lambda: SftForbidden(AB, frozenset({(0, 2)})), "forbidden word (0, 2) out of alphabet range"),
        (lambda: SoficGraph(LabeledGraph(AB, (), ())), "sofic cover must have vertices"),
        (
            lambda: SoficGraph(LabeledGraph(AB, ("u", "v"), ((0, 0, 0),))),
            "sofic cover must be essential (no stranded vertices)",
        ),
        (
            lambda: SoficGraph(LabeledGraph(AB, ("u", "v"), ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)))),
            "sofic cover not left-resolving: vertex 'u' has two in-edges labeled 'a'",
        ),
        (
            lambda: SoficGraph(LabeledGraph(AB, ("u", "v"), ((0, 0, 0), (0, 1, 1), (1, 0, 1)))),
            "sofic cover must be strongly connected: vertex 'u' is unreachable from 'v'",
        ),
        (lambda: DyckN(1), "Dyck shift needs n >= 2"),
        (lambda: FullShift(1), "full shift needs n >= 2"),
        (lambda: MarkovDyck(((1,),)), "transition matrix must be at least 2x2"),
        (lambda: MarkovDyck(((1, 1), (0, 0))), "zero row 1 in transition matrix"),
        (lambda: Expanded(FullShift(2), 0, "e"), "Expanded wraps only Dyck-type specs"),
        (lambda: Expanded(DyckN(2), 4, "e"), "expansion target out of alphabet range"),
        (lambda: Expanded(DyckN(2), 0, "a1"), "fresh symbol 'a1' already in alphabet"),
        (lambda: Expanded(DyckN(2), 0, "e f"), "bad symbol name 'e f'"),
        (lambda: VertexLevel(0, ()), "vertex level must be nonempty"),
        (lambda: VertexLevel(2, ("u",)), "expected 2 tags, got 1"),
        (lambda: LambdaGraphSystem(AB, (), (), ()), "system needs at least one level"),
        (
            lambda: LambdaGraphSystem(AB, (LEVEL, LEVEL), (), ()),
            "edges and iota must have one layer per level gap",
        ),
        (lambda: one_gap(((0, 1, 0), (0, 0, 0)), (0,)), "edge layer 0 must be sorted and duplicate-free"),
        (lambda: one_gap(((1, 0, 0),), (0,)), "edge source 1 out of range at level 0"),
        (lambda: one_gap(((0, 0, 1),), (0,)), "edge target 1 out of range at level 0"),
        (lambda: one_gap(((0, 2, 0),), (0,)), "edge symbol 2 out of alphabet range"),
        (lambda: one_gap((), (0, 0)), "iota layer 0 must cover level 1"),
        (lambda: one_gap((), (1,)), "iota image 1 out of range at level 0"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize("module", ["lgk", "lgk.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # A fresh interpreter, so nothing imported by the test run counts; a
    # module the interpreter loaded before the import does not count either.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
