"""System walkers, local checks and canonical form against edge-scanning oracles.

Every walker reads `LambdaGraphSystem.adjacency`, three lookup tables
(`out`, `into`, `fiber`) built per system, and the tables are checked to
mirror the layers they are read off.  `oracles` redoes each walk, the
local property and label-collapse compatibility by rescanning whole edge
layers, and predecessor separation and the canonical form with nested
predecessor keys, on the raw (source, symbol, target) triples.  The drawn systems are arbitrary: not
necessarily left-resolving, essential, predecessor-separated, or locally
matched, and their collapse need not be surjective.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIB, constant_system, even_shift_graph, golden_mean_spec, mask, members, unshared
from lgk import (
    Alphabet,
    LambdaGraphSystem,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    canonical_form,
    verify_all,
)
from lgk.analysis import _labeled_paths
from lgk.serialize import spec_loads
from lgk.subshift import Budget, FullShift
from lgk.system import (
    iota_fiber,
    label_words,
    local_checks,
    read_down,
    read_up,
    step_down,
    verify_predecessor_separated,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
BRACKET = ("dyck2", "dyck3", "markovdyck_fib")


def raw(sys: LambdaGraphSystem):
    return list(sys.sizes), [list(layer) for layer in sys.edges], [list(m) for m in sys.iota]


@st.composite
def random_systems(draw) -> LambdaGraphSystem:
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1))
    edges = []
    iota = []
    for l in range(depth):
        triples = st.tuples(
            st.integers(0, sizes[l] - 1), st.integers(0, k - 1), st.integers(0, sizes[l + 1] - 1)
        )
        edges.append(tuple(sorted(draw(st.sets(triples, max_size=2 * sizes[l] * k)))))
        images = st.integers(0, sizes[l] - 1)
        iota.append(tuple(draw(st.lists(images, min_size=sizes[l + 1], max_size=sizes[l + 1]))))
    return LambdaGraphSystem(
        alphabet=Alphabet(tuple("abc"[:k])),
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sizes),
        edges=tuple(edges),
        iota=tuple(iota),
    )


@st.composite
def gap_run_systems(draw) -> LambdaGraphSystem:
    """A random system whose gaps repeat in runs.

    Each run repeats one drawn gap (edge layer and collapse) one to three
    times as the same objects, and a run of two or more keeps one level
    size, so the gap repeats the one above it.  Runs end anywhere, before
    the last gap too, and a gap may also equal the run before it.
    """
    k = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1, 3))]
    edges: list = []
    iota: list = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 3))
        source = sizes[-1]
        target = source if length > 1 else draw(st.integers(1, 3))
        triples = st.tuples(st.integers(0, source - 1), st.integers(0, k - 1), st.integers(0, target - 1))
        layer = tuple(sorted(draw(st.sets(triples, max_size=2 * source * k))))
        mapping = tuple(draw(st.lists(st.integers(0, source - 1), min_size=target, max_size=target)))
        edges += [layer] * length
        iota += [mapping] * length
        sizes += [target] * length
    return LambdaGraphSystem(
        alphabet=Alphabet(tuple("ab"[:k])),
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sizes),
        edges=tuple(edges),
        iota=tuple(iota),
    )


BUILT = (
    build_cantor_horizon_dyck(2, 3),
    build_cantor_horizon_markov_dyck(FIB, 4),
    build_lambda_synchronizing(golden_mean_spec(), 4),
    constant_system(even_shift_graph(), 3),
)


@st.composite
def relabeled(draw, systems) -> LambdaGraphSystem:
    """A system with the vertices of every level renamed by a drawn permutation."""
    sys = draw(systems)
    perms = [draw(st.permutations(range(m))) for m in sys.sizes]
    return LambdaGraphSystem(
        alphabet=sys.alphabet,
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sys.sizes),
        edges=tuple(
            tuple(sorted((perms[l][s], a, perms[l + 1][t]) for s, a, t in layer))
            for l, layer in enumerate(sys.edges)
        ),
        iota=tuple(
            tuple(
                perms[l][mapping[v]]
                for v in sorted(range(len(mapping)), key=perms[l + 1].__getitem__)
            )
            for l, mapping in enumerate(sys.iota)
        ),
    )


systems = st.one_of(
    random_systems(),
    gap_run_systems(),
    st.sampled_from(BUILT),
    relabeled(st.sampled_from(BUILT)),
)


@st.composite
def wide_systems(draw) -> LambdaGraphSystem:
    """A random system with a level of 65 to 150 vertices, wider than one
    machine word, so that the walkers' vertex masks are multi-digit ints.
    Its edges and collapses come from a drawn `Random`, and with a drawn
    flag its one gap repeats at every level, so the repeated gaps share
    reads of wide sets."""
    rng = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3))
    wide = draw(st.integers(65, 150))
    if draw(st.booleans()):
        sizes = [wide] * (depth + 1)
    else:
        sizes = [draw(st.integers(1, 150)) for _ in range(depth + 1)]
        sizes[draw(st.integers(0, depth))] = wide
    edges, iota = [], []
    for l in range(depth):
        if l and sizes[l - 1] == sizes[l] == sizes[l + 1]:
            edges.append(edges[-1])
            iota.append(iota[-1])
            continue
        count = rng.randint(0, 3 * sizes[l])
        triples = {(rng.randrange(sizes[l]), rng.randrange(k), rng.randrange(sizes[l + 1])) for _ in range(count)}
        edges.append(tuple(sorted(triples)))
        iota.append(tuple(rng.randrange(sizes[l]) for _ in range(sizes[l + 1])))
    return LambdaGraphSystem(
        alphabet=Alphabet(tuple("abc"[:k])),
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sizes),
        edges=tuple(edges),
        iota=tuple(iota),
    )


# Dyck-3 has 81 vertices at level 4 and 243 at level 5.
WIDE_BUILT = (build_cantor_horizon_dyck(3, 4), build_cantor_horizon_dyck(3, 5))

wide = st.one_of(wide_systems(), st.sampled_from(WIDE_BUILT), relabeled(st.sampled_from(WIDE_BUILT)))


def assert_steps_and_fibers_match(sys, data):
    sizes, edges, iota = raw(sys)
    for l in range(sys.depth):
        sources = data.draw(st.frozensets(st.integers(0, sizes[l] - 1)))
        for a in range(len(sys.alphabet)):
            assert members(step_down(sys, l, mask(sources), a)) == oracles.scan_step_down(edges, l, sources, a)
    level = data.draw(st.integers(0, sys.depth))
    sources = data.draw(st.frozensets(st.integers(0, sizes[level] - 1)))
    word = tuple(
        data.draw(st.lists(st.integers(0, len(sys.alphabet) - 1), max_size=sys.depth - level))
    )
    expected = oracles.scan_read_down(edges, level, sources, word)
    assert members(read_down(sys, level, mask(sources), word)) == expected
    for level in range(sys.depth + 1):
        for v in range(sizes[level]):
            for steps in range(sys.depth - level + 1):
                fiber = members(iota_fiber(sys, level, v, steps))
                assert fiber == oracles.scan_iota_fiber(iota, level, v, steps)
                assert all(oracles.scan_iota_image(iota, level + steps, w, steps) == v for w in fiber)


def assert_read_up_matches(sys, data):
    sizes, edges, _ = raw(sys)
    level = data.draw(st.integers(0, sys.depth))
    # the empty word only where no symbol fits
    length = data.draw(st.integers(min(1, sys.depth - level), sys.depth - level))
    symbols = st.integers(0, len(sys.alphabet) - 1)
    words = st.lists(symbols, min_size=length, max_size=length).map(tuple)
    readable = oracles.scan_label_words(edges, level, range(sizes[level]), length)
    word = data.draw(words | st.sampled_from(readable) if readable else words)
    targets = data.draw(st.frozensets(st.integers(0, sizes[level + length] - 1), min_size=1))
    expected = oracles.scan_read_up(sizes, edges, level, targets, word)
    assert members(read_up(sys, level, mask(targets), word)) == expected


def assert_label_words_match(sys, data, longest):
    _, edges, _ = raw(sys)
    level = data.draw(st.integers(0, sys.depth))
    sources = data.draw(st.frozensets(st.integers(0, sys.sizes[level] - 1)))
    max_len = data.draw(st.integers(0, min(longest, sys.depth - level)))
    expected = [
        (word, mask(oracles.scan_read_down(edges, level, sources, word)))
        for length in range(max_len + 1)
        for word in oracles.scan_label_words(edges, level, sources, length)
    ]
    assert list(label_words(sys, level, mask(sources), max_len)) == expected


@given(systems, st.data())
def test_steps_and_fibers_match_layer_scans(sys, data):
    assert_steps_and_fibers_match(sys, data)


@given(systems, st.data())
def test_read_up_matches_per_vertex_reads(sys, data):
    assert_read_up_matches(sys, data)


@given(systems, st.data())
def test_label_words_match_layer_scans_on_source_sets(sys, data):
    assert_label_words_match(sys, data, sys.depth)


@settings(max_examples=30)
@given(wide, st.data())
def test_walkers_match_layer_scans_on_levels_wider_than_a_word(sys, data):
    # Every other walker test draws levels of at most 8 vertices, whose
    # masks fit one digit of an int; these read sets of up to 243 vertices.
    # The second pass reads through the tables the first pass filled.
    assert max(sys.sizes) > 64
    for _ in range(2):
        assert_steps_and_fibers_match(sys, data)
        assert_read_up_matches(sys, data)
        assert_label_words_match(sys, data, 3)


@given(systems)
def test_word_walks_keep_their_order(sys):
    _, edges, _ = raw(sys)
    for level in range(sys.depth + 1):
        for v in range(sys.sizes[level]):
            for length in range(min(3, sys.depth - level) + 1):
                words = label_words(sys, level, 1 << v, length)
                assert [w for w, _ in words if len(w) == length] == oracles.scan_label_words(
                    edges, level, {v}, length
                )
            for max_len in (1, 2, 3):
                assert list(_labeled_paths(sys, level, v, max_len)) == oracles.scan_labeled_paths(
                    edges, level, v, max_len
                )


def assert_local_property_matches(sys):
    verdict = local_checks(sys).local
    failure = oracles.scan_local_property(*raw(sys))
    if failure is None:
        assert verdict.is_yes
        return
    l, u, v, have, want = failure
    assert verdict.is_no
    assert verdict.witness == (l, u, v)
    names = sys.alphabet.names
    assert f"in-labels {[names[a] for a in have]} vs out-labels {[names[a] for a in want]}" in verdict.note


# Vertices 1 and 9 share a slot in a small set's hash table, so which one
# the verifier names depends on the order in which it meets them: the edges
# from both into the collapse image of the level-2 vertex have no fiber
# in-edges to match, and vertex 1 (the lower source) must be the witness.
COLLIDING = LambdaGraphSystem(
    alphabet=Alphabet(("a",)),
    levels=(VertexLevel(10, ("",) * 10), VertexLevel(1, ("",)), VertexLevel(1, ("",))),
    edges=(((1, 0, 0), (9, 0, 0)), ()),
    iota=((0,), (0,)),
)


# The level-2 vertex has fiber in-edges from level-1 vertices collapsing
# onto 8 (the lower source) and 0, and the collapse image has no in-edges to
# match them, so both fail.  8 and 0 share a slot in a small set's hash
# table and 8 is met first, yet the witness must name the smaller vertex, 0.
INSERTED_LARGER_FIRST = LambdaGraphSystem(
    alphabet=Alphabet(("x", "y")),
    levels=(VertexLevel(9, ("",) * 9), VertexLevel(2, ("", "")), VertexLevel(1, ("",))),
    edges=((), ((0, 0, 0), (1, 1, 0))),
    iota=((8, 0), (0,)),
)


@given(systems)
@example(COLLIDING)
@example(INSERTED_LARGER_FIRST)
def test_local_property_matches_layer_scan(sys):
    assert_local_property_matches(sys)
    if sys is COLLIDING:
        assert local_checks(sys).local.witness == (1, 1, 0)


@given(systems)
@example(COLLIDING)
@example(INSERTED_LARGER_FIRST)
def test_label_compatibility_matches_layer_scan(sys):
    verdict = local_checks(sys).labels
    failure = oracles.scan_label_compatible(*raw(sys))
    if failure is None:
        assert verdict.is_yes
        return
    level, v, got, want = failure
    assert verdict.is_no
    assert verdict.witness == (level, v)
    names = sys.alphabet.names
    got, want = sorted(names[a] for a in got), sorted(names[a] for a in want)
    assert f"in-labels {got} but its collapse image" in verdict.note
    assert verdict.note.endswith(f" has {want}")


def test_local_property_names_the_least_failing_vertex():
    verdict = local_checks(INSERTED_LARGER_FIRST).local
    assert verdict.is_no
    assert verdict.witness == (1, 0, 0)


def test_local_property_verdicts_on_built_systems():
    for sys in BUILT:
        assert local_checks(sys).local.is_yes
        assert_local_property_matches(sys)


@given(systems)
def test_verifiers_skip_only_repeated_windows(sys):
    # `repeats` is the definition, and skipping the windows it marks leaves
    # every structural verdict (kind, witness and note) as a scan of every
    # window gives it.
    sizes, edges, iota = raw(sys)
    assert sys.repeats == tuple(
        l > 0
        and sizes[l - 1] == sizes[l] == sizes[l + 1]
        and (edges[l], iota[l]) == (edges[l - 1], iota[l - 1])
        for l in range(sys.depth)
    )
    shared = verify_all(sys)
    with unshared():
        assert verify_all(LambdaGraphSystem(sys.alphabet, sys.levels, sys.edges, sys.iota)) == shared


@given(systems)
def test_adjacency_is_cached_outside_equality(sys):
    twin = LambdaGraphSystem(sys.alphabet, sys.levels, sys.edges, sys.iota)
    assert sys.adjacency is sys.adjacency
    assert "adjacency" in vars(sys) and "adjacency" not in vars(twin)
    assert sys == twin and hash(sys) == hash(twin)
    assert twin.adjacency == sys.adjacency and twin.adjacency is not sys.adjacency


@given(systems)
def test_adjacency_mirrors_its_layers(sys):
    sizes, edges, iota = raw(sys)
    index = sys.adjacency
    for l in range(sys.depth):
        # the layer is sorted by (source, symbol, target), so a scan in its
        # order lists each target's in-edges by ascending source, then symbol
        into: dict = {}
        out: dict = {}
        for s, a, t in edges[l]:
            into.setdefault(t, []).append((a, s))
            out.setdefault(s, {}).setdefault(a, []).append(t)
        fiber: dict = {}
        for v, image in enumerate(iota[l]):
            fiber.setdefault(image, []).append(v)
        assert index.into[l] == into
        assert index.out[l] == out
        assert all(list(by_symbol) == sorted(by_symbol) for by_symbol in index.out[l].values())
        assert index.fiber[l] == fiber
        if sys.repeats[l]:
            assert index.into[l] is index.into[l - 1]
            assert index.out[l] is index.out[l - 1]
            assert index.fiber[l] is index.fiber[l - 1]


@given(systems)
def test_predecessor_separation_matches_nested_keys(sys):
    # The check keys level 1 by in-symbol sets and lower levels by `into`
    # lists, and stops at the repeated tail; nested keys read every level.
    verdict = verify_predecessor_separated(sys)
    clash = oracles.first_nested_clash(sys.sizes, sys.edges)
    assert verdict.witness == clash
    if clash is None:
        assert verdict.is_yes
        canonical_form(sys)
        return
    assert verdict.is_no
    with pytest.raises(ValueError):
        canonical_form(sys)


def assert_canonical_matches(sys):
    expected = oracles.nested_canonical_form(*raw(sys))
    if expected is None:
        with pytest.raises(ValueError):
            canonical_form(sys)
        return
    c = canonical_form(sys)
    assert raw(c) == expected
    assert all(tag == "" for level in c.levels for tag in level.tags)


@given(st.one_of(systems, relabeled(random_systems())))
def test_canonical_form_matches_nested_keys(sys):
    assert_canonical_matches(sys)


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
def test_canonical_form_matches_nested_keys_on_specs(name):
    spec = spec_loads((SPECS / f"{name}.json").read_text(encoding="utf-8"))
    sys = build_lambda_synchronizing(spec, 4 if name in BRACKET else 8)
    assert oracles.nested_canonical_form(*raw(sys)) is not None
    assert_canonical_matches(sys)


def test_canonical_form_of_a_deep_chain():
    # Nested keys of the full 2-shift double in size per level (a depth-20
    # key hashes 2^20 leaves); ranks keep every key two pairs long.
    sys = build_lambda_synchronizing(FullShift(2), 1000, budget=Budget(max_depth=1000))
    c = canonical_form(sys)
    assert c.sizes == (1,) * 1001
    assert c.edges == (((0, 0, 0), (0, 1, 0)),) * 1000


# -- levels out of range -------------------------------------------------


def test_walkers_reject_levels_outside_the_system():
    sys = build_cantor_horizon_dyck(2, 4)
    top = 1 << 0
    with pytest.raises(ValueError):
        step_down(sys, -1, top, 0)  # would read the last edge layer
    with pytest.raises(ValueError):
        step_down(sys, 4, top, 0)
    with pytest.raises(ValueError):
        iota_fiber(sys, 4, 0, 1)  # past the depth
    with pytest.raises(ValueError):
        iota_fiber(sys, -1, 0, 1)
    with pytest.raises(ValueError):
        read_down(sys, -1, top, (0,))
    with pytest.raises(ValueError):
        read_down(sys, 4, top, (0,))
    with pytest.raises(ValueError):
        read_up(sys, -1, top, (0,))
    with pytest.raises(ValueError):
        read_up(sys, 4, top, (0,))
    with pytest.raises(ValueError):
        read_up(sys, 2, top, (0, 0, 0))  # would end past the depth
    with pytest.raises(ValueError):
        list(label_words(sys, -1, top, 1))
    assert iota_fiber(sys, 4, 0, 0) == 1 << 0
