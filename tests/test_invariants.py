"""Level-group computations and the expansion-invariance comparison.

Group values asserted here were worked out by hand from the transition
matrices (small Smith normal forms) before the module existed; the bracket
family follows the closed form rank (N-1)*N^l with constant Z/N torsion.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIB, counted_system, even_shift_spec, golden_mean_spec, unshared
from lgk.alphabet import Alphabet
from lgk.invariants import (
    InvariantReport,
    LevelGroups,
    _cone_acyclic,
    _cone_checks,
    compare_reports,
    invariant_report,
    level_groups,
)
from lgk.flow import expand_spec, plan_for
from lgk.linalg import AbelianGroup, cokernel, kernel_group
from lgk.serialize import spec_loads
from lgk.subshift import DyckN, FullShift, MarkovDyck, SftForbidden
from lgk.system import (
    LambdaGraphSystem,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    local_checks,
)

Z = AbelianGroup.from_parts


def test_dyck_group_tables():
    for n, depth in ((2, 5), (3, 4)):
        report = invariant_report(build_cantor_horizon_dyck(n, depth))
        assert report.sizes == tuple(n**l for l in range(depth + 1))
        for l, g in enumerate(report.groups):
            free = (n - 1) * n**l
            assert g.k0 == Z(free, (n,))
            assert g.k1.is_trivial
            assert g.bf0 == Z(0, (n,))
            assert g.bf1 == Z(free, ())
        assert all(report.connecting)
        assert not report.stabilized.is_yes
        assert "free rank grows" in report.stabilized.note
        assert report.stable_groups is None


def test_golden_mean_stabilizes_above_the_root():
    report = invariant_report(build_lambda_synchronizing(golden_mean_spec(), 5))
    assert report.sizes == (1, 2, 2, 2, 2, 2)
    # the root level sees the collapse of everything onto one vertex
    assert report.groups[0].k0 == Z(1, ())
    assert report.groups[0].bf1 == Z(1, ())
    for g in report.groups[1:]:
        assert g.k0.is_trivial and g.k1.is_trivial
        assert g.bf0.is_trivial and g.bf1.is_trivial
    assert all(report.connecting)
    assert report.stabilized.is_yes and report.stabilized.witness == 1
    stable = report.stable_groups
    assert stable.k0.is_trivial and stable.bf0.is_trivial


def test_fibonacci_bracket_report():
    report = invariant_report(build_cantor_horizon_markov_dyck(FIB, 4))
    assert report.sizes == (1, 2, 3, 5, 8)
    assert [g.k0.free_rank for g in report.groups] == [1, 1, 2, 3]
    for g in report.groups:
        assert g.k0.torsion == ()
        assert g.k1.is_trivial
        assert g.bf0.is_trivial
        assert g.bf1.free_rank == g.k0.free_rank
    assert all(report.connecting)
    assert not report.stabilized.is_yes


def test_full_shift_stable_from_the_root():
    for n in (2, 3, 5):
        report = invariant_report(build_lambda_synchronizing(FullShift(n), 4))
        assert report.sizes == (1, 1, 1, 1, 1)
        assert report.stabilized.is_yes and report.stabilized.witness == 0
        stable = report.stable_groups
        expected = Z(0, ()) if n == 2 else Z(0, (n - 1,))
        assert stable.k0 == expected
        assert stable.bf0 == expected
        assert stable.k1.is_trivial and stable.bf1.is_trivial
        assert all(g.same_shape(stable) for g in report.groups)


def test_same_shape_is_isomorphism_not_presentation():
    a = LevelGroups(level=0, k0=Z(0, (2, 3)), k1=Z(1, ()), bf0=Z(0, ()), bf1=Z(2, ()))
    b = LevelGroups(level=7, k0=Z(0, (6,)), k1=Z(1, ()), bf0=Z(0, ()), bf1=Z(2, ()))
    assert a.same_shape(b)
    c = LevelGroups(level=7, k0=Z(0, (4,)), k1=Z(1, ()), bf0=Z(0, ()), bf1=Z(2, ()))
    assert not a.same_shape(c)


def test_level_groups_single_gap():
    sys = build_lambda_synchronizing(golden_mean_spec(), 1)
    g = level_groups(sys, 0)
    assert g.k0 == Z(1, ())
    report = invariant_report(sys)
    assert len(report.groups) == 1 and report.connecting == ()
    assert not report.stabilized.is_yes


def test_report_needs_a_level_gap():
    single = LambdaGraphSystem(
        alphabet=Alphabet(("x",)), levels=(VertexLevel(size=1, tags=("",)),), edges=(), iota=()
    )
    with pytest.raises(ValueError):
        invariant_report(single)


@pytest.mark.parametrize(
    "counts, iota, k0, stable",
    [
        # two loops collapsing onto the second: k0 = Z, and both maps are onto
        (((1, 0), (0, 1)), (1, 1), Z(1, ()), True),
        # vertex 0 has two edges to each vertex, vertex 1 none, and both
        # collapse onto vertex 0: k0 = Z, but the k1 map is zero
        (((2, 2), (0, 0)), (0, 0), Z(1, ()), False),
        # identity collapse: k0 = Z/2, and both maps are the identity
        (((2, 1), (2, 1)), (0, 1), Z(0, (2,)), True),
        # two double loops collapsing onto vertex 0: k0 = Z/2, mapped to 0
        (((2, 0), (0, 2)), (0, 0), Z(0, (2,)), False),
    ],
)
def test_cone_verdicts_at_equal_groups(counts, iota, k0, stable):
    """A 2-vertex gap, the same at both gaps: equal groups and a holding
    identity, so the verdict rests on the induced maps alone."""
    sys = counted_system((2, 2, 2), (counts, counts), (iota, iota))
    report = invariant_report(sys)
    assert report.connecting == (True,)
    assert report.groups[0].k0 == report.groups[1].k0 == k0
    assert report.groups[0].same_shape(report.groups[1])
    assert _cone_acyclic(sys, 0) == stable
    a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
    assert oracles.maps_iso_by_kernel_bases(a, i, 0) == stable
    assert report.stabilized.is_yes == stable
    if stable:
        assert report.stabilized.witness == 0
    else:
        assert report.stabilized.note == "no stable tail window within the truncation"


# -- what the algebra implies -------------------------------------------


def small_systems():
    """Outputs of the quotient, Cantor-horizon and class-census builders."""
    return [
        build_lambda_synchronizing(golden_mean_spec(), 5),
        build_lambda_synchronizing(even_shift_spec(), 5),
        build_cantor_horizon_dyck(2, 4),
        build_cantor_horizon_dyck(3, 3),
        build_cantor_horizon_markov_dyck(FIB, 5),
        build_lambda_synchronizing(DyckN(2), 3),
        build_lambda_synchronizing(MarkovDyck(FIB), 3),
        build_lambda_synchronizing(expand_spec(DyckN(2), plan_for(DyckN(2).alphabet, "a1")), 2),
    ]


def test_intertwining_certifies_every_pushed_relation():
    """local_checks decides the intertwining identity alone; the lattice
    membership it implies is checked here column by column."""
    for sys in small_systems():
        a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
        assert local_checks(sys).intertwining == (True,) * (sys.depth - 1)
        for l in range(sys.depth - 1):
            down, up = k_matrix(a, i, l), k_matrix(a, i, l + 1)
            push = oracles.transpose(i[l + 1])
            certificate = oracles.transpose(i[l])
            assert oracles.mat_mul(push, down) == oracles.mat_mul(up, certificate)
            for j in range(len(down[0])):
                pushed = oracles.mat_vec(push, [row[j] for row in down])
                assert oracles.mat_vec(up, [row[j] for row in certificate]) == pushed


def k_matrix(a, i, l):
    """I_l^t - A_l^t from the oracle's dense matrices."""
    return [
        [x - y for x, y in zip(ri, ra)]
        for ri, ra in zip(oracles.transpose(i[l]), oracles.transpose(a[l]))
    ]


def test_one_diagonal_matches_four_smith_forms_on_built_systems():
    for sys in small_systems():
        a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
        for l in range(sys.depth):
            k = k_matrix(a, i, l)
            bf = oracles.transpose(k)
            g = level_groups(sys, l)
            assert (g.k0, g.k1, g.bf0, g.bf1) == (
                cokernel(k), kernel_group(k), cokernel(bf), kernel_group(bf)
            )


def draw_collapse(draw, size, next_size):
    """Any function from level l + 1 to level l, onto or not."""
    return tuple(draw(st.integers(0, size - 1)) for _ in range(next_size))


@st.composite
def shape_only_systems(draw, min_depth=1):
    """Systems with any edge multiplicities up to 3 and any collapse
    functions: LambdaGraphSystem checks shapes only."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=min_depth + 1, max_size=4))
    gaps = list(zip(sizes, sizes[1:]))
    counts = [[[draw(st.integers(0, 3)) for _ in range(c)] for _ in range(r)] for r, c in gaps]
    return counted_system(sizes, counts, [draw_collapse(draw, r, c) for r, c in gaps])


@given(shape_only_systems())
def test_one_diagonal_matches_four_group_oracle(sys):
    a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
    for l in range(sys.depth):
        g = level_groups(sys, l)
        got = tuple((x.free_rank, x.torsion) for x in (g.k0, g.k1, g.bf0, g.bf1))
        assert got == oracles.four_level_groups(a[l], i[l])


# -- the intertwining identity as a gather -------------------------------


@st.composite
def intertwining_candidates(draw):
    """Depth-2 systems, half of them factored as A_0 = I_0 X and
    A_1 = X I_1, which intertwine, some of those with one edge count
    changed; the other half with random edges."""
    if not draw(st.booleans()):
        return draw(shape_only_systems(min_depth=2))
    sizes = [draw(st.integers(1, 3)) for _ in range(3)]
    iota = [draw_collapse(draw, r, c) for r, c in zip(sizes, sizes[1:])]
    _, (i0, i1) = oracles.gap_matrices(sizes, ((), ()), iota)
    x = [[draw(st.integers(0, 2)) for _ in range(sizes[1])] for _ in range(sizes[1])]
    counts = [oracles.mat_mul(i0, x), oracles.mat_mul(x, i1)]
    if draw(st.booleans()):  # one edge more, or one fewer where there is one
        layer = counts[draw(st.integers(0, 1))]
        row = layer[draw(st.integers(0, len(layer) - 1))]
        t = draw(st.integers(0, len(row) - 1))
        row[t] += 1 if row[t] == 0 or draw(st.booleans()) else -1
    return counted_system(sizes, counts, iota)


def test_gather_matches_dense_intertwining_identity():
    verdicts = []

    @settings(max_examples=150)
    @given(intertwining_candidates())
    def check(sys):
        dense = oracles.dense_intertwining(sys.sizes, sys.edges, sys.iota)
        assert local_checks(sys).intertwining == dense
        verdicts.extend(dense)

    check()
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def valid_bracket_matrix(matrix) -> bool:
    return all(any(row) for row in matrix) and all(any(col) for col in zip(*matrix))


@st.composite
def horizon_systems(draw):
    """Cantor-horizon systems of random bracket shifts, which satisfy the
    local property."""
    n = draw(st.integers(2, 3))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n).filter(valid_bracket_matrix))
    return build_cantor_horizon_markov_dyck(tuple(map(tuple, matrix)), draw(st.integers(2, 4)))


def test_local_property_implies_intertwining():
    """Where the layer-scan oracle finds the local property holding, the
    dense identity A_l I_{l+1} = I_l A_{l+1} holds at every gap: the
    implication that lets local_checks pass a vertex on equal tallies."""
    holding = []

    @settings(max_examples=150)
    @given(st.one_of(horizon_systems(), shape_only_systems(min_depth=2)))
    def check(sys):
        if oracles.scan_local_property(sys.sizes, sys.edges, sys.iota) is None:
            assert all(oracles.dense_intertwining(sys.sizes, sys.edges, sys.iota))
            holding.append(sys)

    check()
    for sys in small_systems():
        checks = local_checks(sys)
        assert checks.local.is_yes and all(checks.intertwining)
    assert len(holding) >= 20


# -- gaps repeated in runs -------------------------------------------------

# 2-vertex gaps (edge counts, collapse).  X's cones are acyclic.  Y has
# k0 = Z/2 where X has the trivial group, so every cone into or out of Y
# fails, and Y folds both vertices onto vertex 0, so its cone into itself
# fails too: cone X X is acyclic but cone X Y is not, and a cone that
# reused the one below it on the wrong window would be caught on X X X Y.
GAPS = {
    "X": (((1, 1), (1, 0)), (0, 1)),
    "Y": (((0, 0), (0, 2)), (0, 0)),
}


def gap_runs(pattern: str) -> LambdaGraphSystem:
    return counted_system(
        (2,) * (len(pattern) + 1),
        [GAPS[g][0] for g in pattern],
        [GAPS[g][1] for g in pattern],
    )


@st.composite
def gap_run_systems(draw) -> LambdaGraphSystem:
    """2-vertex gaps from a pool of three random ones, in runs."""
    entries = st.integers(0, 2)
    counts = st.tuples(*[st.tuples(entries, entries)] * 2)
    collapse = st.tuples(st.integers(0, 1), st.integers(0, 1))
    pool = draw(st.lists(st.tuples(counts, collapse), min_size=3, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=4))
    gaps = [pool[k] for k, length in picks for _ in range(length)]
    return counted_system(
        (2,) * (len(gaps) + 1),
        [c for c, _ in gaps],
        [i for _, i in gaps],
    )


@given(gap_run_systems())
@example(gap_runs("XXXY"))
@example(gap_runs("XYYXX"))
@example(gap_runs("XXXXX"))
@example(gap_runs("YXXX"))
def test_shared_gaps_match_per_gap_answers(sys):
    count = sys.depth
    report = invariant_report(sys)
    assert report.groups == tuple(level_groups(sys, l) for l in range(count))
    assert report.connecting == oracles.dense_intertwining(sys.sizes, sys.edges, sys.iota)
    assert list(_cone_checks(sys)) == [_cone_acyclic(sys, l) for l in reversed(range(count - 1))]
    with unshared():
        assert invariant_report(sys) == report


def test_gap_run_examples():
    # What the examples above are there for: X X X Y has cones that differ
    # inside a run, and the backward pass reuses cones in Y X X X.
    assert gap_runs("XXXY").repeats == (False, True, True, False)
    assert list(_cone_checks(gap_runs("XXXY"))) == [False, True, True]
    assert invariant_report(gap_runs("XXXXX")).stabilized.witness == 0
    assert invariant_report(gap_runs("YXXX")).stabilized.witness == 1


# -- the cone test against the two-map test ------------------------------


SPECS = Path(__file__).resolve().parent.parent / "specs"


def differential_sequences():
    """Systems whose gaps satisfy the intertwining identity.

    The bundled specs (built as the CLI builds them), the Dyck-3 horizon
    and seeded random 3-symbol SFTs; commuting pairs, with I = P the matrix
    of a random collapse function and A = c0 + c1 P + c2 P^2 at both gaps,
    c_k >= 0, whose induced maps are mostly but not always isomorphisms;
    and factored gaps A_l = I_l X, A_{l+1} = X I_{l+1} of random sizes with
    X >= 0, whose groups mostly differ.  Each of the two families is drawn
    600 times: 300 + 300 draws gave only 77 verdicts `False`.
    """
    for path in sorted(SPECS.glob("*.json")):
        spec = spec_loads(path.read_text())
        if isinstance(spec, DyckN):
            yield build_cantor_horizon_dyck(spec.n, 5)
        elif isinstance(spec, MarkovDyck):
            yield build_cantor_horizon_markov_dyck(spec.matrix, 6)
        else:
            yield build_lambda_synchronizing(spec, 8)
    yield build_cantor_horizon_dyck(3, 4)
    rng = random.Random(2026)
    abc = Alphabet(("a", "b", "c"))
    for _ in range(60):
        forbidden = set()
        for _ in range(rng.randint(1, 4)):
            forbidden.add(tuple(rng.randrange(3) for _ in range(rng.randint(2, 4))))
        yield build_lambda_synchronizing(SftForbidden(abc, frozenset(forbidden)), 8)

    def collapse(size, next_size):
        return [rng.randrange(size) for _ in range(next_size)]

    for _ in range(600):
        n = rng.randint(1, 3)
        p = collapse(n, n)
        _, (i,) = oracles.gap_matrices((n, n), ((),), (p,))
        i2 = oracles.mat_mul(i, i)
        c0, c1, c2 = (rng.randint(0, 2) for _ in range(3))
        a = [[c0 * (r == c) + c1 * i[r][c] + c2 * i2[r][c] for c in range(n)] for r in range(n)]
        yield counted_system((n, n, n), (a, a), (p, p))
    for _ in range(600):
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        iota = (collapse(sizes[0], sizes[1]), collapse(sizes[1], sizes[2]))
        _, (i0, i1) = oracles.gap_matrices(sizes, ((), ()), iota)
        x = [[rng.randint(0, 2) for _ in range(sizes[1])] for _ in range(sizes[1])]
        yield counted_system(sizes, (oracles.mat_mul(i0, x), oracles.mat_mul(x, i1)), iota)


def test_cone_test_matches_two_map_oracle():
    """On every gap where the identity holds.  Where gaps l and l+1 have
    the same groups, the mapping-cone verdict equals the kernel-basis
    verdict: k0 map onto and k1 map unimodular.  Where their groups
    differ, no induced maps are isomorphisms, so the cone is not acyclic."""
    verdicts = []
    differing = 0
    for sys in differential_sequences():
        a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
        groups = [level_groups(sys, l) for l in range(sys.depth)]
        intertwining = local_checks(sys).intertwining
        for l in range(sys.depth - 1):
            if not intertwining[l]:
                continue
            cone = _cone_acyclic(sys, l)
            if groups[l].same_shape(groups[l + 1]):
                assert cone == oracles.maps_iso_by_kernel_bases(a, i, l), (sys, l)
                verdicts.append(cone)
            else:
                assert not cone, (sys, l)
                differing += 1
    assert len(verdicts) >= 500
    assert verdicts.count(False) >= 100
    assert differing >= 200


# -- expansion invariance ------------------------------------------------


def test_expansion_passes_for_stabilized_finite_type():
    gm = golden_mean_spec()
    base = invariant_report(build_lambda_synchronizing(gm, 5))
    expanded_spec = expand_spec(gm, plan_for(gm.alphabet, "1"))
    expanded = invariant_report(build_lambda_synchronizing(expanded_spec, 5))
    assert expanded.sizes == (1, 3, 3, 3, 3, 3)
    assert expanded.stabilized.is_yes and expanded.stabilized.witness == 1
    verdict, why = compare_reports(base, expanded)
    assert verdict == "pass"
    assert "stabilized" in why


def test_expansion_passes_for_bracket_shift_at_fixed_depth():
    d2 = DyckN(2)
    base = invariant_report(build_lambda_synchronizing(d2, 2))
    expanded_spec = expand_spec(d2, plan_for(d2.alphabet, "a1"))
    expanded = invariant_report(build_lambda_synchronizing(expanded_spec, 2))
    assert expanded.sizes == (1, 3, 5)
    verdict, why = compare_reports(base, expanded)
    assert verdict == "pass"
    assert "at this depth" in why


def test_compare_detects_genuine_differences():
    full2 = invariant_report(build_lambda_synchronizing(FullShift(2), 4))
    full3 = invariant_report(build_lambda_synchronizing(FullShift(3), 4))
    verdict, why = compare_reports(full2, full3)
    assert verdict == "fail" and "k0" in why

    d2 = invariant_report(build_cantor_horizon_dyck(2, 4))
    d3 = invariant_report(build_cantor_horizon_dyck(3, 4))
    verdict, why = compare_reports(d2, d3)
    assert verdict == "fail" and "differ" in why

    verdict, why = compare_reports(full2, d2)
    assert verdict == "inconclusive"
