"""Level-group computations and the expansion-invariance comparison.

Group values asserted here were worked out by hand from the transition
matrices (small Smith normal forms) before the module existed; the bracket
family follows the closed form rank (N-1)*N^l with constant Z/N torsion.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import FIB, even_shift_spec, golden_mean_spec, unshared
from lgk.alphabet import Alphabet
from lgk.invariants import (
    InvariantReport,
    LevelGroups,
    _cone_acyclic,
    _cone_checks,
    compare_reports,
    connecting_checks,
    connecting_map_check,
    invariant_report,
    level_groups,
)
from lgk.flow import expand_spec, plan_for
from lgk.linalg import (
    AbelianGroup,
    cokernel,
    kernel_group,
    mat_mul,
    mat_sub,
    transpose,
)
from lgk.serialize import spec_loads
from lgk.subshift import DyckN, FullShift, MarkovDyck, SftForbidden
from lgk.system import (
    TransitionMatrices,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    transition_matrices,
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


def test_report_accepts_matrices_directly():
    sys = build_lambda_synchronizing(golden_mean_spec(), 4)
    assert invariant_report(sys) == invariant_report(transition_matrices(sys))


def test_level_groups_single_gap():
    tm = transition_matrices(build_lambda_synchronizing(golden_mean_spec(), 1))
    g = level_groups(tm, 0)
    assert g.k0 == Z(1, ())
    report = invariant_report(tm)
    assert len(report.groups) == 1 and report.connecting == ()
    assert not report.stabilized.is_yes


def test_report_needs_a_level_gap():
    empty = TransitionMatrices(sizes=(1,), a=(), i=())
    with pytest.raises(ValueError):
        invariant_report(empty)


@pytest.mark.parametrize(
    "a, i, k0, stable",
    [
        (1, 1, Z(1, ()), True),  # k0 = k1 = Z, both maps the identity
        (2, 2, Z(1, ()), False),  # k0 = k1 = Z, both maps x2
        (0, 3, Z(0, (3,)), False),  # k0 = Z/3, the map x3 is zero
        (-1, 2, Z(0, (3,)), True),  # k0 = Z/3, the map x2 is invertible
    ],
)
def test_cone_verdicts_on_scalar_sequences(a, i, k0, stable):
    """1x1 matrices, the same at both gaps: equal groups and a holding
    identity, so the verdict rests on the induced maps alone."""
    tm = TransitionMatrices(sizes=(1, 1, 1), a=(((a,),),) * 2, i=(((i,),),) * 2)
    report = invariant_report(tm)
    assert report.connecting == (True,)
    assert report.groups[0].k0 == report.groups[1].k0 == k0
    assert report.groups[0].same_shape(report.groups[1])
    assert _cone_acyclic(tm, 0) == stable
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
    """connecting_map_check is the intertwining identity alone; the lattice
    membership it implies is checked here column by column."""
    for sys in small_systems():
        tm = transition_matrices(sys)
        for l in range(len(tm.a) - 1):
            assert connecting_map_check(tm, l)
            down = mat_sub(transpose(tm.i[l]), transpose(tm.a[l]))
            up = mat_sub(transpose(tm.i[l + 1]), transpose(tm.a[l + 1]))
            push = transpose(tm.i[l + 1])
            certificate = transpose(tm.i[l])
            assert mat_mul(push, down) == mat_mul(up, certificate)
            for j in range(len(down[0])):
                pushed = oracles.mat_vec(push, [row[j] for row in down])
                assert oracles.mat_vec(up, [row[j] for row in certificate]) == pushed


def test_one_diagonal_matches_four_smith_forms_on_built_systems():
    for sys in small_systems():
        tm = transition_matrices(sys)
        for l in range(len(tm.a)):
            k = mat_sub(transpose(tm.i[l]), transpose(tm.a[l]))
            bf = mat_sub(tm.i[l], tm.a[l])
            g = level_groups(tm, l)
            assert (g.k0, g.k1, g.bf0, g.bf1) == (
                cokernel(k), kernel_group(k), cokernel(bf), kernel_group(bf)
            )


@st.composite
def random_transition_matrices(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    entries = st.integers(-3, 3)

    def matrix(rows, cols):
        return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))

    gaps = list(zip(sizes, sizes[1:]))
    return TransitionMatrices(
        sizes=tuple(sizes),
        a=tuple(matrix(r, c) for r, c in gaps),
        i=tuple(matrix(r, c) for r, c in gaps),
    )


@given(random_transition_matrices())
def test_one_diagonal_matches_four_group_oracle(tm):
    for l in range(len(tm.a)):
        g = level_groups(tm, l)
        got = tuple((x.free_rank, x.torsion) for x in (g.k0, g.k1, g.bf0, g.bf1))
        assert got == oracles.four_level_groups(tm.a[l], tm.i[l])


# -- gaps repeated in runs -------------------------------------------------

# 2 x 2 gaps (A, I).  X's cones are acyclic.  Y's collapse and transition
# matrices share a kernel vector mod 2, so every cone into Y or out of Y
# fails: cone X X is acyclic but cone X Y is not, and a cone that reused
# the one below it on the wrong window would be caught on X X X Y.
GAPS = {
    "X": (((1, 1), (1, 0)), ((1, 0), (0, 1))),
    "Y": (((0, 0), (0, 1)), ((2, 0), (0, 1))),
}


def gap_runs(pattern: str) -> TransitionMatrices:
    return TransitionMatrices(
        sizes=(2,) * (len(pattern) + 1),
        a=tuple(GAPS[g][0] for g in pattern),
        i=tuple(GAPS[g][1] for g in pattern),
    )


@st.composite
def gap_run_matrices(draw) -> TransitionMatrices:
    """2 x 2 gaps from a pool of three random ones, in runs."""
    entries = st.integers(-2, 2)
    matrix = st.tuples(*[st.tuples(entries, entries)] * 2)
    pool = draw(st.lists(st.tuples(matrix, matrix), min_size=3, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=4))
    gaps = [pool[k] for k, length in picks for _ in range(length)]
    return TransitionMatrices(
        sizes=(2,) * (len(gaps) + 1),
        a=tuple(a for a, _ in gaps),
        i=tuple(i for _, i in gaps),
    )


@given(gap_run_matrices())
@example(gap_runs("XXXY"))
@example(gap_runs("XYYXX"))
@example(gap_runs("XXXXX"))
@example(gap_runs("YXXX"))
def test_shared_gaps_match_per_gap_answers(tm):
    count = len(tm.a)
    report = invariant_report(tm)
    assert report.groups == tuple(level_groups(tm, l) for l in range(count))
    assert report.connecting == connecting_checks(tm)
    assert report.connecting == tuple(connecting_map_check(tm, l) for l in range(count - 1))
    assert list(_cone_checks(tm)) == [_cone_acyclic(tm, l) for l in reversed(range(count - 1))]
    with unshared():
        assert invariant_report(tm) == report


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
    """Transition matrices that satisfy the intertwining identity.

    The bundled specs (built as the CLI builds them), the Dyck-3 horizon
    and seeded random 3-symbol SFTs; commuting pairs, with I = P and
    A = c0 + c1 P + c2 P^2 at both gaps, whose induced maps are
    isomorphisms about half the time; and factored gaps A_l = I_l X,
    A_{l+1} = X I_{l+1} of random sizes, whose groups mostly differ.
    """
    for path in sorted(SPECS.glob("*.json")):
        spec = spec_loads(path.read_text())
        if isinstance(spec, DyckN):
            yield transition_matrices(build_cantor_horizon_dyck(spec.n, 5))
        elif isinstance(spec, MarkovDyck):
            yield transition_matrices(build_cantor_horizon_markov_dyck(spec.matrix, 6))
        else:
            yield transition_matrices(build_lambda_synchronizing(spec, 8))
    yield transition_matrices(build_cantor_horizon_dyck(3, 4))
    rng = random.Random(2026)
    abc = Alphabet(("a", "b", "c"))
    for _ in range(60):
        forbidden = set()
        for _ in range(rng.randint(1, 4)):
            forbidden.add(tuple(rng.randrange(3) for _ in range(rng.randint(2, 4))))
        yield transition_matrices(build_lambda_synchronizing(SftForbidden(abc, frozenset(forbidden)), 8))

    def matrix(rows, cols):
        return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]

    for _ in range(300):
        n = rng.randint(1, 3)
        p = matrix(n, n)
        p2 = mat_mul(p, p)
        c0, c1, c2 = (rng.randint(-2, 2) for _ in range(3))
        q = [[c0 * (r == c) + c1 * p[r][c] + c2 * p2[r][c] for c in range(n)] for r in range(n)]
        yield TransitionMatrices(sizes=(n, n, n), a=(q, q), i=(p, p))
    for _ in range(300):
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        i0, i1, x = matrix(sizes[0], sizes[1]), matrix(sizes[1], sizes[2]), matrix(sizes[1], sizes[1])
        yield TransitionMatrices(sizes=sizes, a=(mat_mul(i0, x), mat_mul(x, i1)), i=(i0, i1))


def test_cone_test_matches_two_map_oracle():
    """On every gap where the identity holds.  Where gaps l and l+1 have
    the same groups, the mapping-cone verdict equals the kernel-basis
    verdict: k0 map onto and k1 map unimodular.  Where their groups
    differ, no induced maps are isomorphisms, so the cone is not acyclic."""
    verdicts = []
    differing = 0
    for tm in differential_sequences():
        groups = [level_groups(tm, l) for l in range(len(tm.a))]
        for l in range(len(tm.a) - 1):
            if not connecting_map_check(tm, l):
                continue
            cone = _cone_acyclic(tm, l)
            if groups[l].same_shape(groups[l + 1]):
                assert cone == oracles.maps_iso_by_kernel_bases(tm.a, tm.i, l), (tm, l)
                verdicts.append(cone)
            else:
                assert not cone, (tm, l)
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
