"""Symbol expansion: word rewriting and spec-level expansions.

The load-bearing checks compare the language of an expanded spec, read off
its built system, against plain word rewriting: a word is admissible
exactly when its expansion image is.  That equivalence is what the
invariant comparison in flowcheck relies on.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import even_shift_graph, even_shift_spec, golden_mean_spec, system_language
from lgk.alphabet import Alphabet
from lgk.flow import (
    ExpansionPlan,
    expand_labeled_graph,
    expand_sft,
    expand_spec,
    expand_word,
    plan_for,
)
from lgk.labeled_graph import from_names, is_essential, left_resolving_violation
from lgk.subshift import (
    DyckN,
    Expanded,
    FullShift,
    SftForbidden,
    SoficGraph,
)


def gm_plan() -> ExpansionPlan:
    return plan_for(golden_mean_spec().alphabet, "1")


# -- plans ---------------------------------------------------------------


def test_plan_for_defaults():
    plan = gm_plan()
    assert plan == ExpansionPlan(target=1, fresh=2, fresh_name="e")

    # 'e' taken: fall through to the first free variant
    assert plan_for(Alphabet(("e", "f")), "f").fresh_name == "e2"
    assert plan_for(Alphabet(("e", "e2", "x")), "x").fresh_name == "e3"

    with pytest.raises(ValueError):
        plan_for(Alphabet(("0", "1")), "0", fresh_name="1")
    with pytest.raises(KeyError):
        plan_for(Alphabet(("0", "1")), "2")


def test_plan_validation():
    with pytest.raises(ValueError):
        ExpansionPlan(target=2, fresh=2, fresh_name="e")
    with pytest.raises(ValueError):
        ExpansionPlan(target=-1, fresh=2, fresh_name="e")


# -- word rewriting ------------------------------------------------------


@given(
    word=st.lists(st.integers(min_value=0, max_value=2), max_size=12).map(tuple),
    target=st.integers(min_value=0, max_value=2),
)
def test_word_roundtrip(word, target):
    plan = ExpansionPlan(target=target, fresh=3, fresh_name="e")
    image = expand_word(word, plan)
    assert oracles.contract_word(image, target, 3) == word
    assert image.count(plan.fresh) == word.count(target)
    # every fresh symbol sits right before its target
    for i, s in enumerate(image):
        if s == plan.fresh:
            assert image[i + 1] == target


def test_contract_rejects_non_images():
    for bad in [(2,), (2, 0), (2, 2, 1), (0, 2)]:
        with pytest.raises(ValueError):
            oracles.contract_word(bad, 1, 2)
    # a target with no fresh in front is legal: factors may start mid-pair
    assert oracles.contract_word((1, 0), 1, 2) == (1, 0)
    assert oracles.contract_word((2, 1, 0, 2, 1), 1, 2) == (1, 0, 1)


# -- golden mean ---------------------------------------------------------


def test_expanded_golden_mean_forbidden_set():
    exp = expand_sft(golden_mean_spec(), gm_plan())
    assert exp.alphabet.names == ("0", "1", "e")
    assert exp.forbidden == frozenset(
        {(0, 1), (1, 1), (2, 0), (2, 2), (2, 1, 2, 1)}
    )


def test_expanded_golden_mean_admissibility():
    member = system_language(expand_sft(golden_mean_spec(), gm_plan()), 4)
    # factors of expansion images
    for good in [(2, 1), (1, 0), (0, 2, 1, 0), (1,), (2,), (0, 0, 0)]:
        assert member(good)
    # none of these contains a forbidden factor, yet every two-sided
    # extension runs into the image of the old forbidden word
    for dead in [(1, 2), (1, 2, 1), (2, 1, 2), (1, 2, 1, 0)]:
        assert not member(dead)
    # the dead word contracts onto the forbidden word of the base shift
    assert oracles.contract_word((1, 2, 1), 1, 2) == (1, 1)


def test_expansion_reflects_admissibility_sft():
    gm = golden_mean_spec()
    base = system_language(gm, 7)
    exp = system_language(expand_sft(gm, gm_plan()), 14)
    for n in range(8):
        for word in itertools.product((0, 1), repeat=n):
            assert base(word) == exp(expand_word(word, gm_plan()))


# -- sofic covers --------------------------------------------------------


def test_expand_even_shift_graph_structure():
    plan = plan_for(even_shift_graph().alphabet, "0")
    g = expand_labeled_graph(even_shift_graph(), plan)
    assert g.vertices == ("u", "w", "e:u>w", "e:w>u")
    assert g.edges == ((0, 1, 0), (0, 2, 2), (1, 2, 3), (2, 0, 1), (3, 0, 0))
    assert left_resolving_violation(g) is None
    assert is_essential(g)
    assert oracles.strongly_connected(len(g.vertices), g.edges)


def test_expansion_reflects_admissibility_sofic():
    plan = plan_for(even_shift_graph().alphabet, "0")
    exp = expand_spec(even_shift_spec(), plan)
    assert isinstance(exp, SoficGraph)
    base, expanded = system_language(even_shift_spec(), 8), system_language(exp, 16)
    for n in range(9):
        for word in itertools.product((0, 1), repeat=n):
            assert base(word) == expanded(expand_word(word, plan))


def test_expanded_sofic_factors_contract_to_base_factors():
    plan = plan_for(even_shift_graph().alphabet, "0")
    base = system_language(even_shift_spec(), 7)
    exp = system_language(expand_spec(even_shift_spec(), plan), 7)
    seen = 0
    for length in range(1, 8):
        for word in itertools.product(range(3), repeat=length):
            if not exp(word) or word[-1] == plan.fresh:
                continue  # a trailing fresh has its target cut off by the window
            assert base(oracles.contract_word(word, plan.target, plan.fresh))
            seen += 1
    assert seen > 50


def test_expand_labeled_graph_midpoint_collision():
    ab = Alphabet(("0", "1"))
    g = from_names(
        ab,
        ("u", "e:u>u"),
        [("u", "0", "u"), ("u", "1", "e:u>u"), ("e:u>u", "1", "u")],
    )
    with pytest.raises(ValueError):
        expand_labeled_graph(g, ExpansionPlan(target=0, fresh=2, fresh_name="e"))


# -- full shifts and bracket shifts --------------------------------------


def test_expanded_full_shift_is_finite_type():
    plan = plan_for(FullShift(2).alphabet, "0")
    exp = expand_spec(FullShift(2), plan)
    assert isinstance(exp, SftForbidden)
    assert exp.forbidden == frozenset({(2, 1), (2, 2), (0, 0), (1, 0)})
    member = system_language(exp, 5)
    assert member((2, 0, 1, 2, 0))
    assert not member((2, 1))
    assert not member((1, 0))


def test_expanded_dyck_wrapper():
    spec = DyckN(2)
    plan = plan_for(spec.alphabet, "a1")
    exp = expand_spec(spec, plan)
    assert isinstance(exp, Expanded)
    assert exp.alphabet.names == ("a1", "a2", "b1", "b2", "e")
    assert exp.fresh == 4 and exp.target == 0

    with pytest.raises(ValueError):
        expand_spec(exp, plan_for(exp.alphabet, "a2"))
    with pytest.raises(ValueError):
        expand_spec(spec, ExpansionPlan(target=0, fresh=5, fresh_name="e"))


def test_expansion_reflects_admissibility_dyck():
    spec = DyckN(2)
    plan = plan_for(spec.alphabet, "a1")
    base, exp = system_language(spec, 5), system_language(expand_spec(spec, plan), 10)
    for n in range(6):
        for word in itertools.product(range(4), repeat=n):
            assert base(word) == exp(expand_word(word, plan))


def test_expanded_dyck_boundary_words():
    exp = system_language(expand_spec(DyckN(2), plan_for(DyckN(2).alphabet, "a1")), 3)
    assert exp((0,))  # bare target opens a factor window
    assert exp((4, 0, 2))
    assert exp((4,))  # trailing fresh forces a target after the window
    assert not exp((1, 0))  # interior target must follow fresh
    assert not exp((4, 1))
    assert not exp((4, 0, 3))  # mismatched close dies in the base
