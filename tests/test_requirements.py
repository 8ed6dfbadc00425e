import json
import random

import pytest

from setdecomp.errors import NotComposable, UnitMismatch, ValidationError
from setdecomp.intervals import Interval, RangeMap
from setdecomp.requirements import (FunctionalRequirement, TimedOutputSpec,
                                    check_composable, check_refines, compose,
                                    fr_from_dict, fr_to_dict, links)

from genfr import (oracle_composable, oracle_refines, rand_chain, rand_fan_out,
                   rand_fr, rand_interval, rand_refinement)


def test_roles_must_be_disjoint():
    with pytest.raises(ValidationError, match="variable 'v' appears in both inputs and outputs"):
        FunctionalRequirement("bad", inputs=RangeMap.of(v=(0, 1)),
                              outputs=RangeMap.of(v=(0, 1)))


def test_reversed_time_window_rejected():
    with pytest.raises(ValidationError, match=r"window \[30.0,20.0\] for v is reversed"):
        TimedOutputSpec("v", ((30.0, 20.0, Interval(0, 1)),))


def test_time_window_in_another_unit_rejected():
    with pytest.raises(UnitMismatch, match="unit mismatch for 'v': 'm/s' vs 'km/h'"):
        FunctionalRequirement(
            "top", outputs=RangeMap.of(v=(20, 40, "m/s")),
            timed_outputs=(TimedOutputSpec("v", ((20.0, 100.0, Interval(33, 37, "km/h")),)),))


class TestRefinement:
    def test_self_refinement(self):
        fr = rand_fr(random.Random(0))
        assert check_refines(fr, fr)

    def test_widened_output_is_not_a_refinement(self):
        old = FunctionalRequirement("old", inputs=RangeMap.of(x=(0, 10)),
                                    outputs=RangeMap.of(y=(0, 5)))
        new = FunctionalRequirement("new", inputs=RangeMap.of(x=(0, 10)),
                                    outputs=RangeMap.of(y=(-1, 5)))
        res = check_refines(new, old)
        assert not res
        assert res.witness_var == "y" and res.clause == "output-not-tightened"

    def test_narrowed_input_is_not_a_refinement(self):
        old = FunctionalRequirement("old", inputs=RangeMap.of(x=(0, 10)),
                                    outputs=RangeMap.of(y=(0, 5)))
        new = FunctionalRequirement("new", inputs=RangeMap.of(x=(1, 10)),
                                    outputs=RangeMap.of(y=(0, 5)))
        assert check_refines(new, old).clause == "input-not-widened"

    def test_strict_extension_covers_parameters(self):
        old = FunctionalRequirement("old", inputs=RangeMap.of(x=(0, 10)),
                                    outputs=RangeMap.of(y=(0, 5)),
                                    controllables=RangeMap.of(c=(0, 4)))
        new = FunctionalRequirement("new", inputs=RangeMap.of(x=(0, 10)),
                                    outputs=RangeMap.of(y=(0, 5)),
                                    controllables=RangeMap.of(c=(0, 6)))
        assert check_refines(new, old, strict=False)
        res = check_refines(new, old, strict=True)
        assert not res and res.clause == "controllable-not-tightened"

    @pytest.mark.parametrize("role", ["inputs", "outputs", "controllables",
                                      "uncontrollables"])
    def test_range_in_another_unit_raises(self, role):
        old = FunctionalRequirement("old", **{role: RangeMap.of(v=(0, 40, "m/s"))})
        new = FunctionalRequirement("new", **{role: RangeMap.of(v=(0, 40, "mph"))})
        with pytest.raises(UnitMismatch, match="unit mismatch for 'v': 'mph' vs 'm/s'"):
            check_refines(new, old)

    def test_generated_refinements_pass_and_match_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            fr = rand_fr(rng)
            ref = rand_refinement(rng, fr)
            assert check_refines(ref, fr, strict=True)
            assert oracle_refines(ref, fr, strict=True)

    def test_property_1_transitivity(self):
        rng = random.Random(11)
        for _ in range(300):
            fr = rand_fr(rng)
            fr1 = rand_refinement(rng, fr)
            fr2 = rand_refinement(rng, fr1)
            assert check_refines(fr2, fr)
            assert oracle_refines(fr2, fr)


class TestComposability:
    def test_no_shared_variable_means_not_composable(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(y=(0, 1)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(z=(0, 1)))
        assert not check_composable(a, b)

    def test_producer_must_fit_inside_consumer(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(y=(0, 3)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(y=(0, 2)),
                                  outputs=RangeMap.of(z=(0, 1)))
        res = check_composable(a, b)
        assert not res and res.witness_var == "y"

    def test_shared_variable_in_another_unit_raises(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(v=(0, 40, "m/s")))
        b = FunctionalRequirement("b", inputs=RangeMap.of(v=(0, 60, "mph")))
        with pytest.raises(UnitMismatch, match="unit mismatch for 'v': 'm/s' vs 'mph'"):
            check_composable(a, b)

    def test_property_2_refinement_preserves_composability(self):
        rng = random.Random(23)
        for _ in range(300):
            chain = rand_chain(rng, n=3)
            refined = [rand_refinement(rng, fr) for fr in chain]
            for j in range(len(chain) - 1):
                assert check_composable(chain[j], chain[j + 1])
                assert check_composable(refined[j], refined[j + 1])
                assert oracle_composable(refined[j], refined[j + 1])

    def test_property_3_composite_of_refinements_refines_composite(self):
        rng = random.Random(31)
        for _ in range(300):
            chain = rand_chain(rng, n=3)
            refined = [rand_refinement(rng, fr) for fr in chain]
            whole = compose(chain)
            whole_ref = compose(refined)
            assert check_refines(whole_ref, whole)
            assert oracle_refines(whole_ref, whole)


class TestSatisfaction:
    # a system's achieved behaviour is just another contract; satisfaction is
    # refinement of the requirement by the behaviour

    def test_property_4_refinement_chains_into_satisfaction(self):
        rng = random.Random(41)
        for _ in range(200):
            fr = rand_fr(rng)
            fr1 = rand_refinement(rng, fr)
            system = rand_refinement(rng, fr1)
            assert check_refines(system, fr1)
            assert check_refines(system, fr)

    def test_property_5_satisfying_systems_stay_composable(self):
        rng = random.Random(43)
        for _ in range(200):
            chain = rand_chain(rng, n=3)
            systems = [rand_refinement(rng, fr) for fr in chain]
            for j in range(len(chain) - 1):
                assert check_refines(systems[j], chain[j])
                assert check_composable(systems[j], systems[j + 1])

    def test_property_6_composite_of_systems_satisfies_composite(self):
        rng = random.Random(47)
        for _ in range(200):
            chain = rand_chain(rng, n=3)
            systems = [rand_refinement(rng, fr) for fr in chain]
            assert check_refines(compose(systems), compose(chain))


class TestCompose:
    def test_internal_variables_are_hidden(self):
        a = FunctionalRequirement("a", inputs=RangeMap.of(x=(0, 1)),
                                  outputs=RangeMap.of(m=(0, 1)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(m=(-1, 2)),
                                  outputs=RangeMap.of(y=(0, 1)))
        whole = compose([a, b])
        in_names = whole.inputs.names()
        out_names = whole.outputs.names()
        assert in_names == {"x"}
        assert "m" in out_names and "y" in out_names

    def test_two_producers_is_an_error(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(y=(0, 1)))
        b = FunctionalRequirement("b", outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(NotComposable):
            compose([a, b])

    def test_containment_violation_is_an_error(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(y=(0, 3)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(y=(0, 2)),
                                  outputs=RangeMap.of(z=(0, 1)))
        with pytest.raises(NotComposable):
            compose([a, b])

    def test_violation_is_found_when_the_consumer_comes_first(self):
        a = FunctionalRequirement("a", outputs=RangeMap.of(y=(0, 3)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(y=(0, 2)),
                                  outputs=RangeMap.of(z=(0, 1)))
        with pytest.raises(NotComposable) as exc:
            compose([b, a])
        assert (exc.value.producer, exc.value.consumer) == ("a", "b")
        assert "'y'" in str(exc.value)

    def test_shared_free_input_ranges_intersect(self):
        a = FunctionalRequirement("a", inputs=RangeMap.of(x=(0, 10)),
                                  outputs=RangeMap.of(y=(0, 1)))
        b = FunctionalRequirement("b", inputs=RangeMap.of(x=(5, 20)),
                                  outputs=RangeMap.of(z=(0, 1)))
        whole = compose([a, b])
        assert whole.inputs["x"] == Interval(5, 10)

    def test_no_requirements_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="at least one requirement"):
            compose([])


def _all_pairs(frs):
    """Oracle: every ordered pair of distinct parts that shares a variable."""
    return [(j, k, check_composable(frs[j], frs[k]))
            for j in range(len(frs)) for k in range(len(frs))
            if j != k and check_composable(frs[j], frs[k]).shared]


def _positions(frs, found):
    index = {id(fr): i for i, fr in enumerate(frs)}
    return [(index[id(fr_j)], index[id(fr_k)], res) for fr_j, fr_k, res in found]


class TestLinks:
    def test_chains_match_all_pairs(self):
        rng = random.Random(53)
        for _ in range(200):
            chain = rand_chain(rng, n=rng.randint(1, 8))
            chain = [rand_refinement(rng, fr, name=fr.name) if rng.random() < 0.5 else fr
                     for fr in chain]
            rng.shuffle(chain)
            assert _positions(chain, links(chain)) == _all_pairs(chain)

    def test_fan_out_matches_all_pairs(self):
        rng = random.Random(59)
        for _ in range(100):
            parts = rand_fan_out(rng, consumers=3)
            rng.shuffle(parts)
            found = _positions(parts, links(parts))
            assert found == _all_pairs(parts)
            assert len(found) == 3

    def test_two_shared_variables_make_one_link(self):
        rng = random.Random(61)
        for _ in range(100):
            a_iv, b_iv = rand_interval(rng), rand_interval(rng)
            prod = FunctionalRequirement(
                "prod", outputs=RangeMap([("a", a_iv), ("b", b_iv)]))
            cons = FunctionalRequirement(
                "cons", inputs=RangeMap([("a", rand_interval(rng)),
                                         ("b", rand_interval(rng))]),
                outputs=RangeMap([("c", rand_interval(rng))]))
            parts = [cons, prod] if rng.random() < 0.5 else [prod, cons]
            found = _positions(parts, links(parts))
            assert found == _all_pairs(parts)
            (_, _, res), = found
            assert res.shared == {"a", "b"}
            assert bool(res) == oracle_composable(prod, cons)

    def test_random_parts_match_all_pairs_or_name_two_producers(self):
        rng = random.Random(67)
        for _ in range(300):
            parts = [rand_fr(rng, name=f"p{k}") for k in range(rng.randint(1, 4))]
            outputs = [v for fr in parts for v in fr.outputs]
            if len(outputs) == len(set(outputs)):
                assert _positions(parts, links(parts)) == _all_pairs(parts)
            else:
                with pytest.raises(NotComposable, match="two producers"):
                    links(parts)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        fr = rand_fr(rng)
        assert fr_from_dict(json.loads(json.dumps(fr_to_dict(fr)))) == fr


def test_json_round_trip_with_windows():
    fr = FunctionalRequirement(
        "top", inputs=RangeMap.of(x=(0, 1)),
        outputs=RangeMap.of(v=(20, 40, "m/s")),
        timed_outputs=(TimedOutputSpec("v",
                                       ((20.0, 100.0, Interval(33, 37, "m/s")),)),))
    assert fr_from_dict(fr_to_dict(fr)) == fr
