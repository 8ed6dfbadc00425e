import importlib.resources
import json

import pytest

from setdecomp.architecture import (Architecture, State, SubFunction, classify,
                                    load_architecture, validate_coverage)
from setdecomp.errors import (AlgebraicCycle, CoverageViolation, ParseError,
                              ProducerConflict, ValidationError)
from setdecomp.expr import BinOp, Num, Var, parse_expr
from setdecomp.intervals import RangeMap
from setdecomp.requirements import FunctionalRequirement

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")


@pytest.fixture(scope="module")
def cruise():
    arch, _ = load_architecture(CRUISE)
    return arch


def _tiny_arch(top_inputs=None):
    """x --f--> y, with optional mismatched top contract."""
    top = FunctionalRequirement("top",
                                inputs=top_inputs or RangeMap.of(x=(0, 1)),
                                outputs=RangeMap.of(y=(0, 10)))
    f = SubFunction(id="f", exprs=(("y", Var("x")),),
                    inputs=RangeMap.of(x=(-1, 2)), outputs=RangeMap.of(y=(-5, 20)))
    return Architecture(top=top, subfunctions=(f,))


class TestValidation:
    def test_duplicate_ids_rejected(self):
        f = SubFunction(id="f", exprs=(("y", Var("x")),),
                        inputs=RangeMap.of(x=(0, 1)), outputs=RangeMap.of(y=(0, 1)))
        g = SubFunction(id="f", exprs=(("z", Var("y")),),
                        inputs=RangeMap.of(y=(0, 1)), outputs=RangeMap.of(z=(0, 1)))
        with pytest.raises(ValidationError):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f, g))

    def test_undeclared_expression_variable_rejected(self):
        f = SubFunction(id="f", exprs=(("y", Var("ghost")),),
                        outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(ValidationError, match="ghost"):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))

    def test_undeclared_state_variable_rejected(self):
        f = SubFunction(id="f", exprs=(("y", Var("e")),),
                        states=(State("e", Var("ghost"), Num(0.0)),),
                        outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(ValidationError, match="f: state 'e' references undeclared 'ghost'"):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))

    def test_expression_for_a_non_output_rejected(self):
        f = SubFunction(id="f", exprs=(("y", Num(1.0)), ("z", Num(2.0))),
                        outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(ValidationError, match="f: expression for 'z' which is not an output"):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))

    def test_output_without_expression_rejected(self):
        f = SubFunction(id="f", exprs=(("a", Var("x")),),
                        inputs=RangeMap.of(x=(0, 1)), outputs=RangeMap.of(a=(0, 1), b=(0, 1)))
        with pytest.raises(ValidationError, match="f: output 'b' has no expression"):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))

    def test_integrator_state_must_be_an_output(self):
        f = SubFunction(id="f", states=(State("s", Var("d"), Var("s0")),),
                        inputs=RangeMap.of(d=(0, 1), s0=(0, 1)),
                        outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(ValidationError):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))

    def test_producer_conflict(self):
        f = SubFunction(id="f", exprs=(("y", Num(1.0)),),
                        outputs=RangeMap.of(y=(0, 1)))
        g = SubFunction(id="g", exprs=(("y", Num(2.0)),),
                        outputs=RangeMap.of(y=(0, 1)))
        with pytest.raises(ProducerConflict, match="variable 'y' produced by multiple "
                                                   "sub-functions: f, g"):
            Architecture(top=FunctionalRequirement("t"), subfunctions=(f, g))

    @pytest.mark.parametrize("sub, arch, message", [
        (dict(exprs=(("y", Var("e")),), states=(State("e", Num(1.0), Num(0.0)),)),
         dict(constants=(("e", 1.0),)), "f: state 'e' collides with a constant"),
        (dict(exprs=(("y", Var("x")),), states=(State("y", Var("x"), Num(0.0)),)),
         {}, "f: output 'y' has 2 expressions or states, not one"),
        (dict(exprs=(("y", Var("x")),)),
         dict(top=FunctionalRequirement("t", inputs=RangeMap.of(y=(0, 1)))),
         "variable 'y' is output in f and input in top"),
    ], ids=["state-named-like-a-constant", "output-with-expression-and-state",
            "top-input-produced-inside"])
    def test_wiring_rule_rejected_at_construction(self, sub, arch, message):
        f = SubFunction(id="f", inputs=RangeMap.of(x=(0, 1)), outputs=RangeMap.of(y=(0, 1)),
                        **sub)
        with pytest.raises(ValidationError, match=message):
            Architecture(**{"top": FunctionalRequirement("t"), "subfunctions": (f,), **arch})

    def test_coverage_violation_names_the_variable(self):
        top = FunctionalRequirement("top", inputs=RangeMap.of(q=(0, 1)),
                                    outputs=RangeMap.of(y=(0, 1)))
        f = SubFunction(id="f", exprs=(("y", Var("x")),),
                        inputs=RangeMap.of(x=(0, 1)), outputs=RangeMap.of(y=(0, 1)))
        arch = Architecture(top=top, subfunctions=(f,))
        with pytest.raises(CoverageViolation, match="q"):
            validate_coverage(arch)


class TestAssignments:
    def test_cruise_order(self, cruise):
        # declaration order (f2 vdot, f3 Fr, ...) wherever the reads allow
        assert [out for _, out, _ in cruise.assignments] == [
            "Fr", "Fa", "omega", "T", "u", "F", "vdot"]

    def test_derived_once(self, cruise):
        assert cruise.assignments is cruise.assignments

    def test_own_output_is_read_after_it_is_assigned(self):
        f = SubFunction(id="f", exprs=(("a", BinOp("*", Num(2.0), Var("b"))),
                                       ("b", Var("x"))),
                        inputs=RangeMap.of(x=(0, 1)), outputs=RangeMap.of(a=(0, 2), b=(0, 1)))
        arch = Architecture(top=FunctionalRequirement("t"), subfunctions=(f,))
        assert [out for _, out, _ in arch.assignments] == ["b", "a"]

    def test_cycle_names_every_unordered_output(self):
        f = SubFunction(id="f", exprs=(("p", Var("q")), ("r", Var("p"))),
                        inputs=RangeMap.of(q=(0, 1)), outputs=RangeMap.of(p=(0, 1), r=(0, 1)))
        g = SubFunction(id="g", exprs=(("q", Var("p")),),
                        inputs=RangeMap.of(p=(0, 1)), outputs=RangeMap.of(q=(0, 1)))
        arch = Architecture(top=FunctionalRequirement("t"), subfunctions=(f, g))
        with pytest.raises(AlgebraicCycle, match="algebraic cycle through: p, q, r"):
            arch.assignments


class TestClassification:
    def test_cruise_groups(self, cruise):
        cls = classify(cruise)
        names = cls.groups()
        assert names["x"] == {"v_0", "v_r"}
        assert names["x_tilde"] == set()
        assert names["c"] == set()
        assert names["c_tilde"] == {"omega_m"}
        assert names["u"] == set()
        assert names["u_tilde"] == {"m"}
        assert names["y1"] == set()
        assert names["y2"] == {"vdot", "Fr", "F", "Fa", "T", "u", "omega"}
        assert names["y3"] == {"v"}
        assert names["y4"] == set()

    def test_groups_are_exclusive_and_exhaustive(self, cruise):
        cls = classify(cruise)
        seen = [v for g in cls.groups().values() for v in g]
        assert len(seen) == len(set(seen))
        assert set(seen) == {"v_0", "v_r", "m", "omega_m", "v", "vdot", "Fr",
                             "F", "Fa", "T", "u", "omega"}

    def test_design_and_performance_spaces(self, cruise):
        groups = classify(cruise).groups()
        design = {v for g in ("x", "x_tilde", "c", "c_tilde", "u", "u_tilde")
                  for v in groups[g]}
        assert design == {"v_0", "v_r", "m", "omega_m"}
        assert sum(len(groups[g]) for g in ("y1", "y2", "y3", "y4")) == 8

    def test_tiny_arch_classifies(self):
        cls = classify(_tiny_arch())
        assert cls.x == {"x"}
        # y is a top output consumed by nothing inside: terminal (y4), not fed back (y3)
        assert cls.y4 == {"y"}
        assert cls.y3 == set()


class TestJson:
    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"top": ???}')
        with pytest.raises(ParseError, match=r"line 1"):
            load_architecture(bad)

    def test_missing_section_is_a_validation_error(self, tmp_path):
        f = tmp_path / "incomplete.json"
        f.write_text('{"top": {"name": "t"}}')
        with pytest.raises(ValidationError):
            load_architecture(f)

    def test_mistyped_range_map_is_a_validation_error(self, tmp_path):
        doc = json.loads(open(CRUISE).read())
        doc["subfunctions"][0]["inputs"] = []
        f = tmp_path / "mistyped.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_architecture(f)

    def test_integrator_state_must_be_an_output_port(self, tmp_path):
        doc = json.loads(open(CRUISE).read())
        doc["subfunctions"][0]["state"] = "w"
        f = tmp_path / "integrator.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="f1: integrator state 'w' is not an output"):
            load_architecture(f)

    def test_expression_parsing(self):
        e = parse_expr(["+", ["var", "a"], 2])
        assert e == BinOp("+", Var("a"), Num(2.0))
        with pytest.raises(ParseError):
            parse_expr(["pow", ["var", "a"], 0.5])
        with pytest.raises(ParseError):
            parse_expr(["frobnicate", 1, 2])


def test_cruise_has_eight_subfunctions(cruise):
    assert [sf.id for sf in cruise.subfunctions] == [f"f{i}" for i in range(1, 9)]
    f1, f8 = cruise.subfunctions[0], cruise.subfunctions[7]
    # f1 is an integrator: a state exposed as its output v, no expression
    assert f1.exprs == ()
    assert f1.states == (State("v", Var("vdot"), Var("v_0")),)
    assert f1.outputs.names() == {"v"}
    # f8's integral state e8 is hidden
    assert [out for out, _ in f8.exprs] == ["u"]
    assert [s.name for s in f8.states] == ["e8"]
