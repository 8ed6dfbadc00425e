import dataclasses
import importlib.resources
import json
import math
import random
import shutil

import pytest

from setdecomp import narrowing, simulation
from setdecomp.architecture import load_architecture
from setdecomp.cli import main
from setdecomp.intervals import Interval, RangeMap
from setdecomp.narrowing import initial_spaces
from setdecomp.requirements import FunctionalRequirement, save_fr
from setdecomp.simulation import build_ode, integrate

from genfr import rand_chain

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")

FAST = ["--step", "0.05", "--horizon", "30", "--grid", "2"]


def _sub(doc, sub_id):
    """One sub-function of an architecture document."""
    (sf,) = [sf for sf in doc["subfunctions"] if sf["id"] == sub_id]
    return sf


def _port(doc, sub_id, role):
    """One role's port ranges of one sub-function of an architecture document."""
    return _sub(doc, sub_id)[role]


def _rename_e8(doc, name):
    """Rename f8's hidden integral state, and its read in f8's expression."""
    f8 = _sub(doc, "f8")
    f8["states"][0]["name"] = name
    f8["exprs"]["u"] = json.loads(json.dumps(f8["exprs"]["u"]).replace('"e8"', json.dumps(name)))


def _fr(name, **roles):
    maps = {role: RangeMap.of(**entries) for role, entries in roles.items()}
    return FunctionalRequirement(name, **maps)


@pytest.fixture
def no_envelope(monkeypatch):
    """Fail the test if narrowing simulates any envelope."""
    def fail(*args, **kwargs):
        raise AssertionError("an envelope was simulated")

    monkeypatch.setattr(narrowing, "envelope_over_box", fail)


@pytest.fixture
def chain_files(tmp_path):
    """a -> b contracts plus a top contract their composite refines."""
    a = _fr("a", inputs={"x": (0, 1)}, outputs={"y": (2.0, 3.0)})
    b = _fr("b", inputs={"y": (1.0, 4.0)}, outputs={"z": (0.0, 9.0)})
    top = _fr("top", inputs={"x": (0.2, 0.8)}, outputs={"z": (-1.0, 10.0)})
    paths = {}
    for fr in (a, b, top):
        p = tmp_path / f"{fr.name}.json"
        save_fr(fr, p)
        paths[fr.name] = str(p)
    return paths


class TestDecompose:
    def test_json_report_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["decompose", CRUISE, *FAST, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["law_checks"]["refinement"]["ok"] is True
        assert set(report["spaces"]["fps_star"]) == {"F", "Fa", "Fr", "T",
                                                     "omega", "u", "v", "vdot"}

    def test_two_runs_are_byte_identical(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            assert main(["decompose", CRUISE, *FAST, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_markdown_and_csv_renderings(self, tmp_path, capsys):
        assert main(["decompose", CRUISE, *FAST, "--emit", "md"]) == 0
        md = capsys.readouterr().out
        assert "|" in md and "omega_m" in md
        assert main(["decompose", CRUISE, *FAST, "--emit", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("section,variable")

    def test_compare_against_own_golden_reports_zero_delta(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        assert main(["decompose", CRUISE, *FAST, "--out", str(golden)]) == 0
        out = tmp_path / "again.json"
        assert main(["decompose", CRUISE, *FAST, "--compare", str(golden),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["deltas"]["max"]["delta"] == 0.0

    def test_max_iters_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", CRUISE, "--max-iters", "5"])
        assert exc.value.code == 2

    def test_padding_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", CRUISE, "--padding", "0.02"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("weight", [-0.5, float("nan"), 10 ** 400],
                             ids=["negative", "nan", "beyond-float-range"])
    def test_bad_tradeoff_weight_is_validation_error(self, weight, tmp_path, capsys,
                                                     no_envelope):
        doc = json.loads(open(CRUISE).read())
        doc["tradeoff"]["weights"]["producer"]["T"] = weight
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert "error: trade-off weight producer.T" in capsys.readouterr().err

    @pytest.mark.parametrize("weights, message", [
        ({"producer": {"omega_m": 0.5}},
         "producer.omega_m: 'omega_m' is not a performance variable"),
        ({"consumer": {"f99": {"v": 0.5}}},
         "consumer.f99.v: 'f99' does not consume performance variable 'v'"),
        # f8 reads v_r, but v_r is a top input: no bound of it is chosen
        ({"consumer": {"f8": {"v_r": 0.5}}},
         "consumer.f8.v_r: 'f8' does not consume performance variable 'v_r'"),
    ], ids=["design-variable", "unknown-sub-function", "top-input"])
    def test_misnamed_tradeoff_weight_fails_before_simulation(self, weights, message, tmp_path,
                                                              capsys, no_envelope):
        doc = json.loads(open(CRUISE).read())
        doc["tradeoff"]["weights"] = weights
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert f"error: trade-off weight {message}" in capsys.readouterr().err

    def test_tradeoff_section_must_be_an_object(self, tmp_path, capsys):
        doc = json.loads(open(CRUISE).read())
        doc["tradeoff"] = []
        path = tmp_path / "tradeoff.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert "'tradeoff' section" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--step", "0"], ["--horizon", "0"], ["--grid", "-1"]],
                             ids=["step", "horizon", "grid"])
    def test_bad_sampling_plan_is_validation_error(self, flags, capsys):
        assert main(["decompose", CRUISE, *flags]) == 2
        assert "SamplingPlan" in capsys.readouterr().err

    def test_port_range_conflict_names_the_subfunctions(self, tmp_path, capsys):
        doc = json.loads(open(CRUISE).read())
        _port(doc, "f5", "inputs")["v"] = {"lo": 70.0, "hi": 80.0, "unit": "m/s"}
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        err = capsys.readouterr().err
        assert "empty range for 'v'" in err
        assert "f1.outputs [0,50] m/s" in err and "f5.inputs [70,80] m/s" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: _port(doc, "f5", "inputs")["v"].update(unit="mph"),
         "unit mismatch for 'v': 'm/s' vs 'mph'"),
        (lambda doc: _port(doc, "f1", "outputs")["v"].update(unit="mph"),
         "unit mismatch for 'v': 'mph' vs 'm/s'"),
        (lambda doc: doc["top"]["inputs"]["v_0"].update(unit="km/h"),
         "unit mismatch for 'v_0': 'm/s' vs 'km/h'"),
        (lambda doc: doc["top"]["uncontrollables"].update(
            m={"lo": 2180.0, "hi": 2430.0, "unit": "lb"}),
         "unit mismatch for 'm': 'kg' vs 'lb'"),
        (lambda doc: doc["top"]["timed_outputs"][0]["windows"][0].update(unit="km/h"),
         "unit mismatch for 'v': 'm/s' vs 'km/h'"),
    ], ids=["consumer-port", "producer-port", "top-input", "top-uncontrollable",
            "top-window"])
    def test_unit_mismatch_fails_before_simulation(self, edit, message, tmp_path,
                                                   capsys, no_envelope):
        doc = json.loads(open(CRUISE).read())
        edit(doc)
        path = tmp_path / "units.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: _sub(doc, "f8")["states"][0].update(initial=["var", "v"]),
         "f8: initial value of state 'e8' reads 'v', neither a constant nor a design variable"),
        (lambda doc: _rename_e8(doc, "v"), "f8: state 'v' collides with a state of f1"),
        (lambda doc: _rename_e8(doc, "m"), "f8: state 'm' collides with a port of f2"),
        (lambda doc: _sub(doc, "f8").update(
            controllables={"m": {"lo": 990.0, "hi": 1100.0, "unit": "kg"}}),
         "variable 'm' is uncontrollable in f2 and controllable in f8"),
        (lambda doc: _sub(doc, "f3").update(
            inputs={"Fr": {"lo": 70.0, "hi": 120.0, "unit": "N"}}),
         "variable 'Fr' is input in f3 and output in f3"),
    ], ids=["state-initial-reads-an-output", "state-named-like-an-integrator",
            "state-shadows-a-design-variable", "controllable-and-uncontrollable",
            "input-and-output-of-one-sub-function"])
    def test_bad_wiring_fails_before_simulation(self, edit, message, tmp_path, capsys,
                                                no_envelope):
        doc = json.loads(open(CRUISE).read())
        edit(doc)
        path = tmp_path / "wiring.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: _sub(doc, "f1").update(id=["f1"]), "sub-function id is not a string: ['f1']"),
        (lambda doc: _sub(doc, "f1").update(initial_input=[1]),
         "f1: initial_input is not a string: [1]"),
        (lambda doc: _sub(doc, "f8")["states"][0].update(name={"x": 1}),
         "f8: state name is not a string: {'x': 1}"),
    ], ids=["sub-function-id", "integrator-input", "state-name"])
    def test_non_string_name_fails_before_simulation(self, edit, message, tmp_path, capsys,
                                                     no_envelope):
        # each was an unhashable-type TypeError traceback, exit 1
        doc = json.loads(open(CRUISE).read())
        edit(doc)
        path = tmp_path / "names.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vdot", "u"])
    def test_constant_named_like_a_port_fails_before_simulation(self, name, tmp_path, capsys,
                                                                no_envelope):
        doc = json.loads(open(CRUISE).read())
        doc["constants"][name] = 1.0
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert f"constant '{name}' collides with a port of" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ("a", "constant 'A' is not a number: 'a'"),
        (True, "constant 'A' is not a number: True"),
        (math.nan, "constant 'A' is not finite"),
        (math.inf, "constant 'A' is not finite"),
        (-math.inf, "constant 'A' is not finite"),
        (10 ** 400, "constant 'A' is not finite"),
    ], ids=["string", "bool", "nan", "infinity", "minus-infinity", "beyond-float-range"])
    def test_bad_constant_fails_before_simulation(self, value, message, tmp_path, capsys,
                                                  no_envelope):
        # Python's json writes and reads NaN, Infinity and integers of any size
        doc = json.loads(open(CRUISE).read())
        doc["constants"]["A"] = value
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_constant_with_a_fresh_name_changes_no_byte(self, tmp_path):
        # one path for both documents: the report names the file it read
        doc = json.loads(open(CRUISE).read())
        path, reports = tmp_path / "cruise.json", []
        for constants in ({}, {"unread": 1.0}):
            path.write_text(json.dumps({**doc, "constants": {**doc["constants"], **constants}}))
            report = tmp_path / f"report{len(reports)}.json"
            assert main(["decompose", str(path), *FAST, "--out", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("literal", [["num", math.inf], ["num", -math.inf], math.nan],
                             ids=["num-infinity", "num-minus-infinity", "bare-nan"])
    def test_non_finite_literal_fails_before_simulation(self, literal, tmp_path, capsys,
                                                        no_envelope):
        # Python's json writes and reads Infinity and NaN
        doc = json.loads(open(CRUISE).read())
        _sub(doc, "f5")["exprs"]["Fa"] = ["*", literal, ["var", "v"]]
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(doc))
        for command in (["decompose", str(path), *FAST], ["simulate", str(path), *FAST[:4]]):
            assert main(command) == 2
            assert "non-finite literal" in capsys.readouterr().err

    def test_bool_num_literal_fails_before_simulation(self, tmp_path, capsys, no_envelope):
        # a bare true is no number, and neither is a wrapped one
        doc = json.loads(open(CRUISE).read())
        _sub(doc, "f5")["exprs"]["Fa"] = ["*", ["num", True], ["var", "v"]]
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), *FAST]) == 2
        assert "bad num node: ['num', True]" in capsys.readouterr().err

    def test_window_the_plan_never_reaches_fails_before_simulation(self, tmp_path, capsys,
                                                                   no_envelope):
        # cruise-narrow: the v window [20, 100] lowered to 36.55 m/s
        doc = json.loads(open(CRUISE).read())
        doc["top"]["timed_outputs"][0]["windows"][0]["hi"] = 36.55
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), "--horizon", "10"]) == 2
        err = capsys.readouterr().err
        assert "time window [20, 100] of 'v' holds no grid time" in err
        assert "horizon 10, step 0.01" in err

    def test_published_envelope_escape_exits_four(self, tmp_path, capsys):
        # y' = a*a*(1 - b*b) is 0 at every probe sample (the corners and the
        # centre of a, b in [-1, 1]); the published grid reaches y = 1 > 0.5
        port = {"lo": -1.0, "hi": 1.0, "unit": ""}
        rate = ["*", ["*", ["var", "a"], ["var", "a"]],
                ["-", 1.0, ["*", ["var", "b"], ["var", "b"]]]]
        doc = {"top": {"name": "escape", "inputs": {"a": port, "b": port},
                       "outputs": {"y": {"lo": -1.0, "hi": 0.5, "unit": ""}}},
               "subfunctions": [{"id": "f", "kind": "algebraic", "exprs": {},
                                 "states": [{"name": "y", "derivative": rate}],
                                 "inputs": {"a": port, "b": port},
                                 "outputs": {"y": {"lo": -10.0, "hi": 10.0, "unit": ""}}}]}
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), "--horizon", "1"]) == 4
        captured = capsys.readouterr()
        assert "postcondition 'envelope' violated: y hi: simulated 1.0" in captured.err
        assert "> allowed 0.5" in captured.err
        assert captured.out == ""

    def test_design_box_without_controllable_names_its_escapes(self, tmp_path, capsys):
        # y = 2x over x in [0, 1] leaves [0, 1], and nothing can be narrowed
        unit = {"lo": 0.0, "hi": 1.0, "unit": ""}
        doc = {"top": {"name": "steep", "inputs": {"x": unit}, "outputs": {"y": unit}},
               "subfunctions": [{"id": "f", "kind": "algebraic",
                                 "exprs": {"y": ["*", 2.0, ["var", "x"]]}, "inputs": {"x": unit},
                                 "outputs": {"y": {"lo": 0.0, "hi": 10.0, "unit": ""}}}]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path), "--horizon", "1"]) == 3
        assert ("infeasible: no controllable to narrow, and the design box escapes: "
                "y hi: simulated 2.0 > allowed 1.0\n") in capsys.readouterr().err

    def test_expression_reading_its_own_output_decomposes(self, tmp_path):
        port = {"lo": -10.0, "hi": 10.0, "unit": ""}
        doc = {"top": {"name": "own-output",
                       "inputs": {"x": {"lo": 0.0, "hi": 1.0, "unit": ""}},
                       "outputs": {"b": port}},
               "subfunctions": [{"id": "f", "kind": "algebraic",
                                 "exprs": {"a": ["var", "x"], "b": ["*", 2.0, ["var", "a"]]},
                                 "inputs": {"x": port}, "outputs": {"a": port, "b": port}}]}
        arch = tmp_path / "own-output.json"
        arch.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["decompose", str(arch), "--horizon", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["law_checks"]["refinement"]["ok"] is True

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["decompose", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", str(bad)]) == 2

    def test_infeasible_pinning_exits_three(self, tmp_path, capsys):
        doc = json.loads(open(CRUISE).read())
        # demand more headroom than any sub-function admits
        doc["top"]["inputs"]["v_0"] = {"lo": -500.0, "hi": 500.0, "unit": "m/s"}
        p = tmp_path / "wild.json"
        p.write_text(json.dumps(doc))
        rc = main(["decompose", str(p), *FAST])
        assert rc in (2, 3)
        assert rc != 0


    def test_point_valued_chain_restores_onto_its_attained_ranges(self, tmp_path):
        # s_k = 0.5*s_{k-1} + 1 fed by the fixed point s0 = 2: every attained
        # range is [2, 2], and the top's lower bound 1.9 forces a pull-in,
        # whose feasibility test at t = 1 must land on [2, 2] exactly (these
        # weights once made it overshoot to 2.000000000000001)
        port = {"lo": -10.0, "hi": 20.0, "unit": ""}
        links = [{"id": f"L{k}", "kind": "algebraic",
                  "exprs": {f"s{k}": ["+", ["*", 0.5, ["var", f"s{k - 1}"]], 1.0]},
                  "inputs": {f"s{k - 1}": port}, "outputs": {f"s{k}": port}}
                 for k in range(1, 5)]
        doc = {"top": {"name": "point-chain",
                       "inputs": {"s0": {"lo": 2.0, "hi": 2.0, "unit": ""}},
                       "outputs": {"s4": {"lo": 1.9, "hi": 15.0, "unit": ""}},
                       "controllables": {}, "uncontrollables": {}},
               "subfunctions": links,
               "tradeoff": {"weights": {
                   "producer": {"s1": 0.3, "s2": 0.9, "s3": 0.1, "s4": 0.5},
                   "consumer": {"L2": {"s1": 0.1}, "L3": {"s2": 0.7}, "L4": {"s3": 0.7}}}}}
        arch = tmp_path / "point-chain.json"
        arch.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["decompose", str(arch), "--horizon", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["law_checks"]["refinement"]["ok"] is True
        assert any(e["step"] == "pulled-in" for e in report["log"]["tradeoff"])


class TestCheckLaws:
    def test_passing_chain(self, chain_files, capsys):
        rc = main(["check-laws", chain_files["a"], chain_files["b"],
                   chain_files["top"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass composable a -> b" in out
        assert "pass refines" in out

    def test_single_part_refinement(self, chain_files, tmp_path, capsys):
        wide = _fr("wide", inputs={"x": (-5, 5)}, outputs={"y": (2.2, 2.8)})
        p = tmp_path / "wide.json"
        save_fr(wide, p)
        assert main(["check-laws", str(p), chain_files["a"]]) == 0

    def test_refinement_violation_exits_four(self, chain_files, tmp_path, capsys):
        narrow_in = _fr("narrow", inputs={"x": (0.4, 0.6)},
                        outputs={"y": (2.0, 3.0)})
        p = tmp_path / "narrow.json"
        save_fr(narrow_in, p)
        rc = main(["check-laws", str(p), chain_files["a"]])
        assert rc == 4
        assert "FAIL refines" in capsys.readouterr().out

    def test_composability_violation_reported(self, chain_files, tmp_path, capsys):
        loose = _fr("loose", inputs={"x": (0, 1)}, outputs={"y": (0.0, 9.0)})
        p = tmp_path / "loose.json"
        save_fr(loose, p)
        rc = main(["check-laws", str(p), chain_files["b"], chain_files["top"]])
        assert rc == 4
        assert "FAIL composable loose -> b" in capsys.readouterr().out

    def test_link_lines_equal_an_all_pairs_oracle(self, chain_files, tmp_path, capsys):
        rng = random.Random(5)
        parts = rand_chain(rng, n=60)
        # break link fr29 -> fr30: the consumer accepts none of s29's range
        produced = parts[29].outputs["s29"]
        broken = Interval(produced.hi + 1.0, produced.hi + 2.0)
        parts[30] = FunctionalRequirement(
            "fr30", inputs=RangeMap([("x30", parts[30].inputs["x30"]), ("s29", broken)]),
            outputs=parts[30].outputs)
        rng.shuffle(parts)
        expected = []
        for fr_j in parts:
            for fr_k in parts:
                shared = sorted(fr_j.outputs.names() & fr_k.inputs.names())
                if fr_j is fr_k or not shared:
                    continue
                bad = [n for n in shared
                       if not (fr_k.inputs[n].lo <= fr_j.outputs[n].lo
                               and fr_j.outputs[n].hi <= fr_k.inputs[n].hi)]
                if bad:
                    expected.append(f"FAIL composable {fr_j.name} -> {fr_k.name}: "
                                    f"'{bad[0]}' {fr_j.outputs[bad[0]]!r} not within "
                                    f"{fr_k.inputs[bad[0]]!r}")
                else:
                    expected.append(f"pass composable {fr_j.name} -> {fr_k.name}")
        paths = []
        for fr in parts:
            paths.append(str(tmp_path / f"{fr.name}.json"))
            save_fr(fr, paths[-1])
        rc = main(["check-laws", *paths, chain_files["top"]])
        out = capsys.readouterr().out
        assert rc == 4
        assert out.splitlines() == expected
        assert len(expected) == 59 and sum(line.startswith("FAIL") for line in expected) == 1

    def test_two_producers_of_one_variable_exit_four(self, chain_files, tmp_path, capsys):
        twin = _fr("twin", inputs={"w": (0, 1)}, outputs={"y": (2.0, 3.0)})
        p = tmp_path / "twin.json"
        save_fr(twin, p)
        rc = main(["check-laws", chain_files["a"], str(p), chain_files["b"],
                   chain_files["top"]])
        captured = capsys.readouterr()
        assert rc == 4
        assert "two producers for one variable" in captured.err
        assert captured.out == ""

    def test_unit_mismatch_between_emitted_parts_is_validation_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["decompose", CRUISE, *FAST, "--out", str(report)]) == 0
        paths = []
        for fr in json.loads(report.read_text())["subrequirements"]:
            if fr["name"] == "f5":
                fr["inputs"]["v"]["unit"] = "mph"
            paths.append(tmp_path / f"{fr['name']}.json")
            paths[-1].write_text(json.dumps(fr))
        top = tmp_path / "top.json"
        top.write_text(json.dumps(json.loads(open(CRUISE).read())["top"]))
        capsys.readouterr()
        assert main(["check-laws", *map(str, paths), str(top)]) == 2
        captured = capsys.readouterr()
        assert "unit mismatch for 'v': 'm/s' vs 'mph'" in captured.err
        assert captured.out == ""

    def test_one_file_is_usage_error(self, chain_files, capsys):
        assert main(["check-laws", chain_files["a"]]) == 2

    @pytest.mark.parametrize("doc", [
        {"inputs": {"x": {"lo": 0.0, "hi": 1.0}}},
        {"name": "a", "inputs": {"x": {"hi": 1.0}}},
    ], ids=["no-name", "range-without-lo"])
    def test_malformed_contract_is_validation_error(self, doc, chain_files, tmp_path,
                                                    capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check-laws", str(path), chain_files["top"]]) == 2
        assert "bad requirement document" in capsys.readouterr().err


def _ramp_doc(derivative, output, expr, y0):
    """An integrator y with y' = ``derivative`` (an expression over y) and
    one algebraic output ``output`` = ``expr``."""
    wide = {"lo": -1e30, "hi": 1e30, "unit": ""}
    start = {"lo": y0, "hi": y0, "unit": ""}
    subs = [{"id": "int", "kind": "integrator", "state": "y", "derivative_input": "dy",
             "initial_input": "y0", "inputs": {"y0": start, "dy": wide},
             "outputs": {"y": wide}},
            {"id": "rate", "kind": "algebraic", "exprs": {"dy": derivative},
             "inputs": {"y": wide}, "outputs": {"dy": wide}}]
    if output != "dy":
        subs.append({"id": "out", "kind": "algebraic", "exprs": {output: expr},
                     "inputs": {"y": wide}, "outputs": {output: wide}})
    return {"top": {"name": "diverging", "inputs": {"y0": start},
                    "outputs": {output: wide}},
            "subfunctions": subs}


class TestSimulate:
    def test_csv_header_and_override(self, capsys):
        rc = main(["simulate", CRUISE, "v_r=35", "--step", "0.1",
                   "--horizon", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "v" in header
        assert len(lines) == 12  # t = 0.0 .. 1.0 inclusive
        assert [float(row.split(",")[0]) for row in lines[1:]] == [k * 0.1 for k in range(11)]

    def test_bad_override_shape(self, capsys):
        assert main(["simulate", CRUISE, "v_r:35"]) == 2
        assert "expected name=value" in capsys.readouterr().err

    def test_unknown_variable(self, capsys):
        assert main(["simulate", CRUISE, "bogus=1"]) == 2
        assert "unknown design variable" in capsys.readouterr().err

    def test_top_input_in_another_unit_is_validation_error(self, tmp_path, capsys):
        doc = json.loads(open(CRUISE).read())
        doc["top"]["inputs"]["v_0"]["unit"] = "km/h"
        path = tmp_path / "units.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--step", "0.5", "--horizon", "1"]) == 2
        assert "unit mismatch for 'v_0': 'm/s' vs 'km/h'" in capsys.readouterr().err

    def test_csv_bytes_equal_the_per_value_form(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", CRUISE, "v_r=35", "--step", "0.5", "--horizon", "3",
                     "--out", str(out)]) == 0
        arch, _ = load_architecture(CRUISE)
        point = {v: iv.mid for v, iv in initial_spaces(arch).fds.items()}
        traj = integrate(build_ode(arch, dict(point, v_r=35.0)), horizon=3.0, step=0.5)
        names = sorted(traj.values)
        rows = ["t," + ",".join(names)]
        for k, t in enumerate(traj.times):
            rows.append(repr(float(t)) + ","
                        + ",".join(repr(float(traj.values[n][k])) for n in names))
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_out_file(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", CRUISE, "--step", "0.5", "--horizon", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("t,")

    @pytest.mark.parametrize("doc, flags, var", [
        # y' = y^2 from y(0) = 1 overflows through pow near t = 1
        (_ramp_doc(["pow", ["var", "y"], 2], "dy", None, 1.0), [], "dy"),
        # y' = 1 from y(0) = 0 puts y = 1 on the grid point t = 1
        (_ramp_doc(1.0, "w", ["/", 1.0, ["-", ["var", "y"], 1.0]], 0.0),
         ["--step", "0.5"], "w"),
    ], ids=["pow-overflow", "zero-denominator"])
    def test_diverging_trajectory_is_infeasible(self, doc, flags, var, tmp_path, capsys):
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--horizon", "2", *flags]) == 3
        assert f"infeasible: non-finite value for '{var}'" in capsys.readouterr().err

    def test_diverging_trajectory_stops_in_the_chunk_of_its_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        # y' = y^2 from y(0) = 1 turns non-finite near t = 1, grid index ~100
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(_ramp_doc(["pow", ["var", "y"], 2], "dy", None, 1.0)))
        calls = []
        original = simulation.build_ode     # `simulate` reads it when it runs

        def build_ode(arch, point):
            sys_ = original(arch, point)

            def rhs(row, *state):
                if row is not None:
                    calls.append(None)
                return sys_.rhs(row, *state)
            return dataclasses.replace(sys_, rhs=rhs)

        monkeypatch.setattr(simulation, "build_ode", build_ode)
        assert main(["simulate", str(path), "--horizon", "100"]) == 3
        err = capsys.readouterr().err
        assert "infeasible: non-finite value for 'dy'" in err
        first_bad = round(float(err.rsplit("t=", 1)[1]) / 0.01)
        rows = simulation.CHUNK_BYTES // (8 * 2)        # grid times per chunk: y and dy
        assert first_bad < len(calls) <= first_bad + rows < 10_001

    def test_parameter_only_division_by_zero_is_infeasible(self, tmp_path, capsys):
        # the rolling resistance divides by C_r - 0.01 = 0: Python floats
        # would raise, so it is evaluated in float64, once, before the march
        doc = json.loads(open(CRUISE).read())
        _sub(doc, "f3")["exprs"]["Fr"] = ["/", ["*", ["var", "m"], ["var", "g"]],
                                          ["-", ["var", "C_r"], 0.01]]
        path = tmp_path / "fr.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--step", "0.5", "--horizon", "2"]) == 3
        assert "infeasible: non-finite value for 'Fr' at t=0" in capsys.readouterr().err
        assert main(["decompose", str(path), *FAST]) == 3
        assert "infeasible: non-finite value for 'Fr (sample" in capsys.readouterr().err

    def test_zero_step_is_validation_error(self, capsys):
        assert main(["simulate", CRUISE, "--step", "0"]) == 2
        assert "step must be positive" in capsys.readouterr().err


def test_integrator_document_equals_its_algebraic_form(tmp_path):
    """f1 written as an "algebraic" document with no expressions and the
    state v exposed as its output runs exactly as the "integrator" one."""
    doc = json.loads(open(CRUISE).read())
    f1 = _sub(doc, "f1")
    for key in ("state", "derivative_input", "initial_input"):
        del f1[key]
    f1.update(kind="algebraic", exprs={},
              states=[{"name": "v", "derivative": ["var", "vdot"], "initial": ["var", "v_0"]}])
    algebraic = tmp_path / "algebraic.json"
    algebraic.write_text(json.dumps(doc))
    runs = {}
    for name, arch in (("integrator", CRUISE), ("algebraic", str(algebraic))):
        report, csv = tmp_path / f"{name}-report.json", tmp_path / f"{name}.csv"
        assert main(["decompose", arch, *FAST, "--out", str(report)]) == 0
        assert main(["simulate", arch, "--step", "0.05", "--horizon", "30",
                     "--out", str(csv)]) == 0
        runs[name] = json.loads(report.read_text()), csv.read_bytes()
    for report, _ in runs.values():
        del report["architecture"]     # the input path
    assert runs["integrator"] == runs["algebraic"]
