"""Scenario grammar: parsing, validation diagnostics, and echo round trips."""

import math

import numpy as np
import pytest

from oltsim import AngleSetting, ScenarioError, format_scenario, parse_scenario

FULL = """\
# a comment line
label = demo
system = classical_correlated:2
ancilla = bell:phi+
functional = chsh
mode = so2
seed = 7
settings = so2:0, so2:pi/2 | so2:pi/4, so2:-pi/4
"""


class TestParse:
    def test_full_scenario(self):
        sc = parse_scenario(FULL, source="demo.txt")
        assert sc.label == "demo"
        assert sc.n_parties == 2
        assert sc.mode == "so2"
        assert sc.seed == 7
        assert sc.settings == (
            (AngleSetting.so2(0.0), AngleSetting.so2(math.pi / 2)),
            (AngleSetting.so2(math.pi / 4), AngleSetting.so2(-math.pi / 4)),
        )
        assert np.isclose(sc.system.matrix[0, 0], 0.5)

    def test_defaults(self):
        sc = parse_scenario(
            "system = basis:00\nancilla = werner:0.5\nfunctional = chsh\n"
        )
        assert sc.mode == "so2"
        assert sc.seed == 0
        assert sc.label == ""
        assert sc.settings is None

    def test_su2_settings_with_commas(self):
        sc = parse_scenario(
            "system = basis:000\n"
            "ancilla = ghz:3,i\n"
            "functional = mermin3\n"
            "mode = su2\n"
            "settings = su2:0,pi/2,pi, su2:0,pi/2,pi/2 | "
            "su2:0,pi/2,pi, su2:0,pi/2,pi/2 | su2:0,pi/2,pi, su2:0,pi/2,pi/2\n"
        )
        assert len(sc.settings) == 3
        assert all(len(party) == 2 for party in sc.settings)
        assert sc.settings[0][0] == AngleSetting.su2(0.0, math.pi / 2, math.pi)

    def test_inline_comments(self):
        sc = parse_scenario(
            "system = basis:00  # the system\nancilla = werner:1\nfunctional = chsh\n"
        )
        assert sc.system.n_qubits == 2


class TestParseErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match=r"f\.txt:2: unknown key"):
            parse_scenario("system = basis:00\nbogus = 1\n", source="f.txt")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("system = basis:00\nsystem = basis:01\n")

    def test_missing_required(self):
        with pytest.raises(ScenarioError, match="missing required key 'ancilla'"):
            parse_scenario("system = basis:00\nfunctional = chsh\n")

    def test_missing_equals(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario("system basis:00\n")

    def test_bad_state_spec_reports_field(self):
        with pytest.raises(ScenarioError, match="system"):
            parse_scenario("system = basis:0z\nancilla = werner:1\nfunctional = chsh\n")

    def test_party_count_mismatch(self):
        with pytest.raises(ScenarioError, match="party count"):
            parse_scenario("system = basis:000\nancilla = werner:1\nfunctional = chsh\n")

    def test_functional_party_mismatch(self):
        with pytest.raises(ScenarioError, match="party count"):
            parse_scenario("system = basis:00\nancilla = werner:1\nfunctional = mermin3\n")

    def test_single_party_rejected(self):
        with pytest.raises(ScenarioError, match="a Bell scenario needs at least 2 parties, got 1"):
            parse_scenario("system = basis:0\nancilla = basis:1\nfunctional = custom:2:1,1\n")

    def test_over_cap_functional_rejected_at_its_line(self):
        coeffs = ",".join(["1"] * 12 * 13)
        text = f"system = basis:00\nancilla = bell:phi+\nfunctional = custom:12x13:{coeffs}\n"
        with pytest.raises(ScenarioError, match=r"<string>:3: functional: enumeration cap exceeded: 25"):
            parse_scenario(text)

    def test_settings_count_mismatch(self):
        with pytest.raises(ScenarioError, match="settings"):
            parse_scenario(FULL.replace("| so2:pi/4, so2:-pi/4", ""))

    def test_settings_per_party_mismatch(self):
        with pytest.raises(ScenarioError, match="party 2 has 1 settings"):
            parse_scenario(FULL.replace("so2:pi/4, so2:-pi/4", "so2:pi/4"))

    def test_bad_mode(self):
        with pytest.raises(ScenarioError, match="mode"):
            parse_scenario(FULL.replace("mode = so2", "mode = o3"))

    def test_bad_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(FULL.replace("seed = 7", "seed = x"))

    def test_negative_seed_rejected_at_its_line(self):
        with pytest.raises(ScenarioError, match="seed must be a non-negative integer") as info:
            parse_scenario(FULL.replace("seed = 7", "seed = -4"))
        assert info.value.line == FULL.splitlines().index("seed = 7") + 1


class TestRoundTrip:
    def test_format_reparses_to_equivalent(self):
        sc = parse_scenario(FULL)
        again = parse_scenario(format_scenario(sc))
        assert sc.equivalent(again)

    def test_round_trip_without_settings(self):
        text = "system = basis:00\nancilla = werner:0.25\nfunctional = chsh\nseed = 3\n"
        sc = parse_scenario(text)
        again = parse_scenario(format_scenario(sc))
        assert sc.equivalent(again)

    def test_round_trip_su2(self):
        sc = parse_scenario(
            "system = basis:000\nancilla = ghz:3,i\nfunctional = mermin3\nmode = su2\n"
            "settings = su2:0,pi/2,pi, su2:0,pi/2,pi/2 | su2:0,pi/2,pi, su2:0,pi/2,pi/2 | "
            "su2:0,pi/2,pi, su2:0,pi/2,pi/2\n"
        )
        again = parse_scenario(format_scenario(sc))
        assert sc.equivalent(again)
