"""Command-line interface: reports, CSV output, exit codes, determinism."""

import io
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oltsim
from oltsim import AngleSetting, olt_unitary, parse_scenario, ppt_separable
from oltsim.cli import SCENARIO_BEGIN, SCENARIO_END, main
from oltsim.gates import embed
from oltsim.linalg import partial_trace
from oltsim.protocol import correlation_factorized, correlator_table, flip_mixtures, reduced_states

from reference import z_string

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CHSH_MAX = """\
label = chsh-max
system = classical_correlated:2
ancilla = bell:phi+
functional = chsh
mode = so2
seed = 7
settings = so2:0, so2:pi/2 | so2:pi/4, so2:-pi/4
"""

WERNER_HALF = """\
label = werner-half
system = basis:00
ancilla = werner:0.5
functional = chsh
mode = so2
seed = 11
settings = so2:0, so2:pi/2 | so2:pi/4, so2:-pi/4
"""

# entangled system, product ancilla: the sweep's separability column is mixed
ENTANGLED_SYSTEM = """\
label = entangled-system
system = bell:phi+
ancilla = basis:00
functional = chsh
mode = so2
seed = 3
settings = so2:0, so2:pi/2 | so2:pi/4, so2:-pi/4
"""

MERMIN = """\
label = mermin
system = basis:000
ancilla = ghz:3,i
functional = mermin3
mode = su2
settings = su2:0,pi/2,pi, su2:0,pi/2,pi/2 | su2:0,pi/2,pi, su2:0,pi/2,pi/2 | su2:0,pi/2,pi, su2:0,pi/2,pi/2
"""


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def count_calls(monkeypatch, name):
    """Record every call to the protocol function `name`, wherever it was imported."""
    calls = []
    original = getattr(oltsim.protocol, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("oltsim") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def custom_scenario(shape, system, ancilla, seed):
    """A custom-functional `run` scenario with random so2 and su2 settings of the given shape."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-3, 4, size=math.prod(shape))
    coeffs[0] = 1

    def setting():
        if rng.random() < 0.5:
            return f"so2:{rng.uniform(-math.pi, math.pi):.17g}"
        return "su2:" + ",".join(f"{a:.17g}" for a in rng.uniform(-math.pi, math.pi, 3))

    settings = " | ".join(", ".join(setting() for _ in range(m)) for m in shape)
    functional = "custom:" + "x".join(map(str, shape)) + ":" + ",".join(map(str, coeffs))
    return (
        f"label = custom\nsystem = {system}\nancilla = {ancilla}\nfunctional = {functional}\n"
        f"mode = su2\nsettings = {settings}\n"
    )


def reference_reduced_state(system, ancilla, settings):
    """Per-combination reference: each party's gate embedded in the full register, then the trace."""
    n = system.n_qubits
    rho = np.kron(system.matrix, ancilla.matrix)
    for i, setting in enumerate(settings):
        u = embed(olt_unitary(setting), [i, n + i], 2 * n)
        rho = u @ rho @ u.conj().T
    return partial_trace(rho, range(n), 2 * n)


class TestRun:
    def test_chsh_max_report(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        code, out = run_cli(["run", path])
        assert code == 0
        assert "value           : 2.82842712474619" in out
        assert "classical bound : 2" in out
        assert "violated        : yes" in out
        assert "stabilizer eigenvalue : +1" in out
        assert out.count("separable") == 4

    def test_mermin_report(self, tmp_path):
        path = write(tmp_path, "mermin.txt", MERMIN)
        code, out = run_cli(["run", path])
        assert code == 0
        assert "value           : 4" in out
        assert "violated        : yes" in out

    def test_werner_not_violated(self, tmp_path):
        path = write(tmp_path, "werner.txt", WERNER_HALF)
        code, out = run_cli(["run", path])
        assert code == 0
        assert "|value|         : 1.41421356237309" in out
        assert "violated        : no" in out

    def test_echoed_scenario_reparses(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        code, out = run_cli(["run", path])
        assert code == 0
        begin = out.index(SCENARIO_BEGIN) + len(SCENARIO_BEGIN)
        end = out.index(SCENARIO_END)
        echoed = parse_scenario(out[begin:end])
        original = parse_scenario(CHSH_MAX)
        assert original.equivalent(echoed)

    def test_missing_settings_is_an_error(self, tmp_path):
        path = write(tmp_path, "nosettings.txt", "system = basis:00\nancilla = werner:1\nfunctional = chsh\n")
        code, _ = run_cli(["run", path])
        assert code == 2

    def test_single_party_rejected_before_any_output(self, tmp_path, capsys):
        text = "system = basis:0\nancilla = basis:1\nfunctional = custom:2:1,1\nsettings = so2:0, so2:pi/2\n"
        path = write(tmp_path, "one.txt", text)
        code, out = run_cli(["run", path])
        assert code == 2
        assert out == ""
        assert "at least 2 parties" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "optimize"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coefficients_rejected_before_any_output(self, tmp_path, capsys, command, bad):
        text = CHSH_MAX.replace("functional = chsh", f"functional = custom:2x2:1,1,1,{bad}")
        code, out = run_cli([command, write(tmp_path, "nonfinite.txt", text)])
        assert code == 2
        assert out == ""
        assert "coefficients must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["-2x-2", "-1x-4", "0x2"])
    def test_non_positive_setting_count_rejected_before_any_output(self, tmp_path, capsys, shape):
        text = CHSH_MAX.replace("functional = chsh", f"functional = custom:{shape}:1,2,3,4")
        code, out = run_cli(["run", write(tmp_path, "counts.txt", text)])
        assert code == 2
        assert out == ""
        assert "every party needs at least one setting" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_overflowing_coefficients_rejected_before_any_output(self, tmp_path, capsys, command):
        huge = "custom:2x2:1e308,1e308,1e308,-1e308"
        text = CHSH_MAX.replace("functional = chsh", f"functional = {huge}")
        code, out = run_cli([command, write(tmp_path, "huge.txt", text)])
        assert code == 2
        assert out == ""
        assert "sum of |coefficients| must be finite" in capsys.readouterr().err

    def test_optimize_at_large_coefficient_scale(self, tmp_path):
        big = "custom:2x2:1e200,1e200,1e200,-1e200"
        text = CHSH_MAX.replace("functional = chsh", f"functional = {big}")
        code, out = run_cli(["optimize", write(tmp_path, "big.txt", text), "--restarts", "4"])
        assert code == 0
        best = float(out.split("best |value|    : ")[1].split("\n")[0])
        assert best == pytest.approx(2 * math.sqrt(2) * 1e200, rel=1e-9)
        assert "violated        : yes" in out

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_over_cap_functional_rejected_before_any_output(self, tmp_path, capsys, command):
        coeffs = ",".join(["1"] * 12 * 13)
        settings = " | ".join(", ".join(["so2:0"] * m) for m in (12, 13))
        text = (
            "system = basis:00\nancilla = bell:phi+\n"
            f"functional = custom:12x13:{coeffs}\nsettings = {settings}\n"
        )
        code, out = run_cli([command, write(tmp_path, "wide.txt", text)])
        assert code == 2
        assert out == ""
        assert "enumeration cap exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, ancilla",
        [("classical_correlated:20", "bell:phi+"), ("basis:00", "ghz:20,1")],
    )
    def test_oversized_state_rejected_before_any_work(self, tmp_path, capsys, system, ancilla):
        text = CHSH_MAX.replace("classical_correlated:2", system).replace("bell:phi+", ancilla)
        path = write(tmp_path, "big.txt", text)
        tracemalloc.start()
        try:
            code, out = run_cli(["run", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "20 qubits exceeds the cap of 12 qubits" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_seven_parties_rejected_before_any_output(self, tmp_path, capsys):
        # each 7-qubit state is within the cap; the 14-qubit register is not
        settings = " | ".join(["so2:0, so2:pi/2"] * 7)
        text = (
            "system = basis:0000000\nancilla = ghz:7,1\n"
            f"functional = custom:{'x'.join('2' * 7)}:{','.join('1' * 128)}\nsettings = {settings}\n"
        )
        code, out = run_cli(["run", write(tmp_path, "seven.txt", text)])
        assert code == 2
        assert out == ""
        assert "14 qubits exceeds the cap of 12 qubits per state" in capsys.readouterr().err

    def test_simulates_each_combination_once(self, monkeypatch):
        assembled = count_calls(monkeypatch, "assemble")
        # only the protocol's own validations: the stack of reduced states
        validated = []
        validate = oltsim.protocol.validate_density
        monkeypatch.setattr(
            oltsim.protocol, "validate_density", lambda m: validated.append(m.shape) or validate(m)
        )
        tested = []
        ppt = oltsim.cli.ppt_separable
        monkeypatch.setattr(oltsim.cli, "ppt_separable", lambda *a: tested.append(1) or ppt(*a))
        code, out = run_cli(["run", str(SCENARIOS / "mermin_ghz.txt")])
        assert code == 0
        assert out.count("  setting (") == 8
        assert len(assembled) == 0  # the register system (x) ancilla is never written out
        assert len(tested) == 1  # one PPT test of the whole stack of reduced states
        assert (64, 64) not in validated
        # matrices validated per dimension, counted across the stacks: 8 reduced states (8);
        # no rotated register exists
        counted = {}
        for shape in validated:
            counted[shape[-1]] = counted.get(shape[-1], 0) + math.prod(shape[:-2])
        assert counted == {8: 8}

    @pytest.mark.parametrize(
        "shape, system, ancilla",
        [
            ((2, 5, 8), "classical_correlated:3", "ghz:3,0.6+0.8i"),
            ((2, 2, 2, 2), "basis:0110", "ghz:4,i"),
            # the first party contracted is not party 0; every party has more than 4 settings
            ((5, 1, 2), "classical_correlated:3", "ghz:3,i"),
            ((5, 6), "basis:01", "ghz:2,0.6+0.8i"),
        ],
    )
    def test_stack_matches_per_combination_reference(self, tmp_path, monkeypatch, shape, system, ancilla):
        text = custom_scenario(shape, system, ancilla, seed=sum(shape))
        scenario = parse_scenario(text)
        n = len(shape)
        validated, stacks = [], []
        validate = oltsim.protocol.validate_density
        monkeypatch.setattr(
            oltsim.protocol, "validate_density", lambda m: validated.append(m.shape) or validate(m)
        )
        simulate = oltsim.cli.reduced_states
        monkeypatch.setattr(
            oltsim.cli, "reduced_states", lambda *a: stacks.append(simulate(*a)) or stacks[-1]
        )
        code, out = run_cli(["run", write(tmp_path, "custom.txt", text)])
        assert code == 0
        # no 4^N-dim matrix is validated: no register, rotated or not, is built
        assert [s for s in validated if s[-1] == 4**n] == []
        (states,) = stacks
        assert states.matrix.shape == shape + (2**n, 2**n)
        assert not states.matrix.flags.writeable
        lines = [line for line in out.splitlines() if line.startswith("  setting (")]
        assert len(lines) == math.prod(shape)
        for idx, line in zip(np.ndindex(shape), lines):
            chosen = [party[i] for party, i in zip(scenario.settings, idx)]
            expected = reference_reduced_state(scenario.system, scenario.ancilla, chosen)
            assert np.max(np.abs(states.matrix[idx] - expected)) < 1e-12
            assert line.startswith(f"  setting ({','.join(str(i + 1) for i in idx)}): ")
            value = float(line.split(": ")[1].split()[0])
            assert abs(value - np.trace(z_string(n) @ expected).real) < 1e-12

    def test_non_unitary_gate_fails_at_first_bad_combination(self, tmp_path, monkeypatch, capsys):
        # party 1's second gate scaled by sqrt(2) and party 2's fourth by sqrt(3): reduced
        # states of trace 2, 3 or 6. The first bad combination row-major is (1,4,1), with
        # trace 3; the combinations (2,*,*) would report 2 or 6. Nothing is written before
        # every combination has been validated.
        text = custom_scenario((2, 5, 8), "classical_correlated:3", "ghz:3,i", seed=5)
        settings = parse_scenario(text).settings
        scale = {settings[0][1]: math.sqrt(2), settings[1][3]: math.sqrt(3)}
        unitary = oltsim.protocol.olt_unitary
        monkeypatch.setattr(
            oltsim.protocol, "olt_unitary", lambda s: scale.get(s, 1.0) * unitary(s)
        )
        code, out = run_cli(["run", write(tmp_path, "bad.txt", text)])
        assert code == 2
        assert out == ""
        assert "error: density matrix trace is 3, expected 1" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "system = basis:0q\nancilla = werner:1\nfunctional = chsh\n")
        code, _ = run_cli(["run", path])
        assert code == 2
        assert "basis:0q" in capsys.readouterr().err


class TestOptimize:
    def test_werner_report(self, tmp_path):
        path = write(tmp_path, "werner.txt", WERNER_HALF)
        code, out = run_cli(["optimize", path, "--restarts", "6"])
        assert code == 0
        assert "best |value|    : 1.41421356" in out
        assert "violated        : no" in out
        assert "party 2:" in out

    def test_seed_flag_overrides(self, tmp_path):
        path = write(tmp_path, "werner.txt", WERNER_HALF)
        _, out1 = run_cli(["optimize", path, "--restarts", "2", "--seed", "5"])
        _, out2 = run_cli(["optimize", path, "--restarts", "2", "--seed", "5"])
        assert out1 == out2
        assert "seed 5" in out1

    @pytest.mark.parametrize(
        "flags, named", [(["--restarts", "0"], "restarts"), (["--seed", "-3"], "seed")]
    )
    def test_bad_arguments_rejected_before_any_output(self, capsys, flags, named):
        code, out = run_cli(["optimize", str(SCENARIOS / "chsh_max.txt"), *flags])
        assert code == 2
        assert out == ""
        assert named in capsys.readouterr().err

    def test_negative_scenario_seed_rejected_before_any_output(self, tmp_path, capsys):
        path = write(tmp_path, "negative.txt", CHSH_MAX.replace("seed = 7", "seed = -4"))
        code, out = run_cli(["optimize", path])
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_chsh_max_scenario_reaches_maximum(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        code, out = run_cli(["optimize", path, "--restarts", "6"])
        assert code == 0
        assert "best |value|    : 2.8284271" in out
        assert "violated        : yes" in out


class TestSweep:
    def test_two_point_grid_exact(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(["sweep", path, "--grid", "2", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta_a,theta_b,correlator,separable"
        values = [line.split(",")[2] for line in lines[1:]]
        assert values == ["1", "-1", "-1", "1"]
        assert all(line.endswith("true") for line in lines[1:])

    def test_five_point_grid_matches_cosine(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        out_csv = tmp_path / "sweep5.csv"
        code, _ = run_cli(["sweep", path, "--grid", "5", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()[1:]
        assert len(lines) == 25
        scenario = parse_scenario(CHSH_MAX)
        thetas = np.linspace(0.0, math.pi, 5)
        points = [(a, b) for a in thetas for b in thetas]
        for line, (a, b) in zip(lines, points):
            ta, tb, corr, sep = line.split(",")
            assert abs(float(corr) - math.cos(float(ta) - float(tb))) < 1e-10
            settings = [AngleSetting.so2(a), AngleSetting.so2(b)]
            assert corr == f"{correlation_factorized(scenario.system, scenario.ancilla, settings):.15g}"
            assert sep == "true"

    def test_never_builds_the_register(self, tmp_path, monkeypatch):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        assembled = count_calls(monkeypatch, "assemble")
        rotated = count_calls(monkeypatch, "apply_olts")
        code, _ = run_cli(["sweep", path, "--grid", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(assembled) == 0
        assert len(rotated) == 0

    def test_one_stacked_check(self, tmp_path, monkeypatch):
        # every reduced state of the grid is validated and PPT-tested as one stack
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        validated = []
        validate = oltsim.protocol.validate_density
        monkeypatch.setattr(
            oltsim.protocol, "validate_density", lambda m: validated.append(m.shape) or validate(m)
        )
        tested = []
        ppt = oltsim.cli.ppt_separable
        monkeypatch.setattr(oltsim.cli, "ppt_separable", lambda *a: tested.append(1) or ppt(*a))
        code, _ = run_cli(["sweep", path, "--grid", "6", "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert validated == [(6, 6, 4, 4)]
        assert len(tested) == 1

    @pytest.mark.parametrize("grid", ["1025", "100000000"])
    def test_grid_cap_rejected_before_any_work(self, tmp_path, capsys, grid):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        out_csv = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            code, out = run_cli(["sweep", path, "--grid", grid, "--out", str(out_csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert not out_csv.exists()
        assert f"grid must be between 2 and 1024, got {grid}" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_entangled_system_matches_direct_verdicts(self, tmp_path):
        path = write(tmp_path, "ent.txt", ENTANGLED_SYSTEM)
        out_csv = tmp_path / "ent.csv"
        code, _ = run_cli(["sweep", path, "--grid", "9", "--out", str(out_csv)])
        assert code == 0
        column = [line.split(",")[3] for line in out_csv.read_text().splitlines()[1:]]
        scenario = parse_scenario(ENTANGLED_SYSTEM)
        settings = [AngleSetting.so2(t) for t in np.linspace(0.0, math.pi, 9)]
        states = reduced_states(scenario.system, scenario.ancilla, [settings, settings])
        direct = ["true" if sep else "false" for sep in ppt_separable(states, {0}).separable.flat]
        assert column == direct
        assert column.count("false") == 64

    @pytest.mark.parametrize("name", ["chsh_max", "werner"])
    def test_csv_matches_per_point_formatting(self, tmp_path, name):
        # each angle is formatted once per axis; the rows must equal the per-point expression
        out_csv = tmp_path / "s.csv"
        code, _ = run_cli(["sweep", str(SCENARIOS / f"{name}.txt"), "--grid", "18", "--out", str(out_csv)])
        assert code == 0
        scenario = parse_scenario((SCENARIOS / f"{name}.txt").read_text())
        thetas = np.linspace(0.0, math.pi, 18)
        settings = [AngleSetting.so2(t) for t in thetas]
        table = correlator_table(scenario.system, scenario.ancilla, [settings, settings])
        states = flip_mixtures(scenario.system, scenario.ancilla, [settings, settings])
        separable = ppt_separable(states, {0}).separable
        rows = [
            f"{float(a):.15g},{float(b):.15g},{float(table[i, j]):.15g},{'true' if separable[i, j] else 'false'}"
            for i, a in enumerate(thetas)
            for j, b in enumerate(thetas)
        ]
        expected = "theta_a,theta_b,correlator,separable\n" + "\n".join(rows) + "\n"
        assert out_csv.read_bytes() == expected.encode()

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep", path, "--grid", "7", "--out", str(a)])
        run_cli(["sweep", path, "--grid", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_requires_two_parties(self, tmp_path):
        path = write(tmp_path, "mermin.txt", MERMIN)
        code, _ = run_cli(["sweep", path, "--grid", "3", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_path(self, tmp_path):
        path = write(tmp_path, "chsh.txt", CHSH_MAX)
        code, _ = run_cli(["sweep", path, "--grid", "2", "--out", str(tmp_path / "no/dir.csv")])
        assert code == 2


class TestVerify:
    def test_passes(self):
        code, out = run_cli(["verify", "--parties", "2", "--trials", "60", "--seed", "42"])
        assert code == 0
        assert "PASS" in out

    def test_three_parties(self):
        code, out = run_cli(["verify", "--parties", "3", "--trials", "30"])
        assert code == 0

    def test_direct_route_mutation_fails(self, monkeypatch):
        # run's direct route with each party given another party's settings: verify must catch it
        original = oltsim.analysis.reduced_states
        monkeypatch.setattr(
            oltsim.analysis,
            "reduced_states",
            lambda system, ancilla, per_party: original(system, ancilla, per_party[::-1]),
        )
        code, out = run_cli(["verify", "--parties", "3", "--trials", "4"])
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"

    def test_state_only_mutation_prints_the_failing_deviation(self, monkeypatch):
        # reversed flip weights corrupt the reduced states but not the correlators
        original = oltsim.protocol.flip_distribution
        monkeypatch.setattr(
            oltsim.protocol, "flip_distribution", lambda *args: original(*args)[..., ::-1]
        )
        code, out = run_cli(["verify", "--parties", "2", "--trials", "4"])
        assert code == 1
        *_, deviation, verdict = out.splitlines()
        assert float(deviation.split(" = ")[1]) > 1e-10
        assert verdict == "FAIL"

    def test_negative_seed_exit(self, capsys):
        code, out = run_cli(["verify", "--parties", "2", "--trials", "1", "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_bad_parties_exit(self, capsys):
        for parties in ("6", "7"):
            code, _ = run_cli(["verify", "--parties", parties, "--trials", "5"])
            assert code == 2
            assert "between 2 and 5" in capsys.readouterr().err
