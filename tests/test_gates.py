"""Gate constructors: rotations, the per-party two-qubit transformation,
embedding, and the angle grammar; the CNOT oracle's defining properties."""

import math

import numpy as np
import pytest

from oltsim import dag
from oltsim.gates import (
    SO2,
    SU2,
    AngleSetting,
    bloch_vectors,
    embed,
    format_setting,
    observables_from_bloch,
    olt_unitary,
    parse_angle,
    parse_setting,
    pauli,
    rotation,
    rotation_so2,
    setting_from_bloch,
)

from reference import CNOT, Z_TO_X, Z_TO_Y

I2 = np.eye(2, dtype=complex)


def assert_unitary(u):
    assert np.max(np.abs(dag(u) @ u - np.eye(u.shape[0]))) < 1e-12


class TestPauli:
    def test_z_is_diag(self):
        assert np.array_equal(pauli(3), np.diag([1.0, -1.0]).astype(complex))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_involution(self, k):
        assert np.allclose(pauli(k) @ pauli(k), I2, atol=1e-15)

    def test_algebra_xy_is_iz(self):
        assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3), atol=1e-15)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            pauli(0)


class TestRotationSo2:
    def test_zero_is_identity(self):
        assert np.allclose(rotation_so2(0.0), I2, atol=1e-15)

    def test_pi_gives_quarter_turn(self):
        assert np.allclose(rotation_so2(math.pi), [[0, -1], [1, 0]], atol=1e-15)

    def test_orthogonal_det_one(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-7, 7, size=20):
            r = rotation_so2(theta)
            assert_unitary(r)
            assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)
            assert np.max(np.abs(r.imag)) == 0.0

    def test_z_conjugation_closed_form(self):
        # direct 2x2 multiplication gives cos(t) z - sin(t) x
        rng = np.random.default_rng(4)
        for theta in list(rng.uniform(-7, 7, size=20)) + [0.0, math.pi / 2, math.pi]:
            r = rotation_so2(theta)
            conjugated = dag(r) @ pauli(3) @ r
            expected = math.cos(theta) * pauli(3) - math.sin(theta) * pauli(1)
            assert np.allclose(conjugated, expected, atol=1e-12)


class TestRotationSu2:
    def test_planar_slice(self):
        rng = np.random.default_rng(6)
        for theta in rng.uniform(-7, 7, size=10):
            setting = AngleSetting.su2(0.0, theta, 0.0)
            assert np.allclose(rotation(setting), rotation_so2(theta), atol=1e-12)

    def test_unitary_unit_det_modulus(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            setting = AngleSetting.su2(*rng.uniform(-7, 7, size=3))
            u = rotation(setting)
            assert_unitary(u)
            assert np.isclose(abs(np.linalg.det(u)), 1.0, atol=1e-12)

    def test_shipped_triple_reaches_x(self):
        r = rotation(Z_TO_X)
        assert np.max(np.abs(dag(r) @ pauli(3) @ r - pauli(1))) < 1e-12

    def test_shipped_triple_reaches_y(self):
        r = rotation(Z_TO_Y)
        assert np.max(np.abs(dag(r) @ pauli(3) @ r - pauli(2))) < 1e-12

    def test_leading_z_rotation_leaves_target(self):
        # the residual freedom: prepending any z rotation preserves the
        # conjugation target
        rng = np.random.default_rng(10)
        for gamma in rng.uniform(-7, 7, size=5):
            for base, target in [(Z_TO_X, pauli(1)), (Z_TO_Y, pauli(2))]:
                shifted = AngleSetting.su2(base.angles[0] + gamma, *base.angles[1:])
                r = rotation(shifted)
                assert np.max(np.abs(dag(r) @ pauli(3) @ r - target)) < 1e-12


class TestCnot:
    def test_mapping_table(self):
        kets = np.eye(4)
        # |00> -> |00>, |01> -> |11>, |10> -> |10>, |11> -> |01>
        assert np.array_equal(CNOT @ kets[:, 0], kets[:, 0])
        assert np.array_equal(CNOT @ kets[:, 1], kets[:, 3])
        assert np.array_equal(CNOT @ kets[:, 2], kets[:, 2])
        assert np.array_equal(CNOT @ kets[:, 3], kets[:, 1])

    def test_involution(self):
        assert np.array_equal(CNOT @ CNOT, np.eye(4))

    def test_z_conjugation_identity(self):
        lhs = CNOT @ np.kron(pauli(3), I2) @ CNOT
        assert np.array_equal(lhs, np.kron(pauli(3), pauli(3)))


class TestOltUnitary:
    def test_zero_angle_is_cnot(self):
        assert np.array_equal(olt_unitary(AngleSetting.so2(0.0)), CNOT)

    def test_entries_at_half_pi(self):
        u = olt_unitary(AngleSetting.so2(math.pi / 2))
        h = 1 / math.sqrt(2)
        expected = np.array(
            [
                [h, -h, 0, 0],
                [0, 0, h, h],
                [0, 0, h, -h],
                [h, h, 0, 0],
            ],
            dtype=complex,
        )
        assert np.allclose(u, expected, atol=1e-15)

    def test_decomposition_identity_so2(self):
        rng = np.random.default_rng(12)
        for theta in list(rng.uniform(-7, 7, size=100)) + [0.0, math.pi / 4, math.pi / 2, math.pi]:
            setting = AngleSetting.so2(theta)
            direct = olt_unitary(setting)
            decomposed = CNOT @ np.kron(I2, rotation_so2(theta))
            assert np.max(np.abs(direct - decomposed)) < 1e-12
            # bit for bit the closed form with c, s = cos(t/2), sin(t/2)
            c, s = math.cos(setting.angles[0] / 2), math.sin(setting.angles[0] / 2)
            entrywise = np.array([[c, -s, 0, 0], [0, 0, s, c], [0, 0, c, -s], [s, c, 0, 0]], dtype=complex)
            assert np.array_equal(direct, entrywise)

    def test_decomposition_identity_su2(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            setting = AngleSetting.su2(*rng.uniform(-7, 7, size=3))
            direct = olt_unitary(setting)
            decomposed = CNOT @ np.kron(I2, rotation(setting))
            assert np.max(np.abs(direct - decomposed)) < 1e-12
            assert_unitary(direct)


class TestEmbed:
    def test_single_qubit_on_first(self):
        assert np.array_equal(embed(pauli(3), [0], 2), np.kron(pauli(3), I2))

    def test_identity_embedding(self):
        assert np.array_equal(embed(CNOT, [0, 1], 2), CNOT)

    def test_reordered_targets(self):
        # slots swapped: control is register qubit 0, target is qubit 1
        u = embed(CNOT, [1, 0], 2)
        ket = np.zeros(4)
        ket[0b10] = 1.0
        out = u @ ket
        expected = np.zeros(4)
        expected[0b11] = 1.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(16)
        a = olt_unitary(AngleSetting.so2(rng.uniform(-3, 3)))
        b = olt_unitary(AngleSetting.so2(rng.uniform(-3, 3)))
        lhs = embed(a, [0, 2], 3) @ embed(b, [0, 2], 3)
        rhs = embed(a @ b, [0, 2], 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_commuting_supports(self):
        a = olt_unitary(AngleSetting.so2(0.7))
        b = olt_unitary(AngleSetting.so2(-1.1))
        lhs = embed(a, [0, 2], 4) @ embed(b, [1, 3], 4)
        rhs = embed(b, [1, 3], 4) @ embed(a, [0, 2], 4)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            embed(CNOT, [0, 0], 2)
        with pytest.raises(ValueError, match="out of range"):
            embed(CNOT, [0, 2], 2)
        with pytest.raises(ValueError, match="target"):
            embed(CNOT, [0], 2)


class TestAngleSetting:
    def test_range_reduction(self):
        s = AngleSetting.so2(5 * math.pi)
        assert -2 * math.pi < s.angles[0] <= 2 * math.pi
        # reduction is modulo 4*pi, so the rotation is unchanged
        assert np.allclose(rotation(s), rotation_so2(5 * math.pi), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            AngleSetting.so2(math.inf)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            AngleSetting("so2", (0.0, 1.0))
        with pytest.raises(ValueError):
            AngleSetting("su2", (0.0,))

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            AngleSetting("o3", (0.0,))


def measured_observable(setting):
    r = rotation(setting)
    return dag(r) @ pauli(3) @ r


def random_settings(rng, count):
    for _ in range(count):
        yield AngleSetting.so2(rng.uniform(-2 * math.pi, 2 * math.pi))
        yield AngleSetting.su2(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3))


POLES_AND_AXES = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]


class TestBlochVector:
    def test_matches_the_rotated_z(self):
        for setting in random_settings(np.random.default_rng(17), 20):
            v = bloch_vectors([setting])[0]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            obs = measured_observable(setting)
            assert np.allclose(observables_from_bloch(v[None])[0], obs, atol=1e-12)

    @pytest.mark.parametrize("mode", [SO2, SU2])
    def test_stack_matches_closed_form(self, mode):
        rng = np.random.default_rng(29 if mode == SO2 else 31)
        settings = [s for s in random_settings(rng, 50) if s.mode == mode]
        vectors = bloch_vectors(settings)
        assert vectors.shape == (50, 3)
        for v, setting in zip(vectors, settings):
            theta, lam = setting.angles[-1], 0.0
            if mode == SU2:
                _, theta, lam = setting.angles
            s = math.sin(theta)
            closed = np.array([-s * math.cos(lam), s * math.sin(lam), math.cos(theta)])
            assert np.array_equal(v, closed)  # the scalar math form, bit for bit
        if mode == SO2:
            assert (vectors[:, 1] == 0).all()

    def test_stack_mixes_modes_and_may_be_empty(self):
        settings = list(random_settings(np.random.default_rng(37), 5))
        assert np.array_equal(bloch_vectors(settings), np.array([bloch_vectors([s])[0] for s in settings]))
        assert bloch_vectors([]).shape == (0, 3)

    def test_su2_ignores_phi(self):
        a = AngleSetting.su2(0.3, 1.1, -0.7)
        b = AngleSetting.su2(-2.9, 1.1, -0.7)
        assert np.allclose(bloch_vectors([a])[0], bloch_vectors([b])[0], atol=1e-15)

    @pytest.mark.parametrize("mode", [SO2, SU2])
    def test_vector_round_trip(self, mode):
        rng = np.random.default_rng(19)
        vectors = [np.array(p, dtype=float) for p in POLES_AND_AXES] + list(rng.normal(size=(20, 3)))
        for v in vectors:
            if mode == SO2:
                v = v * [1.0, 0.0, 1.0]
                if not v.any():
                    continue
            v = v / np.linalg.norm(v)
            setting = setting_from_bloch(mode, v)
            assert setting.mode == mode
            assert np.allclose(bloch_vectors([setting])[0], v, atol=1e-12)
            assert np.allclose(measured_observable(setting), observables_from_bloch(v[None])[0], atol=1e-12)

    def test_setting_round_trip(self):
        for setting in random_settings(np.random.default_rng(23), 20):
            back = setting_from_bloch(setting.mode, bloch_vectors([setting])[0])
            assert np.allclose(measured_observable(back), measured_observable(setting), atol=1e-12)
            if setting.mode == SU2:
                assert back.angles[0] == 0.0

    def test_so2_rejects_y_component(self):
        with pytest.raises(ValueError, match="y component"):
            setting_from_bloch(SO2, [0.0, 1.0, 0.0])

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            setting_from_bloch("o3", [0.0, 0.0, 1.0])


class TestAngleGrammar:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", 0.0),
            ("1.25", 1.25),
            ("-0.5", -0.5),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/4", math.pi / 4),
            ("-pi/4", -math.pi / 4),
            ("3*pi/2", 3 * math.pi / 2),
            ("2pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
        ],
    )
    def test_parse_angle(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("bad", ["", "pie", "pi/0", "1..2", "pi/pi"])
    def test_parse_angle_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_angle(bad)

    def test_parse_setting_round_trip(self):
        for text in ["so2:pi/4", "su2:0,pi/2,pi"]:
            s = parse_setting(text)
            again = parse_setting(format_setting(s))
            assert again == s

    def test_parse_setting_rejects(self):
        for bad in ["so2", "so2:1,2", "su2:1,2", "xx:1"]:
            with pytest.raises(ValueError):
                parse_setting(bad)
