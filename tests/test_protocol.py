import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distribution_tvd
from dense_reference import thermal_density_matrix
from jumpsqueeze import fock
from jumpsqueeze.bogoliubov import squeeze_params_from_pair
from jumpsqueeze.cli import main
from jumpsqueeze.errors import ConfigError, TruncationError
from jumpsqueeze.protocol import (BUILTIN_PROTOCOLS, FrequencyJump, Protocol,
                                  ShiftOrigin, UnshiftOrigin, Wait, _walk,
                                  amplified_alpha, builtin_protocol,
                                  implied_state, load_protocol,
                                  protocol_from_json, protocol_to_json,
                                  run_fock, run_symplectic, save_protocol)
from jumpsqueeze.lattice import metres_per_alpha
from jumpsqueeze.spectroscopy import sideband_populations

DIM = 192


def quarter(omega):
    return 0.5 * math.pi / omega


def shift_jump_unshift(trap):
    """Shift at omega1, wait, jump to omega2, then undo the shift there."""
    return Protocol(trap.omega1, (ShiftOrigin(15e-9), Wait(3.1e-6),
                                  FrequencyJump(trap.omega2),
                                  UnshiftOrigin()))


JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=4)
                | st.integers() | st.just(10 ** 400)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_CONTAINERS = (st.lists(JSON_SCALARS, max_size=2)
                   | st.dictionaries(st.text(max_size=4), JSON_SCALARS,
                                     max_size=2))
STEP_DOCS = st.fixed_dictionaries(
    {"type": st.sampled_from(["frequency_jump", "wait", "shift_origin",
                              "unshift_origin"])
     | JSON_SCALARS | JSON_CONTAINERS},
    optional={"omega_new_hz": JSON_SCALARS, "tau_s": JSON_SCALARS,
              "d_m": JSON_SCALARS, "note": JSON_SCALARS})


class TestProtocolValidation:
    def test_unshift_requires_shift(self):
        with pytest.raises(ValueError):
            Protocol(1.0, (UnshiftOrigin(),))

    def test_shift_pairing_ok(self):
        Protocol(1.0, (ShiftOrigin(1e-9), Wait(1e-6), UnshiftOrigin()))

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            FrequencyJump(-1.0)
        with pytest.raises(ValueError):
            Wait(-1e-9)


class TestRunSymplectic:
    def test_empty_protocol(self, trap):
        res = run_symplectic(Protocol(trap.omega1, ()), trap)
        assert res.pair.u == 1.0 and res.pair.v == 0.0
        assert res.displacement == 0.0

    def test_double_jump_amplitude(self, trap):
        proto = builtin_protocol("S_minus_2r", trap)
        res = run_symplectic(proto, trap)
        params = squeeze_params_from_pair(res.pair)
        assert params.r == pytest.approx(1.3971052772241064, rel=1e-10)
        assert params.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_half_wait_double_jump_is_identity(self, trap):
        steps = (FrequencyJump(trap.omega2), Wait(math.pi / trap.omega2),
                 FrequencyJump(trap.omega1))
        res = run_symplectic(Protocol(trap.omega1, steps), trap)
        assert squeeze_params_from_pair(res.pair).r == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_amplification_sequence(self, trap):
        proto = builtin_protocol("amplify", trap, alpha_i=0.67, r=1.23 / 2)
        res = run_symplectic(proto, trap)
        # the squeeze part cancels exactly, leaving a pure displacement
        assert abs(res.pair.u - 1.0) < 1e-12
        assert abs(res.pair.v) < 1e-12
        assert abs(res.displacement) == pytest.approx(2.292, abs=1e-3)
        assert cmath.phase(res.displacement) == pytest.approx(
            math.pi, abs=1e-9) or cmath.phase(res.displacement) == \
            pytest.approx(-math.pi, abs=1e-9)

    def test_quarter_half_cycle_law(self, trap):
        r = 0.5 * math.log(trap.omega1 / trap.omega2)
        amps = []
        phis = np.linspace(0.0, math.pi, 41)
        for phi in phis:
            steps = (FrequencyJump(trap.omega2), Wait(phi / trap.omega2),
                     FrequencyJump(trap.omega1))
            res = run_symplectic(Protocol(trap.omega1, steps), trap)
            amps.append(squeeze_params_from_pair(res.pair).r)
        amps = np.array(amps)
        assert amps[0] == pytest.approx(0.0, abs=1e-12)
        assert amps[-1] == pytest.approx(0.0, abs=1e-9)
        assert np.argmax(amps) == 20  # phi = pi/2
        assert amps[20] == pytest.approx(2 * r, rel=1e-10)
        # grid-scale continuity: steepest slope is sinh(2r) near phi = 0
        assert np.all(np.abs(np.diff(amps)) <=
                      math.sinh(2 * r) * (math.pi / 40) + 1e-9)


class TestAmplifiedAlpha:
    def test_zero_squeeze_flips_sign(self):
        assert amplified_alpha(1.0, 0.0) == pytest.approx(-1.0)

    def test_published_point(self):
        out = amplified_alpha(0.67, 1.23 / 2)
        assert abs(out) == pytest.approx(2.292, abs=1e-3)

    def test_gain_law(self):
        for alpha, r in [(0.3, 0.2), (1.0 + 0.5j, 0.7), (2.0, 1.0)]:
            assert abs(amplified_alpha(alpha, r)) / abs(alpha) == \
                pytest.approx(math.exp(2 * r), rel=1e-12)


class TestRunFock:
    def test_jump_and_return_is_identity(self, trap):
        steps = (FrequencyJump(trap.omega2), FrequencyJump(trap.omega1))
        res = run_fock(Protocol(trap.omega1, steps), trap,
                       fock.thermal_factor(0.22, DIM))
        assert np.max(np.abs(fock.density_from_factor(res.final_factor)
                             - thermal_density_matrix(0.22, DIM))) < 1e-8

    def test_double_jump_matches_direct_squeeze(self, trap):
        r = 0.5 * math.log(trap.omega1 / trap.omega2)
        proto = builtin_protocol("S_minus_2r", trap)
        res = run_fock(proto, trap, fock.thermal_factor(0.0, DIM))
        probs = fock.factor_populations(res.final_factor)
        direct = fock.squeeze_operator_exact(2 * r, 0.0, DIM)
        rho_direct = fock.apply_unitary(direct,
                                        thermal_density_matrix(0.0, DIM))
        assert distribution_tvd(probs,
                                fock.number_distribution(rho_direct)) < 1e-10

    def test_shift_unshift_identity(self, trap):
        steps = (ShiftOrigin(20e-9), UnshiftOrigin())
        res = run_fock(Protocol(trap.omega1, steps), trap,
                       fock.thermal_factor(0.1, 96))
        assert np.max(np.abs(fock.density_from_factor(res.final_factor)
                             - thermal_density_matrix(0.1, 96))) < 1e-8

    def test_truncation_names_offending_step(self, trap):
        proto = builtin_protocol("S_minus_2r", trap)  # 2r = 1.4
        with pytest.raises(TruncationError) as err:
            run_fock(proto, trap, fock.thermal_factor(0.0, 64))
        assert "step" in str(err.value)

    def test_backend_agreement_builtins(self, trap, config):
        nbar0 = 0.22
        protos = [
            builtin_protocol("S_minus_2r", trap, r=0.7),
            builtin_protocol("S_plus_2r", trap, r=0.7),
            builtin_protocol("multi_jump", trap, n_jumps=3, r=0.39),
            builtin_protocol("displaced_squeeze", trap,
                             alpha_i=0.67, r=1.23 / 2),
            builtin_protocol("amplify", trap, alpha_i=0.67, r=1.23 / 2),
            shift_jump_unshift(trap),
        ]
        for proto in protos:
            res = run_fock(proto, trap, fock.thermal_factor(nbar0, DIM))
            implied = implied_state(res, nbar0, DIM)
            tvd = distribution_tvd(fock.factor_populations(res.final_factor),
                                   fock.number_distribution(implied))
            assert tvd < 1e-6, f"{proto.steps}: tvd={tvd}"

    def test_reversibility(self, trap):
        protos = [
            builtin_protocol("S_minus_2r", trap, r=0.55),
            builtin_protocol("displaced_squeeze", trap, alpha_i=0.5, r=0.45),
            Protocol(trap.omega1, (FrequencyJump(trap.omega2),
                                   Wait(7.7e-6), FrequencyJump(trap.omega1),
                                   ShiftOrigin(12e-9), Wait(3.1e-6))),
            shift_jump_unshift(trap),
        ]
        for proto in protos:
            forward = run_fock(proto, trap, fock.thermal_factor(0.15, DIM))
            back = run_fock(proto.inverse(), trap, forward.final_factor)
            assert np.max(np.abs(fock.density_from_factor(back.final_factor)
                                 - thermal_density_matrix(0.15, DIM))) < 1e-6

    @staticmethod
    def _dense_chain(proto, trap, rho):
        """The protocol's state by dense operators and apply_unitary."""
        dim = len(rho)
        for _, step, omega, shift in _walk(proto):
            if isinstance(step, FrequencyJump):
                op = fock.squeeze_operator_exact(
                    0.5 * math.log(omega / step.omega_new), 0.0, dim)
            elif isinstance(step, Wait):
                op = fock.free_evolution_operator(omega, step.tau, dim)
            else:
                op = fock.displacement_operator_exact(
                    shift / metres_per_alpha(trap, omega), dim)
            rho = fock.apply_unitary(op, rho)
        return rho

    @pytest.mark.parametrize("dim, thermal", [(512, True), (161, False)],
                             ids=["thermal_512", "displaced_161"])
    def test_factor_run_matches_dense_chain(self, trap, dim, thermal):
        if thermal:
            # normal, subnormal and exactly zero populations
            rho0 = thermal_density_matrix(0.15, dim)
            m0 = fock.thermal_factor(0.15, dim)
        else:
            # not diagonal: factored by eigh
            rho0 = fock.apply_unitary(
                fock.displacement_operator_exact(0.4 - 0.3j, dim),
                thermal_density_matrix(0.3, dim))
            m0 = fock.density_factor(rho0)
        for proto in (builtin_protocol("amplify", trap, alpha_i=0.6, r=0.5),
                      shift_jump_unshift(trap)):
            res = run_fock(proto, trap, m0)
            dense = self._dense_chain(proto, trap, rho0)
            assert np.max(np.abs(fock.density_from_factor(res.final_factor)
                                 - dense)) < 1e-12

    @pytest.mark.parametrize("name", BUILTIN_PROTOCOLS)
    def test_cli_R_matches_dense_chain(self, tmp_path, capsys, config, name):
        # R from the factor's row norms against the dense operators
        trap = config.trap
        proto = builtin_protocol(name, trap, n_jumps=3, alpha_i=0.5, r=0.35)
        save_protocol(proto, tmp_path / "proto.json")
        (tmp_path / "cfg.json").write_text(
            json.dumps({"fock_dim": 128, "nbar0": 0.22}), encoding="utf-8")
        assert main(["--config", str(tmp_path / "cfg.json"), "protocol",
                     "run", str(tmp_path / "proto.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fock_dim"] == 128
        dense = self._dense_chain(proto, trap,
                                  thermal_density_matrix(0.22, 128))
        R = sideband_populations(fock.number_distribution(dense),
                                 config.rabi).R
        assert abs(doc["R"] - R) < 1e-14

    @pytest.mark.parametrize("dim", [64, 161, 512])
    def test_implied_state_matches_dense_operators(self, trap, dim):
        thermal = thermal_density_matrix(0.15, dim)
        squeezed, amplified = (run_symplectic(builtin_protocol(
            name, trap, alpha_i=0.5, r=0.3), trap)
            for name in ("S_minus_2r", "amplify"))
        # a squeeze at angle pi/2, and a displacement of phase near pi
        assert squeeze_params_from_pair(squeezed.pair).theta == \
            pytest.approx(math.pi / 2)
        assert abs(cmath.phase(amplified.displacement)) == \
            pytest.approx(math.pi)
        for res in (squeezed, amplified):
            sp = squeeze_params_from_pair(res.pair)
            dense = fock.apply_unitary(fock.displacement_operator_exact(
                res.displacement, dim), fock.apply_unitary(
                    fock.squeeze_operator_exact(sp.r, sp.theta, dim), thermal))
            assert np.max(np.abs(implied_state(res, 0.15, dim)
                                 - dense)) < 1e-12

    def test_factor_run_raises_dense_truncation(self, trap):
        rho0 = thermal_density_matrix(1.5, 64)
        jump = FrequencyJump(trap.omega1 * math.exp(-2.0))  # r = 1
        with pytest.raises(TruncationError) as dense:
            self._dense_chain(Protocol(trap.omega1, (jump,)), trap, rho0)
        with pytest.raises(TruncationError) as factored:
            run_fock(Protocol(trap.omega1, (Wait(1e-6), jump)), trap,
                     fock.thermal_factor(1.5, 64))
        assert factored.value.base_message == \
            f"step 1 (FrequencyJump): {dense.value.base_message}"
        assert factored.value.min_dim == dense.value.min_dim > 64

    def test_initial_state_raises_like_factor_populations(self, trap):
        m = fock.thermal_factor(0.4, 32) * math.sqrt(1.001)
        with pytest.raises(ValueError, match="deviates from 1") as checked:
            fock.factor_populations(m)
        with pytest.raises(ValueError) as started:
            run_fock(builtin_protocol("S_minus_2r", trap, r=0.2), trap, m)
        assert str(started.value) == f"initial state: {checked.value}"

    def test_initial_state_meets_the_tail_guard(self, trap):
        # 1.1e-6 of the thermal state lies in the guard band at 16 levels;
        # a protocol without steps must not carry it unchecked
        with pytest.raises(TruncationError) as err:
            run_fock(Protocol(trap.omega1, ()), trap,
                     fock.thermal_factor(0.22, 16))
        assert err.value.base_message.startswith(
            "initial state: state carries 1.1")
        assert err.value.min_dim > 16
        assert run_fock(Protocol(trap.omega1, ()), trap, fock.thermal_factor(
            0.22, err.value.min_dim)).final_factor.shape[0] > 16

    def test_elapsed_time(self, trap):
        proto = builtin_protocol("S_minus_2r", trap)
        res = run_symplectic(proto, trap)
        assert res.elapsed == pytest.approx(quarter(trap.omega2), rel=1e-12)


class TestBuiltinProtocols:
    def test_multi_jump_two_equals_double_jump(self, trap):
        assert builtin_protocol("multi_jump", trap, n_jumps=2).steps == \
            builtin_protocol("S_minus_2r", trap).steps

    def test_multi_jump_amplitudes(self, trap):
        for n in range(1, 5):
            proto = builtin_protocol("multi_jump", trap, n_jumps=n, r=0.39)
            res = run_symplectic(proto, trap)
            assert squeeze_params_from_pair(res.pair).r == pytest.approx(
                0.39 * n, rel=1e-10)

    def test_unknown_name(self, trap):
        with pytest.raises(ValueError):
            builtin_protocol("warp_drive", trap)

    def test_all_names_construct(self, trap):
        for name in BUILTIN_PROTOCOLS:
            builtin_protocol(name, trap, n_jumps=2, alpha_i=0.5, r=0.4)


class TestProtocolJson:
    def test_round_trip(self, trap, tmp_path):
        proto = builtin_protocol("amplify", trap, alpha_i=0.67, r=0.615)
        doc = protocol_to_json(proto)
        assert protocol_from_json(doc) == proto
        path = tmp_path / "amplify.json"
        save_protocol(proto, path)
        assert load_protocol(path) == proto
        # byte-level stability through a second round trip
        reloaded = json.loads(path.read_text())
        assert reloaded == doc

    @pytest.mark.parametrize("failure", ["serialize", "rename"])
    def test_failed_save_leaves_nothing(self, trap, tmp_path, monkeypatch,
                                        failure):
        if failure == "serialize":
            # the document fails to serialize after its first keys
            monkeypatch.setattr("jumpsqueeze.protocol.protocol_to_json",
                                lambda proto: {"steps": [1, object()]})
        else:
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr("os.replace", refuse)
        proto = builtin_protocol("amplify", trap, alpha_i=0.67, r=0.615)
        with pytest.raises((TypeError, OSError)):
            save_protocol(proto, tmp_path / "amplify.json")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unknown_step_type(self):
        doc = {"omega_initial_hz": 93e3,
               "steps": [{"type": "teleport"}]}
        with pytest.raises(ConfigError):
            protocol_from_json(doc)

    def test_rejects_unknown_keys(self):
        doc = {"omega_initial_hz": 93e3, "steps": [], "comment": "hi"}
        with pytest.raises(ConfigError):
            protocol_from_json(doc)

    def test_rejects_bad_schema_version(self):
        doc = {"schema_version": 99, "omega_initial_hz": 93e3, "steps": []}
        with pytest.raises(ConfigError):
            protocol_from_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(JSON_SCALARS | JSON_CONTAINERS)
    def test_any_other_step_type_is_a_config_error(self, kind):
        # "wait" may be drawn as text; it lacks its tau_s key
        with pytest.raises(ConfigError):
            protocol_from_json({"omega_initial_hz": 93e3,
                                "steps": [{"type": kind}]})

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries(
        {"omega_initial_hz": JSON_SCALARS,
         "steps": st.lists(STEP_DOCS | JSON_SCALARS, max_size=6)
         | JSON_SCALARS},
        optional={"schema_version": st.just(1) | JSON_SCALARS,
                  "comment": JSON_SCALARS}))
    def test_parser_gives_config_error_or_finite_protocol(self, doc):
        try:
            proto = protocol_from_json(doc)
        except ConfigError:
            return
        version = doc.get("schema_version", 1)
        assert version == 1 and not isinstance(version, bool)
        omegas = [proto.omega_initial, proto.final_omega] + [
            s.omega_new for s in proto.steps if isinstance(s, FrequencyJump)]
        assert all(math.isfinite(w) and w > 0 for w in omegas)

