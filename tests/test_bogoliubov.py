import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsqueeze.bogoliubov import (BogoliubovPair, bogoliubov_from_jump,
                                    compose_jump, compose_wait, invert_pair,
                                    ln_u_plus_v, squeeze_params_from_pair,
                                    squeezing_db)
from jumpsqueeze.constants import TWO_PI

W1 = TWO_PI * 93e3
W2 = TWO_PI * 23e3


class TestJump:
    def test_no_jump_is_identity(self):
        pair, r = bogoliubov_from_jump(W1, W1)
        assert pair.u == 1.0 and pair.v == 0.0 and r == 0.0

    def test_published_amplitude(self):
        _, r = bogoliubov_from_jump(W1, W2)
        assert 2 * r == pytest.approx(1.397, abs=0.01)
        assert 2 * r == pytest.approx(1.3971052772241064, rel=1e-12)

    def test_hyperbolic_identity(self):
        for w_to in (1e3, 5e4, W2, W1, 5e6):
            pair, r = bogoliubov_from_jump(W1, w_to)
            assert pair.defect() < 1e-12
            assert pair.u.real == pytest.approx(math.cosh(r), rel=1e-12)
            assert pair.v.real == pytest.approx(math.sinh(r), rel=1e-12)
            # both frequencies scaled by a power of two (exact) until their
            # product under- or overflows: the pair is the unscaled one
            for scale in (2.0 ** -570, 2.0 ** 570):
                scaled, _ = bogoliubov_from_jump(W1 * scale, w_to * scale)
                assert scaled == pair

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bogoliubov_from_jump(-1.0, W2)
        with pytest.raises(ValueError):
            bogoliubov_from_jump(W1, 0.0)


class TestComposeWait:
    def test_zero_phase_unchanged(self):
        pair, _ = bogoliubov_from_jump(W1, W2)
        out = compose_wait(pair, 0.0)
        assert out == pair

    def test_half_period_then_jump_back_is_identity(self):
        pair, _ = bogoliubov_from_jump(W1, W2)
        waited = compose_wait(pair, math.pi)
        back, _ = bogoliubov_from_jump(W2, W1)
        total = compose_jump(waited, back)
        assert squeeze_params_from_pair(total).r == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_doubles_amplitude(self):
        pair, r = bogoliubov_from_jump(W1, W2)
        waited = compose_wait(pair, math.pi / 2)
        back, _ = bogoliubov_from_jump(W2, W1)
        total = compose_jump(waited, back)
        assert squeeze_params_from_pair(total).r == pytest.approx(2 * r, rel=1e-10)
        assert ln_u_plus_v(total) == pytest.approx(2 * r, rel=1e-10)

    def test_reduces_to_double_jump_formula(self):
        # real single-jump pair, wait phi, jump back:
        # u' = cos(phi) - i (u^2+v^2) sin(phi), v' = -2i u v sin(phi)
        pair, _ = bogoliubov_from_jump(W1, W2)
        u, v = pair.u.real, pair.v.real
        back, _ = bogoliubov_from_jump(W2, W1)
        for phi in (0.3, 1.0, math.pi / 2, 2.5):
            total = compose_jump(compose_wait(pair, phi), back)
            u_expect = math.cos(phi) - 1j * (u * u + v * v) * math.sin(phi)
            v_expect = -2j * u * v * math.sin(phi)
            assert cmath.isclose(total.u, u_expect, rel_tol=1e-12)
            assert cmath.isclose(total.v, v_expect, rel_tol=1e-12)


class TestComposeJump:
    def test_identity_jump_unchanged(self):
        pair, _ = bogoliubov_from_jump(W1, W2)
        assert compose_jump(pair, BogoliubovPair.identity()) == pair

    def test_jump_then_inverse_is_identity(self):
        pair, _ = bogoliubov_from_jump(W1, W2)
        total = compose_jump(pair, invert_pair(pair))
        assert abs(total.u - 1.0) < 1e-12
        assert abs(total.v) < 1e-12

    @pytest.mark.parametrize("n_jumps", [1, 2, 3, 4])
    def test_alternating_jumps_accumulate(self, n_jumps):
        r_per_jump = 0.39
        w_low = W1 * math.exp(-2 * r_per_jump)
        pair = BogoliubovPair.identity()
        omega = W1
        for _ in range(n_jumps):
            target = w_low if omega == W1 else W1
            jump, _ = bogoliubov_from_jump(omega, target)
            pair = compose_jump(pair, jump)
            omega = target
            if _ < n_jumps - 1:
                pair = compose_wait(pair, math.pi / 2)
        total = squeeze_params_from_pair(pair).r
        assert total == pytest.approx(n_jumps * r_per_jump, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=-1.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=TWO_PI)),
                    min_size=1, max_size=60))
    def test_composition_closure(self, chain):
        # jump budget keeps |r_total| <= 3 (the physical envelope); beyond
        # it |u|^2 outgrows the absolute tolerance's float headroom
        pair = BogoliubovPair.identity()
        omega = 1.0
        budget = 3.0
        for is_jump, log_ratio, phase in chain:
            if is_jump and abs(log_ratio) / 2 <= budget:
                target = omega * math.exp(log_ratio)
                jump, _ = bogoliubov_from_jump(omega, target)
                pair = compose_jump(pair, jump)
                omega = target
                budget -= abs(log_ratio) / 2
            else:
                pair = compose_wait(pair, phase)
        assert pair.defect() < 1e-10

    def test_long_chain_closure_bounded_amplitude(self):
        # 1000 compositions of squeeze-and-undo triples with random waits:
        # amplitude stays below 0.35 while roundoff accumulates
        rng = np.random.default_rng(7)
        pair = BogoliubovPair.identity()
        down, _ = bogoliubov_from_jump(1.0, math.exp(-0.7))
        up = invert_pair(down)
        for _ in range(333):
            pair = compose_jump(pair, down)
            pair = compose_wait(pair, math.pi * rng.integers(1, 4))
            pair = compose_jump(pair, up)
        assert pair.defect() < 1e-10

    def test_long_wild_chain_relative_closure(self):
        # unbounded random chains leave the physical envelope; closure
        # then holds relative to the pair's own scale
        rng = np.random.default_rng(7)
        pair = BogoliubovPair.identity()
        omega = 1.0
        for _ in range(1000):
            if rng.random() < 0.5:
                target = omega * math.exp(rng.uniform(-0.8, 0.8))
                jump, _ = bogoliubov_from_jump(omega, target)
                pair = compose_jump(pair, jump)
                omega = target
            else:
                pair = compose_wait(pair, rng.uniform(0, TWO_PI))
        assert pair.defect() / abs(pair.u) ** 2 < 1e-12


class TestSqueezeParams:
    def test_identity_pair(self):
        params = squeeze_params_from_pair(BogoliubovPair.identity())
        assert params.r == 0.0

    def test_fresh_downward_jump_squeezes_position(self):
        pair, r = bogoliubov_from_jump(W1, W2)
        params = squeeze_params_from_pair(pair)
        assert params.r == pytest.approx(r, rel=1e-12)
        assert params.theta == pytest.approx(0.0, abs=1e-12)

    def test_double_jump_squeezes_momentum(self):
        pair, r = bogoliubov_from_jump(W1, W2)
        total = compose_jump(compose_wait(pair, math.pi / 2),
                             invert_pair(pair))
        params = squeeze_params_from_pair(total)
        assert params.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_amplitude_matches_aligned_diagnostic(self):
        pair, _ = bogoliubov_from_jump(W1, W2)
        total = compose_jump(compose_wait(pair, math.pi / 2),
                             invert_pair(pair))
        assert squeeze_params_from_pair(total).r == pytest.approx(
            ln_u_plus_v(total), abs=1e-10)


class TestSqueezingDb:
    def test_zero(self):
        assert squeezing_db(0.0) == 0.0

    def test_published_conversions(self):
        assert squeezing_db(0.806) == pytest.approx(14.0, abs=0.01)
        assert squeezing_db(0.403) == pytest.approx(7.0, abs=0.01)
        # inverse direction, to the stated precision
        r14 = 14.0 * math.log(10) / 40.0
        assert r14 == pytest.approx(0.806, abs=1e-3)
        assert r14 / 2 == pytest.approx(0.403, abs=1e-3)
