import numpy as np
import pytest

from vcselnet import (
    Precoder,
    build_channel_matrix,
    default_scene,
    zf_precoder,
)
from vcselnet.errors import DomainError, InfeasibleError, SingularChannelError


def random_channel(rng, n_users, n_aps, log10_cond):
    """Full-rank test channel with exactly the requested condition number."""
    qa, _ = np.linalg.qr(rng.standard_normal((n_users, n_users)))
    qb, _ = np.linalg.qr(rng.standard_normal((n_aps, n_aps)))
    s = np.logspace(0.0, -log10_cond, n_users)
    return qa @ np.diag(s) @ qb[:n_users, :]


class TestExactCases:
    def test_identity_channel(self):
        pre = zf_precoder(np.eye(3), 2.0)
        assert pre.beta == 2.0
        assert np.array_equal(pre.g, 2.0 * np.eye(3))
        assert np.array_equal(pre.g0, np.eye(3))

    def test_diagonal_channel_frozen(self):
        # H = diag(2, 4): G0 = diag(0.5, 0.25), row L1 norms (0.5, 0.25),
        # beta = min(1/0.5, 1/0.25) = 2.
        pre = zf_precoder(np.diag([2.0, 4.0]), 1.0)
        assert pre.beta == 2.0
        assert np.array_equal(pre.g0, np.diag([0.5, 0.25]))
        assert np.array_equal(pre.g, np.diag([1.0, 0.5]))
        hg = np.diag([2.0, 4.0]) @ pre.g
        assert np.array_equal(hg, 2.0 * np.eye(2))


class TestZeroForcing:
    def test_rectangular_channel_inverts(self):
        rng = np.random.default_rng(3)
        h = random_channel(rng, 2, 3, 1.0)
        pre = zf_precoder(h, 1.0)
        hg = h @ pre.g
        assert np.allclose(hg, pre.beta * np.eye(2), rtol=0.0, atol=1e-13)

    def test_unscaled_inverse_high_condition(self):
        rng = np.random.default_rng(4)
        h = random_channel(rng, 6, 8, 6.0)  # condition number 1e6
        pre = zf_precoder(h, 1.0)
        assert np.abs(h @ pre.g0 - np.eye(6)).max() < 1e-10

    def test_binding_cap_is_met_with_equality(self):
        rng = np.random.default_rng(5)
        h = random_channel(rng, 3, 4, 2.0)
        cap = 0.7
        pre = zf_precoder(h, cap)
        row_power = np.abs(pre.g).sum(axis=1)
        assert np.all(row_power <= cap * (1.0 + 1e-12))
        assert row_power.max() == pytest.approx(cap, rel=1e-12)

    def test_per_ap_caps(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, 3, 3, 1.5)
        caps = np.array([0.2, 5.0, 1.0])
        pre = zf_precoder(h, caps)
        row_power = np.abs(pre.g).sum(axis=1)
        assert np.all(row_power <= caps * (1.0 + 1e-12))
        assert np.min(caps / np.abs(pre.g0).sum(axis=1)) == pytest.approx(
            pre.beta, rel=1e-12
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        h = random_channel(rng, 4, 5, 3.0)
        base = zf_precoder(h, 1.0)
        for alpha in (1e-3, 7.0, 1e4):
            scaled = zf_precoder(alpha * h, 1.0)
            assert np.allclose(scaled.g, base.g, rtol=1e-9, atol=0.0)
            assert scaled.beta == pytest.approx(alpha * base.beta, rel=1e-9)

    def test_accepts_channel_matrix_object(self, scene_with_mpe):
        h = build_channel_matrix(scene_with_mpe)
        from_object = zf_precoder(h, 1e-2)
        from_array = zf_precoder(h.gains, 1e-2)
        assert np.array_equal(from_object.g, from_array.g)

    def test_diagonal_equals_scale(self):
        rng = np.random.default_rng(8)
        h = random_channel(rng, 3, 4, 1.0)
        pre = zf_precoder(h, 2.5)
        hg = h @ pre.g
        assert np.allclose(np.diag(hg), pre.beta, rtol=1e-12, atol=0.0)


class TestFailureModes:
    def test_more_users_than_aps(self):
        with pytest.raises(InfeasibleError, match="zero-forced"):
            zf_precoder(np.ones((3, 2)), 1.0)

    def test_zero_row_names_the_user(self):
        h = np.eye(3)
        h[1, :] = 0.0
        with pytest.raises(SingularChannelError, match="user 1") as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (1, 1)

    def test_duplicate_rows_name_the_pair(self):
        h = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5], [0.1, 0.0, 3.0]])
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (0, 1)
        assert "0" in str(exc_info.value) and "1" in str(exc_info.value)

    def test_near_dependent_rows_detected(self):
        base = np.array([1.0, 2.0, 0.5])
        h = np.vstack([base, base * (1.0 + 1e-13), [0.1, 0.0, 3.0]])
        with pytest.raises(SingularChannelError):
            zf_precoder(h, 1.0)

    def test_rejects_non_2d_input(self):
        with pytest.raises(DomainError):
            zf_precoder(np.ones(4), 1.0)

    @pytest.mark.parametrize("cap", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_caps(self, cap):
        with pytest.raises(DomainError):
            zf_precoder(np.eye(2), cap)

    def test_rejects_one_bad_cap_among_good(self):
        with pytest.raises(DomainError):
            zf_precoder(np.eye(3), np.array([1.0, 0.0, 1.0]))


class TestResidualInterference:
    """The off-diagonal of H g: power leaking between streams."""

    def test_diagonal_is_zeroed(self):
        rng = np.random.default_rng(9)
        h = random_channel(rng, 4, 4, 2.0)
        pre = zf_precoder(h, 1.0)
        res = h @ pre.g
        np.fill_diagonal(res, 0.0)
        assert np.all(np.diag(res) == 0.0)

    def test_off_diagonal_matches_product(self):
        rng = np.random.default_rng(10)
        h = random_channel(rng, 3, 5, 2.0)
        pre = zf_precoder(h, 1.0)
        res = h @ pre.g
        np.fill_diagonal(res, 0.0)
        prod = h @ pre.g
        off_mask = ~np.eye(3, dtype=bool)
        assert np.array_equal(res[off_mask], prod[off_mask])

    def test_leakage_is_small_for_well_conditioned(self):
        rng = np.random.default_rng(11)
        h = random_channel(rng, 4, 6, 1.0)
        pre = zf_precoder(h, 1.0)
        res = h @ pre.g
        np.fill_diagonal(res, 0.0)
        assert np.abs(res).max() <= 1e-12 * pre.beta

    def test_accepts_channel_matrix_object(self, scene_with_mpe):
        h = build_channel_matrix(scene_with_mpe)
        pre = zf_precoder(h, 1e-2)
        res = h.gains @ pre.g
        np.fill_diagonal(res, 0.0)
        assert res.shape == h.gains.shape
        assert np.all(np.diag(res) == 0.0)
