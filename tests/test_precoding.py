import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcselnet import (
    Precoder,
    build_channel_matrix,
    default_scene,
    zf_precoder,
)
from vcselnet.errors import DomainError, InfeasibleError, SingularChannelError
from vcselnet.precoding import _MAX_INV_COND, RANK_RTOL, _rank_deficiency


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

    def test_caps_are_checked_before_the_rank(self):
        # Rank deficient (both users on AP 0) and a NaN cap: the cap is the
        # first fault found.
        with pytest.raises(DomainError, match="caps"):
            zf_precoder([[1.0, 0.0], [2.0, 0.0]], np.nan)

    @pytest.mark.parametrize("caps", [np.ones(2), np.ones(4), np.ones((3, 1))])
    def test_rejects_caps_of_another_length(self, caps):
        with pytest.raises(DomainError, match="per-AP power cap"):
            zf_precoder(np.eye(3), caps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gains(self, bad):
        for h in (np.diag([1.0, bad]), np.array([[1.0, 0.5], [bad, 2.0]])):
            with pytest.raises(DomainError, match="finite"):
                zf_precoder(h, 1.0)

    def test_rejects_a_channel_without_users(self):
        with pytest.raises(DomainError):
            zf_precoder(np.zeros((0, 3)), 1.0)


class TestWeakUser:
    """Rank lost to one weak user, with no two user rows nearly parallel."""

    def test_scaled_permutation_names_the_weak_user(self):
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(np.diag([1.0, 1.0, 1e-11]), 1.0)
        assert exc_info.value.pair == (2, 2)
        message = str(exc_info.value)
        assert "user 2" in message and "1e-11" in message
        assert "users 0 and 1" not in message

    def test_orthogonal_rows_through_the_svd_name_the_weak_user(self):
        # Two gains per user, so the SVD path decides the rank.
        h = np.array([[0.5, 0.25, 0.0, 0.0], [0.0, 0.0, 3e-12, 4e-12]])
        with pytest.raises(SingularChannelError, match="user 1") as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (1, 1)
        assert f"{5e-12 / np.hypot(0.5, 0.25):.3g}" in str(exc_info.value)

    def test_hairline_overlap_does_not_name_a_pair(self):
        # Rows 0 and 1 overlap at |cos| = 1e-20, far from parallel; the rank
        # is lost to user 2, whose row is 1e-11 of the strongest.
        h = np.array([[1.0, 1e-20, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-11]])
        with pytest.raises(SingularChannelError, match="user 2") as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (2, 2)


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


def oracle_svd_precoder(h, cap):
    """The SVD path written out: svd, the rank check, (vt.T / s) @ u.T, one
    Newton-Schulz step, then the cap scale. Returns (g0, g, beta), or raises
    the rank check's SingularChannelError."""
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise _rank_deficiency(h)
    g0 = (vt.T / s) @ u.T
    g0 = g0 @ (2.0 * np.eye(h.shape[0]) - h @ g0)
    caps = np.broadcast_to(np.asarray(cap, dtype=float), (h.shape[1],))
    row_power = np.abs(g0).sum(axis=1)
    active = row_power > 0.0
    beta = float(np.min(caps[active] / row_power[active]))
    return g0, beta * g0, beta


@st.composite
def scaled_partial_permutations(draw, ascending):
    """(h, cap): up to 8 APs, each reaching at most one of up to n_aps users,
    every user reached by one AP (APs left over have all-zero columns);
    random signs, magnitudes 1e-6 to 1e6 with cond(h) < 1e10, and a scalar
    or per-AP cap. With `ascending`, user i's AP index grows with i."""
    n_aps = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, n_aps))
    aps = draw(st.permutations(range(n_aps)))[:n_users]
    if ascending:
        aps = sorted(aps)
    magnitude = st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
                          st.floats(1e-6, 1e6))
    mags = np.array(draw(st.lists(magnitude, min_size=n_users, max_size=n_users)))
    mags = np.maximum(mags, 10.0**-9.9 * mags.max())  # cond(h) < 1e10
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_users, max_size=n_users))
    h = np.zeros((n_users, n_aps))
    h[np.arange(n_users), aps] = np.array(signs) * mags
    cap = draw(st.one_of(st.floats(1e-3, 1e3),
                         st.lists(st.floats(1e-3, 1e3), min_size=n_aps, max_size=n_aps)
                         .map(np.array)))
    return h, cap


class TestScaledPermutations:
    """Channels with one nonzero gain per user, in distinct AP columns, skip
    the SVD."""

    @settings(max_examples=300, deadline=None)
    @given(scaled_partial_permutations(ascending=True))
    def test_ascending_layouts_match_the_svd_path_bit_for_bit(self, case):
        """LAPACK factors these channels exactly (up to 25 users), so the
        short-cut reproduces its bytes, signed zeros included. Layouts whose
        AP order is not ascending are covered by the next test: there LAPACK
        rounds its Householder reflectors."""
        h, cap = case
        g0, g, beta = oracle_svd_precoder(h, cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", None)  # the short-cut calls no SVD
            pre = zf_precoder(h, cap)
        assert pre.g0.tobytes() == g0.tobytes()
        assert pre.g.tobytes() == g.tobytes()
        assert np.float64(pre.beta).tobytes() == np.float64(beta).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(scaled_partial_permutations(ascending=False))
    def test_any_layout_is_the_rounded_exact_inverse(self, case):
        """Each entry of G0 is 1/h correctly rounded at the transposed
        position and +0.0 elsewhere, and lies within an ulp of the SVD
        path, whose own entries off that pattern are rounding residue."""
        h, cap = case
        pre = zf_precoder(h, cap)
        users, aps = np.nonzero(h)
        pattern = np.zeros(pre.g0.shape, dtype=bool)
        pattern[aps, users] = True
        assert pre.g0[~pattern].tobytes() == np.zeros(np.count_nonzero(~pattern)).tobytes()
        for user, ap in zip(users, aps):
            got, exact = pre.g0[ap, user], 1 / Fraction(h[user, ap])
            for neighbour in (np.nextafter(got, -np.inf), np.nextafter(got, np.inf)):
                assert abs(Fraction(got) - exact) <= abs(Fraction(neighbour) - exact)
        g0, _, beta = oracle_svd_precoder(h, cap)
        assert np.all(np.abs(pre.g0 - g0)[pattern] <= np.spacing(np.abs(g0[pattern])))
        assert np.all(np.abs(g0[~pattern]) <= 1e-15 * np.abs(g0).max())
        assert pre.beta == pytest.approx(beta, rel=4.5e-16)

    def test_singular_permutation_is_found_without_an_svd(self, svd_calls):
        h = np.array([[0.0, 0.0, RANK_RTOL * 0.2], [0.0, 0.2, 0.0]])  # at the cutoff
        with pytest.raises(SingularChannelError, match="user 0") as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (0, 0)
        assert svd_calls == []
        s = np.linalg.svd(h, compute_uv=False)
        assert s[-1] <= RANK_RTOL * s[0]  # the SVD path agrees

    def test_users_sharing_their_only_ap_name_the_pair(self, svd_calls):
        # One lit AP column for two users: rank 1, rejected without an SVD,
        # with the SVD path's error.
        h = np.array([[0.0, 0.3, 0.0], [0.0, 0.7, 0.0]])
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == (0, 1)
        assert "users 0 and 1" in str(exc_info.value)
        assert svd_calls == []
        with pytest.raises(SingularChannelError) as want:
            oracle_svd_precoder(h, 1.0)
        assert str(exc_info.value) == str(want.value)
        assert exc_info.value.pair == want.value.pair

    def test_a_row_with_two_gains_takes_the_svd(self, svd_calls):
        h = np.array([[0.0, 0.4, 0.0, 0.1], [0.0, 0.0, 0.9, 0.0]])
        pre = zf_precoder(h, 0.5)
        assert len(svd_calls) == 1
        g0, g, beta = oracle_svd_precoder(h, 0.5)
        assert pre.g0.tobytes() == g0.tobytes()
        assert pre.g.tobytes() == g.tobytes()
        assert pre.beta == beta


@st.composite
def prescribed_square_channels(draw):
    """(h, kappa_2, kappa_F): 2 to 16 users and as many APs, h = U diag(s) V
    with random orthogonal U and V and singular values s spanning
    kappa_2 = 1 to 1e12 (half the draws within a decade of the screen's
    1e8 and the rank cutoff's 1e10), the inner ones log-uniform between,
    times a random overall scale. kappa_F is |h|_F |h^-1|_F of the
    prescribed s."""
    n = draw(st.integers(2, 16))
    log_kappa = draw(st.one_of(st.floats(0.0, 12.0), st.floats(7.0, 11.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = rng.uniform(-log_kappa, 0.0, n - 2)
    s = 10.0 ** np.concatenate([[0.0], np.sort(inner)[::-1], [-log_kappa]])
    qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scale = 10.0 ** draw(st.floats(-8.0, 2.0))
    h = scale * (qa * s) @ qb
    kappa_f = math.sqrt(np.sum(s * s) * np.sum(1.0 / (s * s)))
    return h, 10.0**log_kappa, kappa_f


class TestSquareScreen:
    """Square channels that are not scaled permutations: one LU inverse,
    kept where its Frobenius condition number is at most 1e8, else the
    SVD."""

    def test_the_screen_sits_a_hundredfold_inside_the_rank_cutoff(self):
        assert _MAX_INV_COND == 1e8 == 1e-2 / RANK_RTOL

    @settings(max_examples=300, deadline=None)
    @given(case=prescribed_square_channels(), cap=st.floats(1e-3, 1e3))
    def test_matches_the_svd_path_or_raises_as_it_does(self, case, cap):
        """The two paths' g0 differ by the rounding of two backward-stable
        inverses, ~kappa_2 eps relative: within 1e-12 up to kappa_2 = 1e3,
        and 1e-15 kappa_2 beyond. Channels well inside the screen take no
        SVD, those past it exactly one; the screen never admits a channel
        the SVD's rank check rejects (kappa_2 >= 1e10)."""
        h, kappa_2, kappa_f = case
        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(a)
            return svd(a, *args, **kwargs)

        try:
            g0, _, beta = oracle_svd_precoder(h, cap)
        except SingularChannelError as exc:
            want = exc
        else:
            want = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", counting_svd)
            if want is not None:
                with pytest.raises(SingularChannelError) as exc_info:
                    zf_precoder(h, cap)
                assert exc_info.value.pair == want.pair
                assert str(exc_info.value) == str(want)
            else:
                pre = zf_precoder(h, cap)
        if kappa_f <= 1e8 * (1.0 - 1e-5):
            assert svd_calls == []
        elif kappa_f > 1e8 * (1.0 + 1e-5):
            assert len(svd_calls) == 1
        if want is None:
            tol = 1e-15 * max(kappa_2, 1e3)
            assert np.linalg.norm(pre.g0 - g0) <= tol * np.linalg.norm(g0)
            assert pre.beta == pytest.approx(beta, rel=tol)
            assert np.array_equal(pre.g, pre.beta * pre.g0)

    @pytest.mark.parametrize("n, pair", [(3, (0, 2)), (8, (0, 7))])
    def test_two_equal_rows_name_the_pair(self, svd_calls, n, pair):
        """Equal first and last rows: at n = 3 LU finds the channel singular,
        at n = 8 its inverse fails the screen; both go to the SVD, which
        names the pair."""
        h = np.random.default_rng(3).uniform(0.1, 1.0, (n, n))
        h[n - 1] = h[0]
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(h, 1.0)
        assert exc_info.value.pair == pair
        assert str(exc_info.value) == (
            f"channel matrix is rank deficient: rows of users {pair[0]} and {pair[1]} "
            "are (near-)linearly dependent")
        assert len(svd_calls) == 1

    def test_an_inverse_with_a_non_finite_norm_goes_to_the_svd(self, svd_calls):
        # |h|_F squares to +0.0 and |h^-1|_F to inf: the screen reads NaN,
        # and says nothing.
        h = 1e-170 * np.array([[2.0, 1.0], [1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pre = zf_precoder(h, 1.0)
        assert len(svd_calls) == 1
        g0, g, beta = oracle_svd_precoder(h, 1.0)
        assert pre.g0.tobytes() == g0.tobytes()
        assert pre.beta == beta

    def test_an_ap_reaching_no_user_skips_the_inverse(self, svd_calls, inv_calls):
        # AP 2 reaches nobody, so the square channel has rank <= 2: it is
        # rejected without a factorization, with the error the SVD path
        # raises.
        h = np.array([[0.5, 0.2, 0.0], [0.1, 0.4, 0.0], [0.3, 0.3, 0.0]])
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(h, 1.0)
        assert inv_calls == [] and svd_calls == []
        with pytest.raises(SingularChannelError) as want:
            oracle_svd_precoder(h, 1.0)
        assert str(exc_info.value) == str(want.value)
        assert exc_info.value.pair == want.value.pair


@settings(max_examples=200, deadline=None)
@given(n_aps=st.integers(2, 8), data=st.data())
def test_fewer_lit_aps_than_users_raise_the_svd_paths_error(n_aps, data):
    """A channel whose users are reached by fewer AP columns than there are
    users has rank below the user count: no SVD or LU runs, and the error
    is the one the SVD path raises, message and pair."""
    n_users = data.draw(st.integers(2, n_aps))
    lit = data.draw(st.integers(1, n_users - 1))
    columns = data.draw(st.permutations(range(n_aps)))[:lit]
    gains = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    h = np.zeros((n_users, n_aps))
    for u in range(n_users):
        row = data.draw(st.lists(gains, min_size=lit, max_size=lit)
                        .filter(lambda row: any(row)))
        h[u, columns] = row
    with pytest.raises(SingularChannelError) as want:
        oracle_svd_precoder(h, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", None)
        mp.setattr(np.linalg, "inv", None)
        with pytest.raises(SingularChannelError) as exc_info:
            zf_precoder(h, 1.0)
    assert str(exc_info.value) == str(want.value)
    assert exc_info.value.pair == want.value.pair
