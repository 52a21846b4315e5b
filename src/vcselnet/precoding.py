"""Zero-forcing precoding under per-AP optical power caps.

The right Moore-Penrose pseudo-inverse G0 of the channel matrix H satisfies
H G0 = I, so each user sees only its own stream. Intensity signals are
non-negative, so an AP's emitted power for unit-power streams is the L1 norm
of its row of the precoder; the whole precoder is scaled by the largest beta
keeping every AP within its cap. After scaling, diag(H G) = beta.

A channel with fewer lit AP columns (APs that reach a user) than users has
rank at most that count: it is rejected as rank deficient without any
factorization. Otherwise G0 comes from one of three paths, the cheapest
that applies:

- A channel in which every user is reached by exactly one AP, and every AP
  reaches at most one user (a scaled partial permutation, as in a grid whose
  beams are too narrow to reach a neighbour's user), is inverted entry by
  entry: its singular values are the |h|, and its pseudo-inverse holds 1/h
  at the transposed positions. Its bytes are those of the SVD path wherever
  LAPACK's gesdd factors the channel exactly, as it does for up to 25 users
  whose APs ascend with the user index, and for some larger channels, such
  as the 8 x 8 grid's at 1 and 8 um. Elsewhere gesdd rounds a Householder
  reflector or its divide-and-conquer scaling, and the two paths differ by
  at most an ulp, the short-cut never the farther from 1/h.
- Any other square channel (as many users as APs, each AP reaching a
  user) is inverted by one LU factorization, np.linalg.inv, whose
  result is kept only when the Frobenius condition number it implies,
  |H|_F |inv|_F, is at most _MAX_INV_COND. Since the 2-norm condition
  number never exceeds the Frobenius one, a channel kept here is one the
  SVD rank check accepts.
- Every other channel, and a square one the screen turns away (singular to
  LU, too ill-conditioned, or with a norm that over- or underflows), is
  factorized by an SVD, which decides the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, SingularChannelError

# Relative singular-value cutoff below which the channel counts as rank deficient.
RANK_RTOL = 1e-10

# The largest Frobenius condition number at which an LU inverse is used
# instead of the SVD. The inverse computed at that condition is off by about
# n cond eps relative (7e-7 for 64 users), so the 100-fold margin below
# 1 / RANK_RTOL keeps every channel it admits inside the SVD's full-rank
# range.
_MAX_INV_COND = 1e-2 / RANK_RTOL


@dataclass
class Precoder:
    """Scaled zero-forcing precoder.

    g     (aps x users) weights, W per unit-power stream
    beta  common scale chosen by the binding AP power cap; diag(H g) = beta
    g0    unscaled right inverse (g = beta * g0), kept so callers need not
          divide the scale back out (which would cost a few ulp per entry)
    """

    g: np.ndarray
    beta: float
    g0: np.ndarray


def _rank_deficiency(h: np.ndarray) -> SingularChannelError:
    """The error for a rank-deficient channel, naming the users behind it.

    Names the most nearly parallel pair of user rows, unless the sine of their
    angle exceeds the weakest row's norm relative to the strongest (as in any
    scaled partial permutation); then that weak user is named alone.
    """
    norms = np.linalg.norm(h, axis=1)
    unit = h / np.where(norms[:, None] > 0, norms[:, None], 1.0)
    gram = np.abs(unit @ unit.T)
    np.fill_diagonal(gram, -np.inf)
    k = int(np.argmax(gram))
    u = int(np.argmin(norms))
    weakest = float(norms[u] / norms.max())
    if 1.0 - float(gram.flat[k]) ** 2 <= weakest**2:  # the pair's sine <= weakest
        i, j = divmod(k, gram.shape[1])
        i, j = min(i, j), max(i, j)
        return SingularChannelError(
            f"channel matrix is rank deficient: rows of users {i} and {j} "
            "are (near-)linearly dependent",
            pair=(i, j),
        )
    return SingularChannelError(
        f"channel matrix is rank deficient: user {u}'s channel row is "
        f"{weakest:.3g} times the strongest user's, less than the sine of the "
        "angle between any two users' rows",
        pair=(u, u),
    )


def _screened_inverse(mat: np.ndarray) -> np.ndarray | None:
    """The LU inverse of a square channel, or None where LU finds it singular
    or |H|_F |inv|_F exceeds _MAX_INV_COND. The squared norms are compared,
    as vdot's sums of squares (BLAS, which flags no overflow); one that
    overflows or underflows makes the product inf or NaN, which the screen
    turns away (Python floats give NaN for 0 * inf without a warning)."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    cond_sq = float(np.vdot(mat, mat)) * float(np.vdot(inv, inv))
    return inv if cond_sq <= _MAX_INV_COND * _MAX_INV_COND else None


def zf_precoder(h, per_ap_power_cap) -> Precoder:
    """Build the cap-respecting zero-forcing precoder for channel matrix h.

    h may be a ChannelMatrix or a (users x aps) array of finite gains.
    per_ap_power_cap is the emitted optical power budget per AP, W; a scalar
    applies to all APs, an array gives per-AP budgets. Raises DomainError
    for a non-finite gain, a cap array of another length, or a cap that is
    not positive and finite; InfeasibleError when there are more users than
    APs; and SingularChannelError when the channel is rank deficient at
    relative tolerance 1e-10, naming the most dependent user pair or the
    weakest user (see _rank_deficiency). A channel with fewer lit AP
    columns than users raises that error without a factorization.

    A scaled partial permutation (one nonzero gain per user, in distinct AP
    columns) skips the SVD: G0 holds 1/h at each transposed nonzero. That is
    also what the Newton-Schulz step below makes of it, since for
    inv = fl(1/h), h * inv rounds to 1 or 1 - 2**-53, and 2 - h * inv then
    rounds to exactly 1. Any other square channel whose LU inverse passes
    the condition screen (see the module docstring) skips the SVD too, and
    its inverse takes the same Newton-Schulz step as the SVD's; the two
    paths' G0 differ by about cond * eps relative, as any two stable
    inverses do. A channel the screen turns away goes to the SVD, which
    raises any rank error.
    """
    gains = getattr(h, "gains", h)
    mat = np.asarray(gains, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise DomainError(f"channel matrix must be 2-D with a user, got shape {mat.shape}")
    n_users, n_aps = mat.shape
    if not np.isfinite(mat).all():
        raise DomainError("channel gains must be finite")
    caps = np.asarray(per_ap_power_cap, dtype=float)
    if caps.shape not in ((), (1,), (n_aps,)):
        raise DomainError(f"need one per-AP power cap or {n_aps}, got shape {caps.shape}")
    if not ((caps > 0.0) & (caps < np.inf)).all():  # NaN fails both
        raise DomainError("per-AP power caps must be positive and finite")
    if n_users > n_aps:
        raise InfeasibleError(
            f"{n_users} users cannot be zero-forced by {n_aps} access points"
        )

    zero_rows = (~mat.any(axis=1)).nonzero()[0]
    if zero_rows.size:
        u = int(zero_rows[0])
        raise SingularChannelError(
            f"user {u} has an all-zero channel row (no AP reaches it)", pair=(u, u)
        )

    if np.count_nonzero(mat.any(axis=0)) < n_users:
        # rank(H) <= the lit AP columns: the SVD's rank check could only
        # reject it.
        raise _rank_deficiency(mat)
    # With no zero row, n_users nonzeros are one per row, and with at least
    # n_users lit columns they sit in distinct columns.
    if np.count_nonzero(mat) == n_users:
        # One nonzero per row: argmax of the row's mask finds it.
        users, aps = np.arange(n_users), np.argmax(mat != 0.0, axis=1)
        h_nz = mat[users, aps]
        s = np.abs(h_nz)  # the singular values, unsorted
        if s.min() <= RANK_RTOL * s.max():
            raise _rank_deficiency(mat)
        g0 = np.zeros((n_aps, n_users))
        g0[aps, users] = 1.0 / h_nz
    else:
        # Every AP of a square channel reaching this point reaches a user.
        g0 = _screened_inverse(mat) if n_users == n_aps else None
        if g0 is None:
            # One rank-revealing factorization serves both the rank check and
            # the pseudo-inverse.
            u_mat, s, vt = np.linalg.svd(mat, full_matrices=False)
            if s[-1] <= RANK_RTOL * s[0]:
                raise _rank_deficiency(mat)
            g0 = (vt.T / s) @ u_mat.T  # (aps x users) right pseudo-inverse
        # One Newton-Schulz step squares the inversion residual, pushing
        # |H g0 - I| from the raw inverse's ~cond*eps down to
        # product-evaluation noise. Exact inputs (e.g. identity channels)
        # pass through unchanged.
        g0 = g0 @ (2.0 * np.eye(n_users) - mat @ g0)

    caps = np.broadcast_to(caps, (n_aps,))
    row_power = np.abs(g0).sum(axis=1)
    active = row_power > 0.0
    beta = float(np.min(caps[active] / row_power[active]))
    return Precoder(g=beta * g0, beta=beta, g0=g0)
