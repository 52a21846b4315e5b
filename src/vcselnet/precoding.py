"""Zero-forcing precoding under per-AP optical power caps.

The right Moore-Penrose pseudo-inverse G0 of the channel matrix H satisfies
H G0 = I, so each user sees only its own stream. Intensity signals are
non-negative, so an AP's emitted power for unit-power streams is the L1 norm
of its row of the precoder; the whole precoder is scaled by the largest beta
keeping every AP within its cap. After scaling, diag(H G) = beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, SingularChannelError

# Relative singular-value cutoff below which the channel counts as rank deficient.
RANK_RTOL = 1e-10


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


def _most_aligned_rows(h: np.ndarray) -> tuple[int, int]:
    """Indices of the most linearly dependent pair of user rows."""
    norms = np.linalg.norm(h, axis=1)
    unit = h / np.where(norms[:, None] > 0, norms[:, None], 1.0)
    gram = np.abs(unit @ unit.T)
    np.fill_diagonal(gram, -np.inf)
    i, j = divmod(int(np.argmax(gram)), gram.shape[1])
    return (min(i, j), max(i, j))


def zf_precoder(h, per_ap_power_cap) -> Precoder:
    """Build the cap-respecting zero-forcing precoder for channel matrix h.

    h may be a ChannelMatrix or a (users x aps) array. per_ap_power_cap is
    the emitted optical power budget per AP, W; a scalar applies to all APs,
    an array gives per-AP budgets. Raises InfeasibleError when there are
    more users than APs and SingularChannelError (naming the most dependent
    user pair) when the channel is rank deficient at relative tolerance
    1e-10.
    """
    gains = getattr(h, "gains", h)
    mat = np.asarray(gains, dtype=float)
    if mat.ndim != 2:
        raise DomainError(f"channel matrix must be 2-D, got shape {mat.shape}")
    n_users, n_aps = mat.shape
    if n_users > n_aps:
        raise InfeasibleError(
            f"{n_users} users cannot be zero-forced by {n_aps} access points"
        )

    zero_rows = np.flatnonzero(~mat.any(axis=1))
    if zero_rows.size:
        u = int(zero_rows[0])
        raise SingularChannelError(
            f"user {u} has an all-zero channel row (no AP reaches it)", pair=(u, u)
        )

    # One rank-revealing factorization serves both the rank check and the
    # pseudo-inverse.
    u_mat, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        pair = _most_aligned_rows(mat)
        raise SingularChannelError(
            f"channel matrix is rank deficient: rows of users {pair[0]} and {pair[1]} "
            "are (near-)linearly dependent",
            pair=pair,
        )
    g0 = (vt.T / s) @ u_mat.T  # (aps x users) right pseudo-inverse
    # One Newton-Schulz step squares the inversion residual, pushing
    # |H g0 - I| from the raw SVD's ~cond*eps down to product-evaluation
    # noise. Exact inputs (e.g. identity channels) pass through unchanged.
    g0 = g0 @ (2.0 * np.eye(n_users) - mat @ g0)

    caps = np.broadcast_to(np.asarray(per_ap_power_cap, dtype=float), (n_aps,))
    if np.any(caps <= 0) or not np.all(np.isfinite(caps)):
        raise DomainError("per-AP power caps must be positive and finite")
    row_power = np.abs(g0).sum(axis=1)
    active = row_power > 0.0
    beta = float(np.min(caps[active] / row_power[active]))
    return Precoder(g=beta * g0, beta=beta, g0=g0)

