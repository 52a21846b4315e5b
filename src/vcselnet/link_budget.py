"""Receiver noise, per-user SINR, achievable rates and energy efficiency.

Noise variances are one-sided power spectral densities integrated over the
receiver electrical bandwidth B_e, in A^2. The desired photocurrent for user
u is I_u = R * (H G)[u,u]; residual streams enter as interference powers.
link_report runs noise_variance and the rate formulas of user_rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .errors import DomainError
from .precoding import Precoder
from .scene import ElectricalSpec, Scene

# Exact SI defining constants (2019 redefinition).
ELECTRON_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class NoiseBreakdown:
    """Noise variances in A^2 over the receiver bandwidth."""

    shot: float
    thermal: float
    rin: float
    preamp: float
    total: float


def noise_variance(photocurrent: float | np.ndarray, elec: ElectricalSpec) -> NoiseBreakdown:
    """Receiver noise for a DC signal photocurrent, A^2: a float, or an array
    with one shot, rin and total per entry (thermal and preamp stay floats).
    DomainError for a negative current; NaN passes.

    shot    = 2 q I B_e
    thermal = 4 k_B T F B_e / R_l     (F the linear noise figure)
    rin     = 10^(RIN/10) B_e (I I)
    preamp  = N_pr B_e
    """
    if np.less(photocurrent, 0.0).any():
        raise DomainError(f"photocurrent must be >= 0, got {photocurrent!r}")
    be = elec.rx_bandwidth
    nf_lin = 10.0 ** (elec.noise_figure_db / 10.0)
    thermal = 4.0 * BOLTZMANN * elec.temperature * nf_lin * be / elec.load_resistance
    preamp = elec.preamp_noise_density * be
    shot = 2.0 * ELECTRON_CHARGE * photocurrent * be
    rin = 10.0 ** (elec.rin_db_per_hz / 10.0) * be * (photocurrent * photocurrent)
    return NoiseBreakdown(shot=shot, thermal=thermal, rin=rin, preamp=preamp,
                          total=shot + thermal + rin + preamp)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _rates(sinrs: list[float], elec: ElectricalSpec, model: str) -> list[float]:
    """The rate of each SINR in sinrs, in order, bit/s (see user_rate)."""
    be = elec.rx_bandwidth
    if model == "shannon":
        return [be * math.log2(1.0 + x) for x in sinrs]
    if model == "ook":
        return [be if q_function(math.sqrt(x)) <= elec.fec_limit else 0.0 for x in sinrs]
    raise DomainError(f"unknown rate model {model!r}; use 'shannon' or 'ook'")


def user_rate(sinr: float, elec: ElectricalSpec, model: str = "shannon") -> float:
    """Achievable rate for one user, bit/s.

    shannon: B_e log2(1 + SINR), by math.log2 (np.log2 may round otherwise).
    ook: hard-decision on-off keying; the full B_e when the bit error rate
    Q(sqrt(SINR)) meets the FEC threshold, zero otherwise.
    """
    if sinr < 0:
        raise DomainError(f"SINR must be >= 0, got {sinr!r}")
    return _rates([sinr], elec, model)[0]


def consumed_power(scene: Scene) -> float:
    """Electrical power drawn by all arrays, W.

    Per VCSEL: bias_current * drive_voltage, unless the per-VCSEL consumption
    override is configured.
    """
    elec = scene.electrical
    per_vcsel = (
        elec.per_vcsel_consumption
        if elec.per_vcsel_consumption is not None
        else elec.bias_current * elec.drive_voltage
    )
    total = sum(ap.array_n**2 * per_vcsel for ap in scene.aps)
    if not total > 0:
        raise DomainError(f"consumed power must be positive, got {total!r}")
    return total


@dataclass(frozen=True)
class UserLink:
    """Per-user link outcome."""

    snr: float
    rate: float
    photocurrent: float


@dataclass(frozen=True)
class LinkReport:
    """Network-level link budget summary.

    snr, rate and photocurrent hold one entry per user, in user order:
    SINR, bit/s and A. per_user regroups them into one UserLink per user.
    """

    snr: tuple[float, ...]
    rate: tuple[float, ...]
    photocurrent: tuple[float, ...]
    sum_rate: float
    consumed_power: float
    energy_efficiency: float

    @property
    def per_user(self) -> tuple[UserLink, ...]:
        """One UserLink per user, built on each read."""
        return tuple(map(UserLink, self.snr, self.rate, self.photocurrent))


def link_report(
    scene: Scene, h: ChannelMatrix, precoder: Precoder, rate_model: str = "shannon"
) -> LinkReport:
    """Evaluate every user and aggregate to network sum rate and efficiency.

    User u's photocurrents are R_u (H G)[u, :]. Its interference power, the
    sum of the squared currents of the other streams, is taken for all users
    in one pass over the off-diagonal of that matrix, row by row. Users with
    a positive signal take their noise from one noise_variance call; any
    other user has SINR 0, and a negative photocurrent is reported as 0.
    DomainError names the first user whose SINR is not finite. Rates follow
    user_rate's formulas, and the sum rate is their sum in user order.
    """
    elec = scene.electrical
    responsivity = np.array([user.responsivity for user in scene.users])
    currents = responsivity[:, None] * (np.asarray(h.gains) @ precoder.g)
    n = len(currents)
    others = currents[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    interference = (others**2).sum(axis=1)
    signal = np.diagonal(currents)
    lit = signal > 0.0
    i_sig = signal[lit]
    sinr = np.zeros(n)
    sinr[lit] = i_sig * i_sig / (noise_variance(i_sig, elec).total + interference[lit])
    finite = np.isfinite(sinr)
    if not finite.all():
        u = int(np.argmin(finite))
        raise DomainError(f"user {u}: SINR is {float(sinr[u])!r}, not finite")
    photocurrent = np.where(signal < 0.0, 0.0, signal)  # max(i, 0.0): keeps -0.0 and NaN
    snr = sinr.tolist()
    rates = _rates(snr, elec, rate_model)
    total_rate = sum(rates)
    consumed = consumed_power(scene)
    return LinkReport(
        snr=tuple(snr),
        rate=tuple(rates),
        photocurrent=tuple(photocurrent.tolist()),
        sum_rate=total_rate,
        consumed_power=consumed,
        energy_efficiency=total_rate / consumed,
    )
