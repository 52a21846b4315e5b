"""Line-of-sight optical channel: captured power fractions per (user, AP) link.

Each entry of the channel matrix is the fraction of an AP's emitted power
landing on a user's detector disc: the beam intensity integrated over the
disc by 2-D polar quadrature, summed over the source's transverse modes.
Links arriving outside a receiver's field of view contribute zero. Wall
reflections are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beam_optics import BeamSpec, LensSpec, beam_intensity, transformed_source
from .errors import DomainError
from .scene import Scene

# Relative convergence target for the adaptive disc quadrature.
_QUAD_RTOL = 1e-8
_QUAD_START_ORDER = 16
_QUAD_MAX_ORDER = 1024
# Quadrature nodes evaluated in one array: a single link at the maximum order,
# so a batch of links never needs more memory than one worst-case link.
_CHUNK_NODES = _QUAD_MAX_ORDER**2


@dataclass
class ChannelMatrix:
    """Gains plus the geometry they were computed from.

    gains      (users x aps) captured power fractions
    distances  (users x aps) propagation distances from the source plane, m
    offsets    (users x aps) lateral offsets between beam axis and detector
               center, m
    """

    gains: np.ndarray
    distances: np.ndarray
    offsets: np.ndarray


@lru_cache(maxsize=16)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _disc_capture_fixed(
    beam: BeamSpec, z: float, rho: np.ndarray, aperture_radius: float, order: int
) -> np.ndarray:
    """Fixed-order tensor Gauss-Legendre integrals of the intensity over the disc.

    One integral per offset in rho. Detector-centered polar coordinates
    (s, phi); the distance from the beam axis to an integration node is
    r = sqrt(rho^2 + s^2 + 2 rho s cos phi). Each link is reduced on its own
    (order x order) plane, so its value does not depend on the batch.
    """
    x, w = _gauss_nodes(order)
    s = 0.5 * aperture_radius * (x + 1.0)
    w_s = 0.5 * aperture_radius * w * s
    phi = math.pi * (x + 1.0)
    w_phi = math.pi * w
    # rho^2 as a Python float power: numpy's square may round differently.
    rho_sq = np.array([r**2 for r in rho.tolist()])[:, None, None]
    rho = rho[:, None, None]
    r = np.sqrt(rho_sq + s[:, None] ** 2 + 2.0 * rho * s[:, None] * np.cos(phi)[None, :])
    intensity = beam_intensity(r, z, beam)
    return np.array([w_s @ plane @ w_phi for plane in intensity])


def _disc_capture(
    beam: BeamSpec, z: float, rho: np.ndarray, aperture_radius: float
) -> np.ndarray:
    """Adaptive disc capture for every offset in rho, clipped to [0, 1].

    The order doubles from 16 until a link's value changes by less than 1e-8
    relative; converged links drop out. Links still open after order 1024
    come back as NaN. Nodes are evaluated in chunks of at most _CHUNK_NODES
    (but at least one link).
    """
    result = np.full(rho.shape, np.nan)
    active = np.arange(rho.size)
    prev = None
    order = _QUAD_START_ORDER
    while True:
        step = max(1, _CHUNK_NODES // order**2)
        cur = np.concatenate(
            [
                _disc_capture_fixed(beam, z, rho[active[i : i + step]], aperture_radius, order)
                for i in range(0, active.size, step)
            ]
        )
        if prev is not None:
            done = np.abs(cur - prev) <= _QUAD_RTOL * np.abs(cur) + 1e-16
            result[active[done]] = np.clip(cur[done], 0.0, 1.0)
            active, cur = active[~done], cur[~done]
        if not active.size or order >= _QUAD_MAX_ORDER:
            return result
        prev = cur
        order *= 2


def _link_source(
    beam: BeamSpec, lens: LensSpec | None, z: float, rho: float, aperture_radius: float
) -> tuple[BeamSpec, float]:
    """Check a link's domain; return the beam and distance the quadrature sees.

    With a lens, intensities come from the transformed beam whose waist sits
    d2 past the lens, so the effective propagation distance is z - d2.
    """
    if not z > 0:
        raise DomainError(f"link distance must be positive, got {z!r}")
    if rho < 0:
        raise DomainError(f"lateral offset must be >= 0, got {rho!r}")
    if not aperture_radius > 0:
        raise DomainError(f"aperture radius must be positive, got {aperture_radius!r}")

    eff_beam, waist_offset = transformed_source(beam, lens)
    z_eff = z - waist_offset
    if lens is not None and z_eff <= 0:
        raise DomainError(
            f"link distance {z!r} m does not reach past the transformed waist at "
            f"{waist_offset!r} m behind the lens"
        )
    return eff_beam, z_eff


def _not_converged(z: float, rho: float, aperture_radius: float) -> DomainError:
    return DomainError(
        f"disc quadrature did not converge by order {_QUAD_MAX_ORDER} "
        f"(z={z!r}, rho={rho!r}, aperture={aperture_radius!r})"
    )


def captured_fraction(
    beam: BeamSpec,
    lens: LensSpec | None,
    z: float,
    rho: float,
    aperture_radius: float,
) -> float:
    """Fraction of emitted power captured by a disc detector.

    z is the distance from the source plane, rho the lateral offset of the
    disc center from the beam axis, both in meters. With a lens, intensities
    come from the transformed beam whose waist sits d2 past the lens, so the
    effective propagation distance is z - d2 (z <= d2 is out of domain).
    The quadrature order doubles until the result changes by less than
    1e-8 relative; the result is clipped to [0, 1].
    """
    eff_beam, z_eff = _link_source(beam, lens, z, rho, aperture_radius)
    h = float(_disc_capture(eff_beam, z_eff, np.array([float(rho)]), aperture_radius)[0])
    if math.isnan(h):
        raise _not_converged(z, rho, aperture_radius)
    return h


def _distinct(a: np.ndarray, b: np.ndarray) -> tuple[list[complex], np.ndarray]:
    """Distinct (a, b) pairs, each packed exactly into one complex, and the
    index of every element's pair, shaped like a."""
    packed = np.empty(a.shape, dtype=complex)
    packed.real, packed.imag = a, b
    pairs, inverse = np.unique(packed.ravel(), return_inverse=True)
    return pairs.tolist(), inverse.reshape(a.shape)


def build_channel_matrix(scene: Scene) -> ChannelMatrix:
    """Evaluate every (user, AP) link in the scene.

    Beams point straight down, so the propagation distance is the vertical
    drop from the ceiling to the receive plane and the lateral offset is the
    horizontal AP-user distance. Links whose arrival angle at the detector
    exceeds the user's field-of-view half angle are zeroed. The detector
    disc lies in the receive plane, perpendicular to the beam axis, so the
    integral over it is already the captured power: no incidence cosine.

    Links sharing (beam, lens, z, aperture) form one batch, and each distinct
    offset in a batch is integrated once; every gain equals captured_fraction
    of its link bit for bit.
    """
    aps, users = scene.aps, scene.users
    zs = [ap.position[2] - scene.room.rx_plane_height for ap in aps]
    apertures = [math.sqrt(user.detector_area / math.pi) for user in users]
    ap_xy = np.array([ap.position[:2] for ap in aps], dtype=float)
    user_xy = np.array([user.position for user in users], dtype=float)
    dx = user_xy[:, None, 0] - ap_xy[None, :, 0]
    dy = user_xy[:, None, 1] - ap_xy[None, :, 1]
    # math.hypot once per distinct (dx, dy) and math.atan2 once per distinct
    # (rho, z): numpy's forms can differ by an ulp.
    steps, step_of = _distinct(dx, dy)
    offsets = np.array([math.hypot(d.real, d.imag) for d in steps])[step_of]
    z_grid = np.broadcast_to(np.array(zs, dtype=float), dx.shape)
    geometry, geometry_of = _distinct(offsets, z_grid)
    angles = np.array([math.atan2(g.real, g.imag) for g in geometry])[geometry_of]
    fov = np.array([user.fov_half_angle for user in users], dtype=float)
    visible = ~(angles > fov[:, None])
    # Batch keys, computed once per AP and once per user rather than per link.
    sources: dict = {}
    ap_key = np.array([sources.setdefault((ap.beam, ap.lens, z), len(sources))
                       for ap, z in zip(aps, zs)])
    discs: dict = {}
    user_key = np.array([discs.setdefault(a, len(discs)) for a in apertures])
    batch = ap_key[None, :] * len(discs) + user_key[:, None]

    gains = np.zeros(offsets.shape)
    keys, first = np.unique(batch[visible], return_index=True)
    for key in keys[np.argsort(first)]:  # in the order of each batch's first link
        links = visible & (batch == key)
        u, a = np.argwhere(links)[0]
        ap, z, aperture = aps[a], zs[a], apertures[u]
        rho, inverse = np.unique(offsets[links], return_inverse=True)
        eff_beam, z_eff = _link_source(ap.beam, ap.lens, z, float(rho[0]), aperture)
        h = _disc_capture(eff_beam, z_eff, rho, aperture)[inverse]
        if np.isnan(h).any():
            raise _not_converged(z, float(offsets[links][np.isnan(h)][0]), aperture)
        gains[links] = h
    distances = z_grid.copy()
    return ChannelMatrix(gains=gains, distances=distances, offsets=offsets)
