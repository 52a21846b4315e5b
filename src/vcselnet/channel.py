"""Line-of-sight optical channel: captured power fractions per (user, AP) link.

Each entry of the channel matrix is the fraction of an AP's emitted power
landing on a user's detector disc. The beam's intensity, summed over its
transverse modes, depends only on the distance r from its axis, so the disc
integral is one radial integral: over r, each circle about the axis weighted
by the angle of it that lies in the disc (see _radial_capture). Links
arriving outside a receiver's field of view contribute zero. Wall
reflections are out of scope.

A build follows a plan made from positions alone (link_geometry): the one
drop from the ceiling to the receive plane, every link's offset, and the
visible links batched by receiver aperture with each batch's distinct
offsets. The build groups its own APs into sources, (beam, lens) pairs
equal by value (distinct_sources), and integrates each source once per
distinct offset, reading the source's beam constants from one table row.

Every gain below _GAIN_FLOOR (1e-30) is exactly +0.0. Most such links are
never integrated: the beam's closed-form tail T(X), the fraction of its power
outside x = 2 r^2 / w_z^2 = X, bounds what a disc can capture, and an offset
whose nearest disc point lies past the X where T falls to the floor is
skipped (see _dark_x).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .beam_optics import (BeamSpec, LensSpec, beam_radius, mode_constants, mode_sum,
                          transformed_source)
from .errors import DomainError
from .scene import Scene

# Relative convergence target for the adaptive disc quadrature.
_QUAD_RTOL = 1e-8
_QUAD_START_ORDER = 16
_QUAD_MAX_ORDER = 1024
# Gains below this are +0.0, whether screened out or computed. At 1 W emitted
# such a link carries at most 1e-30 A of photocurrent, 24 orders below the
# default receiver's 1.35 uA thermal-noise current, yet near-zero entries slow
# zero forcing's SVD several-fold. Over 336 random points in the compact
# four-AP room, some with cond(H) ~ 1e9, flooring at the quadrature's 1e-16
# absolute tolerance moves the ZF scale by up to 8.7e-8 relative, 1e-20 by
# 2e-11 and 1e-30 by 2.8e-16.
_GAIN_FLOOR = 1e-30
# The disc integral stops where the beam's tail T falls to this: the power it
# drops is 16 orders below the floor, so no gain at or above the floor moves.
# (Stopping at the floor itself moves gains just above it by up to 1.1 %.)
_CUT_TAIL = 1e-46
# exp(-x) is +0.0 in float64 for every x > ~745.13, and mode_sum is 0
# wherever exp(-x) is, so every offset past this x captures exactly +0.0
# whatever the modes: the screen never starts further out. The margin above
# 745.13 covers the rounding of the node radii. (The widest mode BeamSpec
# admits, p = 12 and l = 107, falls to the floor by x = 356.23.)
_MAX_DARK_X = 750.0
# Fewer links than this are not deduplicated (see _distinct).
_DEDUP_MIN_LINKS = 64
_POSITION, _BEAM, _LENS = (operator.attrgetter(name) for name in ("position", "beam", "lens"))


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


def _tail_polynomial(modes) -> tuple[list[int], int]:
    """Integers a_j and D with T(X) = exp(-X) sum_j a_j X^j / D, the fraction
    of the beam's power outside x = 2 r^2 / w_z^2 = X, at any z.

    In x, mode (p, l) carries the density p!/(p+l)! x^l L_p^l(x)^2 exp(-x),
    with L_p^l(x) = sum_m (-1)^m C(p+l, p-m) x^m / m!. So p! L_p^l has
    integer coefficients b_m, and x^l (p! L_p^l)^2 integer coefficients e_k.
    With Gamma(k+1, X) = k! exp(-X) sum_{j<=k} X^j / j!, the mode adds
    frac * sum_{k>=j} e_k k! / (j! p! (p+l)!) to the coefficient of X^j.
    Each float frac is an exact binary fraction, so the sum is exact: the
    alternating e_k cancel without rounding.
    """
    degree = max(2 * p + l for p, l, _ in modes)
    terms = []
    for p, l, frac in modes:
        b = [(-1) ** m * math.comb(p + l, p - m) * math.perm(p, p - m) for m in range(p + 1)]
        e = [0] * (2 * p + l + 1)
        for i, b_i in enumerate(b):
            for j, b_j in enumerate(b):
                e[i + j + l] += b_i * b_j
        numerator, scale = frac.as_integer_ratio()
        terms.append((e, numerator, scale * math.factorial(p) * math.factorial(p + l)))
    denominator = math.factorial(degree) * math.lcm(*(t[2] for t in terms))
    a = [0] * (degree + 1)
    for e, numerator, scale in terms:
        upper = 0  # sum_{k>=j} e_k k!
        for j in range(len(e) - 1, -1, -1):
            upper += e[j] * math.factorial(j)
            a[j] += numerator * upper * (denominator // (scale * math.factorial(j)))
    return a, denominator


def _power_outside(x: float, polynomial: tuple[list[int], int]) -> float:
    """T(x) for x >= 0 from _tail_polynomial: the polynomial is evaluated
    exactly at x's binary fraction n / d, so only the logarithms and the
    final exp round, and neither exp(-x) nor x^j under- or overflows."""
    a, denominator = polynomial
    n, d = float(x).as_integer_ratio()
    acc, d_power = 0, 1  # acc = sum_j a_j n^j d^(K-j) once the loop is done
    for a_j in reversed(a):
        acc = acc * n + a_j * d_power
        d_power *= d
    return math.exp(math.log(acc) - math.log(denominator * d_power // d) - x)


@lru_cache(maxsize=64)
def _dark_x(modes, level: float = _GAIN_FLOOR) -> float:
    """The least multiple of 0.01 with T(X) <= level for a mode set, or
    _MAX_DARK_X if T is still above level there.

    At the default level, the floor, it is the screen's threshold: no point
    of a disc of radius a whose centre sits rho > a off the beam axis is
    closer to the axis than rho - a, so it captures at most
    T(2 (rho - a)^2 / w_z^2), below the floor wherever that x exceeds the
    threshold: 86.12 for DEFAULT_MODES, 69.08 for TEM00. At _CUT_TAIL it is
    where the disc integral stops (124.81 and 105.92). T falls
    monotonically, so bisection on the 0.01 grid finds it, once per mode set
    and level.
    """
    polynomial = _tail_polynomial(modes)
    lo, hi = 0, round(_MAX_DARK_X * 100)  # in hundredths; T(lo) > level throughout
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_outside(mid / 100, polynomial) <= level:
            hi = mid
        else:
            lo = mid
    return hi / 100


@lru_cache(maxsize=16)
def _radial_nodes(orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Unit Gauss-Legendre nodes and weights for both segments of
    _radial_capture, each segment's orders side by side. For the circles,
    t = (x + 1) / 2 with weight pi w (2 pi times the half length); for the
    arcs, -cos theta at theta = pi (x + 1) / 2 with weight pi w sin theta
    (2 for 2 psi, pi / 2 for dtheta / dx, sin theta for d(-cos theta))."""
    rules = [np.polynomial.legendre.leggauss(order) for order in orders]
    t = np.concatenate([0.5 * (x + 1.0) for x, _ in rules])
    theta = np.concatenate([0.5 * math.pi * (x + 1.0) for x, _ in rules])
    w = np.concatenate([w for _, w in rules])
    nodes = t, math.pi * w, -np.cos(theta), math.pi * w * np.sin(theta)
    for a in nodes:  # shared by every caller through the cache
        a.flags.writeable = False
    return nodes


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum, by halving a power-of-two number of columns: only
    elementwise adds, so a row's sum does not depend on the other rows."""
    while a.shape[1] > 1:
        a = a[:, ::2] + a[:, 1::2]
    return a[:, 0]


def _radial_capture(modes, consts: np.ndarray, rho: np.ndarray, aperture_radius: float,
                    r_cut: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Fixed-order Gauss-Legendre disc integrals in the beam's own radius r:
    one array per order in orders, one integral per offset in rho. Each
    offset has its own row of consts, [w_z^2, c...] of its source (see
    mode_constants), and its own cut radius in r_cut, past which the beam
    carries no power that counts; every source has the mode set modes.

    The intensity depends on r alone, so the disc integral is
    int_0^min(a - rho, r_cut) I(r) 2 pi r dr, where every circle lies in
    the disc, plus int_|rho - a|^min(rho + a, r_cut) I(r) 2 psi(r) r dr,
    where its arc of half angle psi = arccos((r^2 + rho^2 - a^2) / (2 r
    rho)) does. The arcs are taken in s = sqrt(r / hi), hi = min(rho + a,
    r_cut), as s = mid - half cos theta, which smooths psi's square-root
    ends. When the beam axis sits near the disc's edge, psi changes on the
    scale |rho - a| near the axis: the square root spreads that over more
    nodes than r itself would (by r alone, links within 1e-4 of the edge
    were 2e-10 off; a logarithm instead lost up to 5e-7 on beams with
    l >= 3, whose arcs' weight rises as r^(2l+1)). An order takes `order`
    nodes per segment; all nodes go to one mode_sum call.
    """
    a = aperture_radius
    t, w_t, c, w_c = _radial_nodes(orders)
    rho, r_cut = rho[:, None], r_cut[:, None]
    inner = np.clip(a - rho, 0.0, r_cut)
    lo = np.abs(rho - a)
    hi = np.maximum(lo, np.minimum(rho + a, r_cut))
    s_lo = np.sqrt(lo / hi)
    mid, half = 0.5 * (1.0 + s_lo), 0.5 * (1.0 - s_lo)
    s = mid + half * c
    r_in, r_arc = inner * t, hi * (s * s)
    # An empty arc segment (half = 0, as at rho = 0) has zero weights: any
    # finite psi will do there.
    rho_arc = np.where(half > 0.0, rho, 1.0)
    cos_psi = (r_arc * r_arc + (rho - a) * (rho + a)) / (2.0 * r_arc * rho_arc)
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
    r = np.concatenate([r_in, r_arc], axis=1)
    # dr = 2 hi s ds
    weights = np.concatenate([inner * w_t * r_in, half * w_c * psi * r_arc * (2.0 * hi * s)],
                             axis=1)
    w_z_sq, *cs = consts.T[:, :, None]
    terms = mode_sum(2.0 * np.square(r) / w_z_sq, modes, cs) * weights
    sums, start = [], 0
    for order in orders:
        arc = start + t.size
        sums.append(_row_sums(terms[:, start : start + order])
                    + _row_sums(terms[:, arc : arc + order]))
        start += order
    return sums


def _disc_capture(sources: list[tuple], rho: np.ndarray, aperture_radius: float) -> np.ndarray:
    """Adaptive disc capture: one row per (beam, distance) source, all with
    the first one's modes, and one column per offset in rho; each value
    clipped to [0, 1], and +0.0 wherever it falls below _GAIN_FLOOR.

    Each source's mode_constants fill one row of a (sources x (1 + modes))
    table. All sources' links run through one pass, each round's nodes in
    one mode_sum call, every link reading its source's row of the table by
    index. Every link's value is the one its source gives alone.

    Offsets whose nearest disc point lies past the beam's tail threshold
    (see _dark_x) capture less than the floor and are never evaluated. The
    rest are integrated radially (see _radial_capture) out to the radius
    where the beam's tail falls to _CUT_TAIL. The order doubles from 16
    until a link's value changes by less than 1e-8 relative; converged links
    drop out. The first round integrates orders 16 and 32 in one kernel
    call, as the first comparison needs both; each later round one order.
    Links still open after order 1024 come back as NaN.
    """
    modes = sources[0][0].modes
    result = np.full((len(sources), rho.size), np.nan)
    consts = np.array([mode_constants(z, beam) for beam, z in sources])
    r_cut = np.empty(len(sources))
    gap = rho - aperture_radius
    for i, (beam, z) in enumerate(sources):
        w_z = beam_radius(z, beam)
        result[i, (gap > 0.0) & (2.0 * gap**2 / w_z**2 > _dark_x(modes))] = 0.0
        r_cut[i] = w_z * math.sqrt(0.5 * _dark_x(modes, _CUT_TAIL))
    active = np.flatnonzero(np.isnan(result))  # links, numbered source-major
    flat = result.reshape(-1)
    orders: tuple[int, ...] = (_QUAD_START_ORDER, 2 * _QUAD_START_ORDER)
    while active.size and orders[-1] <= _QUAD_MAX_ORDER:
        source, offset = np.divmod(active, rho.size)
        *earlier, cur = _radial_capture(modes, consts[source], rho[offset], aperture_radius,
                                        r_cut[source], orders)
        # The round's last order against the order before it: in the first
        # round its own first order, later the previous round's.
        if earlier:
            prev = earlier[-1]
        done = np.abs(cur - prev) <= _QUAD_RTOL * np.abs(cur) + 1e-16
        flat[active[done]] = np.clip(cur[done], 0.0, 1.0)
        active, prev = active[~done], cur[~done]
        orders = (2 * orders[-1],)
    result[result < _GAIN_FLOOR] = 0.0
    return result


def _source(beam: BeamSpec, lens: LensSpec | None, z: float) -> tuple[BeamSpec, float]:
    """The beam and distance the quadrature sees for a source whose links
    drop z, or DomainError if z or the beam's radius there is out of domain.
    With a lens, intensities come from the transformed beam whose waist sits
    d2 past the lens, so the effective propagation distance is z - d2."""
    if not 0 < z < math.inf:
        raise DomainError(f"link distance must be positive and finite, got {z!r}")
    eff_beam, waist_offset = transformed_source(beam, lens)
    z_eff = z - waist_offset
    if lens is not None and z_eff <= 0:
        raise DomainError(
            f"link distance {z!r} m does not reach past the transformed waist at "
            f"{waist_offset!r} m behind the lens"
        )
    beam_radius(z_eff, eff_beam)
    return eff_beam, z_eff


def _link_source(
    beam: BeamSpec, lens: LensSpec | None, z: float, rho: float, aperture_radius: float
) -> tuple[BeamSpec, float]:
    """_source for one link, once its offset and aperture are checked: z,
    rho and the aperture must all be finite."""
    if not 0 <= rho < math.inf:
        raise DomainError(f"lateral offset must be >= 0 and finite, got {rho!r}")
    if not 0 < aperture_radius < math.inf:
        raise DomainError(f"aperture radius must be positive and finite, got {aperture_radius!r}")
    return _source(beam, lens, z)


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
    The intensity is integrated radially about the beam axis, and the
    order doubles until the result changes by less than 1e-8 relative;
    the result is clipped to [0, 1], and a fraction below
    _GAIN_FLOOR (1e-30) is +0.0. A disc so far off axis that the beam's tail
    bounds its capture below the floor is never integrated.
    """
    source = _link_source(beam, lens, z, rho, aperture_radius)
    h = float(_disc_capture([source], np.array([float(rho)]), aperture_radius)[0, 0])
    if math.isnan(h):
        raise _not_converged(z, rho, aperture_radius)
    return h


def _distinct(a: np.ndarray, b: np.ndarray) -> tuple[list[float], list[float], np.ndarray]:
    """Groups of elements whose (a, b) pairs are bit-identical: each group's a
    and b as lists, and every element's group index, shaped like a.

    One sort by a uint64 key, the bits of a xor the bits of b with their
    halves swapped, puts equal pairs side by side, and a group starts
    wherever the bits change. Pairs whose keys collide may split into more
    groups but never share one, so every element gets its own values back
    exactly. Below _DEDUP_MIN_LINKS elements each element is its own group:
    there, sorting costs more than the repeats it could save.
    """
    a_flat, b_flat = np.ravel(a), np.ravel(b)
    if a.size < _DEDUP_MIN_LINKS:
        return a_flat.tolist(), b_flat.tolist(), np.arange(a.size).reshape(a.shape)
    a_bits, b_bits = a_flat.view(np.uint64), b_flat.view(np.uint64)
    half = np.uint64(32)
    order = np.argsort(a_bits ^ ((b_bits << half) | (b_bits >> half)))
    a_bits, b_bits = a_bits[order], b_bits[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    starts[1:] = (a_bits[1:] != a_bits[:-1]) | (b_bits[1:] != b_bits[:-1])
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    first = order[starts]
    return a_flat[first].tolist(), b_flat[first].tolist(), group.reshape(a.shape)


class LinkGeometry(NamedTuple):
    """What a channel build computes from positions alone, reusable while
    only the beams and lenses change.

    users, aps and rx_plane_height are those of the scene it was built from,
    and z is the drop from the ceiling to the receive plane. batches is the
    plan: the visible links grouped by their user's aperture. Each batch is
    (links, link_aps, aperture, rho, inverse): the links' flat indices into
    the (users x aps) matrix, each link's AP, the batch's distinct offsets
    (ascending) and each link's index into them. Which APs share a source
    is left to each build.

    points lists the AP tuples of the scenes a sweep will build on it, and
    captures maps each integrated point's index to what _integrate returned
    for it (see build_channel_matrix).
    """

    users: tuple
    aps: tuple
    rx_plane_height: float
    z: float
    offsets: np.ndarray
    batches: tuple[tuple, ...]
    points: tuple[tuple, ...]
    captures: dict


def link_geometry(scene: Scene, points: tuple[tuple, ...] = ()) -> LinkGeometry:
    """The scene's link geometry and batch plan (see build_channel_matrix),
    listing points: the AP tuples of scenes that differ from this one only
    in their beams and lenses and will be built on it, such as a sweep's.

    Every AP sits at the ceiling (see Scene), so every link drops the same
    z. math.hypot runs once per distinct (dx, dy) and math.atan2 once per
    distinct offset: numpy's forms can differ by an ulp.
    """
    aps, users = scene.aps, scene.users
    z = aps[0].position[2] - scene.room.rx_plane_height
    ap_xy = np.array([ap.position[:2] for ap in aps], dtype=float)
    user_xy = np.array([user.position for user in users], dtype=float)
    dx = user_xy[:, None, 0] - ap_xy[None, :, 0]
    dy = user_xy[:, None, 1] - ap_xy[None, :, 1]
    step_x, step_y, step_of = _distinct(dx, dy)
    distinct, step_offset = np.unique([math.hypot(x, y) for x, y in zip(step_x, step_y)],
                                      return_inverse=True)
    offset_of = step_offset[step_of]  # each link's index into the sorted distinct offsets
    angles = np.array([math.atan2(rho, z) for rho in distinct.tolist()])
    fov = np.array([user.fov_half_angle for user in users], dtype=float)
    visible = ~(angles[offset_of] > fov[:, None])
    discs: dict = {}  # aperture -> index, in the order of each one's first user
    user_disc = np.array([discs.setdefault(math.sqrt(user.detector_area / math.pi), len(discs))
                          for user in users])
    batches = []
    for d, aperture in enumerate(discs):
        links = np.flatnonzero(visible & (user_disc == d)[:, None])
        if links.size:
            # The distinct offsets are sorted, so a batch's are those its links
            # use, and each keeps its rank among them.
            index = offset_of.flat[links]
            present = np.bincount(index, minlength=distinct.size) > 0
            batches.append((links, links % len(aps), aperture, distinct[present],
                            (np.cumsum(present) - 1)[index]))
    return LinkGeometry(users, aps, scene.room.rx_plane_height, z, distinct[offset_of],
                        tuple(batches), tuple(points), {})


def _check_geometry(scene: Scene, geometry: LinkGeometry) -> None:
    """Raise DomainError unless geometry was built for this scene's users, AP
    positions and receive plane.

    Users and AP positions are compared by identity, which keeps the check
    cheap: a scene rebuilt with other beams or lenses keeps them.
    """
    aps = scene.aps
    if (
        scene.users is not geometry.users
        or scene.room.rx_plane_height != geometry.rx_plane_height
        or len(aps) != len(geometry.aps)
        or not all(map(operator.is_, map(_POSITION, aps), map(_POSITION, geometry.aps)))
    ):
        raise DomainError("link geometry was built for another scene's users or access points")


def distinct_sources(aps: tuple) -> tuple[list[tuple], np.ndarray]:
    """The distinct (beam, lens) pairs of aps, by value, and each AP's index
    into them. APs are grouped by their beam and lens objects first, so each
    distinct pair of objects is hashed by value once, not each AP's."""
    beams, lenses = list(map(_BEAM, aps)), list(map(_LENS, aps))
    keys = list(zip(map(id, beams), map(id, lenses)))
    sources: dict = {}  # (beam, lens) -> index
    index = {key: sources.setdefault(pair, len(sources))
             for key, pair in dict(zip(keys, zip(beams, lenses))).items()}
    return list(sources), np.array(list(map(index.__getitem__, keys)))


def _integrate(geometry: LinkGeometry, points: list[tuple]) -> list[tuple]:
    """Each point's (source_of, captures): its APs' indices into its
    sources (see distinct_sources) and, per batch, one row per source of
    captures at the batch's distinct offsets.

    Each point's sources are checked and transformed once (_source). Per
    batch, the sources of all points that share a mode set go through one
    _disc_capture pass. A source out of domain keeps rows of NaN: the build
    that reads them raises the error.
    """
    results, sets = [], {}  # id(modes) -> [(captures, row, (beam, distance))]
    for aps in points:
        pairs, source_of = distinct_sources(aps)
        captures = [np.full((len(pairs), rho.size), np.nan) for *_, rho, _ in geometry.batches]
        results.append((source_of, captures))
        for row, (beam, lens) in enumerate(pairs):
            try:
                source = _source(beam, lens, geometry.z)
            except DomainError:
                continue
            sets.setdefault(id(source[0].modes), []).append((captures, row, source))
    for b, (_, _, aperture, rho, _) in enumerate(geometry.batches):
        for members in sets.values():
            captured = _disc_capture([source for *_, source in members], rho, aperture)
            for (captures, row, _), got in zip(members, captured):
                captures[b][row] = got
    return results


def build_channel_matrix(scene: Scene, geometry: LinkGeometry | None = None) -> ChannelMatrix:
    """Evaluate every (user, AP) link in the scene.

    Beams point straight down, so the propagation distance is the vertical
    drop from the ceiling to the receive plane and the lateral offset is the
    horizontal AP-user distance. Links whose arrival angle at the detector
    exceeds the user's field-of-view half angle are zeroed. The detector
    disc lies in the receive plane, perpendicular to the beam axis, so the
    integral over it is already the captured power: no incidence cosine.

    Links sharing a user aperture form one batch, and each source (beam,
    lens) integrates each distinct offset in a batch once, unless the beam's
    tail screens it out; every gain equals captured_fraction of its link bit
    for bit, so gains below 1e-30 are +0.0. The offsets, angles and batches
    come from geometry when given: link_geometry of a scene that differs from
    this one only in its beams and lenses, which lets a sweep do that work
    once. DomainError if it was built for other users, AP positions or
    receive plane.

    A scene whose APs are one of the geometry's listed points takes its
    captures from the merged pass: the first such build integrates every
    listed point at once, each batch's links of all points in one adaptive
    pass, and later builds only scatter the captures kept for them. Any
    other scene is integrated as a pass of its own. A build whose links are
    out of domain raises that DomainError, and one whose links did not
    converge raises after that check, so a point's errors are raised by its
    own call.
    """
    if geometry is None:
        geometry = link_geometry(scene)
    else:
        _check_geometry(scene, geometry)
    point = next((p for p, aps in enumerate(geometry.points) if aps is scene.aps), None)
    if point is None:
        ((source_of, captures),) = _integrate(geometry, [scene.aps])
    else:
        if point not in geometry.captures:
            pending = [p for p in range(len(geometry.points)) if p not in geometry.captures]
            geometry.captures.update(zip(pending, _integrate(
                geometry, [geometry.points[p] for p in pending])))
        source_of, captures = geometry.captures[point]
    gains = np.zeros(geometry.offsets.shape)
    flat = gains.reshape(-1)
    for (links, link_aps, _, _, inverse), values in zip(geometry.batches, captures):
        flat[links] = values[source_of[link_aps], inverse]
    failed = np.flatnonzero(np.isnan(flat)).tolist()
    if failed:
        n_aps = len(scene.aps)
        for k in failed:
            _source(scene.aps[k % n_aps].beam, scene.aps[k % n_aps].lens, geometry.z)
        user = scene.users[failed[0] // n_aps]
        raise _not_converged(geometry.z, float(geometry.offsets.flat[failed[0]]),
                             math.sqrt(user.detector_area / math.pi))
    # A geometry can serve many calls: each matrix gets arrays of its own.
    return ChannelMatrix(gains=gains, distances=np.full(gains.shape, geometry.z),
                         offsets=geometry.offsets.copy())
