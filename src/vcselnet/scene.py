"""Scene description and config round-tripping.

A Scene is the immutable input to every evaluation: room geometry, ceiling
access points (each an N x N VCSEL array treated as one co-located source),
user terminals on the receive plane, electrical parameters and the
eye-safety inputs. Scenes load from a flat INI-style document (sections and
key = value lines, SI units annotated in each key name) and serialize back
losslessly. Loading only parses and validates: no power cap or other
physics is computed until a scene is evaluated.
"""

from __future__ import annotations

import configparser
import math
import numbers
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .beam_optics import BeamSpec, LensSpec
from .errors import (ConfigError, DomainError, InfeasibleError, replace_unchecked,
                     require_positive)
from .eye_safety import SafetySpec

_DEFAULT_AP_POSITIONS = ((3.0, 3.0, 3.0), (1.0, 3.0, 3.0), (3.0, 1.0, 3.0), (1.0, 1.0, 3.0))
# Config defaults for the fields BeamSpec and LensSpec leave required.
_DEFAULT_BEAM = BeamSpec(5e-6, 850e-9)
_DEFAULT_LENS = LensSpec(127e-6, 133e-6)


@dataclass(frozen=True)
class Room:
    """Rectangular room; the receive plane is horizontal at rx_plane_height."""

    width: float = 5.0
    length: float = 5.0
    height: float = 3.0
    rx_plane_height: float = 1.0

    def __post_init__(self):
        require_positive(ConfigError, self, "width", "length", "height", "rx_plane_height")
        if self.rx_plane_height >= self.height:
            raise ConfigError(
                f"rx_plane_height {self.rx_plane_height!r} must lie below the "
                f"ceiling height {self.height!r}"
            )


@dataclass(frozen=True)
class AccessPoint:
    """Ceiling transmitter: an N x N VCSEL array pointing straight down.

    The array is modeled as a single co-located source with one shared beam,
    emitting array_n^2 times one VCSEL's power, so no element spacing enters
    any evaluation and none is held. Sweeps transmit every VCSEL at its
    eye-safe cap and refuse a scene that sets per_vcsel_power: no evaluation
    reads it, and it is kept only so that dump_scene writes back every key
    load_scene read.
    """

    position: tuple[float, float, float]
    beam: BeamSpec
    lens: LensSpec | None = None
    array_n: int = 5
    per_vcsel_power: float | None = None

    def __post_init__(self):
        if len(self.position) != 3:
            raise ConfigError(f"access point position must be (x, y, z), got {self.position!r}")
        if self.array_n < 1:
            raise ConfigError(f"array_n must be >= 1, got {self.array_n!r}")
        if self.per_vcsel_power is not None:
            require_positive(ConfigError, self, "per_vcsel_power")

    def with_source(self, beam: BeamSpec, lens: LensSpec | None) -> AccessPoint:
        """This AP with another beam and lens: dataclasses.replace's copy,
        built without __init__. __post_init__ checks neither field, and both
        validate themselves."""
        return replace_unchecked(self, beam=beam, lens=lens)


@dataclass(frozen=True)
class UserTerminal:
    """Receiver on the receive plane, photodiode facing the ceiling."""

    position: tuple[float, float]
    detector_area: float = 2e-4
    responsivity: float = 0.4
    fov_half_angle: float = math.pi / 2

    def __post_init__(self):
        if len(self.position) != 2:
            raise ConfigError(f"user position must be (x, y), got {self.position!r}")
        require_positive(ConfigError, self, "detector_area")
        if not 0.0 < self.responsivity <= 1.2:
            raise ConfigError(
                f"responsivity must lie in (0, 1.2] A/W, got {self.responsivity!r}"
            )
        if not 0.0 < self.fov_half_angle <= math.pi / 2:
            raise ConfigError(
                f"fov_half_angle must lie in (0, pi/2] rad, got {self.fov_half_angle!r}"
            )


@dataclass(frozen=True)
class ElectricalSpec:
    """Receiver/driver electrical parameters.

    rx_bandwidth            receiver electrical bandwidth B_e, Hz
    load_resistance         receiver load, ohm
    noise_figure_db         receiver noise figure, dB
    rin_db_per_hz           relative intensity noise, dB/Hz (negative)
    preamp_noise_density    input-referred preamp noise, A^2/Hz
    temperature             K
    bias_current            per-VCSEL bias, A
    drive_voltage           per-VCSEL drive amplitude, V; a VCSEL consumes
                            bias_current * drive_voltage
    fec_limit               BER threshold for the hard-decision rate model
    """

    rx_bandwidth: float = 1.75e9
    load_resistance: float = 50.0
    noise_figure_db: float = 5.0
    rin_db_per_hz: float = -155.0
    preamp_noise_density: float = (4.47e-12) ** 2
    temperature: float = 300.0
    bias_current: float = 9e-3
    drive_voltage: float = 0.9
    fec_limit: float = 1e-3

    def __post_init__(self):
        require_positive(ConfigError, self, "rx_bandwidth", "load_resistance", "noise_figure_db",
                         "preamp_noise_density", "temperature", "bias_current", "drive_voltage")
        if not -math.inf < self.rin_db_per_hz < 0:
            raise ConfigError(
                f"rin_db_per_hz must be negative and finite, got {self.rin_db_per_hz!r}"
            )
        if not 0.0 < self.fec_limit < 1.0:
            raise ConfigError(f"fec_limit must lie in (0, 1), got {self.fec_limit!r}")


@dataclass(frozen=True)
class Scene:
    """Complete static description of one deployment.

    placement records how the users were placed: "on-axis" (under the first
    APs), "random" (drawn from seed) or "explicit" (given positions).
    """

    room: Room
    aps: tuple[AccessPoint, ...]
    users: tuple[UserTerminal, ...]
    electrical: ElectricalSpec
    safety: SafetySpec
    lens_design: LensSpec
    seed: int = 0
    placement: str = "explicit"

    def __post_init__(self):
        if self.placement not in ("on-axis", "random", "explicit"):
            raise ConfigError(f"placement must be on-axis, random or explicit: {self.placement!r}")
        if not self.aps:
            raise ConfigError("scene needs at least one access point")
        if not self.users:
            raise ConfigError("scene needs at least one user")
        if len(self.users) > len(self.aps):
            raise ConfigError(
                f"{len(self.users)} users exceed {len(self.aps)} access points; "
                "zero-forcing needs users <= access points"
            )
        _check_seed(self.seed)
        for i, ap in enumerate(self.aps):
            x, y, z = ap.position
            if not (0.0 <= x <= self.room.width and 0.0 <= y <= self.room.length):
                raise ConfigError(f"access point {i} at {ap.position!r} lies outside the room")
            if z != self.room.height:
                raise ConfigError(
                    f"access point {i} must sit at ceiling height {self.room.height!r}, "
                    f"got z = {z!r}"
                )
        for i, user in enumerate(self.users):
            x, y = user.position
            if not (0.0 <= x <= self.room.width and 0.0 <= y <= self.room.length):
                raise ConfigError(f"user {i} at {user.position!r} lies outside the room footprint")

    def with_aps(self, aps: tuple[AccessPoint, ...]) -> Scene:
        """This scene with other APs: dataclasses.replace's copy, validated
        only if the APs moved.

        __post_init__ checks the APs' count and positions alone, so APs that
        hold this scene's own position objects, one for one (with_source
        copies, say), are taken without __init__; any others are validated.
        """
        if len(aps) == len(self.aps) and all(
            ap.position is ref.position for ap, ref in zip(aps, self.aps)
        ):
            return replace_unchecked(self, aps=aps)
        return replace(self, aps=aps)


def _check_seed(seed) -> None:
    """ConfigError unless seed is a non-negative integer: a bool is refused,
    although Python counts it as one."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

def _converter(convert, kind: str):
    """Parser that reports a failed conversion as "expected <kind>"."""

    def parse(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"expected {kind}, got {raw!r}") from None

    return parse


_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}
_number = _converter(float, "a number")
_integer = _converter(int, "an integer")
_boolean = _converter(lambda raw: _BOOLEANS[raw.lower()], "a boolean")


def _array_side(raw: str) -> int:
    """N from a VCSEL count that must fill an N x N array."""
    count = _integer(raw)
    side = math.isqrt(max(count, 0))
    if side * side != count:
        raise ValueError(f"must be a square number (N x N array), got {count}")
    return side


def _placement(raw: str) -> str:
    if raw not in ("on-axis", "random"):
        raise ValueError(f"expected 'on-axis' or 'random', got {raw!r}")
    return raw


def _positions(arity: int):
    """Parser of "(a, b); (c, d)" position lists of arity-number tuples."""

    def parse(text: str) -> tuple[tuple[float, ...], ...]:
        out = []
        for chunk in text.replace("\n", ";").split(";"):
            chunk = chunk.strip().strip("()")
            if not chunk:
                continue
            parts = [s for s in (p.strip() for p in chunk.split(",")) if s]
            if len(parts) != arity:
                raise ValueError(f"expected tuples of {arity} numbers, got {chunk!r}")
            out.append(tuple(float(s) for s in parts))
        return tuple(out)

    return parse


def _modes(text: str) -> tuple[tuple[int, int, float], ...]:
    """Parse "p,l:fraction; p,l:fraction" mode lists."""
    modes = []
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            indices, frac = chunk.split(":")
            p_s, l_s = indices.split(",")
            modes.append((int(p_s), int(l_s), float(frac)))
        except ValueError:
            raise ValueError(f"expected 'p,l:fraction' entries, got {chunk!r}") from None
    return tuple(modes)


def _repr(value) -> str | None:
    """repr round-trips every float bit for bit; an unset optional is omitted."""
    return None if value is None else repr(value)


def _format_modes(modes) -> str:
    return "; ".join(f"{p},{l}:{frac!r}" for p, l, frac in modes)


def _format_positions(positions) -> str:
    return "; ".join("(" + ", ".join(map(repr, pos)) + ")" for pos in positions)


class _Key(NamedTuple):
    """One config key: where it lives in the file and in the Scene.

    owner names the objects that hold the field (see dump_scene); no two keys
    set one owner's field. parse turns the raw text into the field value;
    format turns the field value back into text, or None to omit the key.
    """

    section: str
    key: str
    owner: str
    field: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str | None]


# Every config key, in file order, one per field. Unset keys leave their field
# at the dataclass default (or _DEFAULT_BEAM / _DEFAULT_LENS).
_KEYS = (
    _Key("room", "width_m", "room", "width", _number, _repr),
    _Key("room", "length_m", "room", "length", _number, _repr),
    _Key("room", "height_m", "room", "height", _number, _repr),
    _Key("room", "rx_plane_height_m", "room", "rx_plane_height", _number, _repr),
    _Key("vcsel", "beam_waist_m", "beam", "w0", _number, _repr),
    _Key("vcsel", "wavelength_m", "beam", "wavelength", _number, _repr),
    _Key("vcsel", "vcsels_per_transmitter", "ap", "array_n", _array_side, lambda n: str(n * n)),
    _Key("vcsel", "mode_powers", "beam", "modes", _modes, _format_modes),
    _Key("vcsel", "per_vcsel_power_w", "ap", "per_vcsel_power", _number, _repr),
    # Read as a flag; the access points then hold scene.lens_design or None.
    _Key("lens", "enabled", "ap", "lens", _boolean, lambda lens: "no" if lens is None else "yes"),
    _Key("lens", "focal_length_m", "lens", "f", _number, _repr),
    _Key("lens", "vcsel_to_lens_m", "lens", "d1", _number, _repr),
    _Key("transmitters", "positions_m", "ap", "position", _positions(3), _format_positions),
    _Key("receiver", "detector_area_m2", "user", "detector_area", _number, _repr),
    _Key("receiver", "responsivity_a_per_w", "user", "responsivity", _number, _repr),
    _Key("receiver", "fov_half_angle_rad", "user", "fov_half_angle", _number, _repr),
    _Key("electrical", "rx_bandwidth_hz", "electrical", "rx_bandwidth", _number, _repr),
    _Key("electrical", "load_resistance_ohm", "electrical", "load_resistance", _number, _repr),
    _Key("electrical", "tia_noise_figure_db", "electrical", "noise_figure_db", _number, _repr),
    _Key("electrical", "rin_db_per_hz", "electrical", "rin_db_per_hz", _number, _repr),
    _Key("electrical", "preamp_noise_a2_per_hz", "electrical", "preamp_noise_density",
         _number, _repr),
    _Key("electrical", "temperature_k", "electrical", "temperature", _number, _repr),
    _Key("electrical", "bias_current_a", "electrical", "bias_current", _number, _repr),
    _Key("electrical", "drive_voltage_v", "electrical", "drive_voltage", _number, _repr),
    _Key("electrical", "fec_limit", "electrical", "fec_limit", _number, _repr),
    _Key("safety", "mpe_w_per_m2", "safety", "mpe", _number, _repr),
    _Key("safety", "pupil_radius_m", "safety", "pupil_radius", _number, _repr),
    _Key("safety", "mhp_floor_m", "safety", "mhp_floor", _number, _repr),
    # An explicit scene writes its positions; any other, the placement that
    # yields them. count is read as the number of users to place and written
    # as the number placed.
    _Key("users", "count", "placed", "users", _integer, lambda users: str(len(users))),
    _Key("users", "seed", "scene", "seed", _integer, _repr),
    _Key("users", "positions_m", "explicit", "position", _positions(2), _format_positions),
    _Key("users", "placement", "placed", "placement", _placement, str),
)
_KNOWN_KEYS = frozenset((k.section, k.key) for k in _KEYS)


def _spec(default, owner: str, values: dict[str, Any]):
    """default with the configured values, its error reported as a
    ConfigError that names the key: the first of the owner's set keys whose
    value fails on the defaults by itself."""
    try:
        return replace(default, **values)
    except (ConfigError, DomainError) as exc:
        for k in _KEYS:
            if k.owner == owner and k.field in values:
                try:
                    replace(default, **{k.field: values[k.field]})
                except (ConfigError, DomainError) as alone:
                    raise ConfigError(f"{k.section}.{k.key}: {alone}") from exc
        raise ConfigError(str(exc)) from exc


def load_scene(text: str) -> Scene:
    """Build a Scene from config text; unset keys take the documented defaults.

    Raises ConfigError for unparseable input (with the offending line), for a
    key or section that is not in the key table, for users.positions_m beside
    users.placement or a differing users.count, or for any field violating
    its invariant. Nothing is computed from the parsed values: a beam that a
    lens cannot relay, or an exposure limit that gives no finite power cap,
    is found when the scene is evaluated.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config key {section}.{key}")

    fields: dict[str, dict[str, Any]] = defaultdict(dict)
    for k in _KEYS:
        raw = parser.get(k.section, k.key, fallback="").strip()
        if raw:
            try:
                fields[k.owner][k.field] = k.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{k.section}.{k.key}: {exc}") from exc

    room = _spec(Room(), "room", fields["room"])
    beam = _spec(_DEFAULT_BEAM, "beam", fields["beam"])
    lens_design = _spec(_DEFAULT_LENS, "lens", fields["lens"])
    ap_fields = fields["ap"]
    lens = lens_design if ap_fields.pop("lens", True) else None
    ap_positions = ap_fields.pop("position", _DEFAULT_AP_POSITIONS)
    template = _spec(AccessPoint(_DEFAULT_AP_POSITIONS[0], beam, lens), "ap", ap_fields)
    aps = tuple(replace(template, position=pos) for pos in ap_positions)
    electrical = _spec(ElectricalSpec(), "electrical", fields["electrical"])
    safety = _spec(SafetySpec(), "safety", fields["safety"])

    # The one user is the receiver all users share; placement positions them.
    scene = Scene(
        room=room,
        aps=aps,
        users=(_spec(UserTerminal((0.0, 0.0)), "user", fields["user"]),),
        electrical=electrical,
        safety=safety,
        lens_design=lens_design,
        seed=fields["scene"].get("seed", Scene.seed),
    )
    placing, positions = fields["placed"], fields["explicit"].get("position")
    if positions is None:
        count = placing.get("users", len(aps))
        return _place(scene, placing.get("placement", "on-axis"), count, scene.seed)
    if "placement" in placing:
        raise ConfigError("users.placement: cannot be combined with users.positions_m")
    if placing.get("users", len(positions)) != len(positions):
        raise ConfigError(
            f"users.count: {placing['users']} disagrees with the "
            f"{len(positions)} positions in users.positions_m"
        )
    return replace(scene, users=tuple(replace(scene.users[0], position=pos)
                                      for pos in positions))


def default_scene() -> Scene:
    """The all-defaults scene (an empty config)."""
    return load_scene("")


def _place(scene: Scene, placement: str, count: int, seed: int) -> Scene:
    """Scene copy with `count` users like its first: under the first APs
    ("on-axis") or drawn uniformly over the room footprint from `seed`
    ("random").

    The users and the scene are copied without re-validation
    (replace_unchecked): with count and seed checked here, every user sits
    inside the room, under a validated AP or drawn over [0, width] x
    [0, length], so each copy equals its dataclasses.replace rebuild.
    """
    if count < 1:
        raise ConfigError(f"user count must be >= 1, got {count}")
    if count > len(scene.aps):
        raise InfeasibleError(f"cannot place {count} users under {len(scene.aps)} access points")
    _check_seed(seed)
    if placement == "random":
        rng = np.random.default_rng(seed)
        positions = zip(rng.uniform(0.0, scene.room.width, count).tolist(),
                        rng.uniform(0.0, scene.room.length, count).tolist())
    else:
        positions = ((ap.position[0], ap.position[1]) for ap in scene.aps[:count])
    users = tuple(replace_unchecked(scene.users[0], position=pos) for pos in positions)
    return replace_unchecked(scene, users=users, seed=seed, placement=placement)


def place_users(scene: Scene, count: int, seed: int) -> Scene:
    """Scene copy with `count` users drawn uniformly over the room footprint.

    Deterministic in `seed`; receiver parameters are taken from the scene's
    first user. Raises InfeasibleError when count exceeds the AP count.
    """
    return _place(scene, "random", count, seed)


def place_users_on_axis(scene: Scene, count: int) -> Scene:
    """Scene copy with `count` users directly under the first `count` APs."""
    return _place(scene, "on-axis", count, scene.seed)


def dump_scene(scene: Scene) -> str:
    """Serialize a Scene to config text; load_scene(dump_scene(s)) == s.

    Floats are written with repr so every numeric field round-trips
    bit-identically. An explicit scene's users are written position by
    position; an on-axis or random scene's as placement, count and seed, so
    its users must be what that placement yields. AP positions are written
    one by one. Every other key holds one value for all the objects that own
    its field: the APs must share one beam, array and lens state, their
    lenses must equal scene.lens_design, and the users must share one
    receiver. Where they differ, ConfigError names the key.
    """
    explicit = scene.placement == "explicit"
    owners = {
        "room": (scene.room,),
        "beam": tuple(ap.beam for ap in scene.aps),
        "ap": scene.aps,
        "lens": (scene.lens_design,) + tuple(ap.lens for ap in scene.aps if ap.lens is not None),
        "user": scene.users,
        "electrical": (scene.electrical,),
        "safety": (scene.safety,),
        "scene": (scene,),
        "explicit": scene.users if explicit else (),
        "placed": () if explicit else (scene,),
    }
    sections: dict[str, list[str]] = {}
    for k in _KEYS:
        values = [getattr(owner, k.field) for owner in owners[k.owner]]
        if not values:
            continue
        if k.field == "position":  # one entry per AP or user
            text = k.format(values)
        else:
            texts = list(dict.fromkeys(k.format(value) for value in values))
            if len(texts) > 1:
                raise ConfigError(
                    f"{k.section}.{k.key}: one key cannot hold the differing values of "
                    f"its {k.owner} objects ({texts[0]} vs {texts[1]})"
                )
            text = texts[0]
        if text is not None:
            sections.setdefault(k.section, [f"[{k.section}]"]).append(f"{k.key} = {text}")
    if not explicit and _place(scene, scene.placement, len(scene.users), scene.seed) != scene:
        raise ConfigError(
            f"users.placement: the users are not what {scene.placement} placement of "
            f"{len(scene.users)} users yields; mark the scene explicit to write their positions"
        )
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"
