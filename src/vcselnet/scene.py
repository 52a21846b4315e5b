"""Scene description and config round-tripping.

A Scene is the immutable input to every evaluation: room geometry, ceiling
access points (each an N x N VCSEL array treated as one co-located source),
user terminals on the receive plane, electrical parameters and the
eye-safety inputs. Scenes load from a flat INI-style document (sections and
key = value lines, SI units annotated in each key name) and serialize back
losslessly; a deprecated key is parsed, ignored and named in a warning.
"""

from __future__ import annotations

import configparser
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .beam_optics import BeamSpec, LensSpec
from .errors import ConfigError, DomainError, InfeasibleError, require_positive
from .eye_safety import SafetySpec, max_safe_power

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

    The array is modeled as a single co-located source with one shared beam;
    its emitted power is array_n^2 * per_vcsel_power. per_vcsel_power = None
    means "resolve to the eye-safe cap at evaluation time".
    """

    position: tuple[float, float, float]
    beam: BeamSpec
    lens: LensSpec | None = None
    array_n: int = 5
    pitch: float = 10e-6
    per_vcsel_power: float | None = None

    def __post_init__(self):
        if len(self.position) != 3:
            raise ConfigError(f"access point position must be (x, y, z), got {self.position!r}")
        if self.array_n < 1:
            raise ConfigError(f"array_n must be >= 1, got {self.array_n!r}")
        require_positive(ConfigError, self, "pitch")
        if self.per_vcsel_power is not None:
            require_positive(ConfigError, self, "per_vcsel_power")

    def with_source(self, beam: BeamSpec, lens: LensSpec | None) -> AccessPoint:
        """This AP with another beam and lens: dataclasses.replace's copy,
        built without __init__. __post_init__ checks neither field, and both
        validate themselves."""
        ap = object.__new__(AccessPoint)
        ap.__dict__.update(self.__dict__, beam=beam, lens=lens)
        return ap


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
    drive_voltage           per-VCSEL drive amplitude, V
    per_vcsel_consumption   optional wall-plug override, W per VCSEL; when
                            unset, consumption is bias_current * drive_voltage
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
    per_vcsel_consumption: float | None = None
    fec_limit: float = 1e-3

    def __post_init__(self):
        require_positive(ConfigError, self, "rx_bandwidth", "load_resistance", "noise_figure_db",
                         "preamp_noise_density", "temperature", "bias_current", "drive_voltage")
        if not -math.inf < self.rin_db_per_hz < 0:
            raise ConfigError(
                f"rin_db_per_hz must be negative and finite, got {self.rin_db_per_hz!r}"
            )
        if self.per_vcsel_consumption is not None:
            require_positive(ConfigError, self, "per_vcsel_consumption")
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
    warnings: tuple[str, ...] = field(default=(), compare=False)

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
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
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
            scene = object.__new__(Scene)
            scene.__dict__.update(self.__dict__, aps=aps)
            return scene
        return replace(self, aps=aps)


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


def _positions(*arity: int):
    """Parser of "(a, b); (c, d)" position lists with the given tuple sizes."""

    def parse(text: str) -> tuple[tuple[float, ...], ...]:
        out = []
        for chunk in text.replace("\n", ";").split(";"):
            chunk = chunk.strip().strip("()")
            if not chunk:
                continue
            parts = [s for s in (p.strip() for p in chunk.split(",")) if s]
            if len(parts) not in arity:
                raise ValueError(
                    f"expected tuples of {'/'.join(map(str, arity))} numbers, got {chunk!r}"
                )
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

    owner names the objects that hold the field (see dump_scene). parse turns
    the raw text into the field value; format turns the field value back into
    text, or None to omit the key. A key whose format is None is read only;
    one whose owner is "ignored" sets no field, only a warning (load_scene).
    """

    section: str
    key: str
    owner: str
    field: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str | None] | None


# Every config key, in file order. Unset keys leave their field at the
# dataclass default (or _DEFAULT_BEAM / _DEFAULT_LENS). Where two keys set one
# field, the earlier one wins, so the exact unit dump_scene writes (_rad,
# _a2_per_hz) overrides the human-friendly alternative.
_KEYS = (
    _Key("room", "width_m", "room", "width", _number, _repr),
    _Key("room", "length_m", "room", "length", _number, _repr),
    _Key("room", "height_m", "room", "height", _number, _repr),
    _Key("room", "rx_plane_height_m", "room", "rx_plane_height", _number, _repr),
    _Key("vcsel", "beam_waist_m", "beam", "w0", _number, _repr),
    _Key("vcsel", "wavelength_m", "beam", "wavelength", _number, _repr),
    _Key("vcsel", "pitch_m", "ap", "pitch", _number, _repr),
    _Key("vcsel", "vcsels_per_transmitter", "ap", "array_n", _array_side, lambda n: str(n * n)),
    _Key("vcsel", "mode_powers", "beam", "modes", _modes, _format_modes),
    _Key("vcsel", "per_vcsel_power_w", "ap", "per_vcsel_power", _number, _repr),
    # Read as a flag; the access points then hold scene.lens_design or None.
    _Key("lens", "enabled", "ap", "lens", _boolean, lambda lens: "no" if lens is None else "yes"),
    _Key("lens", "focal_length_m", "lens", "f", _number, _repr),
    _Key("lens", "vcsel_to_lens_m", "lens", "d1", _number, _repr),
    _Key("lens", "refractive_index", "ignored", "lens.refractive_index", _number, None),
    _Key("transmitters", "positions_m", "ap", "position", _positions(3), _format_positions),
    _Key("receiver", "detector_area_m2", "user", "detector_area", _number, _repr),
    _Key("receiver", "responsivity_a_per_w", "user", "responsivity", _number, _repr),
    _Key("receiver", "fov_half_angle_rad", "user", "fov_half_angle", _number, _repr),
    _Key("receiver", "fov_half_angle_deg", "user", "fov_half_angle",
         lambda raw: math.radians(_number(raw)), None),
    _Key("electrical", "rx_bandwidth_hz", "electrical", "rx_bandwidth", _number, _repr),
    _Key("electrical", "vcsel_bandwidth_hz", "ignored", "electrical.vcsel_bandwidth_hz",
         _number, None),
    _Key("electrical", "load_resistance_ohm", "electrical", "load_resistance", _number, _repr),
    _Key("electrical", "tia_noise_figure_db", "electrical", "noise_figure_db", _number, _repr),
    _Key("electrical", "rin_db_per_hz", "electrical", "rin_db_per_hz", _number, _repr),
    _Key("electrical", "preamp_noise_a2_per_hz", "electrical", "preamp_noise_density",
         _number, _repr),
    _Key("electrical", "preamp_noise_a_per_sqrt_hz", "electrical", "preamp_noise_density",
         lambda raw: _number(raw) ** 2, None),
    _Key("electrical", "temperature_k", "electrical", "temperature", _number, _repr),
    _Key("electrical", "bias_current_a", "electrical", "bias_current", _number, _repr),
    _Key("electrical", "drive_voltage_v", "electrical", "drive_voltage", _number, _repr),
    _Key("electrical", "per_vcsel_consumption_w", "electrical", "per_vcsel_consumption",
         _number, _repr),
    _Key("electrical", "fec_limit", "electrical", "fec_limit", _number, _repr),
    _Key("safety", "mpe_w_per_m2", "safety", "mpe", _number, _repr),
    _Key("safety", "pupil_radius_m", "safety", "pupil_radius", _number, _repr),
    _Key("safety", "mhp_floor_m", "safety", "mhp_floor", _number, _repr),
    # An explicit scene writes its positions; any other, the placement that
    # yields them. count is read as the number of users to place and written
    # as the number placed.
    _Key("users", "count", "placed", "users", _integer, lambda users: str(len(users))),
    _Key("users", "seed", "scene", "seed", _integer, _repr),
    _Key("users", "positions_m", "explicit", "position", _positions(2, 3), _format_positions),
    _Key("users", "placement", "placed", "placement", _placement, str),
)
_KNOWN_KEYS = frozenset((k.section, k.key) for k in _KEYS)


def _spec(default, owner: str, values: dict[str, Any], parser: configparser.ConfigParser):
    """default with the configured values, its error reported as a
    ConfigError that names the key: the first of the owner's keys set in
    parser whose value fails on the defaults by itself."""
    try:
        return replace(default, **values)
    except (ConfigError, DomainError) as exc:
        for k in _KEYS:
            if k.owner == owner and k.field in values and parser.get(k.section, k.key, fallback=""):
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
    its invariant. A deprecated key (lens.refractive_index,
    electrical.vcsel_bandwidth_hz) must parse as a number and is ignored, and
    when the exposure limit is configured, explicit per-VCSEL powers above
    the eye-safe cap are clamped to it: each attaches a warning to the scene.
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
        if raw and k.field not in fields[k.owner]:
            try:
                fields[k.owner][k.field] = k.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{k.section}.{k.key}: {exc}") from exc

    room = _spec(Room(), "room", fields["room"], parser)
    beam = _spec(_DEFAULT_BEAM, "beam", fields["beam"], parser)
    lens_design = _spec(_DEFAULT_LENS, "lens", fields["lens"], parser)
    ap_fields = fields["ap"]
    lens = lens_design if ap_fields.pop("lens", True) else None
    ap_positions = ap_fields.pop("position", _DEFAULT_AP_POSITIONS)
    template = _spec(AccessPoint(_DEFAULT_AP_POSITIONS[0], beam, lens), "ap", ap_fields, parser)
    aps = tuple(replace(template, position=pos) for pos in ap_positions)
    electrical = _spec(ElectricalSpec(), "electrical", fields["electrical"], parser)
    safety = _spec(SafetySpec(), "safety", fields["safety"], parser)

    warnings = [f"{name} is ignored and will be removed" for name in fields["ignored"]]
    if safety.mpe is not None:
        clamped_aps = []
        for i, ap in enumerate(aps):
            cap = max_safe_power(ap.beam, safety, ap.lens).p_max
            if ap.per_vcsel_power is not None and ap.per_vcsel_power > cap:
                warnings.append(
                    f"access point {i}: per_vcsel_power {ap.per_vcsel_power!r} W exceeds "
                    f"the eye-safe cap {cap!r} W; clamped"
                )
                ap = replace(ap, per_vcsel_power=cap)
            clamped_aps.append(ap)
        aps = tuple(clamped_aps)

    # The one user is the receiver all users share; placement positions them.
    scene = Scene(
        room=room,
        aps=aps,
        users=(_spec(UserTerminal((0.0, 0.0)), "user", fields["user"], parser),),
        electrical=electrical,
        safety=safety,
        lens_design=lens_design,
        seed=fields["scene"].get("seed", Scene.seed),
        warnings=tuple(warnings),
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
    for pos in positions:
        if len(pos) == 3 and pos[2] != room.rx_plane_height:
            raise ConfigError(
                f"users.positions_m: user height {pos[2]!r} differs from the receive "
                f"plane at {room.rx_plane_height!r}"
            )
    return replace(scene, users=tuple(replace(scene.users[0], position=pos[:2])
                                      for pos in positions))


def default_scene() -> Scene:
    """The all-defaults scene (an empty config)."""
    return load_scene("")


def _place(scene: Scene, placement: str, count: int, seed: int) -> Scene:
    """Scene copy with `count` users like its first: under the first APs
    ("on-axis") or drawn uniformly over the room footprint from `seed`
    ("random")."""
    if count < 1:
        raise ConfigError(f"user count must be >= 1, got {count}")
    if count > len(scene.aps):
        raise InfeasibleError(f"cannot place {count} users under {len(scene.aps)} access points")
    if placement == "random":
        rng = np.random.default_rng(seed)
        positions = zip(rng.uniform(0.0, scene.room.width, count).tolist(),
                        rng.uniform(0.0, scene.room.length, count).tolist())
    else:
        positions = ((ap.position[0], ap.position[1]) for ap in scene.aps[:count])
    users = tuple(replace(scene.users[0], position=pos) for pos in positions)
    return replace(scene, users=users, seed=seed, placement=placement)


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
        "ignored": (),
    }
    sections: dict[str, list[str]] = {}
    for k in _KEYS:
        values = [getattr(owner, k.field) for owner in owners[k.owner]]
        if k.format is None or not values:
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
