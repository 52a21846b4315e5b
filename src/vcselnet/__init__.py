"""Deterministic link-level simulator for indoor VCSEL optical wireless.

Models multimode Laguerre–Gaussian beams from micro-lensed VCSEL array
transmitters, caps emitted power at the eye-safety exposure limit, builds
line-of-sight channel matrices, applies zero-forcing precoding, and reports
per-user SINR, rates, and energy efficiency — plus a beam-waist sweep CLI.
"""

from .beam_optics import (
    DEFAULT_MODES,
    FUNDAMENTAL_MODE,
    MAX_RADIAL_INDEX,
    BeamSpec,
    LensSpec,
    TransformedBeam,
    beam_intensity,
    beam_radius,
    laguerre,
    lens_transform,
    mode_norm_const,
    rayleigh_range,
    transformed_source,
)
from .channel import ChannelMatrix, build_channel_matrix, captured_fraction
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleError,
    SingularChannelError,
    SweepPointError,
    VcselNetError,
    exit_code_for,
)
from .eye_safety import (
    SafetyResult,
    SafetySpec,
    d86_distance,
    max_safe_power,
    most_hazardous_position,
    pupil_fraction,
)
from .link_budget import (
    LinkReport,
    NoiseBreakdown,
    UserLink,
    consumed_power,
    link_report,
    noise_variance,
    q_function,
    user_rate,
)
from .precoding import Precoder, zf_precoder
from .scene import (
    AccessPoint,
    ElectricalSpec,
    Room,
    Scene,
    UserTerminal,
    default_scene,
    dump_scene,
    load_scene,
    place_users,
    place_users_on_axis,
)
from .sweep import SweepResult, SweepRow, SweepSpec, emit_outputs, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AccessPoint",
    "BeamSpec",
    "ChannelMatrix",
    "ConfigError",
    "DEFAULT_MODES",
    "DomainError",
    "ElectricalSpec",
    "FUNDAMENTAL_MODE",
    "InfeasibleError",
    "LensSpec",
    "LinkReport",
    "MAX_RADIAL_INDEX",
    "NoiseBreakdown",
    "Precoder",
    "Room",
    "SafetyResult",
    "SafetySpec",
    "Scene",
    "SingularChannelError",
    "SweepPointError",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "TransformedBeam",
    "UserLink",
    "UserTerminal",
    "VcselNetError",
    "beam_intensity",
    "beam_radius",
    "build_channel_matrix",
    "captured_fraction",
    "consumed_power",
    "d86_distance",
    "default_scene",
    "dump_scene",
    "emit_outputs",
    "exit_code_for",
    "laguerre",
    "lens_transform",
    "link_report",
    "load_scene",
    "max_safe_power",
    "mode_norm_const",
    "most_hazardous_position",
    "noise_variance",
    "place_users",
    "place_users_on_axis",
    "pupil_fraction",
    "q_function",
    "rayleigh_range",
    "run_sweep",
    "transformed_source",
    "user_rate",
    "zf_precoder",
]
