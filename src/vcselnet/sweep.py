"""Beam-waist sweeps and their on-disk outputs.

A sweep re-evaluates the whole pipeline (eye-safe cap, channel, precoder,
link budget) on a waist grid, optionally for both lens modes, on the
scene's own users; a randomly placed scene is redrawn once per replicate
seed. Transmit power at every point is the per-VCSEL eye-safe cap, so the
exposure limit must be configured and no fixed power may be. Every point
sets one waist and one lens state on all APs, so all points share the first
point's grouping of APs into sources, and a cap is computed once per source.
Output files are deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .channel import ChannelMatrix, build_channel_matrix, distinct_sources, link_geometry
from .errors import ConfigError, DomainError, SweepPointError, VcselNetError
from .eye_safety import max_safe_power
from .link_budget import LinkReport, link_report
from .precoding import Precoder, zf_precoder
from .scene import Scene, place_users

SCHEMA_VERSION = "v1"

_CSV_COLUMNS = (
    "waist_m",
    "lens",
    "seed_count",
    "sum_rate_bps",
    "sum_rate_std",
    "ee_bpj",
    "ee_std",
    "min_user_snr_db",
    "p_max_w",
)


@dataclass(frozen=True)
class SweepSpec:
    """Sweep grid and replication plan.

    waist_start / waist_end   inclusive waist range, m; finite
    steps                     number of grid points (linear spacing)
    lens_modes                subset of ("off", "on")
    seeds                     replicate seeds of a randomly placed scene;
                              None means the scene's own seed
    """

    waist_start: float = 1e-6
    waist_end: float = 8e-6
    steps: int = 8
    lens_modes: tuple[str, ...] = ("off", "on")
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 < self.waist_start < self.waist_end < math.inf:
            raise ConfigError(
                "need 0 < waist_start < waist_end, both finite, got "
                f"{self.waist_start!r}, {self.waist_end!r}"
            )
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps!r}")
        if not self.lens_modes:
            raise ConfigError("at least one lens mode is required")
        for mode in self.lens_modes:
            if mode not in ("off", "on"):
                raise ConfigError(f"lens mode must be 'off' or 'on', got {mode!r}")
        if len(set(self.lens_modes)) != len(self.lens_modes):
            raise ConfigError(f"duplicate lens modes in {self.lens_modes!r}")
        if self.seeds is not None and not self.seeds:
            raise ConfigError("at least one seed is required")
        for seed in self.seeds or ():
            if seed < 0:
                raise ConfigError(f"seeds must be non-negative, got {seed!r}")


@dataclass(frozen=True)
class SweepRow:
    """One (waist, lens mode) grid point aggregated over seeds. Its fields
    are the columns of results.csv, in order (see _CSV_COLUMNS)."""

    waist: float
    lens_mode: str
    seed_count: int
    sum_rate: float
    sum_rate_std: float
    ee: float
    ee_std: float
    min_user_snr_db: float
    p_max: float


@dataclass(frozen=True)
class SweepResult:
    """Rows plus run metadata; artifacts maps (waist index, lens mode) to the
    first-seed (ChannelMatrix, Precoder) pair when collection was requested."""

    rows: tuple[SweepRow, ...]
    metadata: str
    artifacts: dict[tuple[int, str], tuple[ChannelMatrix, Precoder]]


def _configure(scene: Scene, waist: float, lens_mode: str) -> Scene:
    """Scene copy with every AP at the given waist and lens state.

    One beam is rebuilt per distinct beam object, and APs that shared it
    share the rebuilt beam. Only the beams and the lens change, so the APs
    and the scene are copied without re-validation (AccessPoint.with_source,
    Scene.with_aps); each compares equal to its dataclasses.replace rebuild.
    """
    beams = {id(ap.beam): ap.beam for ap in scene.aps}
    rebuilt = {key: replace(beam, w0=waist) for key, beam in beams.items()}
    lens = scene.lens_design if lens_mode == "on" else None
    return scene.with_aps(tuple(ap.with_source(rebuilt[id(ap.beam)], lens) for ap in scene.aps))


def _min_snr_db(report: LinkReport) -> float:
    snr = min(report.snr)
    return 10.0 * math.log10(snr) if snr > 0 else -math.inf


def run_sweep(
    scene: Scene,
    sweep: SweepSpec,
    rate_model: str = "shannon",
    collect_artifacts: bool = False,
) -> SweepResult:
    """Evaluate the grid; rows ordered by (waist, lens mode).

    An on-axis or explicit scene is evaluated once per point, on its own
    users. A random scene is redrawn with place_users for every replicate
    seed (sweep.seeds, else the scene's seed), and the rows report mean/std
    across seeds. Any module error is re-raised as SweepPointError carrying
    the (waist, lens, seed) coordinates.
    """
    if scene.safety.mpe is None:
        raise ConfigError(
            "sweeps transmit at the eye-safe cap; set mpe_w_per_m2 in the [safety] section"
        )
    for i, ap in enumerate(scene.aps):
        if ap.per_vcsel_power is not None:
            raise ConfigError(
                f"sweeps transmit at the eye-safe cap; access point {i} sets a fixed "
                "power: remove per_vcsel_power_w from the [vcsel] section"
            )
    seeds = sweep.seeds if sweep.seeds is not None else (scene.seed,)

    waists = np.linspace(sweep.waist_start, sweep.waist_end, sweep.steps)
    modes = tuple(sorted(sweep.lens_modes))  # "off" before "on"
    rows: list[SweepRow] = []
    artifacts: dict[tuple[int, str], tuple[ChannelMatrix, Precoder]] = {}

    # Only random placement depends on the seed: any other scene is evaluated
    # once, and that evaluation stands for every seed. Users and link
    # geometry depend on positions alone, so both are made once per seed.
    # Each geometry announces every point's sources, so that the first
    # point's channel build integrates the links of every point at once (see
    # build_channel_matrix); each point's own build still raises its errors.
    points = [(w_idx, waist, mode, _configure(scene, waist, mode))
              for w_idx, waist in enumerate(float(w) for w in waists) for mode in modes]
    _, source_of = distinct_sources(points[0][-1].aps)
    firsts = np.unique(source_of, return_index=True)[1].tolist()
    sources = tuple((point.aps[a].beam, point.aps[a].lens) for *_, point in points for a in firsts)
    bases = []
    for seed in seeds if scene.placement == "random" else (None,):
        base = scene if seed is None else place_users(scene, len(scene.users), seed)
        bases.append((seed, base, link_geometry(base, sources)))
    elements = np.array([ap.array_n**2 for ap in scene.aps], dtype=float)  # VCSELs per AP
    for w_idx, waist, mode, point in points:
        seed = None
        try:
            # One cap per source serves every AP with that source and every seed.
            source_caps = [
                max_safe_power(point.aps[a].beam, point.safety, point.aps[a].lens).p_max
                for a in firsts
            ]
            p_max = min(source_caps)
            caps = elements * np.array(source_caps)[source_of]
            reports = []
            for seed, base, geometry in bases:
                placed = point if base is scene else base.with_aps(point.aps)
                h = build_channel_matrix(placed, geometry)
                precoder = zf_precoder(h, caps)
                if collect_artifacts and not reports:
                    artifacts[(w_idx, mode)] = (h, precoder)
                reports.append(link_report(placed, h, precoder, rate_model))
        except VcselNetError as exc:
            where = f"waist={waist!r} m, lens={mode}" + (
                f", seed={seed}" if seed is not None else ""
            )
            raise SweepPointError(f"sweep point failed ({where}): {exc}", exc) from exc
        sum_rates = np.array([report.sum_rate for report in reports])
        ees = np.array([report.energy_efficiency for report in reports])
        min_snrs = np.array([_min_snr_db(report) for report in reports])
        rows.append(
            SweepRow(
                waist=waist,
                lens_mode=mode,
                seed_count=len(seeds),
                sum_rate=float(sum_rates.mean()),
                sum_rate_std=float(sum_rates.std()),
                ee=float(ees.mean()),
                ee_std=float(ees.std()),
                min_user_snr_db=float(min_snrs.mean()),
                p_max=p_max,
            )
        )

    metadata = (
        f"schema={SCHEMA_VERSION} placement={scene.placement} rate_model={rate_model} "
        f"users={len(scene.users)} seeds={','.join(str(s) for s in seeds)} "
        f"lens_modes={','.join(modes)}"
    )
    return SweepResult(rows=tuple(rows), metadata=metadata, artifacts=artifacts)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, comment: str, header, rows) -> Path:
    """Write one CSV file: a '# ' comment line, the header and one line per
    row, each a sequence of cell strings; UTF-8, LF line endings and one
    trailing newline. Every output file goes through here."""
    lines = [f"# {comment}", ",".join(header), *map(",".join, rows)]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def emit_outputs(result: SweepResult, out_dir: Path) -> list[Path]:
    """Write results.csv plus per-figure two-column series files.

    results.csv: one comment line (schema version and run metadata), a header
    and one row per (waist, lens mode). Series files fig_sum_rate.lens_<mode>.csv
    and fig_energy_efficiency.lens_<mode>.csv carry (waist, metric) pairs for
    plotting. Refuses to write anything for an empty result.
    """
    if not result.rows:
        raise DomainError("sweep produced no rows; nothing to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = fields(SweepRow)
    # Annotations are strings here (from __future__ import annotations).
    formats = [_fmt if column.type == "float" else str for column in columns]
    rows = ([fmt(getattr(row, column.name)) for fmt, column in zip(formats, columns)]
            for row in result.rows)
    written = [_write_csv(out_dir / "results.csv", result.metadata, _CSV_COLUMNS, rows)]

    column_of = dict(zip((column.name for column in columns), _CSV_COLUMNS))
    modes = sorted({row.lens_mode for row in result.rows})
    for metric, name in (("sum_rate", "sum_rate"), ("energy_efficiency", "ee")):
        for mode in modes:
            series = ((_fmt(row.waist), _fmt(getattr(row, name)))
                      for row in result.rows if row.lens_mode == mode)
            written.append(_write_csv(out_dir / f"fig_{metric}.lens_{mode}.csv",
                                      f"schema={SCHEMA_VERSION} series={metric} lens={mode}",
                                      (column_of["waist"], column_of[name]), series))
    return written


def dump_channel_csv(h: ChannelMatrix, path: Path) -> None:
    """Channel gains as CSV: one row per user, one column per AP."""
    n_users, n_aps = h.gains.shape
    _write_csv(path, f"schema={SCHEMA_VERSION} matrix=channel users={n_users} aps={n_aps}",
               ["user", *(f"ap_{a}" for a in range(n_aps))],
               ([str(u), *map(_fmt, gains)] for u, gains in enumerate(h.gains)))


def dump_precoder_csv(precoder: Precoder, path: Path) -> None:
    """Precoder weights as CSV: one row per AP, one column per user stream."""
    n_aps, n_users = precoder.g.shape
    _write_csv(path, f"schema={SCHEMA_VERSION} matrix=precoder aps={n_aps} users={n_users} "
                     f"beta={_fmt(precoder.beta)}",
               ["ap", *(f"user_{u}" for u in range(n_users))],
               ([str(a), *map(_fmt, weights)] for a, weights in enumerate(precoder.g)))
