"""Command-line front end for beam-waist sweeps.

Reads an INI scene description (or the built-in defaults), runs the sweep,
and writes CSVs into the output directory. Exit codes are stable so shell
pipelines can branch on the failure class; see errors.exit_code_for.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EXIT_OK, EXIT_USAGE, ConfigError, exit_code_for
from .scene import load_scene
from .sweep import SweepSpec, dump_channel_csv, dump_precoder_csv, emit_outputs, run_sweep


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {text!r}")
    if not seeds:
        raise ConfigError(f"--seeds: no seeds in {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcselnet",
        description=(
            "Sweep the VCSEL beam waist and report eye-safe sum rate and "
            "energy efficiency with and without the transmitter micro-lens."
        ),
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PATH",
        help="INI scene description; defaults omit the exposure limit, which a sweep requires",
    )
    parser.add_argument("--waist-start", type=float, default=SweepSpec.waist_start, metavar="M",
                        help="first beam waist in metres (default %(default)s)")
    parser.add_argument("--waist-end", type=float, default=SweepSpec.waist_end, metavar="M",
                        help="last beam waist in metres (default %(default)s)")
    parser.add_argument("--steps", type=int, default=SweepSpec.steps,
                        help="number of waist grid points (default %(default)s)")
    parser.add_argument("--lens", choices=("on", "off", "both"), default="both",
                        help="lens modes to evaluate (default both)")
    parser.add_argument("--seeds", type=str, default=None, metavar="N[,N...]",
                        help="comma-separated replicate seeds for users.placement = random "
                             "(default: users.seed)")
    parser.add_argument("--rate-model", choices=("shannon", "ook"), default="shannon",
                        help="per-user rate model (default shannon)")
    parser.add_argument("--out", type=Path, default=Path("sweep_out"), metavar="DIR",
                        help="output directory (default sweep_out)")
    parser.add_argument("--dump-channel", action="store_true",
                        help="also write per-point channel matrices (first seed)")
    parser.add_argument("--dump-precoder", action="store_true",
                        help="also write per-point precoder matrices (first seed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        if args.config is not None:
            scene = load_scene(args.config.read_text(encoding="utf-8"))
        else:
            scene = load_scene("")
        for warning in scene.warnings:
            print(f"warning: {warning}", file=sys.stderr)

        modes = ("off", "on") if args.lens == "both" else (args.lens,)
        sweep = SweepSpec(
            waist_start=args.waist_start,
            waist_end=args.waist_end,
            steps=args.steps,
            lens_modes=modes,
            seeds=None if args.seeds is None else _parse_seeds(args.seeds),
        )
        dump = args.dump_channel or args.dump_precoder
        result = run_sweep(scene, sweep, rate_model=args.rate_model, collect_artifacts=dump)
        written = emit_outputs(result, args.out)
        for (w_idx, mode), (h, precoder) in sorted(result.artifacts.items()):
            if args.dump_channel:
                path = args.out / f"channel_w{w_idx:02d}_{mode}.csv"
                dump_channel_csv(h, path)
                written.append(path)
            if args.dump_precoder:
                path = args.out / f"precoder_w{w_idx:02d}_{mode}.csv"
                dump_precoder_csv(precoder, path)
                written.append(path)
        for path in written:
            print(path)
        return EXIT_OK
    except Exception as exc:  # map every failure class to a stable exit code
        print(f"vcselnet: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
