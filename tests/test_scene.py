import dataclasses
import math
import re
from pathlib import Path

import pytest

from vcselnet import (
    AccessPoint,
    BeamSpec,
    ElectricalSpec,
    LensSpec,
    Room,
    SafetySpec,
    Scene,
    UserTerminal,
    default_scene,
    dump_scene,
    load_scene,
    max_safe_power,
    place_users,
    place_users_on_axis,
)
from vcselnet.cli import build_parser
from vcselnet.errors import ConfigError, InfeasibleError
from vcselnet.scene import _KEYS

from conftest import DEFAULT_MPE


class TestDefaults:
    def test_topology(self):
        scene = default_scene()
        assert [ap.position for ap in scene.aps] == [
            (3.0, 3.0, 3.0),
            (1.0, 3.0, 3.0),
            (3.0, 1.0, 3.0),
            (1.0, 1.0, 3.0),
        ]
        assert [u.position for u in scene.users] == [
            (3.0, 3.0),
            (1.0, 3.0),
            (3.0, 1.0),
            (1.0, 1.0),
        ]

    def test_room_and_beam(self):
        scene = default_scene()
        assert (scene.room.width, scene.room.length, scene.room.height) == (5.0, 5.0, 3.0)
        assert scene.room.rx_plane_height == 1.0
        ap = scene.aps[0]
        assert ap.beam.w0 == 5e-6
        assert ap.beam.wavelength == 850e-9
        assert len(ap.beam.modes) == 8
        assert ap.array_n == 5
        assert ap.pitch == 10e-6
        assert ap.per_vcsel_power is None
        assert ap.lens == LensSpec(f=0.127e-3, d1=0.133e-3)
        assert not hasattr(ap.lens, "n_refr")

    def test_receiver_and_electrical(self):
        scene = default_scene()
        user = scene.users[0]
        assert user.detector_area == 2e-4
        assert user.responsivity == 0.4
        assert user.fov_half_angle == pytest.approx(math.pi / 2)
        elec = scene.electrical
        assert elec.rx_bandwidth == 1.75e9
        assert not hasattr(elec, "optical_bandwidth")
        assert elec.load_resistance == 50.0
        assert elec.noise_figure_db == 5.0
        assert elec.rin_db_per_hz == -155.0
        assert elec.preamp_noise_density == pytest.approx((4.47e-12) ** 2, rel=1e-15)
        assert elec.temperature == 300.0
        assert elec.bias_current == 9e-3
        assert elec.drive_voltage == 0.9
        assert elec.fec_limit == 1e-3

    def test_safety_has_no_default_exposure_limit(self):
        scene = default_scene()
        assert scene.safety.mpe is None
        assert scene.safety.pupil_radius == 3.5e-3
        assert scene.safety.mhp_floor == 0.1


class TestLoading:
    @pytest.mark.parametrize("section, key", [("lens", "refractive_index"),
                                              ("electrical", "vcsel_bandwidth_hz")])
    def test_a_deprecated_key_is_parsed_then_ignored_with_one_warning(self, section, key):
        base = f"[safety]\nmpe_w_per_m2 = {DEFAULT_MPE}\n"
        scene = load_scene(base + f"[{section}]\n{key} = 1.7\n")
        assert scene.warnings == (f"{section}.{key} is ignored and will be removed",)
        plain = load_scene(base)
        assert scene == plain and plain.warnings == ()
        assert key not in dump_scene(scene)
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a number"):
            load_scene(base + f"[{section}]\n{key} = high\n")

    def test_overrides(self):
        scene = load_scene(
            """
            [room]
            width_m = 6.0
            length_m = 4.0
            height_m = 2.5
            rx_plane_height_m = 0.8

            [vcsel]
            beam_waist_m = 3e-6
            wavelength_m = 940e-9
            vcsels_per_transmitter = 16
            pitch_m = 12e-6

            [lens]
            enabled = no
            focal_length_m = 2e-4

            [transmitters]
            positions_m = (2.0, 2.0, 2.5); (4.0, 2.0, 2.5)

            [receiver]
            detector_area_m2 = 1e-4
            responsivity_a_per_w = 0.5
            fov_half_angle_deg = 60

            [electrical]
            rx_bandwidth_hz = 1e9
            bias_current_a = 5e-3

            [safety]
            mpe_w_per_m2 = 25.0

            [users]
            count = 2
            """
        )
        assert scene.room.width == 6.0
        assert scene.room.rx_plane_height == 0.8
        assert len(scene.aps) == 2
        ap = scene.aps[0]
        assert ap.beam.w0 == 3e-6
        assert ap.beam.wavelength == 940e-9
        assert ap.array_n == 4
        assert ap.pitch == 12e-6
        assert ap.lens is None  # disabled
        assert scene.lens_design.f == 2e-4  # design retained for sweeps
        assert len(scene.users) == 2
        assert scene.users[0].detector_area == 1e-4
        assert scene.users[0].fov_half_angle == pytest.approx(math.radians(60.0))
        assert scene.electrical.rx_bandwidth == 1e9
        assert scene.electrical.bias_current == 5e-3
        assert scene.safety.mpe == 25.0

    def test_inline_comments(self):
        scene = load_scene(
            """
            [vcsel]
            beam_waist_m = 4e-6  # source waist
            """
        )
        assert scene.aps[0].beam.w0 == 4e-6

    def test_mode_powers_parsing(self):
        scene = load_scene(
            """
            [vcsel]
            mode_powers = 0,0:0.5; 1,2:0.5
            """
        )
        assert scene.aps[0].beam.modes == ((0, 0, 0.5), (1, 2, 0.5))

    def test_malformed_mode_powers(self):
        with pytest.raises(ConfigError, match="mode_powers"):
            load_scene("[vcsel]\nmode_powers = 0:0.5")

    def test_non_square_array_rejected(self):
        with pytest.raises(ConfigError, match="square"):
            load_scene("[vcsel]\nvcsels_per_transmitter = 24")

    def test_bad_number_reports_section_and_key(self):
        with pytest.raises(ConfigError, match=r"room\.width_m"):
            load_scene("[room]\nwidth_m = wide")

    def test_bad_int_reports_section_and_key(self):
        with pytest.raises(ConfigError, match=r"users\.count"):
            load_scene("[users]\ncount = 2.5")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match=r"lens\.enabled"):
            load_scene("[lens]\nenabled = maybe")

    def test_unparseable_document(self):
        with pytest.raises(ConfigError, match="config parse error"):
            load_scene("not an ini line at all")

    def test_explicit_user_positions(self):
        scene = load_scene(
            """
            [users]
            positions_m = (1.0, 1.5); (2.5, 2.0, 1.0)
            """
        )
        assert [u.position for u in scene.users] == [(1.0, 1.5), (2.5, 2.0)]

    def test_count_must_match_explicit_positions(self):
        with pytest.raises(ConfigError, match=r"users\.count"):
            load_scene("[users]\ncount = 3\npositions_m = (1,1); (2,2)")
        assert len(load_scene("[users]\ncount = 2\npositions_m = (1,1); (2,2)").users) == 2

    def test_explicit_positions_exclude_placement(self):
        with pytest.raises(ConfigError, match=r"users\.placement"):
            load_scene("[users]\nplacement = on-axis\npositions_m = (1,1); (2,2)")

    @pytest.mark.parametrize(
        "users, placement",
        [("", "on-axis"), ("placement = random", "random"),
         ("positions_m = (1,1); (2,2)", "explicit")],
    )
    def test_placement_is_recorded(self, users, placement):
        assert load_scene(f"[users]\n{users}").placement == placement

    def test_user_height_off_plane_rejected(self):
        with pytest.raises(ConfigError, match="receive"):
            load_scene("[users]\npositions_m = (1.0, 1.5, 2.0)")

    def test_placement_validation(self):
        with pytest.raises(ConfigError, match="placement"):
            load_scene("[users]\nplacement = grid")

    def test_on_axis_count_exceeding_aps(self):
        with pytest.raises(InfeasibleError):
            load_scene("[users]\ncount = 5")

    def test_random_placement_is_seed_deterministic(self):
        text = "[users]\nplacement = random\ncount = 3\nseed = 11"
        a = load_scene(text)
        b = load_scene(text)
        assert a.users == b.users
        c = load_scene("[users]\nplacement = random\ncount = 3\nseed = 12")
        assert c.users != a.users

    def test_more_users_than_aps_rejected(self):
        with pytest.raises(ConfigError, match="zero-forcing"):
            load_scene(
                "[users]\npositions_m = (1,1); (2,2); (3,3); (4,4); (2,3)"
            )

    def test_user_outside_room_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            load_scene("[users]\npositions_m = (7.0, 1.0)")

    def test_ap_outside_room_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            load_scene("[transmitters]\npositions_m = (9.0, 1.0, 3.0)")

    def test_ap_off_ceiling_rejected(self):
        with pytest.raises(ConfigError, match="ceiling"):
            load_scene("[transmitters]\npositions_m = (1.0, 1.0, 2.0)")

    def test_preamp_sqrt_density_key(self):
        scene = load_scene("[electrical]\npreamp_noise_a_per_sqrt_hz = 2e-12")
        assert scene.electrical.preamp_noise_density == pytest.approx(4e-24, rel=1e-15)

    def test_misspelt_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config key room\.widht_m"):
            load_scene("[room]\nwidht_m = 2.0")

    def test_misspelt_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config key reciever\.detector_area_m2"):
            load_scene("[room]\nwidth_m = 2.0\n[reciever]\ndetector_area_m2 = 1e-3")

    def test_preamp_squared_density_key_wins(self):
        scene = load_scene(
            """
            [electrical]
            preamp_noise_a_per_sqrt_hz = 2e-12
            preamp_noise_a2_per_hz = 9e-24
            """
        )
        assert scene.electrical.preamp_noise_density == 9e-24


class TestClamping:
    def test_power_above_cap_is_clamped_with_warning(self):
        scene = load_scene(
            f"""
            [vcsel]
            per_vcsel_power_w = 1.0

            [safety]
            mpe_w_per_m2 = {DEFAULT_MPE}
            """
        )
        ap = scene.aps[0]
        cap = max_safe_power(ap.beam, scene.safety, ap.lens).p_max
        assert ap.per_vcsel_power == cap
        assert len(scene.warnings) == len(scene.aps)
        assert "clamped" in scene.warnings[0]

    def test_power_below_cap_is_kept(self):
        scene = load_scene(
            f"""
            [vcsel]
            per_vcsel_power_w = 1e-6

            [safety]
            mpe_w_per_m2 = {DEFAULT_MPE}
            """
        )
        assert scene.aps[0].per_vcsel_power == 1e-6
        assert scene.warnings == ()

    def test_no_mpe_means_no_clamping(self):
        scene = load_scene("[vcsel]\nper_vcsel_power_w = 1.0")
        assert scene.aps[0].per_vcsel_power == 1.0
        assert scene.warnings == ()


class TestPlacementHelpers:
    def test_place_users_deterministic(self, scene_with_mpe):
        a = place_users(scene_with_mpe, 3, seed=5)
        b = place_users(scene_with_mpe, 3, seed=5)
        assert a.users == b.users
        assert a.seed == 5
        assert a.placement == "random"
        assert len(a.users) == 3
        assert place_users(scene_with_mpe, 3, seed=6).users != a.users

    def test_place_users_keeps_receiver_parameters(self, scene_with_mpe):
        custom = dataclasses.replace(
            scene_with_mpe,
            users=(
                dataclasses.replace(
                    scene_with_mpe.users[0], responsivity=0.6, detector_area=1e-4
                ),
            ),
        )
        placed = place_users(custom, 2, seed=0)
        assert all(u.responsivity == 0.6 for u in placed.users)
        assert all(u.detector_area == 1e-4 for u in placed.users)

    def test_place_users_rejects_too_many(self, scene_with_mpe):
        with pytest.raises(InfeasibleError):
            place_users(scene_with_mpe, 5, seed=0)

    def test_place_users_positions_inside_room(self, scene_with_mpe):
        placed = place_users(scene_with_mpe, 4, seed=123)
        for u in placed.users:
            assert 0.0 <= u.position[0] <= scene_with_mpe.room.width
            assert 0.0 <= u.position[1] <= scene_with_mpe.room.length

    def test_place_users_on_axis(self, scene_with_mpe):
        placed = place_users_on_axis(dataclasses.replace(scene_with_mpe, placement="random"), 2)
        assert [u.position for u in placed.users] == [(3.0, 3.0), (1.0, 3.0)]
        assert placed.placement == "on-axis"


class TestRoundTrip:
    def test_default_scene(self):
        scene = default_scene()
        assert load_scene(dump_scene(scene)) == scene

    def test_customized_scene(self):
        scene = load_scene(
            f"""
            [room]
            width_m = 4.4
            rx_plane_height_m = 0.85

            [vcsel]
            beam_waist_m = 2.7e-6
            mode_powers = 0,0:0.30000000000000004; 1,1:0.7
            per_vcsel_power_w = 1e-7
            vcsels_per_transmitter = 9

            [lens]
            enabled = no

            [transmitters]
            positions_m = (1.1, 2.2, 3.0); (3.3, 0.4, 3.0)

            [receiver]
            fov_half_angle_deg = 37.5

            [electrical]
            per_vcsel_consumption_w = 0.0123
            rin_db_per_hz = -150.5

            [safety]
            mpe_w_per_m2 = {DEFAULT_MPE}

            [users]
            placement = random
            count = 2
            seed = 9
            """
        )
        assert load_scene(dump_scene(scene)) == scene

    def test_dump_is_idempotent(self):
        scene = place_users(
            dataclasses.replace(default_scene(), safety=SafetySpec(mpe=DEFAULT_MPE)),
            3,
            seed=17,
        )
        once = dump_scene(scene)
        assert dump_scene(load_scene(once)) == once

    @pytest.mark.parametrize(
        "change, key",
        [
            (lambda ap: dataclasses.replace(
                ap, beam=dataclasses.replace(ap.beam, wavelength=940e-9)), "vcsel.wavelength_m"),
            (lambda ap: dataclasses.replace(ap, array_n=3), "vcsel.vcsels_per_transmitter"),
            (lambda ap: dataclasses.replace(ap, per_vcsel_power=1e-6), "vcsel.per_vcsel_power_w"),
            (lambda ap: dataclasses.replace(ap, lens=None), "lens.enabled"),
            (lambda ap: dataclasses.replace(
                ap, lens=dataclasses.replace(ap.lens, f=2e-4)), "lens.focal_length_m"),
        ],
        ids=["wavelength", "array", "power", "lens-state", "lens-focal-length"],
    )
    def test_differing_access_points_are_not_dumped(self, change, key):
        # One key holds one value: a dump that wrote AP 0's value for every AP
        # would load back a different scene.
        scene = default_scene()
        aps = (change(scene.aps[0]),) + scene.aps[1:]
        with pytest.raises(ConfigError, match=re.escape(key)):
            dump_scene(dataclasses.replace(scene, aps=aps))

    def test_differing_receivers_are_not_dumped(self):
        scene = default_scene()
        users = scene.users[:2] + (dataclasses.replace(scene.users[2], responsivity=0.6),)
        with pytest.raises(ConfigError, match=r"receiver\.responsivity_a_per_w"):
            dump_scene(dataclasses.replace(scene, users=users))

    @pytest.mark.parametrize(
        "make",
        [
            lambda scene: place_users_on_axis(scene, 2),
            lambda scene: place_users(scene, 3, seed=4),
            lambda scene: dataclasses.replace(
                place_users(scene, 3, seed=4), placement="explicit", seed=7),
        ],
        ids=["on-axis", "random", "explicit"],
    )
    def test_every_placement_round_trips(self, make):
        scene = make(default_scene())
        text = dump_scene(scene)
        assert load_scene(text) == scene
        # Positions are written for an explicit scene only; placement otherwise.
        users = text.split("[users]\n", 1)[1].splitlines()
        keys = {line.split(" = ")[0] for line in users}
        if scene.placement == "explicit":
            assert keys == {"seed", "positions_m"}
        else:
            assert keys == {"count", "seed", "placement"}

    def test_users_their_placement_does_not_yield_are_not_dumped(self):
        scene = default_scene()
        moved = scene.users[:3] + (dataclasses.replace(scene.users[3], position=(2.0, 2.0)),)
        with pytest.raises(ConfigError, match=r"users\.placement"):
            dump_scene(dataclasses.replace(scene, users=moved))
        explicit = dataclasses.replace(scene, users=moved, placement="explicit")
        assert load_scene(dump_scene(explicit)) == explicit

    def test_dump_omits_unset_optionals(self):
        text = dump_scene(default_scene())
        assert "mpe_w_per_m2" not in text
        assert "per_vcsel_power_w" not in text
        assert "per_vcsel_consumption_w" not in text


class TestDirectConstruction:
    def test_room_validation(self):
        with pytest.raises(ConfigError):
            Room(width=0.0)
        with pytest.raises(ConfigError):
            Room(rx_plane_height=3.0)

    def test_scene_requires_users_not_exceeding_aps(self):
        scene = default_scene()
        extra = scene.users + (UserTerminal(position=(2.0, 2.0)),)
        with pytest.raises(ConfigError):
            dataclasses.replace(scene, users=extra)

    def test_access_point_validation(self):
        beam = BeamSpec(w0=5e-6, wavelength=850e-9)
        with pytest.raises(ConfigError):
            AccessPoint(position=(1.0, 1.0), beam=beam)  # not 3-D
        with pytest.raises(ConfigError):
            AccessPoint(position=(1.0, 1.0, 3.0), beam=beam, array_n=0)
        with pytest.raises(ConfigError):
            AccessPoint(position=(1.0, 1.0, 3.0), beam=beam, per_vcsel_power=0.0)

    def test_user_terminal_validation(self):
        with pytest.raises(ConfigError):
            UserTerminal(position=(1.0,))
        with pytest.raises(ConfigError):
            UserTerminal(position=(1.0, 1.0), responsivity=1.3)
        with pytest.raises(ConfigError):
            UserTerminal(position=(1.0, 1.0), fov_half_angle=2.0)

    def test_electrical_validation(self):
        with pytest.raises(ConfigError):
            ElectricalSpec(rin_db_per_hz=3.0)
        with pytest.raises(ConfigError):
            ElectricalSpec(fec_limit=0.0)
        with pytest.raises(ConfigError):
            ElectricalSpec(rx_bandwidth=0.0)

    def test_scene_placement_validation(self):
        scene = default_scene()
        with pytest.raises(ConfigError, match="placement"):
            dataclasses.replace(scene, placement="grid")
        built = Scene(room=scene.room, aps=scene.aps, users=scene.users,
                      electrical=scene.electrical, safety=scene.safety,
                      lens_design=scene.lens_design)
        assert built.placement == "explicit"

    def test_warnings_do_not_affect_equality(self):
        scene = default_scene()
        tagged = dataclasses.replace(scene, warnings=("note",))
        assert tagged == scene


class TestValidatedCopies:
    """with_source and with_aps equal dataclasses.replace's copies; with_aps
    skips validation only for APs at the scene's own positions."""

    def test_with_source_equals_replace(self):
        scene = default_scene()
        beam = BeamSpec(w0=2e-6, wavelength=940e-9)
        for lens in (None, scene.lens_design):
            ap = scene.aps[1].with_source(beam, lens)
            assert type(ap) is AccessPoint
            assert vars(ap) == vars(dataclasses.replace(scene.aps[1], beam=beam, lens=lens))
            assert ap.position is scene.aps[1].position

    def test_with_aps_equals_replace(self):
        scene = dataclasses.replace(default_scene(), warnings=("note",))
        aps = tuple(ap.with_source(ap.beam, None) for ap in scene.aps)
        copy = scene.with_aps(aps)
        assert type(copy) is Scene and copy.aps is aps
        assert vars(copy) == vars(dataclasses.replace(scene, aps=aps))

    def test_with_aps_validates_aps_that_moved(self):
        scene = default_scene()
        outside = (dataclasses.replace(scene.aps[0], position=(9.0, 1.0, 3.0)),) + scene.aps[1:]
        with pytest.raises(ConfigError, match="access point 0 .* outside the room"):
            scene.with_aps(outside)
        with pytest.raises(ConfigError, match="users exceed"):
            scene.with_aps(scene.aps[:3])
        # Equal positions held in other objects are validated, and pass.
        moved = tuple(dataclasses.replace(ap, position=tuple([*ap.position])) for ap in scene.aps)
        assert all(a.position is not b.position for a, b in zip(moved, scene.aps))
        assert scene.with_aps(moved) == scene


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_configuration_table_lists_every_key(self):
        # Backticked section.key names in the configuration reference table.
        text = README.read_text(encoding="utf-8")
        table = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        documented = {
            name for line in rows for name in re.findall(r"`([a-z]+\.[a-z0-9_]+)`", line)
        }
        assert documented == {f"{k.section}.{k.key}" for k in _KEYS}

    def test_cli_flag_block_lists_every_option(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("### CLI flags", 1)[1].split("```", 2)[1]
        documented = set(re.findall(r"^(--[a-z-]+)", block, re.M))
        options = {
            flag for action in build_parser()._actions for flag in action.option_strings
            if flag.startswith("--")
        }
        assert documented == options

    def test_ini_examples_load(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            assert load_scene(block).warnings == ()
