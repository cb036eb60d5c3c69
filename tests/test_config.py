"""Config schema tests: strict validation in both directions."""

import copy
import os

import pytest
import yaml

from pulsecollapse import cli, config
from pulsecollapse.config import MAX_GRID_POINTS, load_config, parse_config
from pulsecollapse.errors import ConfigError
from tests.conftest import bundled_config


# the sections each scenario requires besides ``scenario``, in the order a missing one is reported
REQUIRED_SECTIONS = {
    "interaction.yaml": ("grid", "envelope", "source", "pulses", "formation"),
    "observation_overlap.yaml": ("grid", "envelope", "source", "pulses", "formation"),
    "turn_off_overlap.yaml": ("grid", "envelope", "source", "pulses", "formation", "turn_off"),
    "disengage.yaml": ("grid", "envelope", "source", "pulses", "formation", "disengage"),
    "pulse_drift.yaml": ("grid", "pulses", "drift"),
    "fade_in.yaml": ("grid", "envelope", "source", "pulses", "formation"),
}


def minimal_interaction(**tweaks):
    cfg = {
        "scenario": {"name": "interaction", "seed": 11, "dt": 0.005},
        "grid": {"n_points": 256, "spacing": 0.1},
        "envelope": {"kind": "trig", "t_start": 0.0, "t_end": 1.0},
        "source": {"amplitude": 1.0},
        "pulses": {
            "conscious_center": 8.0,
            "conscious_sigma": 0.8,
            "ready_center": 17.0,
            "ready_sigma": 0.8,
        },
        "formation": {"mode": "instant", "target_sigma": 0.8},
    }
    for dotted, value in tweaks.items():
        section, key = dotted.split("__")
        cfg.setdefault(section, {})[key] = value
    return cfg


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(minimal_interaction())
        assert cfg.name == "interaction"
        assert cfg.trials == 100_000
        assert cfg.data["scenario"]["tail_steps"] == 20
        assert cfg.data["grid"]["origin"] == 0.0
        assert cfg.data["envelope"]["fraction"] == 1.0
        assert cfg.data["debug"]["bias_site_selection"] is False

    def test_dotted_get(self):
        cfg = parse_config(minimal_interaction())
        assert cfg.get("pulses.ready_center") == 17.0
        assert cfg.get("nope.nothing", default=5) == 5

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="scenario.typo_key"):
            parse_config(minimal_interaction(scenario__typo_key=1))

    def test_unknown_section_named_in_error(self):
        bad = minimal_interaction()
        bad["plotting"] = {"dpi": 300}
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(bad)

    def test_missing_required_key_named(self):
        bad = minimal_interaction()
        del bad["scenario"]["dt"]
        with pytest.raises(ConfigError, match="scenario.dt"):
            parse_config(bad)

    @pytest.mark.parametrize("name", REQUIRED_SECTIONS)
    def test_each_missing_section_is_named(self, name):
        """Removing a required section names it; ``variant`` and ``debug`` have defaults."""
        raw = {**bundled_config(name).raw, "debug": {}}
        assert set(raw) - {"scenario", "variant", "debug"} == set(REQUIRED_SECTIONS[name])
        for section in raw:
            mapping = {k: v for k, v in raw.items() if k != section}
            if section in ("variant", "debug"):
                assert parse_config(mapping).data == parse_config(raw).data
                continue
            with pytest.raises(ConfigError) as info:
                parse_config(mapping)
            if section == "scenario":
                assert str(info.value) == "config must contain scenario.name"
            else:
                assert str(info.value) == f"missing required config section {section!r}"

    @pytest.mark.parametrize("name", REQUIRED_SECTIONS)
    def test_missing_sections_are_reported_in_order(self, name):
        raw = bundled_config(name).raw
        required = REQUIRED_SECTIONS[name]
        for i, section in enumerate(required):
            with pytest.raises(ConfigError) as info:
                parse_config({k: raw[k] for k in ("scenario", *required[:i])})
            assert str(info.value) == f"missing required config section {section!r}"

    def test_missing_pulse_key_named(self):
        bad = minimal_interaction()
        del bad["pulses"]["ready_sigma"]
        with pytest.raises(ConfigError, match="pulses.ready_sigma"):
            parse_config(bad)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="scenario.name"):
            parse_config(minimal_interaction(scenario__name="teleportation"))

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="scenario.seed"):
            parse_config(minimal_interaction(scenario__seed="abc"))

    def test_guard_is_an_unknown_key(self):
        """Rule 4 is always enforced, so no key or override switches it."""
        with pytest.raises(ConfigError, match=r"^unknown config key scenario\.guard$"):
            parse_config(minimal_interaction(scenario__guard=True))
        with pytest.raises(ConfigError, match="unknown override 'guard'"):
            parse_config(minimal_interaction()).with_overrides(guard="off")

    def test_drift_shadow_is_an_unknown_key(self):
        """A drift sheds into its shadow unless drift.shed_rate is 0, so no key switches the shadow."""
        raw = copy.deepcopy(bundled_config("pulse_drift.yaml").raw)
        raw["drift"]["shadow"] = True
        with pytest.raises(ConfigError, match=r"^unknown config key drift\.shadow$"):
            parse_config(raw)


class TestEveryKey:
    """Each key of the schema table is required or has a default, and nothing else decides
    which; test_each_missing_section_is_named covers whole sections."""

    @pytest.mark.parametrize("name", cli.BUNDLED_CONFIGS)
    def test_deleting_a_key_names_it_or_fills_its_default(self, name):
        cfg = bundled_config(name)
        for section, keys in {**config._BASE_SCHEMA, **config._SCENARIO_SCHEMAS[cfg.name]}.items():
            for key, (_, default) in keys.items():
                mapping = copy.deepcopy(cfg.raw)
                mapping.get(section, {}).pop(key, None)
                if default is config.REQUIRED:
                    with pytest.raises(ConfigError) as info:
                        parse_config(mapping)
                    want = "config must contain scenario.name" if key == "name" else \
                        f"missing required config key {section}.{key}"
                    assert str(info.value) == want
                else:
                    data = copy.deepcopy(cfg.data)
                    data[section][key] = default
                    assert parse_config(mapping).data == data, f"{section}.{key}"


class TestValueChecks:
    def test_dt_must_resolve_the_window(self):
        """dt above window/100 is rejected."""
        with pytest.raises(ConfigError, match="1/100"):
            parse_config(minimal_interaction(scenario__dt=0.02))

    def test_fraction_range(self):
        with pytest.raises(ConfigError, match="fraction"):
            parse_config(minimal_interaction(envelope__fraction=0.0))
        with pytest.raises(ConfigError, match="fraction"):
            parse_config(minimal_interaction(envelope__fraction=1.5))

    def test_envelope_kind_checked(self):
        with pytest.raises(ConfigError, match="envelope.kind"):
            parse_config(minimal_interaction(envelope__kind="cubic"))

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(minimal_interaction(envelope__t_end=-1.0))

    @pytest.mark.parametrize("key", ["scenario__tail_steps", "formation__settle_steps"])
    def test_step_counts_nonnegative(self, key):
        """A negative count would cut the ramp short or leave the trajectory with no rows."""
        with pytest.raises(ConfigError, match=key.replace("__", ".")):
            parse_config(minimal_interaction(**{key: -1}))

    def test_staged_needs_positive_tau(self):
        bad = minimal_interaction(formation__mode="staged", formation__tau=0.0)
        with pytest.raises(ConfigError, match="tau"):
            parse_config(bad)

    def test_staged_needs_a_neighbor_radius_of_one_or_more(self):
        """Staged formation grows the pulse by neighbor_radius sites a step; instant mode never reads it."""
        for radius in (0, -1):
            with pytest.raises(ConfigError, match="formation.neighbor_radius"):
                parse_config(minimal_interaction(formation__mode="staged", formation__neighbor_radius=radius))
        assert parse_config(minimal_interaction(formation__neighbor_radius=0)).get("formation.neighbor_radius") == 0
        with pytest.raises(ConfigError, match="formation.neighbor_radius"):
            parse_config(minimal_interaction(formation__neighbor_radius=0)).with_overrides(formation_mode="staged")

    def test_grid_size_is_bounded(self):
        assert parse_config(minimal_interaction(grid__n_points=MAX_GRID_POINTS)).get("grid.n_points") == MAX_GRID_POINTS
        for n in (7, MAX_GRID_POINTS + 1):
            with pytest.raises(ConfigError, match="grid.n_points"):
                parse_config(minimal_interaction(grid__n_points=n))

    def test_turn_off_must_follow_window(self):
        cfg = minimal_interaction()
        cfg["scenario"]["name"] = "turn_off"
        cfg["source"] = {"amplitude1": 0.7, "amplitude2": 0.7}
        cfg["pulses"] = {"center1": 11.0, "sigma1": 1.0, "center2": 13.0, "sigma2": 1.0}
        cfg["turn_off"] = {"t_off": 0.5}
        with pytest.raises(ConfigError, match="t_off"):
            parse_config(cfg)

    def test_arrangement_checked(self):
        cfg = minimal_interaction()
        cfg["scenario"]["name"] = "unresolvable_observation"
        cfg["source"] = {"amplitude1": 0.7, "amplitude2": 0.7}
        cfg["pulses"] = {"center1": 11.0, "sigma1": 1.0, "center2": 13.0, "sigma2": 1.0}
        cfg["variant"] = {"arrangement": "sideways"}
        with pytest.raises(ConfigError, match="arrangement"):
            parse_config(cfg)


class TestOverrides:
    def test_with_overrides_replaces_scalars(self):
        cfg = parse_config(minimal_interaction())
        out = cfg.with_overrides(seed=99, trials=500)
        assert out.seed == 99
        assert out.trials == 500
        # original untouched
        assert cfg.seed == 11

    def test_formation_mode_override(self):
        cfg = parse_config(minimal_interaction(formation__tau=0.05))
        out = cfg.with_overrides(formation_mode="staged")
        assert out.data["formation"]["mode"] == "staged"

    def test_bogus_formation_mode_override_names_the_key(self):
        cfg = parse_config(minimal_interaction())
        with pytest.raises(ConfigError, match=r"^formation\.mode must be instant or staged, got 'bogus'$"):
            cfg.with_overrides(formation_mode="bogus")

    def test_unknown_override_rejected(self):
        cfg = parse_config(minimal_interaction())
        with pytest.raises(ConfigError, match="unknown override"):
            cfg.with_overrides(dt=0.01)


class TestFileLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "none.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(str(path))

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
    @pytest.mark.parametrize("text", ["scenario: [unclosed", "scenario: name: x", "scenario:\n\t- x", "a: \x07"])
    def test_invalid_yaml_with_either_loader(self, tmp_path, monkeypatch, libyaml, text):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not valid YAML"):
            load_config(str(path))

    def test_pure_python_loader_gives_the_same_configs(self, monkeypatch):
        """Where PyYAML lacks libyaml, yaml.SafeLoader parses every bundled config to the
        same data and raw mapping as yaml.CSafeLoader. Each base's loader class is built once."""
        config_dir = os.path.join(os.path.dirname(cli.__file__), "configs")
        paths = [os.path.join(config_dir, name) for name in cli.BUNDLED_CONFIGS]
        used = []
        load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda stream, Loader: used.append(Loader) or load(stream, Loader))
        fast = [load_config(p) for p in paths]
        assert {loader.__base__ for loader in used} == {getattr(yaml, "CSafeLoader", yaml.SafeLoader)}
        assert len(set(used)) == 1
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        slow = [load_config(p) for p in paths]
        assert {loader.__base__ for loader in used[len(paths):]} == {yaml.SafeLoader}
        assert len(set(used[len(paths):])) == 1
        for path, a, b in zip(paths, fast, slow):
            assert (a.name, a.data, a.raw) == (b.name, b.data, b.raw), path

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
    @pytest.mark.parametrize("text, value", [("1e-9", 1e-9), ("2E-1", 0.2), ("0.5e0", 0.5), ("-1e-2", -0.01)])
    def test_yaml_1_2_float_is_a_float(self, tmp_path, monkeypatch, libyaml, text, value):
        """A YAML 1.2 float is a float; PyYAML's YAML 1.1 resolver alone read 1e-9 as a string."""
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(minimal_interaction(envelope__t_start="T")).replace("T", text))
        assert load_config(str(path)).data["envelope"]["t_start"] == value

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
    def test_bundled_configs_parse_as_under_yaml_1_1(self, monkeypatch, libyaml):
        """The added resolver changes no bundled config: each gives the mapping, types included,
        of the plain safe loader."""
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        config_dir = os.path.join(os.path.dirname(cli.__file__), "configs")
        for name in cli.BUNDLED_CONFIGS:
            with open(os.path.join(config_dir, name)) as fh:
                text = fh.read()
            plain = yaml.load(text, Loader=base)
            assert repr(yaml.load(text, Loader=config._loader(base))) == repr(plain), name
            assert load_config(os.path.join(config_dir, name)).raw == plain

    def test_an_exponent_is_not_an_integer(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(minimal_interaction(grid__n_points="N")).replace("N", "1e3"))
        with pytest.raises(ConfigError, match=r"^grid\.n_points must be an integer, got 1000\.0$"):
            load_config(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(str(path))

    def test_roundtrip_bundled(self):
        cfg = bundled_config("interaction.yaml")
        assert cfg.name == "interaction"
        assert cfg.trials == 100_000
