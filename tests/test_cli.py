"""CLI contract tests: artifacts, determinism, exit codes, env overrides.

All invocations go through cli.main(argv) in process; exit codes follow
the contract 0 ok / 1 config / 2 invariant / 3 statistics.
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecollapse import cli, config, dynamics, scenarios
from pulsecollapse.analysis import compare, hit_histogram

CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")

# sha256 of trajectory.csv + events.json + summary.json from `run` at each config's own seed,
# or at the seed after "@": the hit falls on other rows of the post-hit scenarios there
GOLDEN_RUNS = {
    "interaction.yaml": "914e26d4c51f71d5ef3f30e03df521f76a9b0f8b93838c1fabc69967fb0f65eb",
    "interaction_halted.yaml": "b23d6caab17a6f3ab785fef5f7d210d2c93e45c056c9125d3b4bd7df143c25bb",
    "observation_overlap.yaml": "83e3fb5fef51a61c869224a6f30e42bbb46e30fbda125ba1edc37c0861768fd4",
    "observation_disjoint.yaml": "3648a45bb6b6c9994544e890afc6375b703ac8b32be256fe0e85a9403a058a84",
    "observation_single.yaml": "abbdf6b75180ea2ae13c3ed666ba810f2a9ca91fa690ec94b60cacd07064b129",
    "turn_off_overlap.yaml": "5c76c676eaf895aff03d7ea15cdb2b286ead01e98a7115aec1644376a52afe4e",
    "turn_off_disjoint.yaml": "18f612f2d9955749435cb7287144d390d573705d2c51b2425cab0cbfede772fb",
    "disengage.yaml": "ef80dfb106a1f77b23cb057f3aaf7bae1172d25519d46a4b57e4320e33b1b5fd",
    "fade_in.yaml": "cc3d5036408031aa7ac581ffe0139a21a80688972490b833d76b31c4c8bfb525",
    "pulse_drift.yaml": "5b386f297f84d12d87fcdc439df64d3109e3095b1206109ae2128e1baf46a18e",
    "turn_off_overlap.yaml@1": "296c6fdffd29b5fdfa7101dee081dc5c875a84ff421d3b4877a4d42a05a3fdab",
    "turn_off_overlap.yaml@2": "1b9e7adc130b603e348ccf35377da79938de06b65b3b52703e71164cd5f85d1d",
    "turn_off_overlap.yaml@3": "4e04483d154459a2ec05cd237a74ae739577944b2c37e8d14d9b587a6d20949b",
    "disengage.yaml@1": "e4ad17534481551f1a8ed988c08ed95d7a7a6a3a5eef8dbe5bfdf221a3070e60",
    "disengage.yaml@2": "bb58041d296210bde758e25ab21ec8144dd0885549d76d59619e9a263fd121d9",
    "disengage.yaml@3": "4f0bb027822c0115263dbe6ea256ab801aa93cc74cbf439be75387db02cc4376",
    "fade_in.yaml@1": "b124ef8053c75c60f50ec7d16bdee86f6a583650504f2455717d5841a5a735c1",
    "fade_in.yaml@2": "8fe76cf85c059aba82ed37019effe1ad9599e9f12303888ff9495e4dbe5f304e",
    "fade_in.yaml@3": "9651e9c191488207f397210925bb654465c27dcaa016daa172c409373f20e4d2",
}

# sha256 of the same three files from `run` on a variant of a bundled config, keyed
# "config variant" or "config variant@seed". Staged formation runs on through the turn-off and
# disengage events, and at tau 0.5 the pulse is still forming when they apply.
RUN_VARIANTS = {  # variant -> (keys replaced, flags)
    "staged": ({}, ["--formation", "staged"]),
    "staged tau 0.5": ({"formation": {"tau": 0.5}}, ["--formation", "staged"]),
    "linear 0.37 no tail": ({"envelope": {"kind": "linear", "fraction": 0.37}, "scenario": {"tail_steps": 0}}, []),
}
GOLDEN_VARIANT_RUNS = {
    "turn_off_overlap.yaml staged@1": "6ff8b2caf1de598c32075cc1131c3beb8e1a00976c9d934d145e32d549c58293",
    "turn_off_overlap.yaml staged@2": "23938bc2432d0414ede9436569db0ee803516b819f409e81425ff0163ed626f9",
    "turn_off_overlap.yaml staged@3": "22851f5ad940eb2d93a4687c2748106571f25eac3901f8c234c58332dbae119e",
    "turn_off_overlap.yaml staged tau 0.5": "856eeb6595871b164a9769883b0eebba4591c0eca7c092d65917d78e9ee80376",
    "disengage.yaml staged@1": "896d3ca2dae87175a8154d350308f307c64021fd8c53f64581c136eab4df5664",
    "disengage.yaml staged@2": "0568814d1db5915949f8c283b505eb3a5795b244b6f1581f7cbd8fab271c6286",
    "disengage.yaml staged@3": "c9d746acf4e7d79efe902ef2a9458c3add14e350583c7bb30ad673b800b795bb",
    "disengage.yaml staged tau 0.5": "4c6b9c15235941908d55f263546fa6333a68d4262220ba0346d07bd35e76e555",
    # no hit at the config's own seed, a hit at seed 9
    "interaction.yaml linear 0.37 no tail": "1e62ff611cdf834dff77d1f35fc0aa9827a5dd6f508e5fbc7ea0eac3660a23c5",
    "interaction.yaml linear 0.37 no tail@9": "74458b42d89ac310ee2e1aa7dfb42f84c8fd11748c5909914bc9c2708293459d",
}

# the failure lines of every run of a batch config, seeds 1-200 at --trials 1000, whose gates
# fail (exit 3): the calibrated gates' nominal alarms, keyed "config@seed"
GATE_ALARMS = {
    "interaction.yaml@122": ["site histogram chi2 p=0.00302 <= 0.01"],
    "interaction_halted.yaml@1": ["site histogram chi2 p=0.00683 <= 0.01"],
    "interaction_halted.yaml@53": ["probability z=3.174 (closed form 0.29999999999999993)"],
    "interaction_halted.yaml@135": ["site histogram chi2 p=0.00474 <= 0.01"],
    "observation_disjoint.yaml@79": ["site histogram chi2 p=0.00980 <= 0.01"],
    "observation_disjoint.yaml@95": ["site histogram chi2 p=0.00140 <= 0.01"],
    "observation_disjoint.yaml@122": ["site histogram chi2 p=0.00811 <= 0.01"],
    "observation_overlap.yaml@77": ["final identity 0.985817 vs 1.000000"],
    "observation_overlap.yaml@95": ["site histogram chi2 p=0.00766 <= 0.01"],
    "observation_overlap.yaml@113": ["site histogram chi2 p=0.00471 <= 0.01"],
    "observation_overlap.yaml@122": ["site histogram chi2 p=0.00650 <= 0.01"],
    "observation_overlap.yaml@154": ["final identity 0.987132 vs 1.000000"],
    "observation_single.yaml@109": ["site histogram chi2 p=0.00244 <= 0.01"],
    "turn_off_overlap.yaml@151": ["probability z=3.415 (closed form 0.5)"],
}

# the debug switches, and what names each one's detector on stderr when it trips
CONTROLS = {
    "bias_site_selection": "chi2", "tamper_phantom": "phantom-freeze", "intra_ready_transfer": "Rule4Violation",
}
# exit codes of run, montecarlo (None: no batch) and verify --config with a switch set on a
# scenario whose schema takes it; bias_site_selection trips only the site-histogram and
# final-identity gates, which run, verify and the turn-off gates lack (ROADMAP item 9)
CONTROL_EXITS = {
    ("bias_site_selection", "interaction"): (0, 3, 0),
    ("bias_site_selection", "unresolvable_observation"): (0, 3, 0),
    ("bias_site_selection", "turn_off"): (0, 0, 0),
    ("bias_site_selection", "disengage"): (0, None, 0),
    ("bias_site_selection", "fade_in"): (0, None, 0),
    ("tamper_phantom", "pulse_drift"): (2, None, 2),
    ("intra_ready_transfer", "pulse_drift"): (2, None, 2),
}

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# sha256 of report.json from `verify` over the bundled configs
GOLDEN_VERIFY_REPORT = "4fb67c799fe04db652a229ca8abcf44e36e5610da4e120af06d81b087324795c"


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_yaml(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def load_yaml(name):
    with open(cfg_path(name)) as fh:
        return yaml.safe_load(fh)


BATCH_CONFIGS = [n for n in cli.BUNDLED_CONFIGS if scenarios.SCENARIOS[load_yaml(n)["scenario"]["name"]].batch]

# stderr of the intra_ready_transfer control, from `run` and from `verify`
INJECTED_ERR = (
    "invariant breach: Rule4Violation: transfer between ready factors of the same observer: "
    "term 2 -> term 3 (observer 'obs')\n"
)


def refuse_stepping(monkeypatch, *owners):
    """Make ``dynamics.step``, wherever a package module holds it, and each
    ``owner.advance`` given, fail the test when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("stepped")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pulsecollapse" and getattr(mod, "step", None) is dynamics.step:
            monkeypatch.setattr(mod, "step", refuse)
    for owner in owners:
        monkeypatch.setattr(owner, "advance", refuse)


class TestRun:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "r"
        code = cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "events.json", "summary.json", "manifest.json"):
            assert (out / name).exists()

    def test_rerun_is_byte_identical_outside_manifest(self, tmp_path):
        """Determinism contract: only the manifest may differ (timestamp)."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 0
        for name in ("trajectory.csv", "events.json", "summary.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_parser_is_built_once(self, tmp_path):
        """Two runs and two failing calls share one parser, with the outputs and exit codes of fresh ones."""
        cli._build_parser.cache_clear()
        outs = [tmp_path / "a", tmp_path / "b"]
        codes = [cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) for out in outs]
        codes += [cli.main(["run", "--config", str(tmp_path / "no.yaml"), "--out", str(tmp_path / "o")])
                  for _ in range(2)]
        assert codes == [0, 0, 1, 1]
        assert cli._build_parser.cache_info().misses == 1
        for name in ("trajectory.csv", "events.json", "summary.json"):
            assert read(outs[0] / name) == read(outs[1] / name)

    def test_timestamp_only_in_manifest(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)])
        manifest = json.loads(read(out / "manifest.json"))
        assert "created_utc" in manifest
        for name in ("trajectory.csv", "events.json", "summary.json"):
            assert b"created_utc" not in read(out / name)

    def test_events_records_rng_draws(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)])
        events = json.loads(read(out / "events.json"))
        assert len(events) == 1
        assert len(events[0]["rng_draws"]) == 2
        assert all(0 <= d < 1 for d in events[0]["rng_draws"])

    def test_trajectory_floats_have_17_significant_digits(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)])
        lines = read(out / "trajectory.csv").decode().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "cumulative_hit_budget" in header
        # a representative irrational-ish value must round-trip
        row = lines[40].split(",")
        assert float(row[0]) == float("%.17g" % float(row[0]))

    def test_seed_flag_changes_events(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out1)])
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--seed", "99", "--out", str(out2)])
        assert read(out1 / "events.json") != read(out2 / "events.json")

    def test_refuses_nonempty_out_without_force(self, tmp_path):
        out = tmp_path / "r"
        assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 0
        assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 1
        assert (
            cli.main(
                ["run", "--config", cfg_path("interaction.yaml"), "--out", str(out), "--force"]
            )
            == 0
        )

    def test_emit_flags_suppress_files(self, tmp_path):
        out = tmp_path / "r"
        cli.main(
            [
                "run",
                "--config",
                cfg_path("interaction.yaml"),
                "--out",
                str(out),
                "--no-trajectory",
                "--no-events",
            ]
        )
        assert not (out / "trajectory.csv").exists()
        assert not (out / "events.json").exists()
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_golden_run_outputs(self, name, tmp_path):
        """The run outputs for a config's own seed, or a given one, are pinned; any change to them must be deliberate."""
        config, _, seed = name.partition("@")
        argv = ["run", "--config", cfg_path(config), "--out", str(tmp_path)]
        assert cli.main(argv + (["--seed", seed] if seed else [])) == 0
        data = b"".join(read(tmp_path / f) for f in ("trajectory.csv", "events.json", "summary.json"))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_RUNS[name]

    @pytest.mark.parametrize("name", GOLDEN_VARIANT_RUNS)
    def test_golden_variant_run_outputs(self, name, tmp_path):
        """The run outputs of a config variant are pinned like those of the bundled configs."""
        config, _, variant = name.partition(" ")
        variant, _, seed = variant.partition("@")
        sections, flags = RUN_VARIANTS[variant]
        mapping = load_yaml(config)
        for section, values in sections.items():
            mapping[section].update(values)
        out = tmp_path / "r"
        argv = ["run", "--config", write_yaml(tmp_path, config, mapping), "--out", str(out)] + flags
        assert cli.main(argv + (["--seed", seed] if seed else [])) == 0
        data = b"".join(read(out / f) for f in ("trajectory.csv", "events.json", "summary.json"))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_VARIANT_RUNS[name]

    def test_drift_run_writes_trajectory(self, tmp_path):
        out = tmp_path / "r"
        assert cli.main(["run", "--config", cfg_path("pulse_drift.yaml"), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()


class TestStrictJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        """Infinite z and chi-square and a NaN fit leave parseable strict JSON."""
        mismatch = compare(1999, 2000, 1.0)
        profile = np.zeros(64)
        profile[40] = 1.0
        counts = np.zeros(64, dtype=np.int64)
        counts[40], counts[10] = 11_900, 100
        impossible = hit_histogram(counts, profile)
        summary = {
            "probability": asdict(mismatch),
            "histogram": asdict(impossible),
            "sigma_fit": float("nan"),
            "drift": np.float64(-np.inf),
            "amplitude": complex(1.0, float("nan")),
        }
        path = tmp_path / "summary.json"
        cli._write_json(str(path), summary)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = json.loads(read(path), parse_constant=reject)
        assert out["probability"]["z_score"] is None
        assert out["probability"]["passed"] is False
        assert out["histogram"]["chi2"] is None
        assert out["histogram"]["p_value"] == 0.0
        assert out["sigma_fit"] is None
        assert out["drift"] is None
        assert out["amplitude"] == [1.0, None]


def test_package_and_cli_import_no_scipy():
    """Cold start stays at the PyYAML floor for the package and adds only numpy for the CLI:
    nothing imports scipy."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, pulsecollapse, pulsecollapse.cli; "
        "heavy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not heavy, heavy"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_unknown_key_exits_1_and_names_it(self, tmp_path, capsys):
        mapping = load_yaml("interaction.yaml")
        mapping["scenario"]["typo_key"] = 3
        path = write_yaml(tmp_path, "bad.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_oversized_grid_exits_1_naming_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "MAX_SITE_TABLE_BYTES", 1 << 20)
        mapping = load_yaml("observation_overlap.yaml")
        mapping["grid"]["n_points"] = 1 << 14
        path = write_yaml(tmp_path, "big.yaml", mapping)
        assert cli.main(["montecarlo", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "grid.n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [("--seed", "-1", "scenario.seed"), ("--trials", "0", "scenario.trials")])
    def test_out_of_range_override_exits_1_naming_it(self, flag, value, key, tmp_path, capsys):
        """Overrides are checked as the config file's own values are."""
        code = cli.main(["run", "--config", cfg_path("interaction.yaml"), flag, value, "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, key, value", [
        ("run", "interaction", "scenario.dt", float("nan")),
        ("run", "pulse_drift", "drift.duration", float("nan")),
        ("run", "fade_in", "formation.target_sigma", 0.0),
        ("montecarlo", "interaction_halted", "source.amplitude", float("inf")),
        ("run", "interaction", "grid.origin", float("inf")),
        ("run", "fade_in", "formation.neighbor_radius", 0),
    ])
    def test_non_finite_or_nonpositive_value_exits_1_naming_it(self, command, name, key, value, tmp_path, capsys):
        """Values YAML reads as .nan, .inf, a zero width or a staged growth of no sites are refused before anything runs."""
        mapping = load_yaml(f"{name}.yaml")
        section, field = key.split(".")
        mapping.setdefault(section, {})[field] = value
        path = write_yaml(tmp_path, "bad.yaml", mapping)
        code = cli.main([command, "--config", path, "--trials", "1000", "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value", [
        ("interaction", "scenario.dt", 1e-300),
        ("turn_off_overlap", "turn_off.t_off", 1e9),
        ("disengage", "disengage.t_dis", 1e9),
        ("pulse_drift", "drift.duration", 1e9),
        ("fade_in", "formation.settle_steps", 1_000_000_000),
        ("disengage", "disengage.hold_steps", 1_000_000_000),
        ("interaction", "envelope.t_end", 1e9),
        ("interaction", "scenario.tail_steps", 1_000_000_000),
        ("interaction", "grid.n_points", 2_000_000_000),
        ("pulse_drift", "grid.n_points", 2_000_000_000),
    ])
    def test_oversized_run_exits_1_naming_it(self, name, key, value, tmp_path, capsys):
        """A step count past MAX_STEPS or a grid past MAX_GRID_POINTS is refused before anything is built."""
        mapping = load_yaml(f"{name}.yaml")
        section, field = key.split(".")
        mapping.setdefault(section, {})[field] = value
        path = write_yaml(tmp_path, "big.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_montecarlo_never_steps_past_the_backbone(self, tmp_path, capsys):
        """A turn-off time far past the window only lengthens trajectories, which a batch never runs."""
        mapping = load_yaml("turn_off_overlap.yaml")
        mapping["turn_off"]["t_off"] = 1e9
        path = write_yaml(tmp_path, "late.yaml", mapping)
        assert cli.main(["montecarlo", "--config", path, "--trials", "2000", "--out", str(tmp_path / "mc")]) == 0
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 1
        assert "turn_off.t_off" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "no.yaml"), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_config_exits_1_naming_it(self, kind, libyaml, tmp_path, monkeypatch, capsys):
        """A config that is not UTF-8 text, or is a directory, is a config error, not a traceback."""
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "cfg.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfescenario:\n  name: interaction\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("drift", [{"shed_rate": 0.0}], ids=["no_shedding"])
    def test_tamper_with_no_phantom_exits_1_naming_it(self, command, drift, tmp_path, capsys):
        """A tamper control that finds no phantom site to move must not pass as a clean run."""
        mapping = load_yaml("pulse_drift.yaml")
        mapping["debug"] = {"tamper_phantom": True}
        mapping["drift"].update(drift)
        path = write_yaml(tmp_path, "tamper.yaml", mapping)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "debug.tamper_phantom" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_drift_injection_exits_2_before_any_step(self, command, tmp_path, capsys, monkeypatch):
        """The rule-4 control is refused from its schedule alone: neither the drift kernel
        nor ``dynamics.step`` runs, and stderr names the injected pair."""
        refuse_stepping(monkeypatch, dynamics.DriftKernel)
        mapping = load_yaml("pulse_drift.yaml")
        mapping["debug"] = {"intra_ready_transfer": True}
        path = write_yaml(tmp_path, "inj.yaml", mapping)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == INJECTED_ERR

    @pytest.mark.parametrize("velocity, end", [(3.0, "41.0"), (-1e9, "-11999999995.0")])
    def test_drift_off_the_grid_exits_1_naming_it(self, velocity, end, tmp_path, capsys):
        """A drift that would end off the grid is refused before anything runs (velocity 3
        used to exit 0 with a renormalised remnant, and -1e9 exit 2 once nothing was left)."""
        mapping = load_yaml("pulse_drift.yaml")
        mapping["drift"]["velocity"] = velocity
        path = write_yaml(tmp_path, "off.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: pulses.center + drift.velocity * drift.duration ({end}) must stay on the grid "
            "[0.0, 25.5]: the drift would carry the pulse off it\n"
        )
        assert not (tmp_path / "o").exists()

    def test_long_still_drift_is_refused_by_its_step_count(self, tmp_path, capsys):
        """A drift that stays on the grid still counts its steps against MAX_STEPS."""
        mapping = load_yaml("pulse_drift.yaml")
        mapping["drift"].update(velocity=0.0, duration=1e9)
        path = write_yaml(tmp_path, "long.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: drift.duration, scenario.dt set 1e+11 steps")

    def test_guard_is_an_unknown_flag_and_key(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--config", cfg_path("interaction.yaml"), "--guard", "off", "--out", str(tmp_path / "a")])
        assert info.value.code == 2
        assert "unrecognized arguments: --guard off" in capsys.readouterr().err
        mapping = load_yaml("interaction.yaml")
        mapping["scenario"]["guard"] = True
        path = write_yaml(tmp_path, "guard.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == "config error: unknown config key scenario.guard\n"

    def test_drift_shadow_is_an_unknown_key(self, tmp_path, capsys):
        """A drift sheds into its shadow unless drift.shed_rate is 0, so no key switches the shadow."""
        mapping = load_yaml("pulse_drift.yaml")
        mapping["drift"]["shadow"] = True
        path = write_yaml(tmp_path, "shadow.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: unknown config key drift.shadow\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["montecarlo", "verify"])
    def test_provenance_breach_exits_2_naming_it(self, command, tmp_path, capsys, monkeypatch):
        """Survivors built from coefficient rows one step off the schedule fail the 1e-12 gate."""
        build = scenarios.build_backbone

        def shifted(cfg):
            bb = build(cfg)
            return dataclasses.replace(bb, coeffs=np.roll(bb.coeffs, -1, axis=0))

        monkeypatch.setattr(scenarios, "build_backbone", shifted)
        argv = [command, "--config", cfg_path("observation_overlap.yaml"), "--out", str(tmp_path / "o")]
        assert cli.main(argv + (["--trials", "1000"] if command == "montecarlo" else [])) == 2
        assert capsys.readouterr().err.startswith("invariant breached: provenance (")

    @pytest.mark.parametrize("name, fraction, detail", [
        ("interaction_halted.yaml", 1e-6, "0 reduction events < required 100"),
        ("turn_off_overlap.yaml", 0.0005, "0 samples < required 1000"),
    ])
    def test_too_few_hits_exits_1_naming_trials(self, name, fraction, detail, tmp_path, capsys):
        """A valid config whose batch has too few hits for the statistics asks for more trials."""
        mapping = load_yaml(name)
        mapping["envelope"]["fraction"] = fraction
        path = write_yaml(tmp_path, "few.yaml", mapping)
        argv = ["montecarlo", "--config", path, "--trials", "1000", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: scenario.trials = 1000 gives too few hits for the statistics: {detail}\n"
        )

    def test_coarse_grid_exits_1_naming_it(self, tmp_path, capsys):
        mapping = load_yaml("interaction.yaml")
        mapping["pulses"]["conscious_sigma"] = 0.15
        path = write_yaml(tmp_path, "coarse.yaml", mapping)
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: pulses.conscious_sigma, grid.spacing: sigma 0.15 < 2 * spacing 0.2: unresolvable\n"
        )

    @pytest.mark.parametrize("name, key, value, named", [
        ("observation_overlap", "pulses.sigma1", 0, "pulses.sigma1, grid.spacing: sigma 0.0"),
        ("interaction", "pulses.conscious_center", -5.0, "pulses.conscious_center, pulses.conscious_sigma, grid.origin"),
        ("interaction", "grid.spacing", 3, "pulses.conscious_sigma, grid.spacing: sigma 0.8 < 2 * spacing 6.0"),
        ("interaction", "source.amplitude", 0, "source.amplitude: s must be positive"),
    ])
    def test_unbuildable_initial_state_exits_1_naming_the_keys(self, name, key, value, named, tmp_path, capsys):
        """A pulse the grid cannot resolve or hold, or a zero source, is a config error, not an invariant breach."""
        mapping = load_yaml(f"{name}.yaml")
        section, field = key.split(".")
        mapping[section][field] = value
        path = write_yaml(tmp_path, "bad.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    def test_coarse_formation_target_exits_1_before_anything_runs(self, tmp_path, capsys):
        """A formation target the grid cannot resolve fails at every site, so it is refused
        up front, naming its key (it used to exit 2 from formation after the hit)."""
        mapping = load_yaml("interaction.yaml")
        mapping["formation"]["target_sigma"] = 0.15
        path = write_yaml(tmp_path, "coarse.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: formation.target_sigma (0.15) must be at least 2 * grid.spacing (0.2) "
            "for the grid to resolve the formed pulse\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, command, key, value, named", [
        ("interaction.yaml", "run", "formation.target_sigma", 3,
         "formation.target_sigma (3.0): the formed pulse does not fit at hit site 163: "
         "center 16.3 closer than 4 sigma (12.0) to a grid edge\n"),
        ("interaction.yaml", "verify", "formation.target_sigma", 3,
         "formation.target_sigma (3.0): the formed pulse does not fit at hit site 163: "),
        ("interaction.yaml", "run", "formation.target_sigma", 1e-300,
         "formation.target_sigma (1e-300) must be at least 2 * grid.spacing (0.2) "),
        ("interaction_halted.yaml", "montecarlo", "formation.target_sigma", 1e-300,
         "formation.target_sigma (1e-300) must be at least 2 * grid.spacing (0.2) "),
        ("observation_single.yaml", "run", "grid.spacing", 3,
         "formation.target_sigma (0.8) must be at least 2 * grid.spacing (6.0) "),
        ("observation_single.yaml", "run", "pulses.center1", 0,
         "formation.target_sigma (0.8): the formed pulse does not fit at hit site 0: "
         "center 0.0 closer than 4 sigma (3.2) to a grid edge\n"),
        ("fade_in.yaml", "run", "formation.target_sigma", 1e9,
         "formation.target_sigma (1000000000.0): the formed pulse spans 8 sigma (8000000000.0), "
         "more than the grid, whose grid.spacing * (grid.n_points - 1) is 25.5, so it fits at no site\n"),
    ])
    def test_formation_that_cannot_fit_exits_1_naming_the_key(self, name, command, key, value, named,
                                                            tmp_path, capsys):
        """Formation values that used to fail only after a hit, with exit 2: a target the grid
        cannot resolve or hold anywhere is refused up front, and one that does not fit at the
        hit site names that site."""
        mapping = load_yaml(name)
        section, field = key.split(".")
        mapping[section][field] = value
        path = write_yaml(tmp_path, "bad.yaml", mapping)
        argv = [command, "--config", path, "--out", str(tmp_path / "o")]
        assert cli.main(argv + (["--trials", "1000"] if command == "montecarlo" else [])) == 1
        assert capsys.readouterr().err.startswith(f"config error: {named}")
        assert not (tmp_path / "o").exists()

    def test_refused_run_leaves_no_out_directory(self, tmp_path, capsys):
        """The output directory is made only when writing begins, not before the batch runs."""
        mapping = load_yaml("interaction_halted.yaml")
        mapping["envelope"]["fraction"] = 1e-6
        path = write_yaml(tmp_path, "few.yaml", mapping)
        out = tmp_path / "o"
        assert cli.main(["montecarlo", "--config", path, "--trials", "1000", "--out", str(out)]) == 1
        assert "scenario.trials" in capsys.readouterr().err
        assert not out.exists()

    def test_out_path_that_is_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("x")
        assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: output path {str(out)!r} is not a directory\n"

    @pytest.mark.parametrize("name, t_end, message", [
        ("interaction", 1.0e-300,
         "scenario.dt (0.005) must be at most 1/100 of the envelope window: "
         "(envelope.t_end - envelope.t_start) / 100 = 1e-302"),
        ("turn_off_overlap", 3,
         "turn_off.t_off (1.5) must come after the envelope window, which ends at envelope.t_end (3.0)"),
    ])
    def test_cross_key_error_names_the_key_that_broke_it(self, name, t_end, message, tmp_path, capsys):
        mapping = load_yaml(f"{name}.yaml")
        mapping["envelope"]["t_end"] = t_end
        path = write_yaml(tmp_path, "bad.yaml", mapping)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_large_source_amplitude_conserves_relative_to_s(self, command, tmp_path):
        """s = 1e18 drifts by about 4e-16 of s, which the conservation bound, relative to s past 1, accepts."""
        mapping = load_yaml("observation_overlap.yaml")
        mapping["source"]["amplitude1"] = 1.0e9
        path = write_yaml(tmp_path, "large.yaml", mapping)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_tampered_phantom_exits_2_naming_the_invariant(self, tmp_path, capsys):
        mapping = load_yaml("pulse_drift.yaml")
        mapping["debug"] = {"tamper_phantom": True}
        path = write_yaml(tmp_path, "tamper.yaml", mapping)
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "phantom-freeze" in capsys.readouterr().err

    def test_biased_site_selection_exits_3(self, tmp_path, capsys):
        mapping = load_yaml("interaction.yaml")
        mapping["debug"] = {"bias_site_selection": True}
        mapping["scenario"]["trials"] = 20_000
        path = write_yaml(tmp_path, "biased.yaml", mapping)
        code = cli.main(["montecarlo", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "chi2" in capsys.readouterr().err

    def test_montecarlo_requires_enough_trials(self, tmp_path):
        code = cli.main(
            [
                "montecarlo",
                "--config",
                cfg_path("interaction.yaml"),
                "--trials",
                "100",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1


# values a user can write for any key; YAML reads .nan and .inf as floats
PROBE_VALUES = (0, -1, 1e-300, 0.5, 1e9, float("nan"), float("inf"), True, "word", None, [1, 2], 3)


@st.composite
def bundled_with_one_key_set(draw):
    name = draw(st.sampled_from(cli.BUNDLED_CONFIGS))
    mapping = load_yaml(name)
    schema = {**config._BASE_SCHEMA, **config._SCENARIO_SCHEMAS[mapping["scenario"]["name"]]}
    section, key = draw(st.sampled_from([(sec, k) for sec, keys in schema.items() for k in keys]))
    mapping.setdefault(section, {})[key] = draw(st.sampled_from(PROBE_VALUES))
    return name, mapping


def _overran(signum, frame):
    raise TimeoutError("the run went on past 10 s")


@given(case=bundled_with_one_key_set())
@settings(max_examples=200, deadline=3000)
def test_any_single_bad_value_ends_in_an_exit_code(case):
    """One key of a bundled config set to any probe value ends in exit 0-3, never an exception.

    The step and site-table ceilings are lowered (the bundled runs stay
    under them) and an alarm stops a run that still goes on, so that a
    regression fails this test instead of exhausting the machine.
    """
    name, mapping = case
    argv = ["montecarlo", "--trials", "1000"] if name == "interaction_halted.yaml" else ["run"]
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(10)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(scenarios, "MAX_STEPS", 2000), \
                mock.patch.object(scenarios, "MAX_SITE_TABLE_BYTES", 1 << 24):
            path = os.path.join(tmp, "cfg.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(mapping, fh)
            assert cli.main(argv + ["--config", path, "--out", os.path.join(tmp, "o")]) in (0, 1, 2, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_control_table_is_the_schema_table():
    """CONTROL_EXITS holds an outcome for exactly the switches the schema table gives each scenario."""
    declared = {(key, name) for name, schema in config._SCENARIO_SCHEMAS.items() for key in schema.get("debug", {})}
    assert set(CONTROL_EXITS) == declared


@pytest.mark.parametrize("switch", CONTROLS)
@pytest.mark.parametrize("name", cli.BUNDLED_CONFIGS)
def test_control_matrix(name, switch, tmp_path, capsys):
    """A switch the scenario's schema takes keeps its pinned outcome, its detector named on a
    failure; one it does not take exits 1 naming it in every command, instead of being ignored."""
    mapping = load_yaml(name)
    scenario = mapping["scenario"]["name"]
    mapping["debug"] = {switch: True}
    path = write_yaml(tmp_path, "control.yaml", mapping)
    commands = ["run", "montecarlo", "verify"] if scenarios.SCENARIOS[scenario].batch else ["run", "verify"]
    outcomes = {}  # command -> (exit code, stderr)
    for n, command in enumerate(commands):
        outcomes[command] = (cli.main([command, "--config", path, "--out", str(tmp_path / f"o{n}")]),
                             capsys.readouterr().err)
    if switch not in config._SCENARIO_SCHEMAS[scenario].get("debug", {}):
        assert set(outcomes.values()) == {(1, f"config error: unknown config key debug.{switch}\n")}
        return
    codes = {command: code for command, (code, _) in outcomes.items()}
    assert (codes["run"], codes.get("montecarlo"), codes["verify"]) == CONTROL_EXITS[(switch, scenario)]
    for code, err in outcomes.values():
        assert (code != 0) == (CONTROLS[switch] in err)


class TestNeverSteps:
    """No subcommand calls ``dynamics.step``: the backbone, the trajectory rows and the
    drift are computed without it."""

    @pytest.mark.parametrize("name", cli.BUNDLED_CONFIGS)
    def test_run(self, name, tmp_path, monkeypatch):
        refuse_stepping(monkeypatch)
        assert cli.main(["run", "--config", cfg_path(name), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_montecarlo(self, name, tmp_path, monkeypatch):
        refuse_stepping(monkeypatch)
        assert cli.main(["montecarlo", "--config", cfg_path(name), "--trials", "1000", "--out", str(tmp_path)]) == 0

    def test_verify(self, tmp_path, monkeypatch):
        refuse_stepping(monkeypatch)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0


class TestMontecarlo:
    def test_report_written_and_passes(self, tmp_path):
        out = tmp_path / "mc"
        code = cli.main(
            [
                "montecarlo",
                "--config",
                cfg_path("interaction_halted.yaml"),
                "--trials",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert report["passed"]
        assert report["summary"]["probability_pass"]
        assert report["summary"]["closed_form_p_hit"] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("name", [n for n in BATCH_CONFIGS if not n.startswith("interaction")])
    def test_partial_transfer_passes(self, name, tmp_path):
        """With envelope.fraction 0.5 a trial may see no hit: all_trials_reduced is null and the
        turn-off spot rate is taken over all trials, so these runs pass (each exited 3 before)."""
        mapping = load_yaml(name)
        mapping["envelope"]["fraction"] = 0.5
        path = write_yaml(tmp_path, "half.yaml", mapping)
        out = tmp_path / "mc"
        assert cli.main(["montecarlo", "--config", path, "--trials", "100000", "--out", str(out)]) == 0
        summary = json.loads(read(out / "report.json"))["summary"]
        assert summary["all_trials_reduced"] is None
        if "closed_form_p2" in summary:
            assert summary["closed_form_p2"] == pytest.approx(0.25, abs=1e-12)
            assert abs(summary["z_score"]) <= 3.0

    def test_biased_partial_transfer_still_exits_3(self, tmp_path, capsys):
        """The site-selection control still trips the histogram and the final identity of a partial transfer."""
        mapping = load_yaml("observation_overlap.yaml")
        mapping["envelope"]["fraction"] = 0.5
        mapping["debug"] = {"bias_site_selection": True}
        path = write_yaml(tmp_path, "half_biased.yaml", mapping)
        assert cli.main(["montecarlo", "--config", path, "--trials", "100000", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("FAIL site histogram chi2 p=") and "\nFAIL final identity " in err
        assert err.count("FAIL") == 2

    @pytest.mark.parametrize("run", GATE_ALARMS)
    def test_gate_failure_lines_are_pinned(self, run, tmp_path, capsys):
        """Each declared gate's failure line, formatted from the summary, as the runs that trip them print it."""
        name, _, seed = run.partition("@")
        out = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg_path(name), "--trials", "1000", "--seed", seed, "--out", str(out)]
        assert cli.main(argv) == 3
        assert json.loads(read(out / "report.json"))["failures"] == GATE_ALARMS[run]
        assert capsys.readouterr().err == "".join(f"FAIL {line}\n" for line in GATE_ALARMS[run])

    @pytest.mark.parametrize("run, dropped, gate", [
        ("interaction.yaml@122", "chi2_p_value", "chi2_p_value"),
        ("interaction_halted.yaml@53", "z_score", "probability_pass"),
    ])
    def test_gate_key_missing_from_the_summary_exits_2(self, run, dropped, gate, tmp_path, capsys, monkeypatch):
        """A runner whose summary lacks a key a failing gate reads breaches montecarlo-gate, naming
        the gate and the key; read with .get, the chi-square gate passed unseen and the run exited 0."""
        name, _, seed = run.partition("@")
        scenario = load_yaml(name)["scenario"]["name"]
        entry = scenarios.SCENARIOS[scenario]

        def dropping(cfg):
            result = entry.runner(cfg)
            del result.summary[dropped]
            return result

        monkeypatch.setitem(scenarios.SCENARIOS, scenario, dataclasses.replace(entry, runner=dropping))
        argv = ["montecarlo", "--config", cfg_path(name), "--trials", "1000", "--seed", seed, "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"invariant breached: montecarlo-gate (gate {gate} reads '{dropped}', which the summary lacks)\n"
        )

    def test_readme_lists_each_batch_scenario_gates(self):
        """The README's gate list is the table's: every batch scenario, each gate's key and bound."""
        lines = [
            f"  - `{name}`: "
            + ", ".join(f"`{g.key}`" + (f" > {g.bound}" if g.bound is not None else "") for g in sc.gates)
            for name, sc in scenarios.SCENARIOS.items() if sc.batch
        ]
        with open(README, encoding="utf-8") as fh:
            assert "\n".join(lines) + "\n" in fh.read()

    def test_unsupported_scenario_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["montecarlo", "--config", cfg_path("fade_in.yaml"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: scenario 'fade_in' has no Monte Carlo batch; "
            "supported: interaction, unresolvable_observation, turn_off\n"
        )


class TestEnvOverrides:
    def test_env_supplies_config_and_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSECOLLAPSE_CONFIG", cfg_path("interaction.yaml"))
        monkeypatch.setenv("PULSECOLLAPSE_SEED", "4242")
        out = tmp_path / "r"
        assert cli.main(["run", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 4242

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSECOLLAPSE_SEED", "4242")
        out = tmp_path / "r"
        cli.main(["run", "--config", cfg_path("interaction.yaml"), "--seed", "7", "--out", str(out)])
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 7

    def test_negative_env_seed_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PULSECOLLAPSE_SEED", "-1")
        code = cli.main(["montecarlo", "--config", cfg_path("interaction.yaml"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "scenario.seed" in capsys.readouterr().err

    def test_unknown_variable_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        """An environment variable the CLI does not read is refused, as an unknown flag is."""
        monkeypatch.setenv("PULSECOLLAPSE_GUARD", "off")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown environment variable PULSECOLLAPSE_GUARD; known: PULSECOLLAPSE_CONFIG, "
            "PULSECOLLAPSE_FORMATION, PULSECOLLAPSE_OUT, PULSECOLLAPSE_SEED, PULSECOLLAPSE_TRIALS\n"
        )
        assert not out.exists()

    def test_bogus_env_formation_exits_1_naming_the_key(self, tmp_path, monkeypatch, capsys):
        """--formation is limited to its choices; the environment variable is checked as the key is."""
        monkeypatch.setenv("PULSECOLLAPSE_FORMATION", "bogus")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path("interaction.yaml"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: formation.mode must be instant or staged, got 'bogus'\n"
        assert not out.exists()

    def test_bad_env_value_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSECOLLAPSE_TRIALS", "many")
        code = cli.main(
            ["run", "--config", cfg_path("interaction.yaml"), "--out", str(tmp_path / "o")]
        )
        assert code == 1


class TestVerify:
    def test_single_config_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli.main(["verify", "--config", cfg_path("interaction.yaml"), "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert report["passed"]
        names = {c["invariant"] for c in report["checks"]}
        assert {"normalization", "conservation", "determinism", "reduction-zeroing"} <= names
        assert "PASS" in capsys.readouterr().out

    def test_partial_transfer_examines_a_hit(self, tmp_path):
        """At fraction 0.01 trial 0 misses; the zeroing row examines the first trial that hits."""
        mapping = load_yaml("observation_overlap.yaml")
        mapping["envelope"]["fraction"] = 0.01
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", write_yaml(tmp_path, "partial.yaml", mapping), "--out", str(out)]) == 0
        (row,) = [c for c in json.loads(read(out / "report.json"))["checks"] if c["invariant"] == "reduction-zeroing"]
        assert row["passed"] and "surviving label(s)" in row["detail"]
        cfg = config.parse_config(mapping).with_overrides(trials=2000)
        assert scenarios.simulate_trajectory(cfg, trial=0).event is None

    def test_no_hit_fails_the_zeroing_row(self, tmp_path, capsys):
        """At fraction 1e-7 none of the 2,000 trials hits: zeroing is not examined, and verify exits 2."""
        mapping = load_yaml("observation_overlap.yaml")
        mapping["envelope"]["fraction"] = 1e-7
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", write_yaml(tmp_path, "none.yaml", mapping), "--out", str(out)]) == 2
        failed = [c for c in json.loads(read(out / "report.json"))["checks"] if not c["passed"]]
        assert [(c["invariant"], c["detail"]) for c in failed] == [
            ("reduction-zeroing", "no hit in 2000 trials: zeroing not examined")
        ]
        assert "verify FAILED: reduction-zeroing" in capsys.readouterr().err

    def test_staged_disengage_still_forming_passes(self, tmp_path):
        """At tau 0.5 the pulse still forms at t_dis: the event row keeps the currents taken before
        the swap (about -7e-16), which are no current after it, so coefficient-freeze passes (it exited 2)."""
        mapping = load_yaml("disengage.yaml")
        mapping["formation"].update(mode="staged", tau=0.5)
        path = write_yaml(tmp_path, "staged.yaml", mapping)
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0

    def test_disengage_examines_the_first_trial_that_hits(self, tmp_path):
        """At fraction 0.3 trial 0 misses, so no swap runs on it; the freeze row examines the
        first trial that hits (it failed swap_identical, exit 2)."""
        mapping = load_yaml("disengage.yaml")
        mapping["envelope"]["fraction"] = 0.3
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", write_yaml(tmp_path, "partial.yaml", mapping), "--out", str(out)]) == 0
        assert scenarios.simulate_trajectory(config.parse_config(mapping), trial=0).event is None

    def test_disengage_with_no_hit_fails_the_freeze_row(self, tmp_path, capsys):
        """At fraction 1e-7 none of the 2,000 trials hits: the swap is not examined, and verify exits 2."""
        mapping = load_yaml("disengage.yaml")
        mapping["envelope"]["fraction"] = 1e-7
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", write_yaml(tmp_path, "none.yaml", mapping), "--out", str(out)]) == 2
        assert [(c["invariant"], c["passed"], c["detail"]) for c in json.loads(read(out / "report.json"))["checks"]] == [
            ("coefficient-freeze", False, "no hit in 2000 trials: swap not examined")
        ]
        assert "verify FAILED: coefficient-freeze" in capsys.readouterr().err

    def test_disengage_run_with_no_hit_writes_a_null_swap(self, tmp_path):
        """No hit, no swap: run's summary holds null for swap_identical, not false."""
        mapping = load_yaml("disengage.yaml")
        mapping["envelope"]["fraction"] = 1e-7
        out = tmp_path / "r"
        assert cli.main(["run", "--config", write_yaml(tmp_path, "none.yaml", mapping), "--out", str(out)]) == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["hit"] is False and summary["swap_identical"] is None

    def test_coefficient_freeze_failure_names_its_conditions(self, tmp_path, monkeypatch):
        """A failed freeze names each failed condition and the largest current past the event row."""
        runner = scenarios.run_disengage

        def moving(*args):
            result = runner(*args)
            result.trajectory.currents[-1, 2] = -7e-16
            result.summary.update(swap_identical=False, currents_zero_after_dis=False)
            return result

        monkeypatch.setattr(scenarios, "run_disengage", moving)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path("disengage.yaml"), "--out", str(out)]) == 2
        assert [c["detail"] for c in json.loads(read(out / "report.json"))["checks"]] == [
            "disengage failed swap_identical, currents_zero_after_dis; largest current after the event row -7.000e-16"
        ]

    def test_bundled_report_is_pinned(self, tmp_path):
        """verify's report over the bundled configs is a deterministic function of the code."""
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(read(tmp_path / "report.json")).hexdigest() == GOLDEN_VERIFY_REPORT

    def test_drift_config_covers_phantom_and_guard(self, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["verify", "--config", cfg_path("pulse_drift.yaml"), "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "report.json"))
        names = {c["invariant"] for c in report["checks"]}
        assert {"phantom-freeze", "rule4-guard", "conservation"} <= names
