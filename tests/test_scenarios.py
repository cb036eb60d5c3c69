"""Scenario and driver tests.

The hit budget is the transferred square modulus over s, so the backbone's
cumulative budget must land exactly on the closed form: fraction f for a
halted ramp, 1 for a complete one. Small-batch statistics here use wide
(5 sigma) bands; the tight 3 sigma comparisons live in the acceptance
suite at 10^5 trials.
"""

import concurrent.futures
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pulsecollapse import dynamics, scenarios
from pulsecollapse.config import SCENARIO_NAMES, parse_config
from pulsecollapse.errors import (
    ConfigError,
    HitRateTooHigh,
    InvariantBreach,
    Rule4Violation,
    SimulationError,
)
from pulsecollapse.reduction import (
    MAX_STEP_HIT_PROBABILITY,
    ReductionEvent,
    RngStream,
    hit_probability,
    reduce,
)
from pulsecollapse.scenarios import (
    build_backbone,
    build_initial,
    place_hits,
    run_batch,
    run_fade_in,
    run_pulse_drift,
    run_scenario,
    simulate_trajectory,
    site_cdfs,
)
from pulsecollapse.state import Pulse, PulseKind, Term, total_square_modulus
from tests.conftest import bundled_config

BATCH_CONFIGS = (
    "interaction.yaml",
    "interaction_halted.yaml",
    "observation_overlap.yaml",
    "observation_disjoint.yaml",
    "observation_single.yaml",
    "turn_off_overlap.yaml",
    "turn_off_disjoint.yaml",
)
BACKBONE_CONFIGS = BATCH_CONFIGS + ("disengage.yaml", "fade_in.yaml")
TRAJECTORY_CONFIGS = (
    "interaction.yaml",
    "observation_overlap.yaml",
    "turn_off_overlap.yaml",
    "disengage.yaml",
    "fade_in.yaml",
)

# large 31-bit seeds for the stepped-trajectory comparison
LARGE_SEEDS = (2147483647, 2061012345, 1886280274, 1234567890, 987654321)

# a ramp too weak to hit, so every row past the backbone is built without an event
NO_HIT = {"envelope": {"fraction": 1e-9}}

# 200.24 ramp steps rounded to 200 and no tail: the backbone takes one more step to reach t_end
SHORT = {"envelope": {"t_end": 1.0012}, "scenario": {"tail_steps": 0}}
SHORT_NO_HIT = {"envelope": {"t_end": 1.0012, "fraction": 1e-9}, "scenario": {"tail_steps": 0}}

# events_digest of each batch config at its own seed and 10^5 trials
GOLDEN_DIGESTS = {
    "interaction.yaml": "09cb6ed5a335e803ddd94370dac30992c108332b176e0de2f0d12975ef3aa3ee",
    "interaction_halted.yaml": "3132202ac6137c159f379227b8b87169427fde9ca93f265b316e2941a9a71bfa",
    "observation_overlap.yaml": "ebad0931c52c275523707929547ee8f1d13ef462f7722aaac3990cf99bf94abb",
    "observation_disjoint.yaml": "0b7440a0ec8c8ea49f3f793fb0db3dddc19f8fe851b8b056e3d16b935d8a0223",
    "observation_single.yaml": "f1e685adb2b9287cff8c13cbff350b54599ef67c62e7f17b6f78045a67236c30",
    "turn_off_overlap.yaml": "fa3af40d32a0e9073ae7f2303be80e43605b0dd5da49873fdbf624268d60f965",
    "turn_off_disjoint.yaml": "5197fa1c16cb6e4f0d19da594a17a399626d000d16bcc2c446e643c22772288d",
}


# drift overrides of the bundled pulse_drift config, with the sha256 of the float64
# bytes of the log's times, sq_terms, currents and total_sq
DRIFT_VARIANTS = {
    "bundled": ({}, "f7660be638f018c90950f68433c07408e061f3c75b780df1677d5266743c149f"),
    "still": ({"velocity": 0.0}, "198cdd8d31823857436ee3282359ca8c0f1e3d3c6fc1cf75ef776b48d6516175"),
    "backwards": ({"velocity": -0.3}, "fdf3466b8430804a7bc615242ad5d17fd7df9c73d5e19bc63521db4a90687731"),
    "no_shedding": ({"shed_rate": 0.0}, "cc0ebc5517ca1fbec53b202fee5ad1d42166c1eeccd27248278b462d76b9f064"),
    "fast_short": ({"velocity": 2.0, "duration": 3.0},
                   "64d331b3c504af29c57e348775d1a71558d4b298e8fdddf463feefd40a2890c9"),
}

# sha256 of the final state of each DRIFT_VARIANTS run: the conscious and shadow weight bytes,
# the shadow's phantom and fed masks ("none" where absent) and both coefficients as complex128
DRIFT_FINAL_STATES = {
    "bundled": "bc0915c48a23562351e563baffcf023ddf55e81bed8ecc28f35e25ab70c78232",
    "still": "66af8242d4a4796ffb11ac92d5b4cf183ce7c2ae4e3dc0200303f854dc6cde6c",
    "backwards": "83e488f95085b62c2c9906aaaf8f80d2b67b7315eb66dec9999498932d8eadc5",
    "no_shedding": "6d57100a9a0382143e3648fa484de77d434dd6c5a52de058bcdaae23609c61c6",
    "fast_short": "76bb2b31d30e82ec1c2e9f7f522ba0f3f4a019166c9d0f1180ee28623ad6c4ed",
}

# the injected pair's term indices follow the drift state's two terms
INJECTED_PAIR = r"term 2 -> term 3 \(observer 'obs'\)"

# complete budgets crowding one bucket of the hit-step table, with their refinement passes:
# 39 values in the first bucket (and a repeated value); 5 in the last, three of them above 1
DENSE_BUDGETS = {
    "dense_first_bucket": (np.concatenate((np.linspace(0.0, 1e-4, 40), [0.3, 0.3, 1.0])), 39),
    "dense_last_bucket": (np.array([0.5, 1 - 4e-16, 1 - 2e-16, 1.0, 1 + 2e-16, 1 + 4e-16]), 5),
}


def small(cfg, trials=4000):
    return cfg.with_overrides(trials=trials)


def cdfs(bb, biased=False):
    return site_cdfs(bb.coeffs[:, list(bb.ready_ids)], bb.ready_amps, bb.dt, bb.state0.s, biased)


def placed(cfg):
    """The batch kernel on the run's whole draw stream at once: one row per trial."""
    bb = build_backbone(cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    return bb, place_hits(bb, *cdfs(bb), rng.random((cfg.trials, 3)))


def stepped_backbone(cfg):
    """The pre-hit flow advanced by ``dynamics.step`` one step at a time."""
    state, schedule = build_initial(cfg)
    s, dt = state.s, cfg.dt
    ready = [n for n, t in enumerate(state.terms) if t.brain.is_ready and not t.phantom]
    times, total = [state.time], [total_square_modulus(state)]
    coeffs = [[t.coefficient for t in state.terms]]
    sq_terms = [[t.square_modulus() for t in state.terms]]
    dst_factor = [schedule.envelope_factors(state.time)[1]]
    step_mass, weights, currents, norm_err = [], [], [], 0.0
    for _ in range(len(scenarios._backbone_times(cfg)) - 1):
        state, report = dynamics.step(state, schedule, dt)
        step_mass.append(hit_probability(report, s, dt))
        currents.append(report.per_term)
        weights.append(np.concatenate([np.clip(report.per_site[n], 0.0, None) * dt / s for n in ready]))
        times.append(state.time)
        coeffs.append([t.coefficient for t in state.terms])
        sq_terms.append([t.square_modulus() for t in state.terms])
        total.append(total_square_modulus(state))
        dst_factor.append(schedule.envelope_factors(state.time)[1])
        for t in state.terms:
            if isinstance(t.brain, Pulse):
                norm_err = max(norm_err, abs(t.brain.norm_sq() - 1.0))
    total = np.array(total)
    return {
        "times": np.array(times),
        "coeffs": np.array(coeffs, dtype=np.complex128),
        "sq_terms": np.array(sq_terms),
        "currents": np.array(currents),
        "total_sq": total,
        "step_mass": np.array(step_mass),
        "cum_budget": np.cumsum(step_mass),
        "dst_factor": np.array(dst_factor),
        "weights": np.array(weights),
        "audits": {
            "max_conservation_drift": float(np.max(np.abs(total - total[0]))),
            "max_pulse_norm_error": norm_err,
            "max_step_hit_probability": max(step_mass),
        },
    }


def stepped_trajectory(cfg, trial=0):
    """One trial advanced by ``dynamics.step`` from t_start, with the hit budget summed step by step.

    The hit fires in the step whose budget window holds u1 or, for a
    completed transfer, at the first step that leaves at most 1e-12 of it.
    """
    state, schedule = build_initial(cfg)
    policy = scenarios._formation_policy(cfg)
    rng = RngStream(cfg.seed, trial)
    u1 = rng.uniform()
    dt, s, grid = cfg.dt, state.s, state.grid
    n_steps = len(scenarios._backbone_times(cfg)) - 1
    t_off = cfg.get("turn_off.t_off")
    t_dis = cfg.get("disengage.t_dis")
    if cfg.name == "turn_off":
        n_steps += int(round((t_off - cfg.data["envelope"]["t_end"]) / dt)) + 10
    elif cfg.name == "disengage":
        n_steps += int(round((t_dis - cfg.data["envelope"]["t_end"]) / dt))
        n_steps += cfg.data["disengage"]["hold_steps"]
    elif cfg.name == "fade_in":
        n_steps += cfg.data["formation"]["settle_steps"]

    ready_ids, ready_amps = scenarios._hit_targets(state)
    active, budget, event = schedule, 0.0, None
    extras = {"occupied_counts": [], "formation_stages": [], "formation_norm_err": 0.0,
              "turned_off": False, "disengaged": False}
    times = [state.time]
    sq_rows = [[t.square_modulus() for t in state.terms]]
    cur_rows = [[0.0] * len(state.terms)]
    tot_rows = [total_square_modulus(state)]
    budget_rows = [0.0]

    def live_pulse():
        return next((t.brain for t in state.terms
                     if isinstance(t.brain, Pulse) and t.coefficient != 0), None)

    for _ in range(n_steps):
        before = state
        state, report = dynamics.step(state, active, dt)
        if event is None:
            p = hit_probability(report, s, dt)
            assert p < MAX_STEP_HIT_PROBABILITY
            new_budget = budget + p
            forced = 1.0 - new_budget <= scenarios.BUDGET_RESIDUAL_TOL and p > 0.0
            if (budget <= u1 < new_budget) or (forced and u1 >= new_budget):
                u2 = rng.uniform()
                progress = schedule.envelope_factors(state.time)[1] / schedule.envelope_factors(1e30)[1]
                edges = np.array([[st.terms[n].coefficient for n in ready_ids] for st in (before, state)])
                cdf, total = site_cdfs(edges, ready_amps, dt, s, cfg.data["debug"]["bias_site_selection"])
                row, site = divmod(int(scenarios._flat_cell(cdf[0], u2 * total[0])), grid.n_points)
                pre = total_square_modulus(state)
                state = reduce(state, ready_ids[row], site)
                post = {t.apparatus_label: t.coefficient for t in state.terms if t.coefficient != 0}
                event = ReductionEvent(t_sc=state.time, term_hit=ready_ids[row], u_sc=site, pre_norm=pre,
                                       post_coefficients=post, rng_draws=(u1, u2), ramp_progress=progress)
                state = dynamics.form_pulse(state, site, policy)
                active = dynamics.EnvelopeSchedule.hold()
                pl = live_pulse()
                if pl is not None and pl.kind is PulseKind.CONSCIOUS:
                    extras["occupied_counts"].append(int(np.count_nonzero(pl.weights)))
                    extras["formation_stages"].append(pl.formation_stage)
            budget = new_budget
        else:
            if cfg.name == "turn_off" and not extras["turned_off"] and state.time >= t_off:
                state = scenarios._zero_label(state, label=1)
                extras["turned_off"] = True
                extras["post_off_coefficients"] = {
                    t.apparatus_label: t.coefficient for t in state.terms if t.coefficient != 0
                }
            if cfg.name == "disengage" and not extras["disengaged"] and state.time >= t_dis:
                coeffs = tuple(t.coefficient for t in state.terms)
                state = scenarios._swap_disengaged(state)
                extras["disengaged"] = True
                extras["swap_identical"] = coeffs == tuple(t.coefficient for t in state.terms)
            pl = live_pulse()
            if pl is not None:
                extras["formation_norm_err"] = max(extras["formation_norm_err"], abs(pl.norm_sq() - 1.0))
                if pl.kind is PulseKind.CONSCIOUS:
                    extras["occupied_counts"].append(int(np.count_nonzero(pl.weights)))
                    extras["formation_stages"].append(pl.formation_stage)
        times.append(state.time)
        sq_rows.append([t.square_modulus() for t in state.terms])
        cur_rows.append(list(report.per_term))
        tot_rows.append(total_square_modulus(state))
        budget_rows.append(budget)

    if cfg.name == "turn_off" and event is not None:
        w = {lbl: abs(c) ** 2 for lbl, c in event.post_coefficients.items()}
        w1, w2 = w.get(1, 0.0), w.get(2, 0.0)
        u3 = rng.uniform()
        extras["spot_remains"] = bool(u3 < (w2 / (w1 + w2))) if (w1 + w2) > 0 else False
        extras["spot_draw"] = u3
    log = {"times": times, "sq_terms": sq_rows, "currents": cur_rows,
           "total_sq": tot_rows, "budget": budget_rows}
    return {k: np.array(v) for k, v in log.items()}, event, extras


def _resample_shifted(weights, grid, shift):
    u = grid.sites
    re = np.interp(u - shift, u, weights.real, left=0.0, right=0.0)
    im = np.interp(u - shift, u, weights.imag, left=0.0, right=0.0)
    return re + 1j * im


def frozen_drift(state, velocity, dt, shed_rate):
    """One drift step by the per-state law that ``dynamics.drift_pulse`` held before the drift
    ran on arrays (commit 9e2e872^, ``_resample_shifted`` and ``drift_pulse`` with a ready
    shadow), kept here as the kernel's independent reference. The ``PulseFactor`` wrapper of
    that time is gone: a term's brain is the ``Pulse`` itself. A still pulse (velocity 0)
    keeps its terms at ``time + dt``; the old law returned the state as it was, time included.

    The conscious profile is resampled by linear interpolation and renormalised; with
    ``shed_rate > 0`` it sheds |a|^2 (1 - exp(-shed_rate |v| dt / du)) into the unique ready
    term, spread over its non-phantom sites in proportion to the conscious profile, and a
    fed shadow site whose incoming current falls below the floor turns phantom.
    """
    if velocity == 0.0:
        return state.with_terms(state.terms, time=state.time + dt)
    (ci,) = [n for n, t in enumerate(state.terms)
             if isinstance(t.brain, Pulse) and t.brain.kind is PulseKind.CONSCIOUS]
    cons_term = state.terms[ci]
    grid = state.grid
    du = grid.spacing
    shifted = _resample_shifted(cons_term.brain.weights, grid, velocity * dt)
    nrm = math.sqrt(float(np.sum(np.abs(shifted) ** 2)) * du)
    shifted = shifted / nrm
    new_cons_pulse = Pulse(kind=PulseKind.CONSCIOUS, grid=grid, weights=shifted,
                           center_index=int(np.argmax(np.abs(shifted))),
                           observer_id=cons_term.brain.observer_id)
    new_terms = list(state.terms)
    new_coeff = cons_term.coefficient

    if shed_rate > 0.0:
        (si,) = [n for n, t in enumerate(state.terms)
                 if n != ci and not t.phantom and isinstance(t.brain, Pulse) and t.brain.kind is PulseKind.READY]
        shadow_term = state.terms[si]
        shadow_pulse = shadow_term.brain
        none = np.zeros(grid.n_points, dtype=bool)
        phantom = shadow_pulse.phantom_sites if shadow_pulse.phantom_sites is not None else none
        fed = shadow_pulse.fed_sites if shadow_pulse.fed_sites is not None else none

        decay = math.exp(-shed_rate * abs(velocity) * dt / du)
        shed = abs(cons_term.coefficient) ** 2 * (1.0 - decay)
        share = np.abs(new_cons_pulse.site_amplitudes()) ** 2
        share[phantom] = 0.0
        share_total = float(share.sum())
        incoming = np.zeros(grid.n_points)
        shadow_masses = np.abs(shadow_term.coefficient) ** 2 * np.abs(shadow_pulse.site_amplitudes()) ** 2
        if share_total > 0.0:
            share = share / share_total
            incoming = shed * share / dt
            shadow_masses = shadow_masses + shed * share
            new_coeff = cons_term.coefficient * math.sqrt(decay)

        newly_phantom = fed & ~phantom & (incoming < dynamics.PHANTOM_CURRENT_FLOOR)
        fed = fed | (incoming >= dynamics.PHANTOM_CURRENT_FLOOR)
        phantom = phantom | newly_phantom

        total_mass = float(shadow_masses.sum())
        if total_mass > 0.0:
            amps = np.sqrt(shadow_masses / total_mass)
            weights, center, shadow_coeff = amps / math.sqrt(du), int(np.argmax(amps)), math.sqrt(total_mass)
        else:
            weights, center = shadow_pulse.weights, shadow_pulse.center_index
            shadow_coeff = shadow_term.coefficient
        new_shadow_pulse = Pulse(kind=PulseKind.READY, grid=grid, weights=weights, center_index=center,
                                 phantom_sites=phantom, fed_sites=fed, observer_id=shadow_pulse.observer_id)
        new_terms[si] = Term(apparatus_label=shadow_term.apparatus_label, coefficient=shadow_coeff,
                             brain=new_shadow_pulse, phantom=shadow_term.phantom)

    new_terms[ci] = Term(apparatus_label=cons_term.apparatus_label, coefficient=new_coeff,
                         brain=new_cons_pulse, phantom=cons_term.phantom)
    return state.with_terms(new_terms, time=state.time + dt)


def stepped_drift(cfg):
    """A drift run as a loop over ``frozen_drift`` on whole states, with the phantom-freeze
    audit over a dict of frozen amplitudes: the log arrays, summary and final state."""
    state, _ = build_initial(cfg)
    dr, dt = cfg.data["drift"], cfg.dt
    n_steps = int(round(dr["duration"] / dt))
    frozen, max_phantom_drift, max_cons = {}, 0.0, 0.0
    total0 = total_square_modulus(state)
    times = [state.time]
    sq_rows = [[t.square_modulus() for t in state.terms]]
    cur_rows = [[0.0] * len(state.terms)]
    tot_rows = [total0]
    for _ in range(n_steps):
        state = frozen_drift(state, dr["velocity"], dt, dr["shed_rate"])
        shadow = state.terms[1]
        pulse = shadow.brain
        if pulse.phantom_sites is not None:
            amps = np.abs(shadow.coefficient) * np.abs(pulse.site_amplitudes())
            for site in np.flatnonzero(pulse.phantom_sites).tolist():
                if site in frozen:
                    max_phantom_drift = max(max_phantom_drift, abs(amps[site] - frozen[site]))
                else:
                    frozen[site] = float(amps[site])
        max_cons = max(max_cons, abs(total_square_modulus(state) - total0))
        sq_now = [t.square_modulus() for t in state.terms]
        cur_rows.append([(b - a) / dt for a, b in zip(sq_rows[-1], sq_now)])
        sq_rows.append(sq_now)
        times.append(state.time)
        tot_rows.append(total_square_modulus(state))
    shadow = state.terms[1]
    phantom = shadow.brain.phantom_sites
    summary = {
        "scenario": cfg.name,
        "steps": n_steps,
        "traverse_sites": dr["velocity"] * dr["duration"] / state.grid.spacing,
        "phantom_trail_count": int(phantom.sum() if phantom is not None else 0),
        "max_phantom_drift": max_phantom_drift,
        "max_conservation_drift": max_cons,
        "rule4_violations": 0,
        "conscious_square_modulus": state.terms[0].square_modulus(),
        "shadow_square_modulus": shadow.square_modulus(),
    }
    log = {"times": times, "sq_terms": sq_rows, "currents": cur_rows,
           "total_sq": tot_rows, "budget": np.zeros(len(times))}
    return {k: np.array(v) for k, v in log.items()}, summary, state


def final_state_digest(state):
    """sha256 of a drift state's conscious and shadow weight bytes, the shadow's phantom and
    fed masks ("none" where absent) and both coefficients as complex128."""
    (cons, shadow) = state.terms
    parts = [cons.brain.weights.tobytes(), shadow.brain.weights.tobytes()]
    parts += [b"none" if m is None else m.tobytes() for m in (shadow.brain.phantom_sites, shadow.brain.fed_sites)]
    parts.append(np.array([complex(cons.coefficient), complex(shadow.coefficient)]).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


def drift_outputs(cfg, monkeypatch):
    """A drift run's log digest (as DRIFT_VARIANTS pins it), summary and final-state digest
    (as DRIFT_FINAL_STATES pins it); the final state is the one the kernel builds, or the
    initial state of a still drift, which builds none."""
    built = []
    kernel_state = dynamics.DriftKernel.state
    with monkeypatch.context() as patch:
        patch.setattr(dynamics.DriftKernel, "state", lambda *a: built.append(kernel_state(*a)) or built[-1])
        result = run_pulse_drift(cfg)
    log = result.trajectory
    data = b"".join(getattr(log, key).tobytes() for key in ("times", "sq_terms", "currents", "total_sq"))
    final = final_state_digest(built[-1] if built else build_initial(cfg)[0])
    return hashlib.sha256(data).hexdigest(), result.summary, final


def count_schedule_calls(monkeypatch):
    """Count calls of EnvelopeSchedule.envelope_factors and .coefficients from now on."""
    calls = {"envelope_factors": 0, "coefficients": 0}
    for attr in calls:
        method = getattr(dynamics.EnvelopeSchedule, attr)

        def counted(self, *args, _attr=attr, _method=method):
            calls[_attr] += 1
            return _method(self, *args)

        monkeypatch.setattr(dynamics.EnvelopeSchedule, attr, counted)
    return calls


def config_variant(name, sections):
    """The bundled config ``name`` with the keys in ``sections`` ({section: {key: value}}) replaced."""
    raw = {k: dict(v) for k, v in bundled_config(name).raw.items()}
    for section, values in sections.items():
        raw.setdefault(section, {}).update(values)
    return parse_config(raw)


def drift_variant(**drift):
    """The bundled drift config with some ``drift`` keys replaced."""
    return config_variant("pulse_drift.yaml", {"drift": drift})


class TestScenarioTable:
    def test_every_scenario_name_has_an_entry(self):
        assert set(scenarios.SCENARIOS) == set(SCENARIO_NAMES)

    def test_every_field_tells_entries_apart(self):
        for f in dataclasses.fields(scenarios.Scenario):
            assert len({getattr(sc, f.name) for sc in scenarios.SCENARIOS.values()}) >= 2, f.name

    def test_holds_no_reference_to_the_wrapped_functions(self):
        """run_batch and simulate_trajectory are called through the module, so a wrapper set there sees every call."""
        for sc in scenarios.SCENARIOS.values():
            for f in dataclasses.fields(sc):
                assert getattr(sc, f.name) not in (scenarios.run_batch, scenarios.simulate_trajectory)

    @pytest.mark.parametrize("name, keys", [
        ("interaction.yaml", ("scenario.dt", "scenario.tail_steps")),
        ("turn_off_overlap.yaml", ("turn_off.t_off",)),
        ("disengage.yaml", ("disengage.t_dis", "disengage.hold_steps")),
        ("fade_in.yaml", ("formation.settle_steps",)),
    ])
    def test_step_ceiling_counts_the_rows_past_the_backbone(self, name, keys, monkeypatch):
        """A trajectory over MAX_STEPS is refused, naming the keys that set its rows past the backbone."""
        cfg = bundled_config(name).with_overrides(trials=1000)
        n_steps = len(build_backbone(cfg).step_mass)
        extra = scenarios.SCENARIOS[cfg.name].extra_steps(cfg)
        monkeypatch.setattr(scenarios, "MAX_STEPS", n_steps + extra + 1)
        assert len(simulate_trajectory(cfg).log.times) == n_steps + extra + 1
        monkeypatch.setattr(scenarios, "MAX_STEPS", n_steps + extra - 1)
        with pytest.raises(ConfigError) as exc:
            simulate_trajectory(cfg)
        assert all(k in str(exc.value) for k in keys)

    def test_drift_step_ceiling(self, monkeypatch):
        monkeypatch.setattr(scenarios, "MAX_STEPS", 1199)
        with pytest.raises(ConfigError, match="drift.duration"):
            run_pulse_drift(bundled_config("pulse_drift.yaml"))


class TestBackbone:
    def test_halted_budget_is_the_transferred_fraction(self, interaction_halted_cfg):
        """Cumulative budget ends exactly at fraction = 0.3."""
        bb = build_backbone(interaction_halted_cfg)
        assert bb.cum_budget[-1] == pytest.approx(0.3, abs=1e-12)
        assert not bb.complete

    def test_full_ramp_budget_is_one(self, interaction_cfg):
        bb = build_backbone(interaction_cfg)
        assert bb.cum_budget[-1] == pytest.approx(1.0, abs=1e-12)
        assert bb.complete

    def test_step_probabilities_stay_under_cap(self, interaction_cfg):
        bb = build_backbone(interaction_cfg)
        assert bb.audits["max_step_hit_probability"] < 0.05

    def test_coefficients_conserve_square_modulus(self, observation_overlap_cfg):
        bb = build_backbone(observation_overlap_cfg)
        np.testing.assert_allclose(bb.total_sq, bb.total_sq[0], rtol=0, atol=1e-9)

    def test_oversized_grid_is_a_config_error(self, observation_overlap_cfg, monkeypatch):
        """run_batch's site-table estimate trips before any grid-sized allocation."""
        monkeypatch.setattr(scenarios, "MAX_SITE_TABLE_BYTES", 1 << 20)
        raw = {k: dict(v) for k, v in observation_overlap_cfg.raw.items()}
        raw["grid"]["n_points"] = 1 << 14
        cfg = parse_config(raw)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="grid.n_points"):
                run_batch(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 14  # one float array over the grid

    def test_oversized_grid_still_runs_a_trajectory(self, observation_overlap_cfg, monkeypatch):
        """The trajectory driver builds no site tables, so the limit does not apply to it."""
        monkeypatch.setattr(scenarios, "MAX_SITE_TABLE_BYTES", 1 << 20)
        raw = {k: dict(v) for k, v in observation_overlap_cfg.raw.items()}
        raw["grid"]["n_points"] = 1 << 14
        out = simulate_trajectory(parse_config(raw))
        assert out.event is not None
        assert out.log.sq_terms.shape[1] == 4

    def test_ready_terms_identified(self, observation_overlap_cfg):
        bb = build_backbone(observation_overlap_cfg)
        assert bb.ready_ids == (2, 3)
        cdf, total = cdfs(bb)
        assert cdf.shape == (len(bb.step_mass), 2 * bb.state0.grid.n_points)
        assert total.shape == bb.step_mass.shape

    @pytest.mark.parametrize("name", BACKBONE_CONFIGS)
    def test_closed_form_equals_stepped_reference(self, name):
        """The closed-form backbone and its site tables equal the stepped flow bit for bit."""
        cfg = bundled_config(name)
        bb = build_backbone(cfg)
        ref = stepped_backbone(cfg)
        for key in ("times", "coeffs", "sq_terms", "currents", "total_sq", "step_mass", "cum_budget", "dst_factor"):
            assert np.array_equal(getattr(bb, key), ref[key]), key
        for biased in (False, True):
            w = ref["weights"] ** 2 if biased else ref["weights"]
            cdf, total = cdfs(bb, biased)
            assert np.array_equal(cdf, np.cumsum(w, axis=1))
            assert np.array_equal(total, w.sum(axis=1))
        assert bb.audits == ref["audits"]

    def test_site_tables_square_as_step_does(self, observation_overlap_cfg):
        """site_cdfs takes |c|^2 with libm pow, as step's per-site currents do;
        for these coefficients x * x differs from pow in the last bit."""
        bb = build_backbone(observation_overlap_cfg)
        dt, s, ready = bb.dt, bb.state0.s, list(bb.ready_ids)
        odd = [v for v in np.random.default_rng(3).random(40_000).tolist() if v**2 != v * v][:2]
        rows = [[0.5 * v for v in odd], odd]

        def state_with(row):
            terms = list(bb.state0.terms)
            for n, c in zip(ready, row):
                terms[n] = Term(terms[n].apparatus_label, complex(c), terms[n].brain)
            return bb.state0.with_terms(terms)

        m0, m1 = (dynamics._site_masses(state_with(row)) for row in rows)
        w = np.concatenate([np.clip((m1[n] - m0[n]) / dt, 0.0, None) * dt / s for n in ready])
        cdf, total = site_cdfs(np.array(rows, dtype=np.complex128), bb.ready_amps, dt, s)
        assert np.array_equal(cdf[0], np.cumsum(w))

    def test_conservation_bound_is_relative_to_s_past_one(self):
        """The bound is unchanged for s <= 1 and scales with s above it."""
        tol = scenarios.CONSERVATION_TOL
        assert scenarios._conservation_bound(1.0, 0.5) == tol
        assert scenarios._conservation_bound(0.25, 3.0) == 3.0 * tol
        assert scenarios._conservation_bound(1e18, 2.0) == tol * 2.0 * 1e18

    @pytest.mark.parametrize("name", BACKBONE_CONFIGS)
    def test_evaluates_the_envelope_once_per_time(self, name, monkeypatch):
        """One envelope_factors call per backbone time; the coefficients are taken from its
        factors on arrays, with one coefficients call for all the times."""
        calls = count_schedule_calls(monkeypatch)
        bb = build_backbone(bundled_config(name))
        assert calls == {"envelope_factors": len(bb.times), "coefficients": 1}

    # envelope variants of each ramp config: the trig and linear ramps, partial transfers, no tail
    CLOSED_FORM_VARIANTS = {
        "trig": {},
        "linear": {"envelope": {"kind": "linear"}},
        "trig 0.37 no tail": {"envelope": {"fraction": 0.37}, "scenario": {"tail_steps": 0}},
        "linear 1e-7": {"envelope": {"kind": "linear", "fraction": 1e-7}},
    }

    @pytest.mark.parametrize("variant", CLOSED_FORM_VARIANTS)
    @pytest.mark.parametrize("name", BACKBONE_CONFIGS)
    def test_arrays_equal_the_per_time_closed_form(self, name, variant):
        """The backbone's array rows equal the schedule's closed form taken time by time
        with Python scalars (coefficients, abs and pow, row sums), bit for bit."""
        bb = build_backbone(config_variant(name, self.CLOSED_FORM_VARIANTS[variant]))
        terms = bb.state0.terms
        rows = [[t.coefficient for t in terms]]
        for t in bb.times[1:].tolist():
            pred = bb.schedule.predicted_coefficients(t)
            rows.append([pred.get(n, c) for n, c in enumerate(rows[0])])
        sq = [[abs(c) ** 2 * term.brain.norm_sq() for c, term in zip(row, terms)] for row in rows]
        currents = [[(a - b) / bb.dt for a, b in zip(row, before)] for before, row in zip(sq, sq[1:])]
        want = {
            "coeffs": np.array(rows, dtype=np.complex128),
            "sq_terms": np.array(sq),
            "total_sq": np.array([sum(row) for row in sq]),
            "currents": np.array(currents),
            "dst_factor": np.array([bb.schedule.envelope_factors(t)[1] for t in bb.times.tolist()]),
        }
        for key, value in want.items():
            assert getattr(bb, key).tobytes() == value.tobytes(), key

    def test_short_ramp_backbone_reaches_t_end(self):
        """With no tail, a ramp of 200.24 steps rounded to 200 takes one more step to reach
        t_end: the transfer completes, every one of 10^6 trials reduces, and rows past the
        backbone of a run without a hit keep the ramp's closed form."""
        cfg = config_variant("observation_overlap.yaml", SHORT).with_overrides(trials=1_000_000)
        bb = build_backbone(cfg)
        assert len(bb.times) == 202
        assert bb.times[-2] < cfg.data["envelope"]["t_end"] <= bb.times[-1]
        assert bb.complete
        _, batch = run_batch(cfg, backbone=bb)
        assert batch.n_hits == cfg.trials
        cfg = config_variant("disengage.yaml", SHORT_NO_HIT)
        bb = build_backbone(cfg)
        out = simulate_trajectory(cfg, backbone=bb)
        assert out.event is None and len(out.log.times) > len(bb.times)
        terms = bb.state0.terms
        for t, row in zip(out.log.times, out.log.sq_terms):
            pred = bb.schedule.predicted_coefficients(t)
            want = [abs(pred.get(n, term.coefficient)) ** 2 * term.brain.norm_sq() for n, term in enumerate(terms)]
            assert row.tolist() == want, t

    def test_fast_stepping_is_rejected(self, interaction_cfg, monkeypatch):
        """A per-step hit probability at or above the cap means dt is too coarse."""
        monkeypatch.setattr(scenarios, "MAX_STEP_HIT_PROBABILITY", 1e-3)
        with pytest.raises(HitRateTooHigh):
            build_backbone(interaction_cfg)


class TestBatch:
    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_golden_digest(self, name):
        """The output for a config's own seed is pinned; any change to it must be deliberate."""
        _, batch = run_batch(bundled_config(name).with_overrides(trials=100_000))
        assert batch.events_digest == GOLDEN_DIGESTS[name]

    def test_deterministic_digest(self, interaction_halted_cfg):
        """Same config and seed give byte-identical event batches."""
        cfg = small(interaction_halted_cfg)
        _, b1 = run_batch(cfg)
        _, b2 = run_batch(cfg)
        assert b1.events_digest == b2.events_digest

    def test_seed_changes_the_batch(self, interaction_halted_cfg):
        cfg = small(interaction_halted_cfg)
        _, b1 = run_batch(cfg)
        _, b2 = run_batch(cfg.with_overrides(seed=cfg.seed + 1))
        assert b1.events_digest != b2.events_digest

    def test_complete_transfer_reduces_every_trial(self, interaction_cfg):
        cfg = small(interaction_cfg)
        _, hits = placed(cfg)
        assert np.array_equal(hits.trial, np.arange(cfg.trials))

    def test_halted_transfer_hit_rate_near_fraction(self, interaction_halted_cfg):
        cfg = small(interaction_halted_cfg, trials=5000)
        _, batch = run_batch(cfg)
        rate = batch.n_hits / cfg.trials
        se = (0.3 * 0.7 / cfg.trials) ** 0.5
        assert abs(rate - 0.3) < 5 * se

    def test_hit_sites_inside_ready_support(self, interaction_cfg):
        cfg = small(interaction_cfg)
        bb, hits = placed(cfg)
        support = bb.ready_amps[0] > 0
        assert np.all(support[hits.u_sc])

    def test_survivor_coefficients_match_recomputation(self, observation_overlap_cfg):
        """Stored coefficients are a_i(t_sc) * w_i(u_sc) to the last bit."""
        cfg = small(observation_overlap_cfg)
        bb, hits = placed(cfg)
        for j, i in enumerate(hits.trial[:200]):
            row = hits.step_index[i] + 1
            for col, term in enumerate(bb.ready_ids):
                want = bb.coeffs[row, term] * bb.ready_amps[col, hits.u_sc[j]]
                assert hits.survivor_coeffs[j, col] == want

    def test_provenance_gate_catches_shifted_coefficients(self, observation_overlap_cfg):
        """Survivors built from coefficient rows one step off breach the 1e-12 provenance check."""
        cfg = small(observation_overlap_cfg)
        bb = build_backbone(cfg)
        _, batch = run_batch(cfg, backbone=bb)
        assert batch.max_provenance_error <= 1e-12
        shifted = dataclasses.replace(bb, coeffs=np.roll(bb.coeffs, -1, axis=0))
        with pytest.raises(InvariantBreach) as info:
            run_batch(cfg, backbone=shifted)
        assert info.value.invariant == "provenance"

    def test_site_pick_targets_only_ready_support(self, interaction_cfg, monkeypatch):
        """Both drivers pick a non-phantom ready term at a site where it has weight:
        never the conscious source, never a phantom copy of the ready pulse."""
        build = scenarios.build_initial

        def with_phantom(cfg):
            state, schedule = build(cfg)
            ghost = Term(apparatus_label=3, coefficient=0.5 + 0j, brain=state.terms[1].brain, phantom=True)
            return state.with_terms(state.terms + (ghost,)), schedule

        monkeypatch.setattr(scenarios, "build_initial", with_phantom)
        cfg = small(interaction_cfg)
        bb, hits = placed(cfg)
        assert bb.ready_ids == (1,)
        support = bb.ready_amps[0] > 0
        assert len(hits.trial) == cfg.trials
        assert set(hits.term_hit) == {1}
        assert np.all(support[hits.u_sc])
        for trial in range(16):
            ev = simulate_trajectory(cfg, trial=trial).event
            assert ev.term_hit == 1 and support[ev.u_sc]
            assert set(ev.post_coefficients) == {2}

    def test_post_norm_never_exceeds_pre(self, observation_overlap_cfg):
        cfg = small(observation_overlap_cfg)
        _, hits = placed(cfg)
        post = (np.abs(hits.survivor_coeffs) ** 2).sum(axis=1)
        assert np.all(post <= hits.pre_norm + 1e-12)

    def test_disjoint_multiplicity_is_always_one(self, observation_disjoint_cfg):
        cfg = small(observation_disjoint_cfg)
        _, hits = placed(cfg)
        assert set((np.abs(hits.survivor_coeffs) > 0).sum(axis=1)) == {1}
        _, batch = run_batch(cfg)
        assert batch.multiplicity_counts == {1: cfg.trials}

    @pytest.mark.parametrize("chunk", [13, 997])
    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_chunk_size_changes_no_output(self, name, chunk, monkeypatch):
        """Chunks of 997 or 13 trials, with a ragged last one, hashed on the helper thread,
        give the output of the default run, which hashes its one chunk in line."""
        cfg = bundled_config(name).with_overrides(trials=5000)
        pools = []
        pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or pool(**kw))
        whole = run_scenario(cfg)
        assert pools == []
        monkeypatch.setattr(scenarios, "CHUNK_TRIALS", chunk)
        chunked = run_scenario(cfg)
        assert pools == [{"max_workers": 1}]
        assert chunked.summary == whole.summary

    def test_peak_memory_does_not_grow_with_trials(self, observation_overlap_cfg):
        """Four times the trials, the same traced peak (unchunked placement grew 3.8x, 43 -> 166 MB)."""
        bb = build_backbone(observation_overlap_cfg)
        peaks = []
        for trials in (200_000, 800_000):
            tracemalloc.start()
            try:
                run_batch(observation_overlap_cfg.with_overrides(trials=trials), backbone=bb)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("name", BATCH_CONFIGS + tuple(DENSE_BUDGETS))
    def test_hit_step_table_equals_searchsorted(self, name):
        """The bucket lookup is searchsorted(cum_budget, u1, side="right") with the
        complete transfer's clamp, at every budget value, bucket edge and end point."""
        if name in DENSE_BUDGETS:
            C, passes = DENSE_BUDGETS[name]
            mass = np.diff(C, prepend=0.0)
            bb = SimpleNamespace(cum_budget=C, step_mass=mass, complete=True,
                                 hit_table=scenarios._hit_step_table(C, mass))
            assert bb.hit_table.passes == passes
        else:
            bb = build_backbone(bundled_config(name))
            C = bb.cum_budget
        values = np.unique(C)
        u1 = np.concatenate((
            values,
            np.nextafter(values, 0.0),
            np.nextafter(values, 1.0),
            np.arange(scenarios.HIT_STEP_BUCKETS) / scenarios.HIT_STEP_BUCKETS,
            [0.0, np.nextafter(1.0, 0.0)],
        ))
        want = np.searchsorted(C, u1, side="right")
        if bb.complete:
            want = np.minimum(want, np.flatnonzero(bb.step_mass > 0)[-1])
        assert np.array_equal(scenarios._hit_steps(bb, u1), want)

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_bracket_midpoints_map_to_their_cell(self, name, biased):
        """A draw at the midpoint of each (step, cell) bracket with mass is placed at that
        step, term and site. Brackets a few ulps wide, where no midpoint draw survives
        the rounding of u2 * total, are left out."""
        bb = build_backbone(bundled_config(name))
        cdf, total = cdfs(bb, biased)
        n_sites = bb.ready_amps.shape[1]
        lower = np.concatenate(([0.0], bb.cum_budget[:-1]))
        rows, want = [], []
        for i in np.flatnonzero(bb.cum_budget > lower):
            edges = np.concatenate(([0.0], cdf[i]))
            cells = np.flatnonzero(edges[1:] > edges[:-1])
            u2 = 0.5 * (edges[cells] + edges[cells + 1]) / total[i]
            inside = (edges[cells] <= u2 * total[i]) & (u2 * total[i] < edges[cells + 1])
            width = edges[cells + 1] - edges[cells]
            assert np.all(width[~inside] <= 4 * np.spacing(edges[cells + 1][~inside]))
            cells, u2 = cells[inside], u2[inside]
            rows.append(np.column_stack((np.full(len(cells), 0.5 * (lower[i] + bb.cum_budget[i])), u2, u2)))
            want.append(np.column_stack((np.full(len(cells), i), cells // n_sites, cells % n_sites)))
        # trial order differs from step order
        shuffle = np.random.default_rng(0).permutation(sum(map(len, rows)))
        draws, want = np.concatenate(rows)[shuffle], np.concatenate(want)[shuffle]
        hits = place_hits(bb, cdf, total, draws)
        assert np.array_equal(hits.trial, np.arange(len(draws)))
        assert np.array_equal(hits.step_index, want[:, 0])
        assert np.array_equal(hits.t_sc, bb.times[want[:, 0] + 1])
        assert np.array_equal(hits.term_hit, np.asarray(bb.ready_ids)[want[:, 1]])
        assert np.array_equal(hits.u_sc, want[:, 2])

    def test_draw_past_the_cdf_end_takes_the_last_cell_with_mass(self):
        """On interaction step 3, u2 = nextafter(1, 0) times the pairwise total lands past
        the running cdf[-1]; the hit goes to cell 217, the last with mass, not to the
        massless last cell of the grid."""
        bb = build_backbone(bundled_config("interaction.yaml"))
        cdf, total = cdfs(bb)
        u2 = np.nextafter(1.0, 0.0)
        mass = np.diff(cdf[3], prepend=0.0)
        assert u2 * total[3] >= cdf[3][-1]
        assert np.flatnonzero(mass > 0)[-1] == 217 and mass[-1] == 0.0
        assert scenarios._flat_cell(cdf[3], u2 * total[3]) == 217
        u1 = 0.5 * (bb.cum_budget[2] + bb.cum_budget[3])
        hits = place_hits(bb, cdf, total, np.array([[u1, u2, 0.5], [u1, 0.5, 0.5]]))
        assert np.array_equal(hits.step, [3, 3])
        assert hits.u_sc[0] == 217

    def test_digest_holds_under_fast_thread_switching(self, monkeypatch):
        """Many small chunks hashed on the helper thread while the interpreter switches
        threads every 10 us give the pinned digest."""
        monkeypatch.setattr(scenarios, "CHUNK_TRIALS", 1000)
        cfg = bundled_config("observation_overlap.yaml").with_overrides(trials=100_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, batch = run_batch(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert batch.events_digest == GOLDEN_DIGESTS["observation_overlap.yaml"]

    def test_breach_stops_the_digest_thread(self, observation_overlap_cfg, monkeypatch):
        """A run that breaches an invariant with chunks left to place raises it and
        leaves no helper thread behind, as a run that completes does."""
        monkeypatch.setattr(scenarios, "CHUNK_TRIALS", 997)
        cfg = small(observation_overlap_cfg, trials=5000)
        bb = build_backbone(cfg)
        before = threading.active_count()
        run_batch(cfg, backbone=bb)
        assert threading.active_count() == before
        emptied = dataclasses.replace(bb, total_sq=np.zeros_like(bb.total_sq))
        with pytest.raises(InvariantBreach, match="reduction-bound"):
            run_batch(cfg, backbone=emptied)
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_verify_batches_build_each_table_once(self, name, monkeypatch):
        """verify's two batches share one backbone: its site tables and its scheduled
        coefficients are built once (the trajectory builds its hit step's row alone), while
        each batch still places and hashes every one of its trials."""
        cfg = bundled_config(name)
        n_times = len(scenarios._backbone_times(cfg))

        def record(owner, attr):
            calls, original = [], getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args: calls.append(args) or original(*args))
            return calls

        tables = record(scenarios, "site_cdfs")
        placed = record(scenarios, "place_hits")
        hashed = record(scenarios, "_digest_chunk")
        scheduled = record(dynamics.EnvelopeSchedule, "predicted_coefficients")
        rows = scenarios._batch_checks(cfg)
        assert all(passed for _, passed, _ in rows), rows
        assert sorted(len(coeffs) for coeffs, *_ in tables) == [2, n_times]
        assert [len(args[3]) for args in placed] == [len(args[3]) for args in hashed] == [2000, 2000]
        assert len(scheduled) == n_times - 1

    def test_site_tables_are_kept_per_bias_switch(self, interaction_cfg):
        """A batch given a backbone whose tables were built for the other value of the bias
        switch builds and keeps its own and never reads the others: they are poisoned here,
        and a read would breach site-selection. Each way round, it gives the digest of a run
        that builds its own backbone."""
        plain = small(interaction_cfg, trials=2000)
        biased = small(config_variant("interaction.yaml", {"debug": {"bias_site_selection": True}}), trials=2000)
        fresh = {False: run_batch(plain)[1].events_digest, True: run_batch(biased)[1].events_digest}
        assert fresh[False] != fresh[True]
        for first, flag in ((plain, True), (biased, False)):
            bb = build_backbone(first)
            run_batch(first, backbone=bb)
            cdf, total = bb.site_tables(not flag)
            bb._site_tables[not flag] = (np.full_like(cdf, np.nan), np.zeros_like(total))
            other = biased if flag else plain
            assert run_batch(other, backbone=bb)[1].events_digest == fresh[flag]
            want_cdf, want_total = cdfs(bb, flag)
            assert np.array_equal(bb.site_tables(flag)[0], want_cdf)
            assert np.array_equal(bb.site_tables(flag)[1], want_total)

    @pytest.mark.parametrize("trials", [2000, scenarios.CHUNK_TRIALS])
    def test_one_chunk_starts_no_thread(self, observation_overlap_cfg, trials, monkeypatch):
        """A batch of one chunk has no next chunk to overlap its hash with: it hashes in line
        and makes no thread pool, and neither do verify's batches."""

        def refuse(*args, **kwargs):
            raise AssertionError("a batch of one chunk started a thread")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        _, batch = run_batch(small(observation_overlap_cfg, trials))
        assert batch.n_trials == trials
        assert all(passed for _, passed, _ in scenarios._batch_checks(observation_overlap_cfg))

    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    def test_batch_kernel_matches_trajectories(self, name):
        """Fed a trajectory's (u1, u2), the batch kernel hits the same step, term and site,
        with the same pre-hit norm and ramp progress; also on a backbone with no tail."""
        for cfg, trials in ((bundled_config(name), 20), (config_variant(name, SHORT), 5)):
            bb = build_backbone(cfg)
            cdf, total = cdfs(bb)
            labels = [bb.state0.terms[n].apparatus_label for n in bb.ready_ids]
            for trial in range(trials):
                out = simulate_trajectory(cfg, trial=trial)
                ev = out.event
                u1, u2 = ev.rng_draws if ev else (RngStream(cfg.seed, trial).uniform(), 0.5)
                hits = place_hits(bb, cdf, total, np.array([[u1, u2, 0.5]]))
                assert len(hits.trial) == (ev is not None)
                if ev is None:
                    continue
                assert hits.t_sc[0] == ev.t_sc
                assert (hits.term_hit[0], hits.u_sc[0]) == (ev.term_hit, ev.u_sc)
                assert hits.pre_norm[0] == ev.pre_norm
                assert hits.ramp_progress[0] == ev.ramp_progress
                for col, label in enumerate(labels):
                    want = ev.post_coefficients.get(label, 0j)
                    assert abs(hits.survivor_coeffs[0, col] - want) <= 1e-12


def scanned_first_hit(cfg, bb):
    """The first of the config's trials whose first uniform hits, tested one trial at a time
    by ``searchsorted`` on the cumulative budget; a complete transfer always hits."""
    for trial in range(cfg.trials):
        u1 = RngStream(cfg.seed, trial).uniform()
        if bb.complete or np.searchsorted(bb.cum_budget, u1, side="right") < len(bb.cum_budget):
            return trial
    return None


class TestFirstHit:
    # a 1% transfer puts each config's first hit past trial 16, at 30 to 187; 30 ends a block
    # of the doubling search and 31 starts one
    PAST_16 = {"envelope": {"fraction": 0.01}}

    @pytest.mark.parametrize("variant", ["bundled", "fraction 0.01"])
    @pytest.mark.parametrize("name", BATCH_CONFIGS + ("disengage.yaml",))
    def test_doubling_search_equals_a_scan(self, name, variant, monkeypatch):
        """The search in blocks of 1, 2, 4, ... trials finds the trial a one-at-a-time scan
        finds; its trajectory hits, and the one before it misses. It seeds each trial's stream
        once, in order, and fewer than twice as many as it examines."""
        cfg = config_variant(name, self.PAST_16 if variant != "bundled" else {}).with_overrides(trials=2000)
        bb = build_backbone(cfg)
        seeded = []
        monkeypatch.setattr(scenarios, "RngStream", lambda seed, trial: seeded.append(trial) or RngStream(seed, trial))
        trial = scenarios._first_hit(cfg, bb)
        monkeypatch.undo()
        assert trial == scanned_first_hit(cfg, bb)
        assert seeded == list(range(len(seeded))) and trial < len(seeded) <= 2 * trial + 1
        if variant != "bundled":
            assert trial > 16
        assert simulate_trajectory(cfg, trial, bb).event is not None
        if trial > 0:
            assert simulate_trajectory(cfg, trial - 1, bb).event is None

    def test_search_stops_at_the_last_trial(self):
        """A hit past the config's trials is not found, even inside the block that holds it,
        and with no hit in any trial the search returns None."""
        cfg = config_variant("observation_single.yaml", self.PAST_16).with_overrides(trials=2000)
        bb = build_backbone(cfg)
        first = scenarios._first_hit(cfg, bb)
        assert scenarios._first_hit(cfg.with_overrides(trials=first + 1), bb) == first
        assert scenarios._first_hit(cfg.with_overrides(trials=first), bb) is None
        none = config_variant("observation_single.yaml", {"envelope": {"fraction": 1e-7}}).with_overrides(trials=2000)
        bb = build_backbone(none)
        assert scenarios._first_hit(none, bb) is None and scanned_first_hit(none, bb) is None


class TestTrajectory:
    def test_event_matches_budget_draw(self, interaction_cfg):
        """u1 falls inside the budget window of the recorded hit step."""
        for trial in range(8):
            out = simulate_trajectory(small(interaction_cfg), trial=trial)
            assert out.event is not None
            u1 = out.event.rng_draws[0]
            b = out.log.budget
            assert b[-1] <= 1.0 + 1e-12
            assert 0 < u1 < 1
            # the first logged budget above u1 is the row of the hit step;
            # the budget stays frozen after it
            k = np.searchsorted(b, u1, side="right")
            assert out.log.times[min(k, len(b) - 1)] == out.event.t_sc

    def test_trajectory_is_reproducible(self, interaction_cfg):
        a = simulate_trajectory(small(interaction_cfg), trial=5)
        b = simulate_trajectory(small(interaction_cfg), trial=5)
        assert a.event is not None and b.event is not None
        assert a.event.t_sc == b.event.t_sc
        assert a.event.u_sc == b.event.u_sc
        assert a.event.rng_draws == b.event.rng_draws
        np.testing.assert_array_equal(a.log.sq_terms, b.log.sq_terms)

    def test_provenance_recomputes_to_1e12(self, observation_overlap_cfg):
        """Criterion of Eq.-7 structure on the live reduce path."""
        cfg = small(observation_overlap_cfg)
        state0, schedule = build_initial(cfg)
        grid = state0.grid
        for trial in range(6):
            out = simulate_trajectory(cfg, trial=trial)
            ev = out.event
            assert ev is not None
            pred = schedule.predicted_coefficients(ev.t_sc)
            for n, term in enumerate(state0.terms):
                if not term.brain.is_ready:
                    continue
                amp = term.brain.site_amplitudes(grid)[ev.u_sc]
                want = pred.get(n, term.coefficient) * amp
                label = term.apparatus_label
                got = ev.post_coefficients.get(label, 0j)
                assert abs(got - want) <= 1e-12

    def test_fast_stepping_is_rejected(self, interaction_cfg, monkeypatch):
        monkeypatch.setattr(scenarios, "MAX_STEP_HIT_PROBABILITY", 1e-3)
        with pytest.raises(HitRateTooHigh):
            simulate_trajectory(interaction_cfg)

    def test_turn_off_spot_decision_recorded(self, turn_off_overlap_cfg):
        out = simulate_trajectory(small(turn_off_overlap_cfg), trial=1)
        assert out.extras["turned_off"]
        assert "spot_remains" in out.extras
        assert isinstance(out.extras["spot_remains"], bool)

    @pytest.mark.parametrize("name", BACKBONE_CONFIGS)
    def test_equals_stepped_reference(self, name):
        """Backbone prefix plus post-hit stepping gives the fully stepped trajectory bit for bit."""
        cfg = bundled_config(name)
        bb = build_backbone(cfg)
        runs = [(cfg, trial) for trial in range(20)]
        runs += [(cfg.with_overrides(seed=seed), 0) for seed in LARGE_SEEDS]
        no_hit = config_variant(name, NO_HIT)
        if name in ("turn_off_overlap.yaml", "disengage.yaml", "fade_in.yaml"):
            # the scenarios with rows past the backbone also run without a hit
            runs += [(no_hit, trial) for trial in range(3)]
        # a backbone with no tail, which takes one step past the rounded ramp to reach t_end
        runs += [(config_variant(name, SHORT), trial) for trial in range(3)]
        runs += [(config_variant(name, SHORT_NO_HIT), trial) for trial in range(2)]
        for c, trial in runs:
            out = simulate_trajectory(c, trial=trial, backbone=bb if c is cfg else None)
            log, event, extras = stepped_trajectory(c, trial)
            if c is no_hit:
                assert event is None and len(log["times"]) > len(bb.times), trial
            for key, want in log.items():
                assert np.array_equal(getattr(out.log, key), want), (c.seed, trial, key)
            assert out.event == event, (c.seed, trial)
            assert out.extras == extras, (c.seed, trial)

    @pytest.mark.parametrize("name", ["turn_off_overlap.yaml", "disengage.yaml"])
    def test_forming_through_the_event_equals_stepped_reference(self, name):
        """A staged pulse still forming when the turn-off or disengage event applies: the
        segments on either side of the event row give the stepped trajectory's rows, event
        and extras (occupied counts, stages, norm error) bit for bit."""
        cfg = config_variant(name, {"formation": {"mode": "staged", "tau": 0.5}})
        for trial in range(3):
            out = simulate_trajectory(cfg, trial=trial)
            log, event, extras = stepped_trajectory(cfg, trial)
            for key, want in log.items():
                assert np.array_equal(getattr(out.log, key), want), (trial, key)
            assert out.event == event and out.extras == extras, trial
            assert out.extras["formation_stages"][-1] < 0.99  # formation outlasts the event

    @pytest.mark.parametrize("name", TRAJECTORY_CONFIGS)
    def test_never_calls_step(self, name, monkeypatch):
        """Rows up to the hit come from the backbone and every later row from carried
        values, with a hit and without one: step is never called."""

        def refuse(*args, **kwargs):
            raise AssertionError("simulate_trajectory called step")

        assert not hasattr(scenarios, "step")
        monkeypatch.setattr(dynamics, "step", refuse)
        assert simulate_trajectory(bundled_config(name)).event is not None
        assert simulate_trajectory(config_variant(name, NO_HIT)).event is None

    @pytest.mark.parametrize("name", TRAJECTORY_CONFIGS)
    def test_never_evaluates_the_envelope(self, name, monkeypatch):
        """Given its backbone, a trajectory reads the ramp from it alone, with a hit and without one."""
        for variant, hit in (({}, True), (NO_HIT, False)):
            cfg = config_variant(name, variant)
            bb = build_backbone(cfg)
            calls = count_schedule_calls(monkeypatch)
            assert (simulate_trajectory(cfg, backbone=bb).event is not None) == hit
            assert calls == {"envelope_factors": 0, "coefficients": 0}

    @pytest.mark.parametrize("name", TRAJECTORY_CONFIGS)
    def test_builds_no_state_per_row(self, name, monkeypatch):
        """States are built at the hit, the post-hit event and the end only: 100 more
        rows build no more of them, with a hit and without one. The rows are added past
        the backbone where the scenario runs past it, and to its tail otherwise."""
        more_rows = {
            "turn_off_overlap.yaml": {"turn_off": {"t_off": 2.0}},
            "disengage.yaml": {"disengage": {"hold_steps": 160}},
            "fade_in.yaml": {"formation": {"settle_steps": 400}},
        }.get(name, {"scenario": {"tail_steps": 120}})
        built = []
        post_init = scenarios.SystemState.__post_init__
        monkeypatch.setattr(scenarios.SystemState, "__post_init__", lambda st: built.append(1) or post_init(st))
        for variant in ({}, NO_HIT):
            counts, rows = [], []
            for more in ({}, more_rows):
                cfg = config_variant(name, {**variant, **more})
                bb = build_backbone(cfg)
                built.clear()
                out = simulate_trajectory(cfg, backbone=bb)
                assert (out.event is None) == (variant is NO_HIT)
                counts.append(len(built))
                rows.append(len(out.log.times))
            assert rows[1] == rows[0] + 100
            assert counts[0] == counts[1] <= 6, (variant, counts)

    def test_carried_rows_are_audited_against_the_final_state(self, monkeypatch):
        """Rows carried with a brain norm the state does not hold end in an invariant breach."""
        carried = scenarios._carried_factors

        def off_norms(state, dt):
            pulses, norms, forming = carried(state, dt)
            return pulses, [nrm * (1.0 + 1e-12) for nrm in norms], forming

        monkeypatch.setattr(scenarios, "_carried_factors", off_norms)
        with pytest.raises(InvariantBreach, match="trajectory-rows"):
            simulate_trajectory(bundled_config("interaction.yaml"))

    def test_pulse_drift_rejected_by_ramp_driver(self):
        cfg = bundled_config("pulse_drift.yaml")
        with pytest.raises(SimulationError):
            simulate_trajectory(cfg)


class TestDriftScenario:
    def test_phantom_trail_forms_and_freezes(self):
        cfg = bundled_config("pulse_drift.yaml")
        result = run_pulse_drift(cfg)
        assert result.summary["phantom_trail_count"] > 10
        assert result.summary["max_phantom_drift"] < 1e-12
        assert result.summary["max_conservation_drift"] < 1e-9 * 12

    @pytest.mark.parametrize("name", DRIFT_VARIANTS)
    def test_equals_stepped_drift(self, name):
        """The array kernel gives the log and summary of the frozen per-state law stepped
        on whole states, and the pinned log of the drift before it ran on arrays; the law's
        final state is the pinned one the kernel builds."""
        drift, digest = DRIFT_VARIANTS[name]
        cfg = drift_variant(**drift)
        result = run_pulse_drift(cfg)
        log, summary, final = stepped_drift(cfg)
        for key, want in log.items():
            assert np.array_equal(getattr(result.trajectory, key), want), key
        assert result.summary == summary
        assert final_state_digest(final) == DRIFT_FINAL_STATES[name]
        assert result.trajectory.labels == (1, 2)
        data = b"".join(log[key].tobytes() for key in ("times", "sq_terms", "currents", "total_sq"))
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("name", ["bundled", "fast_short"])
    def test_tamper_split_equals_stepped_drift(self, name, monkeypatch):
        """With the tamper itself a no-op, a ``tamper_phantom`` run still ends a block on the
        tamper row; it gives the log, summary and final state of the frozen per-state law on the
        untampered config, so a wrong block split there is an oracle difference."""
        drift = DRIFT_VARIANTS[name][0]
        tampered = config_variant("pulse_drift.yaml", {"drift": drift, "debug": {"tamper_phantom": True}})
        fired = []
        monkeypatch.setattr(scenarios, "_tamper_phantom", lambda weights, phantom: fired.append(1) or weights)
        log, summary, final = stepped_drift(drift_variant(**drift))
        data = b"".join(log[key].tobytes() for key in ("times", "sq_terms", "currents", "total_sq"))
        want = (hashlib.sha256(data).hexdigest(), summary, final_state_digest(final))
        assert drift_outputs(tampered, monkeypatch) == want
        assert fired == [1]

    @pytest.mark.parametrize("name", DRIFT_VARIANTS)
    def test_final_state_is_pinned(self, name, monkeypatch):
        """The final weights, masks and coefficients, which the log pins do not cover."""
        drift, digest = DRIFT_VARIANTS[name]
        log, _, final = drift_outputs(drift_variant(**drift), monkeypatch)
        assert (log, final) == (digest, DRIFT_FINAL_STATES[name])

    @pytest.mark.parametrize("name", DRIFT_VARIANTS)
    def test_outputs_do_not_depend_on_the_block_size(self, name, monkeypatch):
        """Blocks of one row, of seven (a ragged last block) and of the default size give the
        same log, summary and final state."""
        cfg = drift_variant(**DRIFT_VARIANTS[name][0])
        default = drift_outputs(cfg, monkeypatch)
        n_points = cfg.data["grid"]["n_points"]
        for rows in (1, 7):
            monkeypatch.setattr(dynamics, "DRIFT_BLOCK", rows * n_points)
            assert drift_outputs(cfg, monkeypatch) == default, rows

    def test_kernel_carries_what_it_would_recompute(self):
        """Each row's shadow moduli and the carried phantom flag equal what the arrays give
        taken afresh, so the audit and the masking may read them instead."""
        cfg = bundled_config("pulse_drift.yaml")
        state, _ = build_initial(cfg)
        dr = cfg.data["drift"]
        kernel = dynamics.DriftKernel(state, dr["velocity"], cfg.dt, dr["shed_rate"])
        n_steps, done = int(round(dr["duration"] / cfg.dt)), 0
        while done < n_steps:
            rows = kernel.advance(min(kernel.block_rows, n_steps - done))
            done += len(rows.cons_abs)
            assert np.array_equal(rows.shadow_amp, np.abs(rows.shadow_w * kernel.sqrt_du))
            assert kernel.has_phantom == bool(kernel.phantom.any())
            assert np.array_equal(kernel.phantom, rows.phantom[-1])
        assert kernel.has_phantom

    @pytest.mark.parametrize("rows, edge", [(8, "first"), (7, "last"), (1200, "whole")])
    def test_tamper_on_a_block_edge_breaks_the_freeze(self, rows, edge, monkeypatch):
        """The tamper row, the 721st, falls on the first row of a block of 8 and the last row of
        a block of 7; either way the run splits its block there, and that row's audit sees the move.
        In blocks of 1,200 rows the first block ends there, and it also holds the first phantom row, the 9th."""
        raw = {k: dict(v) for k, v in bundled_config("pulse_drift.yaml").raw.items()}
        raw["debug"] = {"tamper_phantom": True}
        cfg = parse_config(raw)
        row = int(round(cfg.data["drift"]["duration"] / cfg.dt)) * 3 // 5 + 1
        assert {"first": (row - 1) % rows == 0, "last": row % rows == 0, "whole": row < rows}[edge]
        monkeypatch.setattr(dynamics, "DRIFT_BLOCK", rows * cfg.data["grid"]["n_points"])
        with pytest.raises(InvariantBreach) as info:
            run_pulse_drift(cfg)
        assert str(info.value) == "invariant breached: phantom-freeze (phantom amplitude moved by 1.251e-07)"

    def test_peak_memory_does_not_grow_with_the_duration(self):
        """Four times the steps: the traced peak grows by the log's extra rows and no more than
        1 MB besides, since the kernel holds one block of rows at a time."""
        peaks = []
        for duration in (12.0, 48.0):
            cfg = drift_variant(velocity=0.25, duration=duration)
            tracemalloc.start()
            try:
                result = run_pulse_drift(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        log = result.trajectory
        row_bytes = sum(getattr(log, key).nbytes for key in ("times", "sq_terms", "currents", "total_sq", "budget"))
        row_bytes //= len(log.times)
        assert peaks[1] <= peaks[0] + (4800 - 1200) * row_bytes + (1 << 20)

    def test_tampered_phantom_breaks_the_freeze(self):
        raw = {k: dict(v) for k, v in bundled_config("pulse_drift.yaml").raw.items()}
        raw["debug"] = {"tamper_phantom": True}
        with pytest.raises(InvariantBreach) as info:
            run_pulse_drift(parse_config(raw))
        assert info.value.invariant == "phantom-freeze"
        assert str(info.value) == "invariant breached: phantom-freeze (phantom amplitude moved by 1.251e-07)"

    def test_injected_ready_transfer_is_blocked_with_guard(self, monkeypatch):
        """The injected schedule's rule-4 pairs refuse the run before any drift row."""
        drifted = []
        kernel_advance = dynamics.DriftKernel.advance
        monkeypatch.setattr(dynamics.DriftKernel, "advance", lambda *a: drifted.append(1) or kernel_advance(*a))
        cfg = bundled_config("pulse_drift.yaml")
        raw = {k: dict(v) for k, v in cfg.raw.items()}
        raw["debug"] = {"intra_ready_transfer": True}
        with pytest.raises(Rule4Violation, match=INJECTED_PAIR):
            run_pulse_drift(parse_config(raw))
        assert not drifted


class TestFadeIn:
    def test_formation_stages(self):
        cfg = bundled_config("fade_in.yaml")
        result = run_fade_in(cfg)
        s = result.summary
        assert s["initial_occupied"] == 1
        assert s["monotone_growth"]
        assert s["max_growth_per_step"] <= s["growth_bound"]
        assert s["width_rel_err"] < 0.02
        assert s["max_formation_norm_err"] < 1e-9

    @pytest.mark.parametrize("name, built", [("fade_in.yaml", 1), ("turn_off_overlap.yaml", 2)])
    def test_forming_pulse_is_built_only_at_the_event_and_the_end(self, name, built, monkeypatch):
        """Rows past the hit read the formation kernel's arrays; a ``Pulse`` is built from
        them for the turn-off event's state and for the final state only."""
        calls = []
        pulse = dynamics.FormationKernel.pulse
        monkeypatch.setattr(dynamics.FormationKernel, "pulse", lambda self: calls.append(1) or pulse(self))
        cfg = config_variant(name, {"formation": {"mode": "staged", "tau": 0.05}})
        out = simulate_trajectory(cfg)
        assert out.event is not None and len(out.extras["occupied_counts"]) > 100
        assert len(calls) == built

    def test_no_hit_reports_no_width(self):
        """A halted ramp with no event fits no formation width."""
        cfg = bundled_config("fade_in.yaml")
        raw = {k: dict(v) for k, v in cfg.raw.items()}
        raw["envelope"]["fraction"] = 1e-9
        s = run_fade_in(parse_config(raw)).summary
        assert s["hit"] is False
        assert math.isnan(s["sigma_fit"])
        assert math.isnan(s["width_rel_err"])
