"""Drift a conscious pulse and inspect the phantom trail it leaves behind.

The pulse moves at constant velocity while shedding a small fraction of
square modulus per step into a ready shadow. Shadow sites the flow has
abandoned freeze: their amplitudes are recorded at freeze time and the
maximum later drift is reported (the invariant demands < 1e-12). The
drift schedules no ready-to-ready transfer, so it reports no rule-4
violation; the ``intra_ready_transfer`` control, which schedules one, is
refused before its first step.
"""

from importlib import resources

import numpy as np

from pulsecollapse import load_config
from pulsecollapse.scenarios import run_pulse_drift


def main():
    ref = resources.files("pulsecollapse").joinpath("configs", "pulse_drift.yaml")
    with resources.as_file(ref) as path:
        cfg = load_config(str(path))

    result = run_pulse_drift(cfg)
    s = result.summary
    print(f"steps: {s['steps']}, sites traversed: {s['traverse_sites']:.0f}")
    print(f"phantom trail sites: {s['phantom_trail_count']}")
    print(f"max phantom amplitude drift: {s['max_phantom_drift']:.3e}")
    print(f"max conservation drift:      {s['max_conservation_drift']:.3e}")
    print(f"rule-4 violations: {s['rule4_violations']}")
    print(f"square modulus: conscious {s['conscious_square_modulus']:.6f}, "
          f"shadow {s['shadow_square_modulus']:.6f}")

    log = result.trajectory
    tail = log.sq_terms[-1]
    print(f"final per-term square moduli: {np.array2string(tail, precision=6)}")


if __name__ == "__main__":
    main()
