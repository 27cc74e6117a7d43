"""Library step of the phase-noise workload, run as a cold script.

Calls the exported ``selfpulse.simulate_linear_sde`` on the criterion-8
model (kappa=1, gamma=0.1, epsilon=0.13, dt=0.03, burn-in 45, 16 periods of
omega_h), then ``estimate_psd``, ``stationary_covariance``, ``spectrum_scan``
and ``spectral_peak`` for the references, and writes what the checks need.

    python perfbench/libstep.py --out DIR --seed N
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from selfpulse import (
    SDEConfig,
    SystemParams,
    estimate_psd,
    hopf_frequency,
    linear_noise_model,
    simulate_linear_sde,
    spectral_peak,
    spectrum_scan,
    stationary_covariance,
)
from selfpulse.noise import spectrum_to_csv

KAPPA, GAMMA, EPSILON = 1.0, 0.1, 0.13
DT, BURN_IN, PERIODS = 0.03, 45.0, 16.05
# Ensemble size: over 30 seeds at 500 members the root-mean-square error was
# 0.22 of the covariance tolerance (5%) and 0.26 of the periodogram tolerance
# (10%), so each tolerance is more than three times the spread; at 400
# members the covariance error reached 0.81 of its tolerance on one seed.
MEMBERS, BATCH = 500, 25
OMEGA_MIN, OMEGA_MAX, N_POINTS = -2.0, 2.0, 2001


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = linear_noise_model(SystemParams(kappa=KAPPA, gamma=GAMMA, epsilon=EPSILON))
    om_h = hopf_frequency(KAPPA, GAMMA)
    n_steps = int(math.ceil(PERIODS * 2.0 * math.pi / om_h / DT))
    psd_sum = None
    second_moment = np.zeros((4, 4))
    n_samples = 0
    for b in range(MEMBERS // BATCH):
        cfg = SDEConfig(dt=DT, n_steps=n_steps, n_ensemble=BATCH, seed=args.seed,
                        burn_in=BURN_IN)
        paths = simulate_linear_sde(model, cfg, member_offset=b * BATCH)
        omega, psd = estimate_psd(paths[:, 1:, 2], DT, omega_ref=om_h)
        psd_sum = psd if psd_sum is None else psd_sum + psd
        recorded = paths[:, 1:, :].reshape(-1, 4)
        second_moment += recorded.T @ recorded
        n_samples += len(recorded)
    psd = psd_sum / (MEMBERS // BATCH)

    scan = spectrum_scan(model, OMEGA_MIN, OMEGA_MAX, N_POINTS)
    spectrum_to_csv(scan, out / "linear_sde_spectrum.csv")
    peak = spectral_peak(scan, 2, 2)
    with open(out / "linear_sde_psd.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,psd\n")
        for w, v in zip(omega, psd):
            fh.write(f"{float(w)!r},{float(v)!r}\n")
    doc = {
        "seed": args.seed,
        "members": MEMBERS,
        "n_steps": n_steps,
        "dt": DT,
        "burn_in": BURN_IN,
        "covariance": (second_moment / n_samples).tolist(),
        "stationary_covariance": stationary_covariance(model).tolist(),
        "spectral_peak": {"omega_peak": peak.omega_peak, "height": peak.height,
                          "fwhm": peak.fwhm},
    }
    (out / "linear_sde.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(f"linear SDE: {MEMBERS} members x {n_steps} steps, seed {args.seed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
