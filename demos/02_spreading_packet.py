#!/usr/bin/env python3
"""A free Gaussian spreads; its guided trajectories fan out with it.

Propagates the packet by exact free flight, checks the width law
sigma(t) = sigma0 sqrt(1 + (t/2 sigma0^2)^2), integrates a fan of
trajectories, and verifies that a Born-sampled ensemble still matches
|psi_T|^2 at the end (equivariance, the statistical backbone of the whole
trajectory picture).

Run:  python3 demos/02_spreading_packet.py [--plot] [--n-ensemble N]
"""

import argparse

import numpy as np

import pilotwave as pw

try:
    import matplotlib.pyplot as plt
    HAVE_PLT = True
except ImportError:
    HAVE_PLT = False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plot", action="store_true")
    ap.add_argument("--n-ensemble", type=int, default=4000)
    args = ap.parse_args()

    grid = pw.SpatialGrid(512, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(grid, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=1e-3, steps=2000, snapshot_stride=20,
                              monitor_edges=True)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    q = grid.axes[0]

    sigma_num = np.sqrt(grid.integrate(q**2 * pw.density(snaps[-1]).values))
    sigma_law = np.sqrt(1.0 + (2.0 / 2.0) ** 2)
    print(f"width at T=2: {sigma_num:.6f}  (law: {sigma_law:.6f})")
    print(f"norm drift over the run: {abs(snaps[-1].norm() - 1):.2e}")

    print("\ntrajectory fan (starting points scale with the packet width):")
    fan = np.array([[x] for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)])
    ens_fan = pw.propagate_ensemble(snaps, fan, 0.01, record_stride=10)
    for i, x0 in enumerate(fan[:, 0]):
        xT = ens_fan.positions[-1][i, 0]
        print(f"   Q(0) = {x0:+.1f}  ->  Q(2) = {xT:+.4f}  "
              f"(ratio {xT / x0:.4f})")

    x0 = pw.born_sample(psi0, args.n_ensemble, seed=42)
    ens = pw.propagate_ensemble(snaps, x0, 0.01, seed=42, sampler="born",
                                record_stride=20)
    ks = pw.ks_statistic(ens.positions[-1][:, 0], pw.density(snaps[-1]))
    print(f"\nequivariance: KS distance of {args.n_ensemble} guided points "
          f"vs |psi_T|^2 = {ks:.4f}")

    if args.plot and HAVE_PLT:
        fig, ax = plt.subplots(figsize=(7, 4))
        for i in range(len(fan)):
            ax.plot(ens_fan.times, ens_fan.positions[:, i, 0], lw=1)
        ax.set_xlabel("t")
        ax.set_ylabel("Q(t)")
        fig.savefig("demo02_spreading_packet.png", dpi=130)
        print("saved demo02_spreading_packet.png")
    elif args.plot:
        print("matplotlib unavailable; skipping plot")


if __name__ == "__main__":
    main()
