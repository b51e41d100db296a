#!/usr/bin/env python3
"""What can one realized trajectory tell you about the field that guided it?

Classically: everything that matters. Integrating the Lagrangian along the
single realized path rebuilds the action on it exactly. For guided wave
motion the along-path balance involves the divergence of the velocity
field and the curvature of the amplitude -- transverse information a
single curve simply does not carry. A bundle of neighboring trajectories
supplies finite-difference stand-ins, and the reconstruction error falls
quadratically with the bundle spacing. With no neighbors (k = 0) the
attempt fails by construction.

Run:  python3 demos/06_reconstruction_bundles.py
"""

import numpy as np
from scipy import ndimage

import pilotwave as pw
from pilotwave.classical import ClassicalState, PlaneWaveAction
from pilotwave.reconstruction import polar_along_trajectory


def main():
    print("classical side: one path suffices")
    state = ClassicalState([0.0], PlaneWaveAction([2.0], 1.0), p0=[2.0])
    ctraj = pw.classical_trajectory(state, 1.0, 1e-3)
    times, s = pw.classical_reconstruct(ctraj, mass=1.0, s0=0.0)
    print(f"   S(1) from the Lagrangian integral = {s[-1]:.10f} "
          f"(exact: P^2 t / 2m = 2)")

    print("\nguided side: a spreading Gaussian, path from q0 = 0.5")
    grid = pw.SpatialGrid(2048, (-20.0, 20.0))
    psi0 = pw.gaussian_packet(grid, 0.0, 1.0)
    cfg = pw.PropagatorConfig(dt=5e-4, steps=2000, snapshot_stride=10)
    snaps = pw.propagate(psi0, pw.FreePotential(), cfg)
    gf = pw.GuidingField(snaps)

    single = pw.build_bundle(gf, [0.5], k=0, delta=0.05, dt_traj=0.005)
    try:
        pw.reconstruct_along_center(single, pw.FreePotential(), 1.0, 1.0,
                                    0.0, lambda p: np.ones(len(p)))
    except pw.InsufficientBundleError as exc:
        print(f"   k=0 (bare trajectory): InsufficientBundleError: {exc}")

    print("\n   with neighbor bundles (k = 4), error vs spacing delta:")
    rows = pw.bundle_convergence(gf, [0.5], 4, [0.2, 0.1, 0.05],
                                 pw.FreePotential(), dt_traj=0.005)
    print("   delta     errS        errR        local slope")
    for r in rows:
        slope = "    -" if np.isnan(r.slope) else f"{r.slope:8.2f}"
        print(f"   {r.delta:<8g}{r.err_s:<12.3e}{r.err_r:<12.3e}{slope}")

    bundle = pw.build_bundle(gf, [0.5], k=4, delta=0.05, dt_traj=0.005)
    pol0 = pw.to_polar(snaps[0])

    def r0(points):
        coords = grid.to_fractional_index(points).T
        return ndimage.map_coordinates(pol0.R, coords, order=3, mode="nearest")

    s0 = float(ndimage.map_coordinates(
        pol0.S, grid.to_fractional_index(bundle.center.positions[0])[:, None],
        order=3, mode="nearest")[0])
    rec = pw.reconstruct_along_center(bundle, pw.FreePotential(), 1.0, 1.0,
                                      s0, r0)
    s_oracle, r_oracle = polar_along_trajectory(snaps, bundle.center)
    print(f"\n   reconstructed S(T) = {rec.action[-1]:+.6f}   "
          f"solver S(T) = {s_oracle[-1]:+.6f}")
    print(f"   reconstructed R(T) = {rec.amplitude[-1]:.6f}   "
          f"solver R(T) = {r_oracle[-1]:.6f}")
    print("   transverse data is the price of admission: the bundle pays it,"
          " the single curve cannot")


if __name__ == "__main__":
    main()
