#!/usr/bin/env python3
"""Classical action functions are cheap: many of them guide the same path.

A free particle leaving q0 = 0 with momentum P = 2 realizes the line
Q(t) = 2t. Two entirely different solutions of the free Hamilton-Jacobi
equation claim it: the plane-wave action P q - P^2 t / 2m and the
point-source action m (q - q0)^2 / 2t, whose wavefronts are circles around
q0. On the realized line both gradients equal P, so the guided motion
cannot tell them apart. The same machinery transports a classical density
along characteristics: rigid translation under the plane-wave action,
self-similar dilation under the point-source one.

Run:  python3 demos/03_two_actions_one_path.py
"""

import numpy as np

import pilotwave as pw
from pilotwave.classical import (
    CircularAction,
    ClassicalState,
    PlaneWaveAction,
)


def main():
    print("two actions, one mechanical problem (P = 2, q0 = 0):")
    rep = pw.holland_nonuniqueness(2.0, 0.0, 1.0, 2.0, t_start=0.1)
    print(f"   max |Q_plane - Q_circular| over [0.1, 2] = "
          f"{rep.max_deviation:.3e}")

    print("\nboth satisfy the free Hamilton-Jacobi equation everywhere:")
    rng = np.random.default_rng(0)
    for label, act in (("plane-wave ", PlaneWaveAction([2.0], 1.0)),
                       ("point-src  ", CircularAction([0.0], 1.0))):
        worst = max(abs(float(pw.hj_residual(act,
                                             [rng.uniform(-5, 5)],
                                             rng.uniform(0.1, 3.0))[0]))
                    for _ in range(200))
        print(f"   {label} residual max = {worst:.3e}")

    print("\nbut started exactly at the source point at t=0, the "
          "point-source action is mute:")
    state = ClassicalState([0.0], CircularAction([0.0], 1.0), t0=0.0)
    try:
        pw.classical_trajectory(state, 1.0, 1e-3)
    except pw.UndefinedGradientError as exc:
        print(f"   UndefinedGradientError: {exc}")
    print("   (supplying the momentum by hand restores the line)")
    state_p = ClassicalState([0.0], CircularAction([0.0], 1.0),
                             p0=[2.0], t0=0.0)
    traj = pw.classical_trajectory(state_p, 1.0, 1e-3)
    print(f"   Q(1) = {traj.positions[-1, 0]:.6f}")

    print("\ndensity transport along characteristics:")
    grid = pw.SpatialGrid(1024, (-20.0, 20.0))
    q = grid.axes[0]
    rho0 = np.exp(-(q**2) / 2.0) / np.sqrt(2.0 * np.pi)
    res_t = pw.transport_classical(
        pw.RealField(grid, rho0, "probability_density"),
        PlaneWaveAction([2.0], 1.0), t_end=2.0, n_records=3)
    peak = q[np.argmax(res_t.densities[-1].values)]
    print(f"   plane-wave action: peak moved to q = {peak:.3f} "
          f"(rigid translation at P/m = 2)")
    res_d = pw.transport_classical(
        pw.RealField(grid, rho0, "probability_density", time=0.5),
        CircularAction([0.0], 1.0), t_end=1.0, n_records=3, t_start=0.5)
    w0 = np.sqrt(grid.integrate(q**2 * res_d.densities[0].values))
    w1 = np.sqrt(grid.integrate(q**2 * res_d.densities[-1].values))
    print(f"   point-source action: width {w0:.3f} -> {w1:.3f} "
          f"(self-similar dilation x{w1 / w0:.2f})")
    print(f"   mass after transport: {res_d.densities[-1].integrate():.9f}")


if __name__ == "__main__":
    main()
