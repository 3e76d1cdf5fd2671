"""Run the packaged scenario studies: analyst overtime and epidemic costs.

The queue study models a security-operations backlog: alerts arrive all
shift, and once the shift ends the team works overtime to drain what is
left. Overtime length is uncertain, so the robust estimate guards against
misestimating its distribution. The queue is a synthetic stand-in built from
the documented `CsocParams` constants, not the paper's CSOC data: its
end-of-shift backlog has mean ~19.8, sd ~13.7 and P(empty) ~0.024.

The epidemic study prices expected infections in a small population under
SIR and SVIR person-level chains, where the joint chain is the Kronecker
power of one person's chain; it runs on the one-person chain and never builds
the joint one. Both studies compare a plug-in cost estimate
against robust ones and validate them with Monte Carlo rollouts.

    $ python3 demos/queue_overtime.py --seeds 5 --samples 200
"""
import argparse

import numpy as np

from stopcost import (
    CsocParams,
    HealthParams,
    build_csoc_overtime,
    compare_report,
    health_person,
    mat_pow,
    sample_horizons,
)


def queue_study(seeds, samples, radii):
    params = CsocParams()
    matrix, x0, cost = build_csoc_overtime(params)
    backlog = float(np.arange(x0.size) @ x0)
    print(f"analyst queue: arrival {params.arrival_rate}/h, service "
          f"{params.service_rate}/h, mean end-of-shift backlog {backlog:.1f}")
    print(f"{'seed':>5}  {'plug-in':>8}  " +
          "  ".join(f"robust({xi:g})" for xi in radii))
    for seed in range(seeds):
        horizons = sample_horizons(params.overtime_min, params.overtime_max,
                                   params.overtime_mean, samples, seed)
        row = []
        for xi in radii:
            rep = compare_report(matrix, x0, cost, horizons, xi, seed,
                                 copies=params.analysts,
                                 support_max=params.overtime_max)
            row.append(rep.drce_cost)
        print(f"{seed:>5}  {rep.empirical_cost:>8.4f}  " +
              "  ".join(f"{v:>10.4f}" for v in row))


def epidemic_study(samples, seed):
    print("\nexpected infections in a population of 5 at t = 8 steps:")
    for model in ("sir", "svir"):
        params = HealthParams(model=model, population=5)
        person, init, cost = health_person(params)
        # persons are independent and identical, so expected costs add up
        deterministic = params.population * float(cost @ (mat_pow(person, 8) @ init))
        horizons = sample_horizons(params.horizon_min, params.horizon_max,
                                   params.horizon_mean, samples, seed)
        rep = compare_report(person, init, cost, horizons, 0.25, seed,
                             population=params.population,
                             support_max=params.horizon_max)
        joint_states = person.shape[0] ** params.population
        print(f"  {model:<5} chain of {joint_states} joint states: "
              f"cost at t=8 {deterministic:.4f}, plug-in {rep.empirical_cost:.4f}, "
              f"robust(0.25) {rep.drce_cost:.4f}")
        print(f"        rollouts exceeding plug-in {rep.pct_exceed_empirical:.0f}%, "
              f"exceeding robust {rep.pct_exceed_drce:.0f}%")


def main():
    parser = argparse.ArgumentParser(description="packaged scenario studies")
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of queue-study seeds")
    parser.add_argument("--samples", type=int, default=100,
                        help="sampled stopping times per study")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for the epidemic study")
    args = parser.parse_args()

    queue_study(args.seeds, args.samples, radii=(0.0, 16.0, 32.0))
    epidemic_study(args.samples, args.seed)


if __name__ == "__main__":
    main()
