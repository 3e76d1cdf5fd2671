"""Compare the two ways of evaluating the cost sequence g(t) = <c, M^t x0>.

The obvious recurrence walks the state forward one step at a time, touching
the matrix T times. The square-root stride evaluator builds ~sqrt(T) forward
states and ~sqrt(T) backward cost rows and recovers all T values from one
table product. The two multiply in a different order, so they agree only to
rounding; the stride pays off once the horizon is long (below max(4, states)
`cost_sequence_strided` runs the recurrence itself). The script prints the
largest difference and wall-clock for growing horizons, then reports the best
single stopping time.

    $ python3 demos/horizon_scan.py --states 24 --seed 3
"""
import argparse
import time

import numpy as np

from stopcost import cost_sequence_naive, cost_sequence_strided, rce_finite


def random_stable(rng, n, rho=0.85):
    m = rng.standard_normal((n, n))
    return m * (rho / np.abs(np.linalg.eigvals(m)).max())


def main():
    parser = argparse.ArgumentParser(
        description="naive versus square-root-stride cost sequence evaluation")
    parser.add_argument("--states", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    m = random_stable(rng, args.states)
    x0 = rng.standard_normal(args.states)
    c = rng.standard_normal(args.states)

    print(f"{'T':>6}  {'naive (ms)':>11}  {'stride (ms)':>11}  {'max |diff|':>11}")
    for horizon in (64, 256, 1024, 4096, 16384):
        t0 = time.perf_counter()
        slow = cost_sequence_naive(m, x0, c, horizon)
        t_naive = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = cost_sequence_strided(m, x0, c, horizon)
        t_fast = time.perf_counter() - t0
        gap = np.abs(slow.values - fast.values).max()
        print(f"{horizon:>6}  {t_naive * 1e3:>11.2f}  {t_fast * 1e3:>11.2f}  {gap:>11.2e}")

    seq = cost_sequence_strided(m, x0, c, 4096)
    t_star, value = rce_finite(seq)
    print(f"\nbest single stopping time over T=4096: t*={t_star}, cost {value:.6f}")
    tail = np.abs(seq.values[t_star + 50:]).max()
    print(f"largest |g(t)| more than 50 steps past t*: {tail:.2e}")


if __name__ == "__main__":
    main()
