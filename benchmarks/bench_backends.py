#!/usr/bin/env python3
"""Time the compiled simulator kernel against its pure-numpy fallback.

Both implementations are importable regardless of which one the package
dispatches to, so this script races them in one process:

    python3 benchmarks/bench_backends.py --frames 120 --side 128

It reports generated events per second.
"""

import argparse
import time

import numpy as np

from evframes import _kernels


def best_time(fn, args, repeat):
    fn(*args)  # warm-up (jit compilation, cache effects)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=120, help="simulator scene length")
    parser.add_argument("--side", type=int, default=128, help="sensor width and height")
    parser.add_argument("--repeat", type=int, default=3, help="timed repetitions (best wins)")
    args = parser.parse_args()

    if not _kernels.NUMBA_ENABLED:
        print("numba backend unavailable (not installed or EVFRAMES_NUMBA=0); nothing to compare")
        return

    rng = np.random.default_rng(0)
    side = args.side
    log_frames = np.ascontiguousarray(
        np.cumsum(rng.normal(0.0, 0.2, size=(args.frames, side, side)), axis=0)
    )
    times = np.arange(args.frames, dtype=np.int64) * 10_000
    call_args = (log_frames, times, 0.2, 0.0)
    n_generated = len(_kernels.simulate_crossings_numpy(*call_args)[0])

    t_jit = best_time(_kernels._simulate_jit, call_args, args.repeat)
    t_np = best_time(_kernels.simulate_crossings_numpy, call_args, args.repeat)
    print(f"{'kernel':<22} {'numba':>12} {'numpy':>12} {'speedup':>8}")
    print(
        f"{'simulate_crossings':<22} {n_generated / t_jit / 1e6:>9.1f} M/s"
        f" {n_generated / t_np / 1e6:>9.1f} M/s {t_np / t_jit:>7.1f}x"
    )


if __name__ == "__main__":
    main()
