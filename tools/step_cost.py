"""Print the cost of one march step, split into the Thomas sweep and the
rest, and the fixed cost of starting one run.

    PYTHONPATH=src python tools/step_cost.py

Marches ``solve_forward`` on the standard parameter set (sigma 0.3, mu
0.06, gamma 1, nu01 1, nu10 12, strike 2, T 1, S in [0, 5]) on a uniform
grid with dt slaved to half the spacing, for both schemes at I = 40, 160
and 640, and prints one Markdown table row per run: microseconds per
step, the part of it spent in ``tridiag.solve`` and the rest.  The solve
time is measured apart: the systems one run solved are recorded and
solved again on their own, so the march itself is timed untouched.
Every run and every replay is timed ``ROUNDS`` times, the runs
interleaved, and the best of each is kept.

A second table gives the set-up of one run of a parameter study: on one
set from the acceptance criterion-9 box at uniform I = 60 (6 levels),
microseconds per run for the grid, the time grid, ``schemes._start``
(the constants, the level-0 state and the plan), the first
``elimination`` of the plan's rows and reading the at-the-money value.
Each is timed over ``SETUP_CALLS`` calls, ``SETUP_ROUNDS`` times, with
the garbage collector off as ``timeit`` has it, and the best is kept.
The process pins itself to one CPU where the platform allows it.
"""
import gc
import math
import os
import time

import liqshock
from liqshock import analysis, schemes
from liqshock.mesh import time_grid_from_space, uniform_grid

ROUNDS = 45
SIZES = (640, 160, 40)
PARAMS = liqshock.ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0,
                              nu10=12.0, strike=2.0, horizon=1.0)
SETUP_ROUNDS = 9
SETUP_CALLS = 2000
SWEEP_INTERVALS = 60
SWEEP_SET = liqshock.ModelParams(sigma=0.4, mu=0.05, gamma=1.0, nu01=1.0,
                                 nu10=2.0, strike=5.0, horizon=1.0,
                                 s_min=0.0, s_max=20.0)
SETUP_ROWS = ("`uniform_grid`", "`time_grid_from_space`", "`_start`",
              "first `elimination`", "`at_the_money`")


def recorded_systems(grid, tg, config):
    """The systems one run solves, in order."""
    seen, solve = [], schemes.solve
    schemes.solve = lambda system: seen.append(system) or solve(system)
    try:
        liqshock.solve_forward(PARAMS, grid, tg, config)
    finally:
        schemes.solve = solve
    return seen


def step_table():
    runs = []
    for scheme in schemes.SCHEMES:
        for intervals in SIZES:
            grid = uniform_grid(PARAMS.s_min, PARAMS.s_max, intervals)
            tg = time_grid_from_space(grid, PARAMS.horizon)
            config = schemes.SchemeConfig(scheme=scheme)
            runs.append((scheme, intervals, grid, tg, config,
                         recorded_systems(grid, tg, config)))
    best = {}
    for _ in range(ROUNDS):
        for scheme, intervals, grid, tg, config, systems in runs:
            t0 = time.perf_counter()
            liqshock.solve_forward(PARAMS, grid, tg, config)
            t1 = time.perf_counter()
            for system in systems:
                schemes.solve(system)
            t2 = time.perf_counter()
            key = (scheme, intervals)
            run_s, solve_s = best.get(key, (float("inf"), float("inf")))
            best[key] = (min(run_s, t1 - t0), min(solve_s, t2 - t1))
    print("| scheme | I | µs/step | in `tridiag.solve` | rest |")
    print("|---|---|---|---|---|")
    for scheme, intervals, _, tg, _, _ in runs:
        run_s, solve_s = best[scheme, intervals]
        step_us, solve_us = run_s / tg.steps * 1e6, solve_s / tg.steps * 1e6
        print(f"| `{scheme}` | {intervals} | {step_us:.0f} | {solve_us:.0f} "
              f"({solve_us / step_us:.0%}) | {step_us - solve_us:.0f} |")


def setup_table():
    p, calls = SWEEP_SET, range(SETUP_CALLS)
    grid = uniform_grid(p.s_min, p.s_max, SWEEP_INTERVALS)
    tg = time_grid_from_space(grid, p.horizon)
    result = liqshock.solve_forward(p, grid, tg)
    best = dict.fromkeys(SETUP_ROWS, math.inf)
    gc.disable()  # as timeit does: the plans kept would be scanned
    for _ in range(SETUP_ROUNDS):
        times = [time.perf_counter()]
        for _ in calls:
            uniform_grid(p.s_min, p.s_max, SWEEP_INTERVALS)
        times.append(time.perf_counter())
        for _ in calls:
            time_grid_from_space(grid, p.horizon)
        times.append(time.perf_counter())
        plans = [schemes._start(p, grid, tg, (liqshock.payoff_call,),
                                (None,))[1][0] for _ in calls]
        times.append(time.perf_counter())
        for plan in plans:
            plan.rows.elimination
        times.append(time.perf_counter())
        for _ in calls:
            analysis.at_the_money(result)
        times.append(time.perf_counter())
        for row, t0, t1 in zip(SETUP_ROWS, times, times[1:]):
            best[row] = min(best[row], (t1 - t0) / SETUP_CALLS)
    gc.enable()
    print("| set-up | µs/run |")
    print("|---|---|")
    for row, run_s in best.items():
        print(f"| {row} | {run_s * 1e6:.1f} |")
    print(f"| total | {sum(best.values()) * 1e6:.1f} |")


def main():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    step_table()
    print()
    setup_table()


if __name__ == "__main__":
    main()
