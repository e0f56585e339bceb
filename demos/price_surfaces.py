"""Price surfaces in the liquid and illiquid states.

Marches both IMEX schemes on the standard parameter set and tabulates
the indifference prices p (liquid state) and q (illiquid state) at issue
(t = 0) and at maturity (t = T).  The CSV written per scheme carries the
figure-ready columns S, p_at_t0, q_at_t0, p_at_T, q_at_T.
"""

import numpy as np

from liqshock import (
    ModelParams,
    SchemeConfig,
    initial_state,
    solve_forward,
    time_grid_from_space,
    to_prices,
    uniform_grid,
)

params = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                     strike=2.0, horizon=1.0, s_min=0.0, s_max=5.0)

grid = uniform_grid(params.s_min, params.s_max, 240)
tg = time_grid_from_space(grid, params.horizon)
print(f"grid: {grid.intervals} intervals, dt = {tg.dt:.6f} ({tg.steps} steps)")

for scheme in ("imex_linear", "imex_linearized"):
    result = solve_forward(params, grid, tg, SchemeConfig(scheme=scheme))
    first, dc = initial_state(grid, params), result.plan.dc
    p_T, q_T = to_prices(first.u, first.v, params.horizon, params, dc)
    p_0, q_0 = to_prices(result.final_state.u, result.final_state.v, 0.0,
                         params, dc)

    # At issue the option is worth more than at expiry for S < K (time
    # value), and the illiquid-state price q sits below p.
    k = np.searchsorted(grid.nodes, params.strike)
    print(f"\n[{scheme}]")
    print(f"  at the money: p(0, K) = {p_0[k]:.6f}, q(0, K) = {q_0[k]:.6f}")
    print(f"  liquidity discount at K: {p_0[k] - q_0[k]:.6f}")
    print(f"  price floors: min p = {p_0.min():.2e}, min q = {q_0.min():.2e}")

    path = f"surface_{scheme}.csv"
    header = "S,p_at_t0,q_at_t0,p_at_T,q_at_T"
    table = np.column_stack([grid.nodes, p_0, q_0, p_T, q_T])
    np.savetxt(path, table, delimiter=",", header=header, comments="",
               fmt="%.9g")
    print(f"  wrote {path}")
