"""Structural audits: comparison ordering, translation, positivity.

``verify`` makes three forward runs (call payoff, call + 0.1, zero
payoff) and demonstrates the discrete comparison machinery: ordered data
stay ordered at every node and level, a constant shift of all data moves
the solution by exactly that constant, and each tridiagonal solve
satisfies the monotonicity conditions and the sup-norm a-priori bound.

The positivity audit fails by design: the transformed prices stay
nonnegative up to a small O(dt) dip (at the degenerate S = 0 edge for
``imex_linear``), which the audit pinpoints by level and node.  These
are the lines ``liqshock verify --I 120`` prints for each scheme.
"""

from liqshock import (
    ModelParams,
    SchemeConfig,
    time_grid_from_space,
    uniform_grid,
    verify,
)

params = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                     strike=2.0, horizon=1.0, s_min=0.0, s_max=5.0)
grid = uniform_grid(params.s_min, params.s_max, 120)
tg = time_grid_from_space(grid, params.horizon)

for scheme in ("imex_linear", "imex_linearized"):
    print(f"\n=== {scheme} ===")
    for line in verify(params, grid, tg, SchemeConfig(scheme=scheme)).lines():
        print("  " + line)
