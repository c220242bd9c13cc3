import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conewave.blowup import mass_diagnostics
from conewave.grid import Grid
from conewave.harness import sweep
from conewave.solver import Params, make_data, solve_dalembert, solve_march


@pytest.fixture(scope="session")
def global_run():
    """Criterion-5 workhorse: gamma=1, R=1, eps=1e-3, t_max=200, on the
    stencil as solve mode runs it, with its sources from t_star = 100."""
    grid = Grid.for_domain(1 / 16, 201.0, 200.0)
    params = Params(gamma=1.0, R=1.0, grid=grid)
    data = make_data("bump_v1_only", 1e-3, 1.0, grid)
    return params, data, solve_dalembert(params, data, sources_from=grid.index_of_time(100.0))


@pytest.fixture(scope="session")
def blowup_run():
    """Criterion-7 qualifying blow-up run on the stencil, with its u table
    and its sources from slice 0 on."""
    grid = Grid.for_domain(1 / 64, 56.0, 55.0)
    params = Params(gamma=-0.4, R=1.0, grid=grid)
    data = make_data("bump_v1_only", 4.1, 1.0, grid)
    return params, data, solve_dalembert(params, data, sources_from=0)


@pytest.fixture(scope="session")
def blowup_lean(blowup_run):
    """The blow-up run marched as blow-up mode marches it: a lean stencil,
    no tables, the mass chain's series from slice 0 on."""
    params, data, _ = blowup_run
    return params, data, solve_dalembert(params, data, store_history=False, sources_from=0)


@pytest.fixture(scope="session")
def blowup_diag(blowup_lean):
    """Mass-functional diagnostics of the lean blow-up run."""
    _, data, hist = blowup_lean
    return mass_diagnostics(hist, data[1], 4.1)


@pytest.fixture(scope="session")
def backend_triplet():
    """Criterion-3 grids: h in {R/32, R/64, R/128}, t_max = 20R."""
    out = {}
    for div in (32, 64, 128):
        h = 1.0 / div
        grid = Grid.for_domain(h, 21.0, 20.0)
        params = Params(gamma=1.0, R=1.0, grid=grid)
        data = make_data("bump_v1_only", 1e-3, 1.0, grid)
        hm = solve_march(params, data)
        hd = solve_dalembert(params, data)
        out[div] = float(np.max(np.abs(hm.u - hd.u)))
    return out


@pytest.fixture(scope="session")
def lifespan_sweep():
    """Criterion-8 sweep (also feeds criterion 7's monotonicity checks)."""
    return sweep(
        -0.4, 1.0, [3.2, 3.6, 4.1, 4.7, 5.4], h=1 / 16, t_max=170.0, refine=1
    )
