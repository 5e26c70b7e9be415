"""The stage workspace: a warm stage allocates only its outputs, and no state leaks."""

import itertools
import tracemalloc

import numpy as np
import pytest

import barolab as bl
from barolab import EquationOfState, Grid, Regularizer, SLSystem, State
from barolab.euler import _workspace

LAWS = [EquationOfState.isentropic(1.4), EquationOfState.isothermal(1.0, 1.0),
        EquationOfState.shallow_water(1.0)]
FAMILIES = [Regularizer.cubic(0.1), Regularizer.inverse(0.1, 0.8, 1.1),
            Regularizer.power(0.1, 2.5)]


def periodic_state(n):
    g = Grid.periodic(1.0, n)
    return State(0.0, 1.0 + 0.1 * np.sin(2 * np.pi * g.x), 0.5 + 0.1 * np.cos(2 * np.pi * g.x), g)


def line_state(n):
    g = Grid.line(-4.0, 4.0, n, rho_far=(1.2, 0.9), u_far=(0.3, -0.1))
    return State(0.0, 1.05 - 0.15 * np.tanh(g.x) + 0.2 * np.exp(-g.x**2),
                 0.1 - 0.2 * np.tanh(g.x), g)


def poison(n):
    """Fill the shared workspace of size ``n`` with NaN, so a stale read shows."""
    operator, own = _workspace(n)
    for buffer in (*operator, own):
        buffer.fill(np.nan)


@pytest.mark.parametrize("topology", ["periodic", "line"])
@pytest.mark.parametrize("eos", LAWS, ids=["isentropic", "isothermal", "shallow_water"])
@pytest.mark.parametrize("reg", FAMILIES, ids=["cubic", "inverse", "power"])
def test_a_warm_stage_allocates_only_its_outputs(reg, eos, topology):
    # numpy reports its data buffers to tracemalloc; the two outputs are 2 arrays
    n = 4096
    st = periodic_state(n) if topology == "periodic" else line_state(n)
    bl.rhs(st, reg, eos)  # the first stage of this size makes the workspace
    tracemalloc.start()
    try:
        drho, du = bl.rhs(st, reg, eos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * drho.itemsize


def test_no_state_leaks_through_the_shared_buffers():
    n = 128
    stages = [(periodic_state(n), Regularizer.power(0.1, 2.5), LAWS[0]),
              (line_state(n), Regularizer.inverse(0.1, 0.8, 1.1), LAWS[1]),
              (periodic_state(n), Regularizer.cubic(0.1), LAWS[2])]
    grid = stages[0][0].grid
    f = np.cos(2 * np.pi * grid.x)

    def public():
        return SLSystem(grid, stages[0][0].rho, Regularizer.cubic(0.1))

    def alone(call):
        _workspace.cache_clear()
        return call()

    want_rhs = [alone(lambda: bl.rhs(*stage)) for stage in stages]
    want_solve = alone(lambda: public().solve(f))
    for stale in (False, True):
        system = public()
        held = system.solve(f)
        got = []
        for stage, want in zip(stages * 2, want_rhs * 2):
            if stale:
                poison(n)
            got.append(bl.rhs(*stage))
            assert all(np.array_equal(a, b) for a, b in zip(got[-1], want))
        again = system.solve(f)
        assert np.array_equal(held, want_solve) and np.array_equal(again, want_solve)
        results = [held, again, *itertools.chain(*got)]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(results, 2))


def test_out_receives_the_result_bitwise():
    st = line_state(64)
    g, reg = st.grid, FAMILIES[0]
    system = SLSystem(g, st.rho, reg)
    f = np.exp(-g.x**2)
    buffer = np.empty(g.n)
    assert system.solve(f, out=buffer) is buffer
    assert np.array_equal(buffer, system.solve(f))
    assert system.apply(f, out=buffer) is buffer
    assert np.array_equal(buffer, system.apply(f))
    assert system.solve_dx(f, out=buffer) is buffer
    assert np.array_equal(buffer, system.solve_dx(f))
    u = st.u.copy()
    assert g.ddx(u, far=g.u_far, out=u) is u  # f may be out itself
    assert np.array_equal(u, g.ddx(st.u, far=g.u_far))


def test_the_public_calculus_leaves_the_stage_workspace_alone():
    st = line_state(64)
    g = st.grid
    bl.rhs(st, FAMILIES[1], LAWS[1])
    operator, own = _workspace(g.n)
    before = [work.tobytes() for work in (*operator, own)]
    system = SLSystem(g, st.rho, FAMILIES[0])
    f, buffer = np.exp(-g.x**2), np.empty(g.n)
    g.ddx(f, far=g.u_far, out=buffer)
    system.apply(f, far=g.u_far, out=buffer)
    system.solve(f, out=buffer)
    system.solve_dx(f, out=buffer)
    assert [work.tobytes() for work in (*operator, own)] == before
