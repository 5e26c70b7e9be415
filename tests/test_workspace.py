"""The stage workspace and the two schedules of a stage: a warm stage allocates only
its outputs, no state leaks, and the helper thread changes no bit and loses no error."""

import itertools
import os
import signal
import sys
import threading
import time
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest

import barolab as bl
from barolab import (EquationOfState, Grid, IntegrationError, NumericalBreakdownError,
                     Regularizer, SLSystem, State, euler)
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


def each_stage(test):
    """``test`` over every law, regularizer family and topology."""
    test = pytest.mark.parametrize("reg", FAMILIES, ids=["cubic", "inverse", "power"])(test)
    test = pytest.mark.parametrize("eos", LAWS, ids=["isentropic", "isothermal",
                                                     "shallow_water"])(test)
    return pytest.mark.parametrize("topology", ["periodic", "line"])(test)


def use(schedule, monkeypatch):
    """Run every stage of the test in ``schedule``: ``"helper"``, on the helper thread
    from the smallest grid up, or ``"serial"``, on no grid at all."""
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", 1 if schedule == "helper" else np.inf)


def transport_threads(monkeypatch):
    """The names of the threads that form a pressure, which in a stage only the
    transport task does; filled as stages run."""
    names = set()
    pressure = EquationOfState._pressure

    def traced(self, rho, out=None):
        names.add(threading.current_thread().name)
        return pressure(self, rho, out)

    monkeypatch.setattr(EquationOfState, "_pressure", traced)
    return names


def poison(n):
    """Fill the shared workspace of size ``n`` with NaN, so a stale read shows."""
    operator, own = _workspace(n)
    for buffer in (*operator, own):
        buffer.fill(np.nan)


@each_stage
def test_a_warm_stage_allocates_only_its_outputs(reg, eos, topology, monkeypatch,
                                                 schedule="serial"):
    # numpy reports its data buffers to tracemalloc; the two outputs are 2 arrays
    use(schedule, monkeypatch)
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


@each_stage
def test_a_warm_stage_on_the_helper_allocates_only_its_outputs(reg, eos, topology,
                                                               monkeypatch):
    test_a_warm_stage_allocates_only_its_outputs(reg, eos, topology, monkeypatch, "helper")


def test_no_state_leaks_through_the_shared_buffers(monkeypatch, schedule="serial"):
    use(schedule, monkeypatch)
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


def test_no_state_leaks_through_the_shared_buffers_on_the_helper(monkeypatch):
    test_no_state_leaks_through_the_shared_buffers(monkeypatch, "helper")


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


@each_stage
def test_both_schedules_give_the_same_bits(reg, eos, topology, monkeypatch):
    st = periodic_state(256) if topology == "periodic" else line_state(256)

    def stage_and_step():
        end = bl.step(st, 1e-3, reg, eos)
        return (*bl.rhs(st, reg, eos), end.rho, end.u)

    threads = transport_threads(monkeypatch)
    serial = stage_and_step()
    assert threads == {threading.main_thread().name}
    threads.clear()
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", st.grid.n)
    helper = stage_and_step()
    assert threads == {"barolab-helper"}
    assert all(np.array_equal(a, b) for a, b in zip(helper, serial))
    helpers = [t for t in threading.enumerate() if t.name == "barolab-helper"]
    assert len(helpers) == 1 and helpers[0].daemon


def test_helper_stages_under_a_short_switch_interval_change_no_bit(monkeypatch):
    # both states share one workspace; a task that read or wrote it out of turn
    # would change the bits of a later stage
    stages = [(periodic_state(4096), FAMILIES[2], LAWS[0]),
              (line_state(4096), FAMILIES[1], LAWS[1])]
    want = [bl.rhs(*stage) for stage in stages]
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 30.0
        for i in range(200):
            got = bl.rhs(*stages[i % 2])
            assert all(np.array_equal(a, b) for a, b in zip(got, want[i % 2]))
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


def test_an_error_on_the_helper_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", 64)
    threads = transport_threads(monkeypatch)
    pressure = EquationOfState._pressure

    def failing(self, rho, out=None):
        pressure(self, rho, out)
        raise NumericalBreakdownError("pressure failed")

    monkeypatch.setattr(EquationOfState, "_pressure", failing)
    st, reg, eos = periodic_state(64), FAMILIES[0], LAWS[2]
    with pytest.raises(NumericalBreakdownError, match="pressure failed"):
        bl.rhs(st, reg, eos)
    with pytest.raises(IntegrationError, match="pressure failed") as err:
        bl.step(st, 1e-3, reg, eos)
    assert isinstance(err.value.__cause__, NumericalBreakdownError)
    assert threads == {"barolab-helper"}


def test_when_both_tasks_fail_the_operators_error_is_raised(monkeypatch):
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", 64)
    failed = []

    def transport_fails(self, rho, out=None):
        failed.append(threading.current_thread().name)
        raise NumericalBreakdownError("transport failed")

    def operator_fails(*args):
        raise NumericalBreakdownError("operator failed")

    monkeypatch.setattr(EquationOfState, "_pressure", transport_fails)
    monkeypatch.setattr(euler, "_source", operator_fails)
    with pytest.raises(NumericalBreakdownError, match="operator failed"):
        bl.rhs(periodic_state(64), FAMILIES[0], LAWS[2])
    assert failed == ["barolab-helper"]  # it had failed before the stage raised


def test_the_callers_error_state_reaches_the_transport_task():
    # rho u overflows, and only the transport task forms it: u_x and rho_x are 0
    n = euler.PARALLEL_MIN_N
    g = Grid.periodic(1.0, n)
    st = State(0.0, np.full(n, 1.9), np.full(n, 1e308), g)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow") as err:
            bl.rhs(st, FAMILIES[0], LAWS[2])
    assert "_transport" in [frame.name for frame in traceback.extract_tb(err.tb)]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_an_interrupted_wait_lets_the_task_end_and_hands_on_nothing_stale():
    helper = euler._helper()
    ended = []

    class Interrupt(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupt

    def slow():
        time.sleep(0.3)
        ended.append(True)
        raise NumericalBreakdownError("stale")

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Interrupt):
            helper.beside(slow, lambda: None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert ended == [True]
    assert helper.beside(lambda: None, lambda: "fresh") == "fresh"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    monkeypatch.setattr(euler, "PARALLEL_MIN_N", 64)
    st, reg, eos = periodic_state(64), FAMILIES[1], LAWS[0]
    want = bl.rhs(st, reg, eos)  # starts this process's helper
    parent = euler._HELPER
    with warnings.catch_warnings():
        # Python 3.12+ warns when it forks a process with live threads, as this one has
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = bl.rhs(st, reg, eos)
            same = all(np.array_equal(a, b) for a, b in zip(got, want))
            code = 0 if same and euler._HELPER is not parent else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's stage did not end within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
    assert euler._HELPER is parent
