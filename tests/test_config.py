import asyncio
import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import zpwiener
from zpwiener.config import DEFAULT_CONFIG, ToolConfig, active, using
from zpwiener.errors import BudgetError
from zpwiener.fourier import SparseFunction, wiener_norm
from zpwiener.groups import GroupContext
from zpwiener.reduction import rescale_to_short_interval, separated_projection_bound


def test_using_sets_the_config_for_its_block():
    assert active() is DEFAULT_CONFIG
    outer, inner = ToolConfig(dense_budget=7), ToolConfig(op_budget=9)
    with zpwiener.using(outer) as cfg:
        assert cfg is outer and active() is outer
        with using(inner):
            assert active() is inner
        assert active() is outer
        with pytest.raises(RuntimeError), using(inner):
            raise RuntimeError
        assert active() is outer
    assert active() is DEFAULT_CONFIG


def test_using_needs_a_tool_config():
    with pytest.raises(TypeError, match="ToolConfig"):
        with using({"dense_budget": 7}):
            pass


def test_the_config_in_force_is_per_thread():
    # more workers than cores, switching often: each must only ever see its own
    configs = [ToolConfig(dense_budget=i + 1) for i in range(8)]
    seen = [set() for _ in configs]
    start = threading.Barrier(len(configs))

    def worker(i):
        start.wait(10)
        for _ in range(2000):
            with using(configs[i]):
                seen[i].add(active().dense_budget)
            seen[i].add(active().dense_budget)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [{i + 1, DEFAULT_CONFIG.dense_budget} for i in range(len(configs))]
    assert active() is DEFAULT_CONFIG

    # a new thread starts with DEFAULT_CONFIG; a copied context carries the caller's over
    with using(configs[0]), ThreadPoolExecutor(2) as pool:
        assert pool.submit(active).result() is DEFAULT_CONFIG
        assert pool.submit(contextvars.copy_context().run, active).result() is configs[0]


def test_the_config_in_force_is_per_task():
    async def task(cfg):
        with using(cfg):
            await asyncio.sleep(0)
            return active()

    async def both():
        return await asyncio.gather(*(task(ToolConfig(dense_budget=b)) for b in (3, 5)))

    assert [cfg.dense_budget for cfg in asyncio.run(both())] == [3, 5]
    assert active() is DEFAULT_CONFIG


@pytest.mark.parametrize("field", ["dense_budget", "op_budget"])
@pytest.mark.parametrize("value", [0, -3, 1.5, True, "8", None])
def test_caps_must_be_positive_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        ToolConfig(**{field: value})


def test_the_exact_dimension_cap_is_gone():
    # the dimension, dilation and dissociation searches are bounded by their
    # work, against op_budget, and by no cap of their own
    for knob in ("exact_dim_cap", "q_scan_cap"):
        with pytest.raises(TypeError):
            ToolConfig(**{knob: 16})
    assert not hasattr(zpwiener.config, "DISSOCIATION_CAP")


@pytest.mark.parametrize("field", ["norm_tol", "energy_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9, "0.1", None])
def test_tolerances_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
        ToolConfig(**{field: value})


def test_valid_values_are_kept():
    cfg = ToolConfig(dense_budget=1, op_budget=np.int64(5), norm_tol=0, energy_tol=0.5)
    assert (cfg.dense_budget, cfg.op_budget, cfg.norm_tol, cfg.energy_tol) == (1, 5, 0, 0.5)


def test_the_config_reaches_nested_calls():
    # the caps reach calls made inside library functions, with no parameter on the way
    # (the greedy core {2} fits op_budget = 10; its dilation q = 50 does not)
    f = SparseFunction.indicator(GroupContext(101), [2])
    with using(ToolConfig(op_budget=10)), pytest.raises(BudgetError, match="dilation scan"):
        rescale_to_short_interval(f)
    assert rescale_to_short_interval(f).q == 50
    g = SparseFunction.indicator(GroupContext(11, 2), [(0, 0), (1, 3)])
    with using(ToolConfig(dense_budget=120)), pytest.raises(BudgetError, match="budget 120"):
        separated_projection_bound(g)
    with using(ToolConfig(dense_budget=121)):
        assert separated_projection_bound(g).norm == pytest.approx(wiener_norm(g))
