"""Chare protocol unit tests: a hand-wired two-patch scenario.

These tests exercise the §3.1 message flow in isolation (home patch ->
proxy -> compute -> deposit -> force message -> integrate) without the
simulation driver, so protocol bugs localize here.
"""

import inspect

import numpy as np
import pytest

from repro.core.chares import (
    BondedComputeChare,
    HomePatchChare,
    NonbondedComputeChare,
    ProxyPatchChare,
)
from repro.runtime.machine import MachineModel
from repro.runtime.scheduler import Scheduler

IDEAL = MachineModel(
    name="ideal",
    cpu_factor=1.0,
    send_overhead_s=0.0,
    recv_overhead_s=0.0,
    pack_per_byte_s=0.0,
    latency_s=0.001,
    bandwidth_Bps=1e30,
    local_send_overhead_s=0.0,
)


def wire_two_patch_scenario(n_steps=3, compute_load=0.01):
    """Patch A on proc 0, patch B on proc 1; one pair compute on proc 1
    (with a proxy for A), plus one self compute per patch co-located."""
    sched = Scheduler(2, IDEAL)
    atoms_a = np.arange(4)
    atoms_b = np.arange(4, 8)

    home_a = HomePatchChare(0, atoms_a, 0.002, n_steps)
    home_b = HomePatchChare(1, atoms_b, 0.002, n_steps)
    oid_a = sched.register(home_a, 0)
    oid_b = sched.register(home_b, 1)

    self_a = NonbondedComputeChare((0,), compute_load)
    self_b = NonbondedComputeChare((1,), compute_load)
    pair = NonbondedComputeChare((0, 1), compute_load)
    oid_sa = sched.register(self_a, 0)
    oid_sb = sched.register(self_b, 1)
    oid_pair = sched.register(pair, 1)

    proxy_a = ProxyPatchChare(0, oid_a, len(atoms_a))
    oid_proxy = sched.register(proxy_a, 1)

    # wiring
    home_a.local_compute_ids = [oid_sa]
    home_a.proxy_ids = [oid_proxy]
    home_a.expected_contributions = 2  # self_a + proxy message
    home_b.local_compute_ids = [oid_sb, oid_pair]
    home_b.proxy_ids = []
    home_b.expected_contributions = 2
    proxy_a.local_compute_ids = [oid_pair]
    proxy_a.expected_deposits = 1

    self_a.deposit_ids = [oid_a]
    self_b.deposit_ids = [oid_b]
    pair.deposit_ids = [oid_proxy, oid_b]
    # pair needs both patches: B arrives via home notification, A via proxy
    return sched, (home_a, home_b, self_a, self_b, pair, proxy_a)


class TestProtocol:
    def test_all_rounds_complete(self):
        sched, chares = wire_two_patch_scenario(n_steps=3)
        home_a, home_b = chares[0], chares[1]
        done = []
        sched.set_control_handler(lambda t, p: done.append(p))
        sched.inject(home_a.object_id, "start", {})
        sched.inject(home_b.object_id, "start", {})
        sched.run()
        assert sched.quiescent()
        steps = [p for p in done if p[0] == "step_done"]
        assert len(steps) == 6  # 2 patches x 3 rounds
        assert home_a.round == 3 and home_b.round == 3

    def test_compute_executes_once_per_round(self):
        sched, chares = wire_two_patch_scenario(n_steps=4)
        pair = chares[4]
        sched.inject(chares[0].object_id, "start", {})
        sched.inject(chares[1].object_id, "start", {})
        sched.run()
        assert pair.round == 4

    def test_empty_patch_self_advances(self):
        sched = Scheduler(1, IDEAL)
        home = HomePatchChare(0, np.zeros(0, dtype=int), 0.001, 2)
        oid = sched.register(home, 0)
        home.expected_contributions = 0
        done = []
        sched.set_control_handler(lambda t, p: done.append(p))
        sched.inject(oid, "start", {})
        sched.run()
        assert len([p for p in done if p[0] == "step_done"]) == 2

    def test_pipelining_no_deadlock_with_skewed_loads(self):
        """One heavy compute must not deadlock neighbors a step apart."""
        sched, chares = wire_two_patch_scenario(n_steps=5, compute_load=0.0)
        chares[2].load = 0.5  # self_a is slow: patch B runs ahead
        sched.inject(chares[0].object_id, "start", {})
        sched.inject(chares[1].object_id, "start", {})
        sched.run()
        assert chares[0].round == 5 and chares[1].round == 5

    def test_step_completion_monotone_times(self):
        sched, chares = wire_two_patch_scenario(n_steps=4)
        times = []
        sched.set_control_handler(lambda t, p: times.append(t))
        sched.inject(chares[0].object_id, "start", {})
        sched.inject(chares[1].object_id, "start", {})
        sched.run()
        assert times == sorted(times)

    def test_proxy_forwards_combined_force_once_per_round(self):
        sched, chares = wire_two_patch_scenario(n_steps=2)
        proxy, home_a = chares[5], chares[0]
        # count the force messages home A receives, by sender
        sources = []
        deposit = home_a.deposit

        def counting_deposit(source=-1):
            sources.append(source)
            return deposit(source)

        home_a.deposit = counting_deposit
        sched.inject(chares[0].object_id, "start", {})
        sched.inject(chares[1].object_id, "start", {})
        sched.run()
        # one combined force message per round
        assert sources.count(proxy.object_id) == 2

    def test_labels(self):
        sched, chares = wire_two_patch_scenario()
        assert "patch(0)" == chares[0].label()
        assert "proxy(0)" == chares[5].label()
        assert "nb(0+1)" in chares[4].label()


@pytest.mark.parametrize(
    "cls", [HomePatchChare, NonbondedComputeChare, BondedComputeChare]
)
def test_chares_take_no_numeric_backend(cls):
    """Chares carry loads, not positions: none takes a kernel backend or
    the atom and term arrays a force evaluation would need."""
    params = inspect.signature(cls).parameters
    assert "backend" not in params
    assert not {"atoms_a", "atoms_b", "term_indices"} & set(params)
