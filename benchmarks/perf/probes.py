"""Replay probes: one layer's public function called ``K`` times on the
state a round ended in, so its cost is known in isolation.

Kernel costs are taken with a *timed backend* — the engine's own
``KernelBackend`` with each kernel wrapped — passed to the same public
functions the engine calls, so a kernel is timed on exactly the arrays
the layer above hands it.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

K = 5
ROUNDTRIPS = 200
KERNELS = ("nb_pairs", "segment_add", "ewald_real", "ewald_recip")


def median_ms(fn, k: int = K) -> float:
    samples = []
    for _ in range(k):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return 1e3 * statistics.median(samples)


def timed_backend(backend, sink: dict[str, list[tuple[float, int]]]):
    """``backend`` with each kernel recording ``(seconds, work items)``.

    Work items: pairs handed in (``nb_pairs``, ``ewald_real``), rows
    scattered (``segment_add``), atoms × k-vectors (``ewald_recip``).
    """

    def size(name: str, args) -> int:
        if name == "ewald_recip":
            return len(args[0]) * len(args[2])
        if name == "segment_add":
            return len(args[1])
        return len(args[2])

    def wrap(name: str):
        kernel = getattr(backend, name)

        def timed(*args):
            t = time.perf_counter()
            result = kernel(*args)
            sink.setdefault(name, []).append(
                (time.perf_counter() - t, size(name, args))
            )
            return result

        return timed

    return dataclasses.replace(backend, **{name: wrap(name) for name in KERNELS})


def ns_per_item(calls: list[tuple[float, int]]) -> float:
    """Median cost per work item over the calls that had any."""
    rates = [1e9 * s / n for s, n in calls if n > 0]
    return statistics.median(rates) if rates else 0.0


def pair_parameters(system, i, j):
    """Lorentz-Berthelot pair parameters, as the non-bonded layer combines
    them (public force-field tables only)."""
    _, eps_t, rmin_t = system.forcefield.lj_tables()
    ti, tj = system.type_indices[i], system.type_indices[j]
    return (
        np.sqrt(eps_t[ti] * eps_t[tj]),
        rmin_t[ti] + rmin_t[tj],
        system.charges[i] * system.charges[j],
    )


def probe_pair_layers(system, options, skin: float, backend, coulomb: bool) -> dict:
    """Cell enumeration, the prefiltered list, and the pair kernels on it."""
    from repro.md.cells import candidate_pairs
    from repro.md.nonbonded import filter_candidates

    pos, box = system.positions, system.box
    r_list = options.cutoff + skin
    out = {"cells.enumerate_ms": median_ms(lambda: candidate_pairs(pos, box, r_list))}
    i_raw, j_raw = candidate_pairs(pos, box, r_list)
    out["cells.candidates"] = len(i_raw)
    i, j = filter_candidates(system, i_raw, j_raw, r_list, backend=backend)
    out["listed_pairs"] = len(i)

    eps, rmin, qq = pair_parameters(system, i, j)
    if not coulomb:
        qq = np.zeros_like(qq)
    forces = np.zeros_like(pos)
    sink: dict = {}
    timed = timed_backend(backend, sink)
    for _ in range(K):
        timed.nb_pairs(
            pos, box, i, j, eps, rmin, qq, options.cutoff, options.switch,
            forces, i, j,
        )
    contrib = np.ones((len(i), 3))
    for _ in range(K):
        timed.segment_add(forces, i, contrib)
    out["backend.nb_pairs_ns_per_pair"] = ns_per_item(sink["nb_pairs"])
    out["backend.segment_add_ns_per_row"] = ns_per_item(sink["segment_add"])
    # computed from array sizes, not measured: per listed pair the kernel
    # reads both indices and three parameters, gathers two positions and
    # updates two force rows
    per_pair_inputs = sum(a.itemsize for a in (i, j, eps, rmin, qq))
    out["backend.nb_pairs_bytes_per_pair"] = per_pair_inputs + 4 * 3 * 8
    return out


def probe_ewald(system, ewald, backend) -> dict:
    from repro.md.ewald import compute_ewald

    sink: dict = {}
    timed = timed_backend(backend, sink)
    full = median_ms(lambda: compute_ewald(system, ewald, backend=timed))
    real_excl = median_ms(
        lambda: compute_ewald(system, ewald, backend=backend, recip=False)
    )
    return {
        "ewald.real_excl_ms": real_excl,
        "ewald.recip_ms": full - real_excl,
        "backend.ewald_real_ns_per_pair": ns_per_item(sink["ewald_real"]),
        "backend.ewald_recip_ns_per_atom_k": ns_per_item(sink["ewald_recip"]),
    }


class _NoopEvaluator:
    def __init__(self, n_tasks: int) -> None:
        self._offsets = np.arange(n_tasks + 1, dtype=np.int64)

    def begin_step(self, payload) -> None:
        pass

    def rebuild(self, my_tasks):
        return self._offsets

    def eval_task(self, t, block):
        return (0.0, 0.0, 0.0)

    def end_step(self, out_row) -> None:
        pass

    def close(self) -> None:
        pass


class NoopProvider:
    """One empty task per worker: a round trip costs only the pool."""

    n_tasks = 2

    def scratch_shape(self):
        return (self.n_tasks, 1)

    def segments(self):
        return {}

    def make_evaluator(self, worker_id, n_workers, views):
        return _NoopEvaluator(self.n_tasks)


def probe_pool_roundtrip_us() -> float:
    """Median dispatch → collect round trip of an empty evaluation."""
    from repro.pool import SupervisedPool

    provider = NoopProvider()
    samples = []
    with SupervisedPool(provider, 2, np.arange(provider.n_tasks)) as pool:
        for k in range(ROUNDTRIPS + 1):
            t = time.perf_counter()
            pool.begin_step()
            pool.dispatch(k == 0, None)
            if not pool.collect():
                raise RuntimeError("no-op pool degraded")
            pool.finish_step()
            samples.append(time.perf_counter() - t)
    return 1e6 * statistics.median(samples[1:])  # the first one rebuilds
