"""Seeded input generators for the three benchmark workloads.

Every generator takes an explicit ``random.Random`` (or a seed) and
nothing else, so the same ``--seed`` always yields the same inputs.
The program under test only ever sees what these functions return.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: The paper's three Azure HPC VM types (Sec. IV).
SKUS = ("Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3")
#: Approximate on-demand $/node-hour, only used to give synthetic
#: corpus rows a plausible cost next to their runtime.
_HOURLY = {"Standard_HC44rs": 3.17, "Standard_HB120rs_v2": 3.60,
           "Standard_HB120rs_v3": 3.60}

# -- sweep ---------------------------------------------------------------------
#
# Why: the data-collection journey (Algorithm 1) on the default
# `CollectRequest` -- on-demand, SQLite state dir, one pool at a time,
# engine `auto`.  It is write-heavy.
# Layers busy: collector (scheduling + SweepProfiler stages), perf
# (physics models; `simd` only if `auto` ever picks the batched engine),
# batch (pool/task lifecycle and billing), store (point appends and task
# syncs).
# Layers idle: snapshot, columnar, cost, pareto, serde, http, cache,
# client -- no advice is asked for.

SWEEP_NNODES = (2, 4, 6, 8)
#: Distinct BOXFACTOR inputs per sweep: 3 SKUs x 4 node counts x 400
#: inputs = 4,800 scenarios.
SWEEP_INPUTS = 400


def sweep_config(rng: random.Random, rgprefix: str) -> Dict:
    """A LAMMPS deployment whose grid is SKUS x SWEEP_NNODES x inputs."""
    factors = rng.sample(range(400, 4000), SWEEP_INPUTS)
    return {
        "subscription": "perfbench",
        "skus": list(SKUS),
        "rgprefix": rgprefix,
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": list(SWEEP_NNODES),
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": [f"{f / 100:.2f}" for f in factors]},
        "tags": {"experiment": "perfbench-sweep"},
    }


def sweep_grid_size() -> int:
    return len(SKUS) * len(SWEEP_NNODES) * SWEEP_INPUTS


# -- shared 50,000-point corpus (advise_serve, ingest_advise) ------------------

CORPUS_POINTS = 50_000
CORPUS_NNODES = (1, 2, 4, 8, 16, 32)
CORPUS_BOXFACTORS = tuple(range(4, 12))
#: Relative speed per SKU and the strong-scaling exponent that shape a
#: runtime: more nodes run faster but cost more node-hours, so each
#: input has a real time/cost front, as in the paper's Fig. 6.
_SPEED = {"Standard_HC44rs": 0.45, "Standard_HB120rs_v2": 1.0,
          "Standard_HB120rs_v3": 1.25}
_SCALING = 0.85
#: Runtimes are quantized to this many jitter levels around the ideal
#: time of each (SKU, node count, input): 18 eviction rates x 8 inputs x
#: 41 levels gives ~5,900 unique (runtime, rate) risk-kernel tuples --
#: the scale at which ROADMAP finding (c) was measured.
JITTER_LEVELS = 41
#: About 9% of rows are measured on spot capacity, with preemptions.
SPOT_SHARE = 0.09


def corpus_config(rgprefix: str) -> Dict:
    """A minimal deployment the corpus is loaded into."""
    return {
        "subscription": "perfbench",
        "skus": [SKUS[2]],
        "rgprefix": rgprefix,
        "appsetupurl": "https://example.org/lammps.sh",
        "nnodes": [1, 2],
        "appname": "lammps",
        "region": "southcentralus",
        "ppr": 100,
        "appinputs": {"BOXFACTOR": ["4"]},
        "tags": {"experiment": "perfbench"},
    }


def corpus_rows(rng: random.Random, n: int, deployment: str,
                fresh_share: float = 0.0,
                first_timestamp: float = 0.0) -> List[Dict]:
    """``n`` synthetic LAMMPS measurements as DataPoint keyword dicts.

    ``fresh_share`` of the rows get an unquantized runtime, i.e. a
    risk-kernel tuple no earlier row had; the rest reuse the levels.
    """
    rows = []
    for i in range(n):
        sku = rng.choice(SKUS)
        nnodes = rng.choice(CORPUS_NNODES)
        factor = rng.choice(CORPUS_BOXFACTORS)
        ideal = 750.0 * factor / (_SPEED[sku] * nnodes ** _SCALING)
        if rng.random() < fresh_share:
            jitter = rng.uniform(0.9, 1.1)
        else:
            jitter = 0.9 + 0.2 * rng.randrange(JITTER_LEVELS) / (
                JITTER_LEVELS - 1)
        exec_time = round(ideal * jitter, 3)
        spot = rng.random() < SPOT_SHARE
        cost = nnodes * _HOURLY[sku] * exec_time / 3600.0
        if spot:
            cost *= 0.2
        rows.append({
            "appname": "lammps",
            "sku": sku,
            "nnodes": nnodes,
            "ppn": 100,
            "exec_time_s": exec_time,
            "cost_usd": round(cost, 6),
            "appinputs": {"BOXFACTOR": str(factor)},
            "tags": {"experiment": "perfbench"},
            "capacity": "spot" if spot else "ondemand",
            "preemptions": rng.randint(0, 2) if spot else 0,
            "deployment": deployment,
            "timestamp": first_timestamp + i,
        })
    return rows


# -- ingest_advise -------------------------------------------------------------
#
# Why: writes beside reads on the same store.  Each round appends a
# seeded batch through the store's public `append_points`, then asks
# for the first on-demand and the first spot advice on the new
# generation, in process (`AdvisorSession`, engine `auto`).  Every
# advice misses the snapshot LRU, and the batch's fresh runtimes miss
# part of the risk-kernel cache, so store column fetch, snapshot
# encode, `np.unique` dedup and the Monte-Carlo P95 do the work
# (ROADMAP findings (a)-(c)).
# Layers busy: store (append + column fetch), snapshot (build + view),
# columnar, cost, pareto.
# Layers idle: collector, perf, batch, serde, http, cache, client.

INGEST_BATCH = 250
#: Share of each batch with a never-seen runtime (risk-kernel misses).
INGEST_FRESH_SHARE = 0.3


# -- advise_serve --------------------------------------------------------------
#
# Why: read-mostly interactive serving.  `fleet serve --workers 1` runs
# as its own process; two closed-loop clients (one load-generating
# process, two threads: the host's core count) each wait for a reply
# before sending the next request, as an interactive `RemoteSession`
# user does.  Every request goes through the public
# `RemoteSession.advise`, i.e. `POST /v1/advice` -- the only advice
# request the repository's clients send.  No writes.
#
# The request mix is an assumption: no measured or published mix of
# advice requests exists to cite.  Drawn from the seed in blocks of 100
# shared by both clients:
#   77% hot set   -- 7 fixed on-demand queries, repeated.
#   20% long tail -- distinct filter combinations.
#   3%  spot      -- distinct spot what-ifs for one input on one VM
#                    type: a fresh eviction rate and checkpoint
#                    settings, so each runs Monte-Carlo risk kernels
#                    (cost.p95_kernel_calls) no earlier request ran.
# Cache hits: none.  POST bypasses the service's ETag/response cache
# (only `GET /v1/advice` uses it, and no shipped client sends that), so
# the hot set is served like the tail: columnar advice over the warm
# snapshot; client.not_modified_ratio and cache.hit_ratio read 0.
# Layers busy: http, client, columnar, cost, pareto, serde, snapshot view.
# Layers idle: cache; store fetch and snapshot build (warmed during
# set-up; snapshot.builds reads 0); collector, perf, batch.

HOT_SHARE = 0.77
SPOT_SHARE_OF_REQUESTS = 0.03
BLOCK = 100

HOT_SET = (
    {},
    {"sort_by": "cost"},
    {"max_rows": 5},
    {"nnodes": (2, 4)},
    {"filters": {"BOXFACTOR": "6"}},
    {"sku": "HC44rs"},
    {"appname": "lammps", "sort_by": "cost", "max_rows": 10},
)


def _tail_request(rng: random.Random) -> Dict:
    size = rng.randint(1, len(CORPUS_NNODES))
    spec: Dict = {"nnodes": tuple(sorted(rng.sample(CORPUS_NNODES, size))),
                  "sort_by": rng.choice(("time", "cost")),
                  "max_rows": rng.randint(1, 60)}
    if rng.random() < 0.5:
        spec["sku"] = rng.choice(SKUS).split("_", 1)[1]
    if rng.random() < 0.5:
        spec["filters"] = {"BOXFACTOR": str(rng.choice(CORPUS_BOXFACTORS))}
    return spec


def _spot_request(rng: random.Random) -> Dict:
    # "What if spot capacity on this VM type were evicted this often,
    # and I checkpointed like this?"  One input on one VM type keeps a
    # what-if to a few hundred risk-kernel runs.
    return {"capacity": "spot",
            "sku": rng.choice(SKUS).split("_", 1)[1],
            "filters": {"BOXFACTOR": str(rng.choice(CORPUS_BOXFACTORS))},
            "eviction_rate": round(rng.uniform(0.01, 0.5), 4),
            "checkpoint_interval_s": rng.choice((300.0, 600.0, 1200.0)),
            "checkpoint_overhead_s": rng.choice((30.0, 60.0, 120.0)),
            "sort_by": rng.choice(("time", "cost"))}


def _key(spec: Dict) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in spec.items()))


def request_stream(rng: random.Random, count: int) -> List[tuple]:
    """``count`` ``(kind, spec)`` pairs.  Every block of 100 holds
    exactly 77 hot, 20 tail and 3 spot requests in seeded order, so a
    window of the stream has the stated mix whatever the seed.  Tail
    and spot specs never repeat within a stream or collide with the
    hot set."""
    seen = {_key(spec) for spec in HOT_SET}
    hot = round(BLOCK * HOT_SHARE)
    spot = round(BLOCK * SPOT_SHARE_OF_REQUESTS)
    kinds = ["hot"] * hot + ["spot"] * spot + ["miss"] * (BLOCK - hot - spot)
    out: List[tuple] = []
    while len(out) < count:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            if kind == "hot":
                out.append(("hot", HOT_SET[rng.randrange(len(HOT_SET))]))
                continue
            make = _spot_request if kind == "spot" else _tail_request
            while True:
                spec = make(rng)
                if _key(spec) not in seen:
                    seen.add(_key(spec))
                    break
            out.append((kind, spec))
    return out[:count]
