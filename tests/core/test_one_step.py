"""A characterisation pin of the one propagation step.

Every registered algorithm, and PageRank as GraphBolt-RP, refines one
seeded six-batch stream whose third batch grows the vertex count.  Per
batch the pin keeps every ``iteration`` and ``refine`` span's tags (a
refinement step's mode, touched, compared and diverged counts and its
record's forms; a forward step's frontier), each history record's
bytes, the batch's work counters and the CRC-32 of its values.  The
SHA-256 of that, per case, is committed in ``one_step_digest.json``: a
refactor of the step must reproduce it byte for byte.

Regenerate the digest (only for a change meant to move it) with
``PYTHONPATH=src python -m tests.core.test_one_step``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import fields

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.registry import REGISTRY
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.obs import trace
from repro.obs.trace import Tracer
from tests.conftest import make_random_batch

DIGEST = os.path.join(os.path.dirname(__file__), "one_step_digest.json")

#: (additions, deletions) per batch: small ones refine sparsely, the
#: large ones densely (and stop a compare short); the third grows.
BATCHES = [(4, 4), (30, 30), (12, 6), (300, 300), (2, 1), (60, 20)]
GROW_AT, GROWTH = 2, 5

CASES = sorted(REGISTRY) + ["pagerank-rp"]


def factory(case):
    if case == "pagerank-rp":
        return PageRank(tolerance=1e-9), True
    return REGISTRY[case].factory(), False


def characterise(case) -> list:
    """The stream's pinned observations, one entry per batch."""
    algorithm, retract = factory(case)
    spec = REGISTRY.get(case, REGISTRY["pagerank"])
    engine = GraphBoltEngine(algorithm, num_iterations=spec.num_iterations,
                             horizon=6, retract=retract)
    engine.run(rmat(scale=10, edge_factor=16, seed=11, weighted=True))
    rng = np.random.default_rng(2024)
    observed = []
    for index, (adds, dels) in enumerate(BATCHES):
        batch = make_random_batch(engine.graph, rng, adds, dels)
        if index == GROW_AT:
            fresh = engine.graph.num_vertices
            batch = batch.merge(MutationBatch.from_edges(
                additions=[(1, fresh), (fresh + 1, 2), (fresh + 2, fresh)],
                grow_to=fresh + GROWTH))
        before = engine.metrics.snapshot()
        tracer = Tracer()
        with trace.activated(tracer):
            engine.apply_mutations(batch)
        work = engine.metrics.delta_since(before)
        observed.append({
            "spans": [[event["name"], event["tags"]]
                      for event in tracer.events()
                      if event["name"] in ("iteration", "refine")],
            "record_nbytes": [record.nbytes
                              for record in engine.history.records],
            "work": {spec.name: getattr(work, spec.name)
                     for spec in fields(work)
                     if spec.name != "phase_seconds"},
            "values_crc32": zlib.crc32(
                np.ascontiguousarray(engine.values).tobytes()),
        })
    return observed


def digest(case) -> str:
    text = json.dumps(characterise(case), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_stream_matches_its_digest(case):
    with open(DIGEST) as stream:
        assert digest(case) == json.load(stream)[case]


def test_the_stream_reaches_every_step_form():
    """The pinned streams refine densely and sparsely, hand a dense
    step to a sparse one, stop a compare short and go forward."""
    modes, stopped, forward = set(), False, False
    for case in ("BP", "pagerank", "sssp"):
        for batch in characterise(case):
            batch_modes = []
            for name, tags in batch["spans"]:
                if "mode" in tags:
                    batch_modes.append("dense" if tags["mode"] == "dense"
                                       else "sparse")
                    stopped = stopped or (tags["mode"] == "dense"
                                          and 0 < tags["compared"]
                                          < tags["touched"])
                elif name == "iteration":
                    forward = True
            modes.update(zip(batch_modes, batch_modes[1:]))
    assert {("dense", "sparse"), ("sparse", "sparse"),
            ("dense", "dense")} <= modes
    assert stopped and forward


if __name__ == "__main__":
    with open(DIGEST, "w") as out:
        json.dump({case: digest(case) for case in CASES}, out, indent=1,
                  sort_keys=True)
        out.write("\n")
