"""The pruned pass-2 chooser equals the all-partition scorers.

:meth:`StreamingPlacer.place_batch` scores only the partitions that can
win: the endpoints' replica bits, the affinity targets and the
least-loaded partition.  On random placement states — partition counts
that need more than one machine word of bitmask, balance offsets on and
off, affinity on and off, all-equal sizes that force ties, degree-1 and
degree-0 endpoints — its choice must be ``hdrf_ties(...)[0]`` (HDRF) or
``greedy_choice(...)`` (greedy) over every partition.  A second property
runs random edge sequences through both the batch placer and the
per-edge reference placer, so the incrementally tracked maximum and
lazy min-heap are exercised across many commits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.oocore.place import StreamingPlacer
from repro.partitioning.oocore.sketch import DegreeSketch
from repro.partitioning.scoring import greedy_choice, hdrf_ties

from tests.partitioning.placer_oracle import OracleStreamingPlacer, mask_set

PARTITION_COUNTS = [1, 2, 3, 64, 65, 130]


@st.composite
def states(draw):
    p = draw(st.sampled_from(PARTITION_COUNTS))
    if draw(st.booleans()):
        sizes = [draw(st.integers(0, 40))] * p  # all equal: ties everywhere
    else:
        sizes = draw(st.lists(st.integers(0, 40), min_size=p, max_size=p))
    offsets = (
        draw(st.lists(st.integers(0, 12), min_size=p, max_size=p))
        if draw(st.booleans())
        else None
    )
    masks = [draw(st.integers(0, (1 << p) - 1)) for _ in range(2)]
    if draw(st.booleans()):  # sparse masks, as most vertices have
        masks = [m & draw(st.integers(0, (1 << p) - 1)) & draw(st.integers(0, (1 << p) - 1))
                 for m in masks]
    affinity = {}
    if draw(st.booleans()):
        for vertex in (0, 1):
            if draw(st.booleans()):
                affinity[vertex] = draw(st.integers(0, p - 1))
    return dict(
        p=p,
        sizes=sizes,
        offsets=offsets,
        masks=masks,
        affinity=affinity,
        degrees=[draw(st.sampled_from([0, 1, 1, 2, 7, 500])) for _ in range(2)],
        lam=draw(st.sampled_from([1.1, 1.1, 0.0, 0.25, 4.0])),
        gamma=draw(st.sampled_from([0.5, 0.0, 3.0])),
        policy=draw(st.sampled_from(["hdrf", "hdrf", "greedy"])),
    )


def _placer(state):
    placer = StreamingPlacer(
        state["p"],
        DegreeSketch(max_exact_vertices=1 << 62, cm_width=1),
        policy=state["policy"],
        lam=state["lam"],
        gamma=state["gamma"],
        affinity=state["affinity"],
        offsets=state["offsets"],
    )
    placer.sizes[:] = state["sizes"]
    placer._track_balance()
    placer._masks.update({0: state["masks"][0], 1: state["masks"][1]})
    return placer


@settings(max_examples=400, deadline=None)
@given(states())
def test_pruned_choice_equals_all_partition_scoring(state):
    placer = _placer(state)
    (du, dv), (mask_u, mask_v) = state["degrees"], state["masks"]
    chosen = placer.place_batch([0], [1], [du], [dv])[0]
    if state["policy"] == "greedy":
        expected = greedy_choice(
            mask_set(mask_u), mask_set(mask_v), state["sizes"], range(state["p"])
        )
    else:
        targets = set(state["affinity"].values()) or None
        expected = hdrf_ties(
            max(1, du),
            max(1, dv),
            mask_set(mask_u),
            mask_set(mask_v),
            state["sizes"],
            lam=state["lam"],
            offsets=state["offsets"],
            affinity=targets,
            gamma=state["gamma"] if targets is not None else 0.0,
        )[0]
    assert chosen == expected


@settings(max_examples=60, deadline=None)
@given(
    states(),
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=120,
    ),
)
def test_batch_sequence_equals_per_edge_reference(state, stream):
    stream = [(u, v, du, dv) for u, v, du, dv in stream if u != v]
    placer = _placer(state)
    affinity = state["affinity"]
    oracle = OracleStreamingPlacer(
        state["p"],
        placer.degrees,
        policy=state["policy"],
        lam=state["lam"],
        gamma=state["gamma"],
        cluster_of={vertex: vertex for vertex in affinity},
        cluster_partition=dict(affinity),
        offsets=state["offsets"],
    )
    oracle.sizes = list(state["sizes"])
    oracle.masks = dict(placer._masks)
    us, vs, dus, dvs = (list(column) for column in zip(*stream)) if stream else ([],) * 4
    half = len(us) // 2  # two batches: state carries across the boundary
    got = placer.place_batch(us[:half], vs[:half], dus[:half], dvs[:half])
    got += placer.place_batch(us[half:], vs[half:], dus[half:], dvs[half:])
    assert got == [oracle.place(u, v, du, dv) for u, v, du, dv in stream]
    assert placer.sizes == oracle.sizes
    assert placer._masks == oracle.masks
