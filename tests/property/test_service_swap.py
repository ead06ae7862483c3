"""Property-based state machine for the hot-swap service.

Hypothesis drives arbitrary interleavings of the swap state machine's
events — verified queries, good reloads (cycling through distinct
bundles), and corrupt reloads — against a *live* server, and checks the
model invariants after every action:

* every response carries an epoch, and its payload matches the reference
  store for exactly that epoch (no torn reads);
* a sequential client never sees the epoch move except through a
  successful reload, and then by exactly +1;
* a corrupt reload fails with ``reload_failed`` and leaves the live
  epoch untouched;
* when the run ends, the final epoch is ``1 + successful reloads``, no
  lease is outstanding, and no retired store lingers.

Each example boots its own server over a fresh ``StoreManager``; bundles
are built once per module because partitioning dominates the runtime.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlp import TLPPartitioner
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import save_partition
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore


@pytest.fixture(scope="module")
def swap_world(tmp_path_factory):
    """Graph, three distinguishable bundles (+ references), one corrupt dir."""
    from repro.graph.generators import holme_kim

    graph = holme_kim(120, 4, 0.5, seed=11)
    root = tmp_path_factory.mktemp("swap_world")
    partitions = [
        TLPPartitioner(seed=0).partition(graph, 3),
        TLPPartitioner(seed=9).partition(graph, 3),
        make_partitioner("DBH", seed=2).partition(graph, 3),
    ]
    bundles = []
    for i, partition in enumerate(partitions):
        directory = root / f"bundle_{i}"
        save_partition(partition, directory, metadata={"bundle": i})
        bundles.append(directory)
    corrupt = root / "corrupt"
    corrupt.mkdir()
    (corrupt / "partition.json").write_text(
        '{"format_version": 1, "num_partitions": 3, "num_edges": 7,'
        ' "files": [{"file": "missing.edges", "edges": 7,'
        ' "checksum": "deadbeefdeadbeef"}], "metadata": {}}'
    )
    references = [PartitionStore.open(d) for d in bundles]
    return {
        "graph": graph,
        "bundles": bundles,
        "references": references,
        "corrupt": corrupt,
    }


ACTIONS = st.lists(
    st.sampled_from(
        ["master", "neighbors", "edge", "reload", "reload", "corrupt"]
    ),
    min_size=1,
    max_size=14,
)


def _check_response(op, result, epoch, world, epoch_to_bundle):
    assert epoch in epoch_to_bundle, f"response from unknown epoch {epoch}"
    store = world["references"][epoch_to_bundle[epoch]]
    graph = world["graph"]
    if op == "neighbors":
        v = result["v"]
        assert set(result["neighbors"]) == graph.neighbors(v)
        assert result["partitions"] == list(store.replicas_of(v))
    elif op == "master":
        v = result["v"]
        assert result["master"] == store.master_of(v)
        assert result["replicas"] == list(store.replicas_of(v))
    elif op == "edge":
        assert result["partition"] == store.owner_of_edge(result["u"], result["v"])


@given(actions=ACTIONS, pick=st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_swap_state_machine(swap_world, actions, pick):
    world = swap_world
    vertices = list(world["graph"].vertices())
    edges = list(world["graph"].edges())

    async def go():
        store = PartitionStore.open(world["bundles"][0])
        async with PartitionServer(store) as server:
            manager = server.manager
            # Model state: the live epoch and which bundle produced it.
            expected_epoch = manager.epoch
            epoch_to_bundle = {expected_epoch: 0}
            good_reloads = 0
            next_bundle = 1
            async with ServiceClient(
                *server.address, call_timeout=30.0
            ) as client:
                for action in actions:
                    if action == "reload":
                        bundle = next_bundle % len(world["bundles"])
                        info = await client.reload(str(world["bundles"][bundle]))
                        expected_epoch += 1
                        good_reloads += 1
                        next_bundle += 1
                        epoch_to_bundle[expected_epoch] = bundle
                        # The reload ack itself reports the new epoch.
                        assert info["epoch"] == expected_epoch
                        assert client.last_epoch == expected_epoch
                    elif action == "corrupt":
                        with pytest.raises(ServiceError) as excinfo:
                            await client.reload(str(world["corrupt"]))
                        assert excinfo.value.code == protocol.RELOAD_FAILED
                        # Failure must not move the live epoch.
                        assert manager.epoch == expected_epoch
                    elif action == "edge":
                        u, v = pick.choice(edges)
                        result, epoch = await client.call_with_epoch(
                            "edge", u=u, v=v
                        )
                        assert epoch == expected_epoch
                        _check_response("edge", result, epoch, world, epoch_to_bundle)
                    else:
                        v = pick.choice(vertices)
                        result, epoch = await client.call_with_epoch(action, v=v)
                        # Sequential client: responses always come from the
                        # epoch the model says is live.
                        assert epoch == expected_epoch
                        _check_response(
                            action, result, epoch, world, epoch_to_bundle
                        )
                # One final verified query pins down the end state.
                v = vertices[0]
                result, epoch = await client.call_with_epoch("master", v=v)
                assert epoch == expected_epoch
                _check_response("master", result, epoch, world, epoch_to_bundle)
            assert manager.epoch == 1 + good_reloads
            assert manager.active_leases() == 0
            assert manager.retired_epochs() == ()
            counters = server.metrics.counters
            assert counters.get("reloads_ok", 0) == good_reloads
            assert counters.get("reloads_failed", 0) == actions.count("corrupt")

    asyncio.run(go())
