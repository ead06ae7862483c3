"""The HDRF/greedy scoring core shared by every streaming placement path.

Three call sites place edges with HDRF scoring (Petroni et al., CIKM
2015): the offline :class:`~repro.partitioning.hdrf.HDRFPartitioner`,
the online :func:`repro.service.ingest.place_hdrf` used by the WAL write
path, and pass 2 of the out-of-core partitioner
(:mod:`repro.partitioning.oocore`).  They must agree **bit-for-bit** —
the oocore acceptance criterion compares streamed placements against the
in-memory scorer — so the arithmetic lives here once, in exactly the
order the original partitioner performed it.

The score of partition ``k`` for the arriving edge ``(u, v)``:

    g_u   = (1 + (1 - theta_u))   if k hosts a replica of u else 0
    c_bal = (max_size - size_k) / (epsilon + max_size - min_size)
    score = g_u + g_v + lam * c_bal   [+ gamma if k is an affinity target]

with ``theta_u = du / (du + dv)``.  Two extensions, both off by default
and bit-neutral when unused:

* ``offsets`` — additive per-partition size priors.  A refined bundle's
  ``metadata["refined"]["partition_sizes"]`` profile converts (via
  :func:`balance_offsets`) into offsets that make the balance term steer
  toward the *refined* shape instead of uniform sizes, so post-placement
  refinement starts from where the last refinement ended.
* ``affinity``/``gamma`` — the 2PS-style clustering bonus: partitions
  that own the endpoint clusters score ``gamma`` higher, concentrating
  intra-cluster edges without overriding balance.
"""

from __future__ import annotations

from typing import AbstractSet, Container, List, Optional, Sequence


def hdrf_ties(
    du: int,
    dv: int,
    replicas_u: Container[int],
    replicas_v: Container[int],
    sizes: Sequence[int],
    *,
    candidates: Optional[Sequence[int]] = None,
    lam: float = 1.1,
    epsilon: float = 1.0,
    offsets: Optional[Sequence[int]] = None,
    affinity: Optional[Container[int]] = None,
    gamma: float = 0.0,
) -> List[int]:
    """All best-scoring partitions for ``(u, v)``, in candidate order.

    ``candidates`` restricts the scored partitions (ascending ids when
    omitted) but the balance normalisation always spans *all* partitions
    — matching both existing scorers.  The caller picks from the ties:
    ``ties[0]`` is the deterministic lowest-id winner, ``rng.choice``
    reproduces the partitioner's historical random tie-break.
    """
    theta_u = du / (du + dv)
    theta_v = 1.0 - theta_u
    eff = sizes if offsets is None else [s + o for s, o in zip(sizes, offsets)]
    max_size = max(eff)
    min_size = min(eff)
    ks = range(len(sizes)) if candidates is None else candidates
    best_score = float("-inf")
    ties: List[int] = []
    for k in ks:
        g_u = (1.0 + (1.0 - theta_u)) if k in replicas_u else 0.0
        g_v = (1.0 + (1.0 - theta_v)) if k in replicas_v else 0.0
        c_bal = (max_size - eff[k]) / (epsilon + max_size - min_size)
        score = g_u + g_v + lam * c_bal
        if affinity is not None and k in affinity:
            score += gamma
        if score > best_score:
            best_score = score
            ties = [k]
        elif score == best_score:
            ties.append(k)
    return ties


def greedy_choice(
    replicas_u: AbstractSet[int],
    replicas_v: AbstractSet[int],
    sizes: Sequence[int],
    candidates: Sequence[int],
) -> int:
    """PowerGraph's four greedy rules; least-loaded, ties to lowest id.

    Replica sets are intersected with the candidate set first — a full
    partition cannot take the edge even if it hosts both endpoints.
    """
    allowed = set(candidates)
    hosts_u = replicas_u & allowed
    hosts_v = replicas_v & allowed
    both = hosts_u & hosts_v
    if both:
        pool: AbstractSet[int] = both
    elif hosts_u and hosts_v:
        pool = hosts_u | hosts_v
    elif hosts_u or hosts_v:
        pool = hosts_u or hosts_v
    else:
        pool = allowed
    return min(pool, key=lambda k: (sizes[k], k))


def balance_offsets(profile: Sequence[int]) -> List[int]:
    """Turn a target partition-size profile into additive size offsets.

    Partitions the profile wants *larger* get smaller offsets, making
    them look emptier to the balance term and therefore more attractive,
    until live sizes reproduce the profile's shape.  A uniform profile
    yields all-zero offsets (no behaviour change).
    """
    if not profile:
        return []
    top = max(profile)
    return [top - s for s in profile]
