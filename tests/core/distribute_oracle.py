"""Test-only oracle: the recursive, one-node-at-a-time Fig. 5 walk.

This is the original ``distribute_iterations`` of
:mod:`repro.core.clustering`: it walks the cache tree depth first and
clusters each node on its own, merging with the dense ``W`` kernel of
:mod:`tests.core.merge_oracle` and building a :class:`Cluster` per
initial chunk whose signature is summed on every merge.  The
production walk goes level by level, merges every node of a level in
one lock-step call and renumbers split-off chunks afterwards; the
differential tests require the same ``pool`` and ``assignment``.
Kept out of ``src/`` on purpose: it is a reference, not a second
implementation.  Load balancing is the production
:func:`~repro.core.balancing.balance_clusters`, which the change under
test does not touch.
"""

from repro.core.balancing import TagMatrix, balance_clusters
from repro.core.clustering import Cluster, DistributionResult
from tests.core.merge_oracle import merge_down_dense


def union_find_groups(n, pairs):
    """Group indices 0..n-1 by the forced-together pairs (order-preserving)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def make_cluster(members, pool, tags):
    if len(members) == 1:
        m = members[0]
        return Cluster([m], tags.row(m).copy(), pool[m].size)
    sig = tags.rows(members).sum(axis=0)
    return Cluster(list(members), sig, sum(pool[m].size for m in members))


def split_largest(clusters, pool, tags):
    big = max(range(len(clusters)), key=lambda i: clusters[i].size)
    cluster = clusters[big]
    if len(cluster.members) > 1:
        members = sorted(cluster.members, key=lambda m: -pool[m].size)
        half = cluster.size / 2.0
        taken = []
        acc = 0
        for m in members:
            if acc >= half and taken:
                break
            if len(taken) == len(members) - 1:
                break
            taken.append(m)
            acc += pool[m].size
        rest = [m for m in cluster.members if m not in set(taken)]
        clusters[big] = make_cluster(taken, pool, tags)
        clusters.append(make_cluster(rest, pool, tags))
        return
    m = cluster.members[0]
    chunk = pool[m]
    if chunk.size < 2:
        raise ValueError("cannot create more clusters")
    first, second = chunk.split(chunk.size // 2)
    pool[m] = first
    pool.append(second)
    tags.append(second)
    clusters[big] = make_cluster([m], pool, tags)
    clusters.append(make_cluster([len(pool) - 1], pool, tags))


def cluster_into(member_ids, pool, num_clusters, r, forced_pairs, tags):
    if forced_pairs:
        relevant = {m: k for k, m in enumerate(member_ids)}
        local_pairs = {
            (relevant[a], relevant[b])
            for a, b in forced_pairs
            if a in relevant and b in relevant
        }
        groups = union_find_groups(len(member_ids), local_pairs)
        initial = [[member_ids[i] for i in g] for g in groups]
    else:
        initial = [[m] for m in member_ids]
    clusters = [make_cluster(members, pool, tags) for members in initial]
    if len(clusters) > num_clusters:
        clusters = merge_down_dense(clusters, num_clusters, r)
    while len(clusters) < num_clusters:
        split_largest(clusters, pool, tags)
    return clusters


def distribute_recursive(chunk_set, hierarchy, balance_threshold=0.10, graph=None):
    """The depth-first Fig. 5 walk, one node at a time."""
    pool = list(chunk_set.chunks)
    r = chunk_set.tag_width
    tags = TagMatrix(pool, r)
    forced = graph.forced_pairs if graph is not None else None
    assignment = {}

    def partition(member_ids, node):
        if node.is_leaf:
            assignment[node.client_id] = list(member_ids)
            return
        if node.degree == 1:
            partition(member_ids, node.children[0])
            return
        clusters = cluster_into(member_ids, pool, node.degree, r, forced, tags)
        balance_clusters(clusters, pool, balance_threshold, r, tags)
        for child, cluster in zip(node.children, clusters):
            partition(cluster.members, child)

    partition(list(range(len(pool))), hierarchy.root)
    for c in range(hierarchy.num_clients):
        assignment.setdefault(c, [])
    return DistributionResult(pool, assignment, chunk_set)
