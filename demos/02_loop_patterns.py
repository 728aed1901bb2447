"""How loops shape the non-zero pattern of adjacency powers.

Loops let walks stall and recirculate, so the pattern of reachable
pairs stops shrinking: self-loops make support(A^k) grow into
support(A^{k+1}), bidirected edges into support(A^{k+2}), and an
m-cycle carries any walk that touches it m steps further. Acyclic
graphs do the opposite: all walks die past the longest path. This
script walks through each regime and ends with the pattern-sequence
periodicity detector.
"""

import numpy as np

import hopscope as hs

rng = np.random.default_rng(7)


def random_digraph(n, p):
    edges = [(int(i), int(j)) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return hs.from_edge_list(edges, n)


print("=" * 64)
print("1. Self-loops: every k-step pattern survives into k+1")
print("=" * 64)
g = hs.add_self_loops(random_digraph(10, 0.12))
report = hs.verify_loop_lemma(g, "self_loop", k_max=6)
for check, pat in zip(report.checks, hs.power_ladder(g)):
    print(f"  k={check.k}: nnz={pat.nnz:3d} density={hs.density(pat):.3f} inclusion={check.holds}")

print()
print("=" * 64)
print("2. Bidirected edges: patterns recur with stride two")
print("=" * 64)
und = hs.symmetrize(random_digraph(10, 0.12))
report = hs.verify_loop_lemma(und, "two_node", k_max=6)
print("  all k-step patterns inside the (k+2)-step pattern:", report.all_hold)

print()
print("=" * 64)
print("3. An m-cycle extends exactly the walks that touch it")
print("=" * 64)
# a 3-cycle plus a disjoint path: the path's pairs never meet the cycle
g = hs.from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4)], 5)
s1, s4 = hs.mat_power_support(g, 1), hs.mat_power_support(g, 4)
print("  unrestricted support(A^1) <= support(A^4)?", hs.support_subset(s1, s4), "(pair (3,4) has no cycle to ride)")
report = hs.verify_loop_lemma(g, "m_node", k_max=3, m=3)
print(f"  restricted to walks touching cycle {report.cycle}: {report.all_hold}")

print()
print("=" * 64)
print("4. Acyclic graphs: powers vanish past the longest path")
print("=" * 64)
order = rng.permutation(9)
dag_edges = [
    (int(order[i]), int(order[j])) for i in range(9) for j in range(i + 1, 9) if rng.random() < 0.3
]
dag = hs.from_edge_list(dag_edges, 9)
prof = hs.dag_profile(dag)
h = prof.longest_path_len
print(f"  longest path h={h}; nnz(A^h)={hs.mat_power_count(dag, h).nnz}, "
      f"nnz(A^(h+1))={hs.mat_power_count(dag, h + 1).nnz}")

print()
print("=" * 64)
print("5. Eventual periodicity of the pattern sequence")
print("=" * 64)
cases = {
    "single bidirected edge": hs.from_edge_list([(0, 1), (1, 0)], 2),
    "directed 3-cycle": hs.from_edge_list([(0, 1), (1, 2), (2, 0)], 3),
    "self-looped connected graph": hs.add_self_loops(hs.symmetrize(random_digraph(7, 0.3))),
}
for name, g in cases.items():
    got = hs.support_periodicity(g, k_cap=30)
    print(f"  {name:32s} -> preperiod={got.preperiod} period={got.period}")
print("  (a bipartite graph alternates between two patterns forever,")
print("   which is why the detector reports periods, not a fixed point)")
