"""Stacked aggregation layers versus one layer on a powered matrix.

With the identity activation, zero biases, and raw counts, k stacked
aggregation layers collapse exactly to A^k X (W1 ... Wk): iterating the
sparse product is just a memory-friendly way of applying the k-th
power. The equivalence is verified numerically here, then the density
curve shows what the k-th power actually looks like on a sparse
directed graph as k grows.
"""

import numpy as np

import hopscope as hs

rng = np.random.default_rng(3)

print("=" * 64)
print("1. k layers == one layer with A^k (linear case, exact)")
print("=" * 64)
n, k = 12, 5
edges = [(int(i), int(j)) for i in range(n) for j in range(n) if i != j and rng.random() < 0.25]
g = hs.from_edge_list(edges, n)
x = rng.standard_normal((n, 3))
dims = [3, 4, 4, 4, 4, 2]
params = [
    hs.LayerParams(W=rng.standard_normal((dims[i], dims[i + 1])), b=np.zeros(dims[i + 1]))
    for i in range(k)
]
spec = hs.ModelSpec(arch="k_layer_gcn", k=k, hidden_width=4, activation="identity", norm="none")
stacked = hs.model_forward(spec, g, x, params)
direct = hs.collapse_linear(g, x, params, k)
print(f"max relative difference over n={n}, k={k}: {hs.max_relative_error(stacked, direct):.2e}")

print()
print("=" * 64)
print("2. With ReLU the routes differ; depth is no longer just a power")
print("=" * 64)
relu_spec = hs.ModelSpec(arch="k_layer_gcn", k=k, hidden_width=4, activation="relu", norm="none")
relu_out = hs.model_forward(relu_spec, g, x, params)
print(f"relative difference with ReLU: {hs.max_relative_error(relu_out, direct):.2e}")

print()
print("=" * 64)
print("3. Density of the k-step reach on a sparse directed graph")
print("=" * 64)
m = 300
graph = hs.from_edge_list(
    [(int(i), int(j)) for i in range(m) for j in range(m) if i != j and rng.random() < 2.0 / m], m
)
print("  k   plain      +self-loops   bidirected")
ladders = zip(*(hs.power_ladder(a) for a in (graph, hs.add_self_loops(graph), hs.symmetrize(graph))))
for k, (plain, loop, bidir) in zip(range(1, 11), ladders):
    print(f"  {k:2d}  {hs.density(plain):.4f}     {hs.density(loop):.4f}        {hs.density(bidir):.4f}")
print("self-loops accumulate every lower power and reverse edges double")
print("the frontier, while the plain directed power stays comparatively thin")
