"""The e'-derivation graphs and x_0 data at minuscule nodes."""

import pytest

from loomfold.cartan import all_affine_types, build, build_affine, bilinear
from loomfold.pbw import (
    NotMinuscule,
    classify_x0,
    eprime_graph,
    graph_to_dot,
    minuscule_case,
    minuscule_nodes,
)


def all_minuscule_cases(max_n=8):
    for at in all_affine_types(max_n):
        d = build_affine(at)
        for s in minuscule_nodes(d):
            yield minuscule_case(d, s)


def test_minuscule_table():
    assert minuscule_nodes(build("A", 4, 1)) == (1, 2, 3, 4)
    assert minuscule_nodes(build("A", 5, 2)) == (1,)
    assert minuscule_nodes(build("D", 4, 2)) == (3,)
    assert minuscule_nodes(build("D", 6, 1)) == (1, 5, 6)
    assert minuscule_nodes(build("E", 6, 1)) == (1, 5)
    assert minuscule_nodes(build("E", 7, 1)) == (6,)
    assert minuscule_nodes(build("B", 3, 1)) == ()
    assert minuscule_nodes(build("A", 4, 2)) == ()
    assert minuscule_nodes(build("D", 4, 3)) == ()
    with pytest.raises(NotMinuscule):
        minuscule_case(build("A", 5, 2), 2)


def test_case_fixtures():
    case = minuscule_case(build("A", 5, 2), 1)
    assert case.word == (1, 2, 3, 2, 1)
    assert case.betas[-1] == (0, 1, 2, 1)       # theta
    assert case.theta_index == 5
    case = minuscule_case(build("D", 3, 2), 2)
    assert case.word == (2, 1, 2)
    assert case.betas[-1] == (0, 1, 1)
    case = minuscule_case(build("D", 4, 2), 3)
    assert case.word == (3, 2, 1, 3, 2, 3)
    assert case.betas[-1] == (0, 1, 1, 1)


def test_graph_a52():
    # chain 1 <-1- b1 <-2- b2 <-3- b4 <-2- b5 <-1- b3
    case = minuscule_case(build("A", 5, 2), 1)
    g = eprime_graph(case)
    assert sorted(g.edges) == [(1, 1, 0), (2, 2, 1), (3, 1, 5), (4, 3, 2), (5, 2, 4)]
    assert g.pairing_misses == []
    assert g.composite_targets == []


def test_graph_a52_pairing_table():
    # the bold entries of the pairing table: (alpha_i, beta_k) = d_i + delta_{i,s}
    d = build("A", 5, 2)
    case = minuscule_case(d, 1)
    table = {}
    for i in range(1, 4):
        e = tuple(int(j == i) for j in range(4))
        for k, b in enumerate(case.betas, start=1):
            table[(i, k)] = bilinear(d, e, b)
    assert [table[(1, k)] for k in range(1, 6)] == [2, 1, 2, 1, 0]
    assert [table[(2, k)] for k in range(1, 6)] == [-1, 1, 0, -1, 1]
    assert [table[(3, k)] for k in range(1, 6)] == [0, -2, 0, 2, 0]


def test_graph_d32():
    # chain 1 <-2- b1 <-1- b3 <-2- b2
    case = minuscule_case(build("D", 3, 2), 2)
    g = eprime_graph(case)
    assert sorted(g.edges) == [(1, 2, 0), (2, 2, 3), (3, 1, 1)]
    assert g.pairing_misses == []
    assert g.composite_targets == []


def test_graph_d42_with_composite():
    case = minuscule_case(build("D", 4, 2), 3)
    g = eprime_graph(case)
    assert sorted(g.edges) == [
        (1, 3, 0), (2, 3, 4), (3, 1, 2), (3, 3, 6), (4, 2, 1), (5, 2, 3), (6, 1, 4)]
    assert g.pairing_misses == []
    # b5 has no single-vector preimage; F(b1) F(b5) maps onto it under e'_3
    assert g.composite_targets == [(5, 3, 1)]


def test_classify_x0_fixtures():
    x = classify_x0(minuscule_case(build("A", 5, 2), 1))
    assert x.j0 == (1, 3) and x.j1 == (2,)
    assert x.exponents == {2: -1}
    x = classify_x0(minuscule_case(build("D", 3, 2), 2))
    assert x.j0 == (2,) and x.j1 == (1,)
    assert x.exponents == {1: 0}


def test_classify_x0_simply_laced_value():
    # a_{0i} = -1 gives exponent -d_0
    d = build("A", 4, 1)
    x = classify_x0(minuscule_case(d, 2))
    for i in x.j1:
        assert d.gcm[0][i] == -1
        assert x.exponents[i] == -d.sym[0]


def test_theta_is_unique_max_height_in_length_class():
    # theta tops its own length class; a longer long root may sit above it
    # (A5~2 s=1 contains 2a1+2a2+a3 of height 5 over ht(theta) = 4)
    from _oracles import root_norm
    for case in all_minuscule_cases(8):
        d = case.data
        norm = root_norm(d, d.theta)
        same = [b for b in case.betas if root_norm(d, b) == norm]
        heights = [sum(b) for b in same]
        assert sum(d.theta) == max(heights)
        assert heights.count(max(heights)) == 1
        assert case.betas[-1] == d.theta


def test_graph_structure_sweep():
    for case in all_minuscule_cases(8):
        g = eprime_graph(case)
        n_nodes = len(case.betas) + 1
        assert n_nodes == len(case.word) + 1
        # no pairing hit ever has a non-single difference on these cases
        assert g.pairing_misses == []
        # out-degree per label is at most 1
        seen = set()
        for k, i, _ in g.edges:
            assert (k, i) not in seen
            seen.add((k, i))
        # edges into the unit come from height-1 roots only
        for k, i, j in g.edges:
            if j == 0:
                assert sum(case.betas[k - 1]) == 1
        # connectivity over {1} u betas on the single-vector edges alone
        adj = {0: set()}
        for k in range(1, n_nodes):
            adj[k] = set()
        for k, i, j in g.edges:
            adj[k].add(j)
            adj[j].add(k)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == set(range(n_nodes)), case.data.type
        # unique source: exactly one beta with no in-edge (single or composite)
        has_in = {j for (_, _, j) in g.edges} | {j for (j, _, _) in g.composite_targets}
        orphans = [k for k in range(1, n_nodes) if k not in has_in]
        assert len(orphans) <= 1


def test_edge_rule_two_conjuncts():
    # recompute edges from the two independently evaluated conjuncts
    for case in all_minuscule_cases(6):
        d, s = case.data, case.s
        index = {b: k for k, b in enumerate(case.betas, start=1)}
        zero = tuple([0] * d.rank)
        expected = []
        for k, beta in enumerate(case.betas, start=1):
            for i in range(1, d.rank):
                e = tuple(int(j == i) for j in range(d.rank))
                pairing_ok = bilinear(d, e, beta) == d.sym[i] + (1 if i == s else 0)
                diff = tuple(x - y for x, y in zip(beta, e))
                diff_ok = diff == zero or diff in index
                if pairing_ok and diff_ok:
                    expected.append((k, i, 0 if diff == zero else index[diff]))
        g = eprime_graph(case)
        assert sorted(g.edges) == sorted(expected)


def test_x0_edges_match_j_classification():
    # out-edges of theta live in J_1 and exist exactly when the pairing
    # condition does (it can fail at i in J_1, e.g. A_n^(1) end nodes)
    for case in all_minuscule_cases(6):
        d, s = case.data, case.s
        g = eprime_graph(case)
        x = classify_x0(case)
        out_labels = {i for (k, i, _) in g.edges if k == case.theta_index}
        assert out_labels <= set(x.j1)
        expected = set()
        for i in x.j1:
            e = tuple(int(j == i) for j in range(d.rank))
            if bilinear(d, e, d.theta) == d.sym[i] + (1 if i == s else 0):
                expected.add(i)
        assert out_labels == expected


def test_x0_edges_exact_on_fixture_cases():
    for key, s in ((("A", 5, 2), 1), (("D", 3, 2), 2), (("D", 4, 2), 3)):
        case = minuscule_case(build(*key), s)
        g = eprime_graph(case)
        x = classify_x0(case)
        out_labels = {i for (k, i, _) in g.edges if k == case.theta_index}
        assert out_labels == set(x.j1)


def test_dot_output():
    g = eprime_graph(minuscule_case(build("D", 4, 2), 3))
    dot = graph_to_dot(g)
    assert dot.startswith("digraph eprime {")
    assert 'b5 [label="F(1,2,2)"]' in dot
    assert "c1_5 -> b5" in dot
    assert dot.count("->") == 8  # 7 single edges + 1 composite edge
