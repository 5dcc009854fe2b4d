from collections import Counter
from fractions import Fraction

import pytest

from cadreduce import reduction
from cadreduce.cadmodel import (
    Cad,
    SectionStack,
    check_adapted,
    validate_cad,
)
from cadreduce.expr import parse_expr
from cadreduce.gallery import (
    disk_c,
    gallery_names,
    load_entry,
    disk_cp,
    disk_cpp,
    trousers4_c,
    trousers4_cp,
    trousers_c,
    trousers_cp,
    ushape_c,
    ushape_cp,
)
from cadreduce.poset import (
    PosetGraph,
    explore,
    extend_cylinder,
    minimal_elements,
    minimum_element,
    poset_report,
)
from tests.oracles import (
    SectionsCross,
    block_label_mismatches,
    coarsening_blocks,
    common_refinement,
    explore_by_partition,
    is_globally_confluent,
    is_locally_confluent,
    locate,
    partition_refines,
    refines,
    sample,
)
from tests.test_packaging import load_perfbench
from tests.test_reduction import lift_fixtures

F = Fraction


def assert_refines_its_inputs(refined, labels, *inputs):
    """Each leaf's sample lies in a leaf of each input with the same label,
    and every input leaf holds some leaf's sample."""
    for cad, cad_labels in inputs:
        hosts = {leaf: locate(cad, sample(refined, leaf)) for leaf in refined.leaves()}
        for leaf, bit in labels.items():
            assert cad_labels[hosts[leaf]] == bit, leaf
        assert set(hosts.values()) == set(cad.leaves())


def refinement(c1, labels1, c2, labels2):
    """``common_refinement``, checked against its inputs by location."""
    refined, labels = common_refinement(c1, labels1, c2, labels2)
    assert_refines_its_inputs(refined, labels, (c1, labels1), (c2, labels2))
    return refined, labels


def test_explore_single_chain():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(2)
    graph = explore(cad, labels)
    assert len(graph.nodes) == 1 and not graph.edges
    (root,) = graph.nodes.values()
    assert minimal_elements(graph) == {root.partition_blocks()}
    assert minimum_element(graph) is root
    assert is_locally_confluent(graph)


def test_explore_disk_cpp():
    entry = disk_cpp()
    graph = explore(entry.cad, entry.labels)
    assert len(graph.nodes) == 10
    assert len(graph.edges) == 15
    sinks = minimal_elements(graph)
    assert len(sinks) == 1
    minimum = minimum_element(graph)
    assert minimum is not None
    assert minimum.leaf_count() == 13
    assert sinks == {minimum.partition_blocks()} == {coarsening_blocks(disk_c().cad, entry.cad)}
    assert is_locally_confluent(graph)
    assert any(pivot == (4, 6) for _s, pivot, _d in graph.edges)


def test_trousers_common_refinement_and_poset():
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = refinement(c.cad, c.labels, cp.cad, cp.labels)
    assert cbar.leaf_count() == 27
    assert validate_cad(cbar).ok
    assert check_adapted(cbar, c.formula) == labels
    assert refines(cbar, c.cad, cbar) and refines(cbar, cp.cad, cbar)

    graph = explore(cbar, labels)
    sinks = minimal_elements(graph)
    assert sinks == {
        coarsening_blocks(c.cad, cbar),
        coarsening_blocks(cp.cad, cbar),
    }
    assert minimum_element(graph) is None
    assert not is_locally_confluent(graph)
    counts = sorted(node.leaf_count() for key, node in graph.nodes.items() if not graph.out_edges[key])
    assert counts == [9, 15]


def test_trousers_poset_newman_agreement():
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = refinement(c.cad, c.labels, cp.cad, cp.labels)
    graph = explore(cbar, labels)
    assert is_locally_confluent(graph) == is_globally_confluent(graph)


def test_disk_poset_newman_agreement():
    entry = disk_cpp()
    graph = explore(entry.cad, entry.labels)
    assert is_locally_confluent(graph) == is_globally_confluent(graph) == True  # noqa: E712


def test_edges_strictly_decrease_leaf_count():
    entry = disk_cpp()
    graph = explore(entry.cad, entry.labels)
    for src, _pivot, dst in graph.edges:
        assert graph.nodes[dst].leaf_count() < graph.nodes[src].leaf_count()


def test_common_refinement_of_identical_cads():
    entry = disk_c()
    merged, labels = refinement(entry.cad, entry.labels, entry.cad, entry.labels)
    assert merged.leaf_count() == entry.cad.leaf_count()
    assert labels == entry.labels
    assert merged.canonical_key()[:2] == entry.cad.canonical_key()[:2]


CBAR_INPUTS = [
    ("trousers-Cbar", (trousers_c, trousers_cp)),
    ("ushape-Cbar", (ushape_c, ushape_cp)),
    ("trousers4-Cbar", (trousers4_c, trousers4_cp)),
]


@pytest.mark.parametrize("name, inputs", CBAR_INPUTS)
def test_gallery_refinements_refine_their_inputs(name, inputs):
    entry = load_entry(name)
    assert_refines_its_inputs(entry.cad, entry.labels, *((e.cad, e.labels) for e in (build() for build in inputs)))


@pytest.mark.parametrize("name, inputs", CBAR_INPUTS)
def test_literal_cbar_entries_are_the_common_refinements_of_c_and_cp(name, inputs):
    # The paper's C-bar is the common refinement of the two minimal CADs;
    # the gallery writes it out as a literal stack.
    entry = load_entry(name)
    c, cp = (build() for build in inputs)
    cad, labels = common_refinement(c.cad, c.labels, cp.cad, cp.labels)
    assert (entry.cad.canonical_key(), entry.labels) == (cad.canonical_key(), labels)
    if name == "trousers4-Cbar":
        base = load_entry("trousers-Cbar")
        cad, labels = extend_cylinder(base.cad, base.labels, 4)
        assert (entry.cad.canonical_key(), entry.labels) == (cad.canonical_key(), labels)


@pytest.mark.parametrize("cuts", [("0", "1"), ("1", "0")])
def test_common_refinement_interleaves_the_sections_of_a_line(cuts):
    # Each input's one section comes first in one of the two orders.
    a, b = (Cad(1, {(): SectionStack((parse_expr(cut),))}) for cut in cuts)
    refined, _labels = refinement(a, dict.fromkeys(a.leaves(), 0), b, dict.fromkeys(b.leaves(), 0))
    assert refined.stacks[()].functions == (parse_expr("0"), parse_expr("1"))


def test_common_refinement_interleaves_sections_over_a_cell():
    # Over the line, x1 + 1 lies between x1 and x1 + 2.
    a = Cad(2, {(): SectionStack(()), (1,): SectionStack((parse_expr("x1"), parse_expr("(add x1 2)")))})
    b = Cad(2, {(): SectionStack(()), (1,): SectionStack((parse_expr("(add x1 1)"),))})
    refined, _labels = refinement(a, dict.fromkeys(a.leaves(), 0), b, dict.fromkeys(b.leaves(), 0))
    assert refined.stacks[(1,)].functions == tuple(parse_expr(f) for f in ("x1", "(add x1 1)", "(add x1 2)"))


def test_a_disordered_input_stack_is_left_to_validation():
    # R^1 cut at 1 and then at 0: no comparison is needed to merge it with
    # the empty stack, and validating the refinement finds the disorder.
    disordered = Cad(1, {(): SectionStack((parse_expr("1"), parse_expr("0")))})
    whole = Cad(1, {(): SectionStack(())})
    refined, labels = common_refinement(disordered, dict.fromkeys(disordered.leaves(), 0), whole, {(1,): 0})
    assert labels == dict.fromkeys(refined.leaves(), 0)
    report = validate_cad(refined)
    assert any("not strictly ordered on the cell" in v for v in report.violations), str(report)
    assert not report.admits_reduction


def test_common_refinement_rejects_crossing_sections():
    a = Cad(2, {(): SectionStack(()), (1,): SectionStack((parse_expr("x1"),))})
    b = Cad(2, {(): SectionStack(()), (1,): SectionStack((parse_expr("(neg x1)"),))})
    labels_a = {(1, 1): 0, (1, 2): 1, (1, 3): 0}
    labels_b = dict(labels_a)
    with pytest.raises(SectionsCross):
        common_refinement(a, labels_a, b, labels_b)


def test_extend_cylinder_identity_and_growth():
    entry = trousers_c()
    same, labels = extend_cylinder(entry.cad, entry.labels, 3)
    assert same is entry.cad and labels == entry.labels
    with pytest.raises(ValueError):
        extend_cylinder(entry.cad, entry.labels, 2)
    ext, ext_labels = extend_cylinder(entry.cad, entry.labels, 4)
    assert ext.n == 4
    assert ext.leaf_count() == 9
    assert validate_cad(ext).ok
    assert set(ext_labels) == set(ext.leaves())
    assert check_adapted(ext, entry.formula) == ext_labels


def test_extended_trousers_poset_has_no_minimum():
    c4, c4_labels = extend_cylinder(trousers_c().cad, trousers_c().labels, 4)
    cp4, cp4_labels = extend_cylinder(trousers_cp().cad, trousers_cp().labels, 4)
    cbar, labels = refinement(c4, c4_labels, cp4, cp4_labels)
    assert cbar.leaf_count() == 27
    graph = explore(cbar, labels)
    assert len(minimal_elements(graph)) == 2
    assert minimum_element(graph) is None
    assert not is_locally_confluent(graph)


def test_ushape_poset():
    c, cp = ushape_c(), ushape_cp()
    cbar, labels = refinement(c.cad, c.labels, cp.cad, cp.labels)
    graph = explore(cbar, labels)
    assert len(minimal_elements(graph)) == 2
    assert minimum_element(graph) is None
    assert not is_locally_confluent(graph)


@pytest.mark.parametrize("name", gallery_names())
def test_every_explored_node_is_a_valid_adapted_coarsening_of_the_root(name):
    # Checked on the root: the root is valid and adapted, and every root
    # leaf in a node's leaf block carries that leaf's label.
    entry = load_entry(name)
    checked = 0
    for cad, labels in ((entry.cad, entry.labels), extend_cylinder(entry.cad, entry.labels, entry.cad.n + 1)):
        assert validate_cad(cad).ok and check_adapted(cad, entry.formula) == labels, (name, cad.n)
        graph = explore(cad, labels)
        root_blocks = next(iter(graph.nodes.values())).partition_blocks()
        for node in graph.nodes.values():
            mismatches, count = block_label_mismatches(node, labels)
            assert mismatches == [], (name, cad.n, node.applied)
            assert partition_refines(root_blocks, node.partition_blocks()), (name, cad.n, node.applied)
            checked += count
    assert checked >= 2 * len(entry.labels), name


def test_unique_minimal_iff_minimum_on_gallery_posets():
    cases = []
    entry = disk_cpp()
    cases.append(explore(entry.cad, entry.labels))
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = refinement(c.cad, c.labels, cp.cad, cp.labels)
    cases.append(explore(cbar, labels))
    for graph in cases:
        assert (len(minimal_elements(graph)) == 1) == (minimum_element(graph) is not None)


def test_poset_report_on_disk_cpp():
    entry = disk_cpp()
    graph = explore(entry.cad, entry.labels)
    report = poset_report(graph)
    assert report["node_count"] == 10
    assert report["edge_count"] == 15
    assert report["confluent"] is True
    assert report["minimum"]["leaf_count"] == 13
    assert report["root_leaf_count"] == 29


def test_dedup_keeps_one_history_per_partition():
    entry = disk_cpp()
    graph = explore(entry.cad, entry.labels)
    for key, node in graph.nodes.items():
        assert node.top is key
        assert len(node.applied) <= 4
    assert len({node.partition_blocks() for node in graph.nodes.values()}) == len(graph.nodes)


def brute_force_minimum(graph):
    """The unique sink node, provided every node reaches it by
    ``descendants``."""
    sinks = [key for key in graph.nodes if not graph.successors(key)]
    if len(sinks) != 1:
        return None
    if all(sinks[0] in graph.descendants(key) for key in graph.nodes):
        return graph.nodes[sinks[0]]
    return None


def oracle_posets():
    for name in gallery_names():
        entry = load_entry(name)
        yield name, explore(entry.cad, entry.labels)
    cpp = disk_cpp()
    yield "disk-Cpp in R^4", explore(*extend_cylinder(cpp.cad, cpp.labels, 4))


def test_sink_count_answers_match_definitional_oracles():
    sink_counts = set()
    for name, graph in oracle_posets():
        report = poset_report(graph)
        local, global_ = is_locally_confluent(graph), is_globally_confluent(graph)
        assert report["confluent"] == local == global_, name
        assert minimum_element(graph) is brute_force_minimum(graph), name
        sink_counts.add(len(minimal_elements(graph)))
    assert sink_counts == {1, 2}


def test_poset_report_walks_no_edges(monkeypatch):
    entry = disk_cpp()
    trousers = load_entry("trousers-Cbar")
    graphs = [explore(entry.cad, entry.labels), explore(trousers.cad, trousers.labels)]
    reports = [poset_report(g) for g in graphs]

    def walked(self, key):
        raise AssertionError("poset_report walked the graph")

    monkeypatch.setattr(PosetGraph, "successors", walked)
    monkeypatch.setattr(PosetGraph, "descendants", walked)
    assert [poset_report(g) for g in graphs] == reports


def test_explore_matches_the_partition_keyed_oracle(monkeypatch):
    # ``explore`` knows a child by its interned top cell; the oracle knows it
    # by its partition.  Both find the same nodes, edges and sinks, and each
    # node keeps the merges of the same first path.  The nodes' partitions
    # are made here, once each.
    workloads = load_perfbench("workloads", monkeypatch)
    inputs = [(name, build()) for name, build in lift_fixtures()]
    for k in range(1, 7):
        inp = workloads.disk_lines(k, 0)
        inputs.append((inp.name, (inp.cad, inp.labels)))
    edges = 0
    for name, (cad, labels) in inputs:
        graph, oracle = explore(cad, labels), explore_by_partition(cad, labels)
        blocks = {top: node.partition_blocks() for top, node in graph.nodes.items()}
        assert list(blocks.values()) == list(oracle.nodes), name
        assert {(blocks[src], pivot, blocks[dst]) for src, pivot, dst in graph.edges} == oracle.edges, name
        assert minimal_elements(graph) == minimal_elements(oracle), name
        assert {blocks[k]: n.applied for k, n in graph.nodes.items()} == {k: n.applied for k, n in oracle.nodes.items()}, name
        edges += len(graph.edges)
    assert edges > 500, edges


@pytest.mark.parametrize("name", ["disk-lines(3)", "trousers-Cbar"])
def test_commuting_merges_reach_one_top_cell(name, monkeypatch):
    # Inside one ``explore`` cells are hash-consed: every edge into a node
    # ends at the node's own top cell, so two commuting merges applied in
    # either order reach one object, and the graph holds one node for it.
    if name == "trousers-Cbar":
        entry = load_entry(name)
        cad, labels = entry.cad, entry.labels
    else:
        inp = load_perfbench("workloads", monkeypatch).disk_lines(3, 0)
        cad, labels = inp.cad, inp.labels
    tops = {}
    merge = reduction.merge_applicable

    def recorded(tree, pivot, table):
        tops[id(tree), pivot] = reduced = merge(tree, pivot, table)
        return reduced

    monkeypatch.setattr(reduction, "merge_applicable", recorded)
    graph = explore(cad, labels)
    nodes = graph.nodes
    assert all(node.top is key for key, node in nodes.items())
    for src, pivot, dst in graph.edges:
        assert tops[id(nodes[src]), pivot].top is dst, (src, pivot)
    # A node with two in-edges is reached by two merges in either order.
    assert max(Counter(dst for _src, _pivot, dst in graph.edges).values()) >= 2
