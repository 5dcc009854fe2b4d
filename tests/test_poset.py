from fractions import Fraction

import pytest

from cadreduce.cadmodel import (
    Cad,
    SectionStack,
    check_adapted,
    validate_cad,
)
from cadreduce.errors import SectionsCross
from cadreduce.expr import parse_expr
from cadreduce.gallery import (
    disk_c,
    gallery_names,
    load_entry,
    disk_cp,
    disk_cpp,
    trousers_c,
    trousers_cp,
    ushape_c,
    ushape_cp,
)
from cadreduce.poset import (
    PosetGraph,
    common_refinement,
    explore,
    extend_cylinder,
    minimal_elements,
    minimum_element,
    poset_report,
)
from tests.oracles import coarsening_blocks, is_globally_confluent, is_locally_confluent, partition_refines, refines

F = Fraction


def test_explore_single_chain():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(2)
    graph = explore(cad, labels)
    assert len(graph.nodes) == 1 and not graph.edges
    assert minimal_elements(graph) == {graph.root_key}
    assert minimum_element(graph) == graph.root_key
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
    assert graph.nodes[minimum].leaf_count == 13
    assert minimum == coarsening_blocks(disk_c().cad, entry.cad)
    assert is_locally_confluent(graph)
    assert any(pivot == (4, 6) for _s, pivot, _d in graph.edges)


def test_trousers_common_refinement_and_poset():
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = common_refinement(c.cad, c.labels, cp.cad, cp.labels)
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
    counts = sorted(graph.nodes[k].leaf_count for k in sinks)
    assert counts == [9, 15]


def test_trousers_poset_newman_agreement():
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = common_refinement(c.cad, c.labels, cp.cad, cp.labels)
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
        assert len(dst) < len(src)


def test_common_refinement_of_identical_cads():
    entry = disk_c()
    merged, labels = common_refinement(entry.cad, entry.labels, entry.cad, entry.labels)
    assert merged.leaf_count() == entry.cad.leaf_count()
    assert labels == entry.labels
    assert merged.canonical_key()[:2] == entry.cad.canonical_key()[:2]


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
    ext, ext_labels = extend_cylinder(entry.cad, entry.labels, 4)
    assert ext.n == 4
    assert ext.leaf_count() == 9
    assert validate_cad(ext).ok
    assert set(ext_labels) == set(ext.leaves())
    assert check_adapted(ext, entry.formula) == ext_labels


def test_extended_trousers_poset_has_no_minimum():
    c4, c4_labels = extend_cylinder(trousers_c().cad, trousers_c().labels, 4)
    cp4, cp4_labels = extend_cylinder(trousers_cp().cad, trousers_cp().labels, 4)
    cbar, labels = common_refinement(c4, c4_labels, cp4, cp4_labels)
    assert cbar.leaf_count() == 27
    graph = explore(cbar, labels)
    assert len(minimal_elements(graph)) == 2
    assert minimum_element(graph) is None
    assert not is_locally_confluent(graph)


def test_ushape_poset():
    c, cp = ushape_c(), ushape_cp()
    cbar, labels = common_refinement(c.cad, c.labels, cp.cad, cp.labels)
    graph = explore(cbar, labels)
    assert len(minimal_elements(graph)) == 2
    assert minimum_element(graph) is None
    assert not is_locally_confluent(graph)


@pytest.mark.parametrize("name", gallery_names())
def test_every_explored_node_is_a_valid_adapted_coarsening_of_the_root(name):
    entry = load_entry(name)
    for cad, labels in ((entry.cad, entry.labels), extend_cylinder(entry.cad, entry.labels, entry.cad.n + 1)):
        graph = explore(cad, labels)
        for key, node in graph.nodes.items():
            assert validate_cad(node.cad).ok, (name, cad.n, node.applied)
            assert check_adapted(node.cad, entry.formula) == node.labels, (name, cad.n, node.applied)
            assert partition_refines(graph.root_key, key), (name, cad.n, node.applied)


def test_unique_minimal_iff_minimum_on_gallery_posets():
    cases = []
    entry = disk_cpp()
    cases.append(explore(entry.cad, entry.labels))
    c, cp = trousers_c(), trousers_cp()
    cbar, labels = common_refinement(c.cad, c.labels, cp.cad, cp.labels)
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
        assert node.blocks == key
        assert len(node.applied) <= 4


def brute_force_minimum(graph):
    """The unique sink, provided every node reaches it by ``descendants``."""
    sinks = [key for key in graph.nodes if not graph.successors(key)]
    if len(sinks) != 1:
        return None
    if all(sinks[0] in graph.descendants(key) for key in graph.nodes):
        return sinks[0]
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
        assert minimum_element(graph) == brute_force_minimum(graph), name
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
