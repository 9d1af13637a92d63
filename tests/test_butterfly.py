import itertools

import numpy as np
import pytest

from edgeforce.butterfly import ButterflyError, build_butterfly, subcopy_vertex
from edgeforce.constructions import find_obstructions
from edgeforce.graph import Graph, from_edges, normalize_edge

from conftest import coord_label, vertex_coord, vertex_index


class TestBuild:
    def test_bf1_is_c4(self):
        g = build_butterfly(1)
        assert g.vertex_count == 4 and g.edge_count == 4
        assert all(len(g.adjacency[v]) == 2 for v in range(4))

    def test_bf2_counts(self):
        g = build_butterfly(2)
        assert g.vertex_count == 12 and g.edge_count == 16

    def test_bf3_counts(self):
        g = build_butterfly(3)
        assert g.vertex_count == 32 and g.edge_count == 48

    @pytest.mark.parametrize("r", range(1, 8))
    def test_size_formulas(self, r):
        g = build_butterfly(r)
        assert g.vertex_count == (r + 1) * 2 ** r
        assert g.edge_count == r * 2 ** (r + 1)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_degrees(self, r):
        g = build_butterfly(r)
        for v in range(g.vertex_count):
            _, level = vertex_coord(r, v)
            assert len(g.adjacency[v]) == (2 if level in (0, r) else 4)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_generated_edges_are_canonical(self, r):
        # the straight and cross edges, validated and sorted by from_edges
        rows = 1 << r
        straight = [(vertex_index(r, w, i), vertex_index(r, w, i + 1))
                    for i in range(r) for w in range(rows)]
        cross = [(vertex_index(r, w, i), vertex_index(r, w ^ 1 << i, i + 1))
                 for i in range(r) for w in range(rows)]
        g = build_butterfly(r)
        want = from_edges((r + 1) * rows, straight + cross)
        assert g.edges == want.edges
        assert g.vertex_count == want.vertex_count
        assert {v: g.vertex_label(v) for v in range(g.vertex_count)} == {
            v: coord_label(*vertex_coord(r, v)) for v in range(g.vertex_count)}

    @pytest.mark.parametrize("r", range(1, 13))
    def test_prefilled_adjacency_is_the_generic_one(self, r):
        # build_butterfly writes the adjacency with its edges; the generic
        # property, run on a graph without it, must give the same tuples
        g = build_butterfly(r)
        assert "adjacency" in vars(g)
        generic = Graph(g.vertex_count, g.edges)
        assert "adjacency" not in vars(generic)
        assert g.adjacency == generic.adjacency

    def test_subcopy_vertex_is_the_coordinate_map(self):
        for r in range(3, 9):
            for v in range(build_butterfly(r - 2).vertex_count):
                row, level = vertex_coord(r - 2, v)
                assert [subcopy_vertex(r, hb, v) for hb in range(4)] == [
                    vertex_index(r, hb << (r - 2) | row, level)
                    for hb in range(4)]

    def test_labels(self):
        g = build_butterfly(2)
        assert g.vertex_label(vertex_index(2, 3, 1)) == "[3,1]"
        assert coord_label(3, 1) == "[3,1]"

    @pytest.mark.parametrize("r", range(1, 7))
    def test_labels_computed_on_lookup(self, r):
        g = build_butterfly(r)
        assert {v: g.vertex_label(v) for v in range(g.vertex_count)} == {
            vertex_index(r, w, i): coord_label(w, i)
            for i in range(r + 1) for w in range(2 ** r)}
        for v in (-1, (r + 1) * 2 ** r):
            assert g.vertex_label(v) == str(v)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_vertex_label_is_the_coordinate_oracle(self, r):
        g = build_butterfly(r)
        assert g.butterfly == r
        for v in range(g.vertex_count):
            want = coord_label(*vertex_coord(r, v))
            assert g.vertex_label(v) == g.vertex_label(np.int64(v)) == want
        for v in (-1, g.vertex_count):
            assert g.vertex_label(v) == g.vertex_label(np.int64(v)) == str(v)

    def test_coordinate_round_trip(self):
        r = 4
        for v in range(build_butterfly(r).vertex_count):
            row, level = vertex_coord(r, v)
            assert vertex_index(r, row, level) == v

    def test_rejects_bad_dimension(self):
        with pytest.raises(ButterflyError):
            build_butterfly(0)
        with pytest.raises(ButterflyError):
            build_butterfly(99)


class TestBindingDiamonds:
    """BF(r)'s binding diamonds are its obstruction 4-cycles."""

    @staticmethod
    def diamonds(r):
        return find_obstructions(build_butterfly(r))

    def test_bf3_counts(self):
        ds = self.diamonds(3)
        assert len(ds) == 8
        levels = [vertex_coord(3, d.blocked_pair[0])[1] for d in ds]
        assert levels.count(0) == 4  # vertical
        assert levels.count(3) == 4  # horizontal

    def test_bf2_covers_all_edges(self):
        ds = self.diamonds(2)
        assert len(ds) == 4
        covered = set()
        for d in ds:
            edges = set(d.cycle_edges())
            assert not edges & covered
            covered |= edges
        assert len(covered) == 16

    @pytest.mark.parametrize("r", range(3, 8))
    def test_pairwise_edge_disjoint(self, r):
        ds = self.diamonds(r)
        assert len(ds) == 2 ** r
        seen = set()
        for d in ds:
            for e in d.cycle_edges():
                assert e not in seen
                seen.add(e)

    @pytest.mark.parametrize("r", range(2, 6))
    def test_diamonds_are_4_cycles(self, r):
        edges = set(build_butterfly(r).edges)
        for d in self.diamonds(r):
            assert set(d.cycle_edges()) <= edges
            assert len(set(d.cycle)) == 4

    @pytest.mark.parametrize("r", range(3, 6))
    def test_binding_pair_degree_two_inside(self, r):
        # the two extreme-level vertices of each diamond have degree 2 in
        # BF(r), both neighbors inside the diamond
        g = build_butterfly(r)
        for d in find_obstructions(g):
            inside = set(d.cycle)
            for v in d.blocked_pair:
                assert len(g.adjacency[v]) == 2
                assert set(g.adjacency[v]) <= inside

    @pytest.mark.parametrize("r", range(2, 7))
    def test_edge_order(self, r):
        # low-row straight, high-row straight, then the cross edges from
        # the low and the high row's binding vertex
        for d in self.diamonds(r):
            (lo, bind), (hi, _) = (vertex_coord(r, v) for v in d.blocked_pair)
            other = 1 if bind == 0 else r - 1
            expected = [((lo, bind), (lo, other)), ((hi, bind), (hi, other)),
                        ((lo, bind), (hi, other)), ((hi, bind), (lo, other))]
            assert list(d.cycle_edges()) == [
                normalize_edge(vertex_index(r, *a), vertex_index(r, *b))
                for a, b in expected]

    @pytest.mark.parametrize("r", range(3, 12))
    def test_vertical_then_horizontal(self, r):
        # the order the constructions pick skeleton edges by:
        # vertical diamond w binds rows 2w, 2w + 1 on level 0, horizontal
        # diamond w rows w, w + 2^(r-1) on level r
        half = 1 << (r - 1)
        expected = ([((2 * w, 0), (2 * w + 1, 0)) for w in range(half)]
                    + [((w, r), (w + half, r)) for w in range(half)])
        ds = self.diamonds(r)
        assert [tuple(vertex_coord(r, v) for v in d.blocked_pair)
                for d in ds] == expected
        for d in ds:
            # a straight edge stays in its row, a cross edge changes row
            straight = [vertex_coord(r, u)[0] == vertex_coord(r, v)[0]
                        for u, v in d.cycle_edges()]
            assert straight == [True, True, False, False]


class TestStructure:
    @pytest.mark.parametrize("r", range(2, 6))
    def test_level0_deletion_gives_two_smaller_copies(self, r):
        g = build_butterfly(r)
        rows = 1 << r
        remaining = frozenset(range(rows, g.vertex_count))
        # components split by the weight-1 row bit; each maps to BF(r-1)
        # via (row >> 1, level - 1)
        small = build_butterfly(r - 1)
        for bit in (0, 1):
            comp = [v for v in remaining if vertex_coord(r, v)[0] % 2 == bit]
            mapped = set()
            for u, v in g.edges:
                if u in comp and v in comp:
                    (wu, lu), (wv, lv) = vertex_coord(r, u), vertex_coord(r, v)
                    mapped.add(normalize_edge(
                        vertex_index(r - 1, wu >> 1, lu - 1),
                        vertex_index(r - 1, wv >> 1, lv - 1)))
            assert mapped == set(small.edges)

    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_decompose_subcopies(self, r):
        # the four images of BF(r-2) partition levels 0..r-2 of BF(r), and
        # each induces exactly the image of BF(r-2)'s edges
        g = build_butterfly(r)
        small = build_butterfly(r - 2)
        all_vertices = set()
        for high_bits in range(4):
            image = [subcopy_vertex(r, high_bits, v)
                     for v in range(small.vertex_count)]
            vertices = set(image)
            assert len(vertices) == small.vertex_count
            assert not all_vertices & vertices
            all_vertices |= vertices
            induced = {e for e in g.edges if set(e) <= vertices}
            assert induced == {(image[u], image[v]) for u, v in small.edges}
        expected = {vertex_index(r, w, i)
                    for i in range(r - 1) for w in range(1 << r)}
        assert all_vertices == expected

    @pytest.mark.parametrize("r", (3, 5))
    def test_top_level_edges_disjoint_from_copies(self, r):
        g = build_butterfly(r)
        n_small = build_butterfly(r - 2).vertex_count
        copy_vertices = {subcopy_vertex(r, hb, v)
                         for hb in range(4) for v in range(n_small)}
        top_edges = [(u, v) for u, v in g.edges
                     if vertex_coord(r, u)[1] >= r - 1
                     and vertex_coord(r, v)[1] >= r - 1]
        assert len(top_edges) == 2 ** (r + 1)
        for u, v in top_edges:
            assert u not in copy_vertices and v not in copy_vertices
