"""Unit tests for the subproblem path encoding."""

import pytest

from repro.core.encoding import ROOT, PathCode, common_prefix_length


class TestConstruction:
    def test_root_is_empty(self):
        assert ROOT.depth == 0
        assert ROOT.is_root
        assert PathCode.root() == ROOT

    def test_child_appends_decision(self):
        code = ROOT.child(5, 1)
        assert code.pairs == ((5, 1),)
        assert code.depth == 1
        assert code.last_variable == 5
        assert code.last_value == 1

    def test_invalid_branch_value_rejected(self):
        with pytest.raises(ValueError):
            ROOT.child(3, 2)
        with pytest.raises(ValueError):
            PathCode(((1, 5),))

    def test_from_pairs(self):
        a = PathCode.from_pairs([(1, 0), (4, 1)])
        assert a.pairs == ((1, 0), (4, 1))

    def test_children_pair(self):
        left, right = ROOT.children(7)
        assert left.last_value == 0
        assert right.last_value == 1
        assert left.parent() == right.parent() == ROOT


class TestRelations:
    def test_parent_of_root_is_none(self):
        assert ROOT.parent() is None
        assert ROOT.sibling() is None

    def test_sibling_flips_last_value(self):
        code = ROOT.child(2, 0).child(5, 1)
        sib = code.sibling()
        assert sib.pairs == ((2, 0), (5, 0))
        assert sib.sibling() == code

    def test_ancestor_descendant(self):
        a = ROOT.child(1, 0)
        b = a.child(2, 1)
        c = b.child(3, 0)
        assert a.is_ancestor_of(c)
        assert c.is_descendant_of(a)
        assert not c.is_ancestor_of(a)
        assert not a.is_ancestor_of(a)  # strict by default
        assert a.is_ancestor_of(a, strict=False)

    def test_disjoint_subtrees(self):
        a = ROOT.child(1, 0)
        b = ROOT.child(1, 1)
        assert not a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)

    def test_ancestors_iteration(self):
        code = ROOT.child(1, 0).child(2, 1).child(3, 0)
        ancestors = list(code.ancestors())
        assert ancestors == [
            ROOT.child(1, 0).child(2, 1),
            ROOT.child(1, 0),
            ROOT,
        ]
        with_self = list(code.ancestors(include_self=True))
        assert with_self[0] == code

    def test_common_prefix_length(self):
        a = ROOT.child(1, 0).child(2, 1).child(3, 0)
        b = ROOT.child(1, 0).child(2, 1).child(4, 1)
        assert common_prefix_length(a, b) == 2
        assert common_prefix_length(a, ROOT) == 0
        assert common_prefix_length(a, a) == 3


class TestEncodingAndSize:
    def test_encode_decode_roundtrip(self):
        code = ROOT.child(12, 0).child(3, 1).child(7, 1)
        assert PathCode.decode(code.encode()) == code
        assert PathCode.decode("()") == ROOT
        assert ROOT.encode() == "()"

    def test_wire_size_grows_with_depth(self):
        shallow = ROOT.child(1, 0)
        deep = shallow.child(2, 1).child(3, 0)
        assert deep.wire_size() > shallow.wire_size() > ROOT.wire_size()

    def test_ordering_is_total_and_deterministic(self):
        codes = [ROOT.child(1, 1), ROOT, ROOT.child(1, 0), ROOT.child(0, 1)]
        assert sorted(codes) == sorted(codes, key=lambda c: c.pairs)

    def test_hashable_and_usable_in_sets(self):
        a = ROOT.child(1, 0)
        b = PathCode(((1, 0),))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_len_and_iter(self):
        code = ROOT.child(1, 0).child(2, 1)
        assert len(code) == 2
        assert list(code) == [(1, 0), (2, 1)]

    def test_bits_and_variables(self):
        code = ROOT.child(4, 1).child(2, 0)
        assert code.bits() == (1, 0)
        assert code.variables() == (4, 2)

    def test_last_variable_of_root_raises(self):
        with pytest.raises(ValueError):
            _ = ROOT.last_variable
        with pytest.raises(ValueError):
            _ = ROOT.last_value
