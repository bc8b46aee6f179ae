import numpy as np
import pytest

from optparity.errors import DuplicateGroupName, ShapeMismatch
from optparity.param_store import ParamGroup, build_param_store


def test_build_preserves_order_and_counts():
    store = build_param_store([
        ParamGroup("w1", "weight", np.zeros(4), (4,)),
        ParamGroup("b1", "bias", np.zeros(2), (2,)),
    ])
    assert store.names() == ["w1", "b1"]
    assert store.flat.size == 6


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateGroupName):
        build_param_store([
            ParamGroup("w1", "weight", np.zeros(2), (2,)),
            ParamGroup("w1", "weight", np.zeros(2), (2,)),
        ])


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        ParamGroup("w1", "weight", np.zeros(5), (2, 3))


def test_empty_store_rejected():
    with pytest.raises(ShapeMismatch):
        build_param_store([])


def interleaved_store():
    """Two layers in model order: every tag appears twice, apart."""
    return build_param_store([
        ParamGroup("w1", "weight", np.arange(4.0), (2, 2)),
        ParamGroup("b1", "bias", np.array([10.0, 11.0]), (2,)),
        ParamGroup("bn1_scale", "bn_scale", np.array([20.0, 21.0]), (2,)),
        ParamGroup("bn1_shift", "bn_shift", np.array([30.0, 31.0]), (2,)),
        ParamGroup("w2", "weight", np.array([4.0, 5.0]), (2, 1)),
        ParamGroup("b2", "bias", np.array([12.0]), (1,)),
    ])


class TestFlatStore:
    def test_groups_are_views_of_flat(self):
        store = interleaved_store()
        for grp in store:
            assert grp.values.base is store.flat
        store["b2"].values[0] = -1.0
        assert -1.0 in store.flat
        store.flat[:] = 0.0
        assert all(not grp.values.any() for grp in store)
        assert store.flat.size == 13

    def test_flat_is_tag_ordered_and_the_rest_model_ordered(self):
        store = interleaved_store()
        np.testing.assert_array_equal(store.flat, [
            0, 1, 2, 3, 4, 5,  # weights: w1, w2
            10, 11, 12,        # biases: b1, b2
            20, 21,            # bn scales
            30, 31,            # bn shifts
        ])
        model_order = ["w1", "b1", "bn1_scale", "bn1_shift", "w2", "b2"]
        assert store.names() == model_order
        assert [grp.name for grp in store] == model_order
        assert store["w2"].shape == (2, 1)

    def test_copy_is_independent(self):
        store = interleaved_store()
        twin = store.copy()
        assert twin.names() == store.names()
        for grp in twin:
            assert grp.values.base is twin.flat
        twin["w1"].values[:] = 99.0
        twin.flat[-1] = 99.0
        np.testing.assert_array_equal(store["w1"].values, np.arange(4.0))
        assert store.flat[-1] == 31.0
        store["b1"].values[0] = -5.0
        assert twin["b1"].values[0] == 10.0

    def test_construction_copies_its_input(self):
        values = np.ones(3)
        store = build_param_store([ParamGroup("w", "weight", values, (3,))])
        store["w"].values[:] = 2.0
        np.testing.assert_array_equal(values, np.ones(3))
