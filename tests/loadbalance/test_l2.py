"""Tests for the L2 angle-to-GPU mapping."""

import numpy as np
import pytest

from repro.errors import DecompositionError
from repro.loadbalance import map_angles_to_gpus
from repro.tracks import TrackGenerator


class TestL2Mapping:
    def test_every_angle_assigned(self):
        mapping = map_angles_to_gpus(np.ones(16), 4)
        assert mapping.angle_to_gpu.shape == (16,)
        assert set(mapping.angle_to_gpu.tolist()) == {0, 1, 2, 3}

    def test_complementary_pairs_stay_together(self):
        loads = np.arange(1.0, 17.0)
        mapping = map_angles_to_gpus(loads, 4, pair_complementary=True)
        for a in range(8):
            assert mapping.angle_to_gpu[a] == mapping.angle_to_gpu[15 - a]

    def test_balanced_uniform_loads(self):
        mapping = map_angles_to_gpus(np.ones(16), 4)
        np.testing.assert_allclose(mapping.gpu_loads, 4.0)
        assert mapping.stats.uniformity_index == pytest.approx(1.0)

    def test_balanced_beats_block_on_skewed_loads(self):
        rng = np.random.default_rng(5)
        loads = rng.lognormal(0, 1.0, 16)
        balanced = map_angles_to_gpus(loads, 4, balanced=True)
        block = map_angles_to_gpus(loads, 4, balanced=False)
        assert balanced.stats.uniformity_index <= block.stats.uniformity_index + 1e-9

    def test_loads_conserved(self):
        rng = np.random.default_rng(6)
        loads = rng.uniform(1, 5, 16)
        mapping = map_angles_to_gpus(loads, 4)
        assert mapping.gpu_loads.sum() == pytest.approx(loads.sum())

    def test_angles_of_gpu(self):
        mapping = map_angles_to_gpus(np.ones(8), 2)
        all_angles = sorted(
            a for gpu in range(2) for a in mapping.angles_of_gpu(gpu)
        )
        assert all_angles == list(range(8))

    def test_fewer_angles_than_gpus_rejected(self):
        with pytest.raises(DecompositionError):
            map_angles_to_gpus(np.ones(2), 4)

    def test_unpaired_mode(self):
        loads = np.array([10.0, 1.0, 1.0, 10.0])
        mapping = map_angles_to_gpus(loads, 4, pair_complementary=False)
        # four units for four GPUs: one angle each
        assert sorted(np.bincount(mapping.angle_to_gpu).tolist()) == [1, 1, 1, 1]

    def test_validation(self):
        with pytest.raises(DecompositionError):
            map_angles_to_gpus([], 2)
        with pytest.raises(DecompositionError):
            map_angles_to_gpus(np.ones(4), 0)


def angle_masks(tg, num_gpus):
    """Track masks per simulated GPU from the L2 angle mapping."""
    mapping = map_angles_to_gpus(
        np.ones(tg.azimuthal.num_angles), num_gpus, pair_complementary=True
    )
    azim = np.array([t.azim for t in tg.tracks])
    return [np.isin(azim, mapping.angles_of_gpu(gpu)) for gpu in range(num_gpus)]


class TestAngleGroupClosure:
    """Complementary pairing keeps each GPU's angle group closed under
    the boundary linking, so the groups' sweeps are independent."""

    @pytest.fixture()
    def tg(self, reflective_box):
        return TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=2).generate()

    def test_groups_closed_under_linking(self, tg):
        for mask in angle_masks(tg, 2):
            for t in tg.tracks:
                if mask[t.uid]:
                    assert mask[t.link_fwd.track]
                    assert mask[t.link_bwd.track]

    def test_masks_partition_tracks(self, tg):
        total = np.zeros(tg.num_tracks, dtype=int)
        for mask in angle_masks(tg, 2):
            total += mask.astype(int)
        assert (total == 1).all()
