"""The binary block codec behind `OCFT` feature files and `OCKP` checkpoints:
the exact byte layout documented in the README, and failure on every
truncated or over-long file."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.data import Dataset, ParseError, ingest_features, write_blocks, write_features
from opencon.encoder import Grads, Mlp
from opencon.prototype import PrototypeStore
from opencon.trainer import Corrupt, TrainState, checkpoint_load, checkpoint_save


def tiny_dataset(labels=(2, -1)):
    features = np.array([[0.5, -1.25, 3.0], [1e-3, 0.0, -7.5]])
    return Dataset(features, np.array(labels), np.array([10, 11]))


def tiny_state():
    m, h, d = 2, 3, 2
    grid = np.arange(1.0, 1 + m * h + h + d * h + d) / 7
    w1, b1, w2, b2 = np.split(grid, np.cumsum([m * h, h, d * h]))
    mlp = Mlp(w1.reshape(h, m), b1, w2.reshape(d, h), b2)
    velocity = Grads(-mlp.w1, -mlp.b1, 2 * mlp.w2, 2 * mlp.b2)
    store = PrototypeStore(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]]),
                           [0, 1], [2], np.array([4, 0, 9]))
    rng_words = {
        "data": ((1 << 127) + 5, (3 << 64) + 1, 1, 4_000_000_000),
        "augment": (7, 9, 0, 0),
        "init": ((1 << 128) - 1, (1 << 64) + 3, 1, 1),
    }
    return TrainState(mlp, velocity, store, 2, 5, rng_words)


class TestLayout:
    def test_labeled_features(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "a.ocft"
        write_features(path, ds)
        expected = (b"OCFT" + struct.pack("<IIIB", 1, 2, 3, 1)
                    + ds.features.astype("<f4").tobytes()
                    + np.array([2, -1], "<i4").tobytes())
        assert path.read_bytes() == expected

    def test_unlabeled_features_omit_label_block(self, tmp_path):
        ds = tiny_dataset(labels=(-1, -1))
        path = tmp_path / "u.ocft"
        write_features(path, ds)
        expected = (b"OCFT" + struct.pack("<IIIB", 1, 2, 3, 0)
                    + ds.features.astype("<f4").tobytes())
        assert path.read_bytes() == expected
        np.testing.assert_array_equal(ingest_features(path).labels, [-1, -1])

    def test_empty_features(self, tmp_path):
        path = tmp_path / "e.ocft"
        write_features(path, Dataset(np.zeros((0, 4)), np.zeros(0), np.zeros(0)))
        assert path.read_bytes() == b"OCFT" + struct.pack("<IIIB", 1, 0, 4, 1)

    def test_checkpoint(self, tmp_path):
        state = tiny_state()
        path = tmp_path / "c.ockp"
        checkpoint_save(path, state)
        mlp, vel, store = state.mlp, state.velocity, state.store
        expected = b"OCKP" + struct.pack("<8I", 1, 2, 3, 2, 3, 2, 2, 5)
        for block in (mlp.w1, mlp.b1, mlp.w2, mlp.b2,
                      vel.w1, vel.b1, vel.w2, vel.b2, store.matrix):
            expected += block.astype("<f8").tobytes()
        expected += np.array([4, 0, 9, 0, 1], "<i8").tobytes()
        for name in ("data", "augment", "init"):
            s, inc, has32, uint = state.rng_words[name]
            expected += (s.to_bytes(16, "little") + inc.to_bytes(16, "little")
                         + struct.pack("<BI", has32, uint))
        assert path.read_bytes() == expected

        back = checkpoint_load(path)
        assert back.rng_words == state.rng_words
        assert (back.next_epoch, back.total_epochs) == (2, 5)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(back.mlp, name), getattr(mlp, name))
            np.testing.assert_array_equal(getattr(back.velocity, name), getattr(vel, name))
        np.testing.assert_array_equal(back.store.matrix, store.matrix)
        np.testing.assert_array_equal(back.store.assignment_counts, [4, 0, 9])
        np.testing.assert_array_equal(back.store.novel_ids, [2])


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(bytes, loader, error class) of one file per layout variant."""
    root = tmp_path_factory.mktemp("codec")

    def features(ds):
        path = root / "f.ocft"
        write_features(path, ds)
        return path.read_bytes(), lambda p: ingest_features(p, fmt="binary"), ParseError

    ckpt = root / "c.ockp"
    checkpoint_save(ckpt, tiny_state())
    files = {
        "labeled": features(tiny_dataset()),
        "unlabeled": features(tiny_dataset(labels=(-1, -1))),
        "empty": features(Dataset(np.zeros((0, 4)), np.zeros(0), np.zeros(0))),
        "checkpoint": (ckpt.read_bytes(), checkpoint_load, Corrupt),
    }
    return root / "probe", files


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_files_raise_the_format_error(written, data):
    probe, files = written
    blob, load, error = files[data.draw(st.sampled_from(sorted(files)))]
    if data.draw(st.booleans()):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        damaged = blob + data.draw(st.binary(min_size=1, max_size=16))
    probe.write_bytes(damaged)
    with pytest.raises(error):
        load(probe)


class FailingBlock:
    """A block whose bytes cannot be produced, as on a failed write."""

    def tobytes(self, order="C"):
        raise OSError("no space left on device")


def test_failed_write_leaves_previous_file(tmp_path):
    path = tmp_path / "c.ockp"
    checkpoint_save(path, tiny_state())
    before = path.read_bytes()
    with pytest.raises(OSError, match="no space"):
        write_blocks(path, b"OCKP", [np.arange(3), FailingBlock()])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ockp"]
