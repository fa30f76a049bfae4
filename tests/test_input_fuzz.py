"""Property tests for the input boundaries: a config, a dataset, an
embeddings file or a checkpoint either loads or fails with its module's own
error class, and the command line turns each of those errors into one
``error: ...`` line and exit status 2."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvnet.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from mvnet.cli import main
from mvnet.config import VARIANTS, ConfigError, TrainConfig, parse_config_text
from mvnet.data import DatasetError, load_dataset, save_dataset
from mvnet.features import EmbeddingFileError, Vocabulary, build_vocab, load_embeddings
from mvnet.model import MvnModel
from mvnet.synthetic import keyword_corpus

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

KEYS = [f.name for f in dataclasses.fields(TrainConfig)] + ["color", ""]
NUMBERS = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-400", "9" * 5000,
                                     "none", "true", "off", "full", "chain", "no-links"]))
VALUES = st.one_of(NUMBERS, st.text(max_size=8))


def splice(text: bytes, noise: bytes, at: int) -> bytes:
    at %= len(text) + 1
    return text[:at] + noise + text[at:]


def lines_with_noise(line):
    """Files built from plausible lines, with arbitrary bytes spliced in or
    in place of the whole file."""
    text = st.lists(line, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8"))
    spliced = st.builds(splice, text, st.binary(min_size=1, max_size=4), st.integers(0, 999))
    return st.one_of(text, spliced, st.binary(max_size=64))


CONFIG_LINES = st.one_of(
    st.builds(lambda k, v, sep: f"{k}{sep}{v}", st.sampled_from(KEYS), VALUES,
              st.sampled_from([" = ", "=", " : "])),
    st.text(max_size=12))
DATASET_LINES = st.one_of(
    st.builds(lambda label, body: f"{label}\t{body}",
              st.one_of(st.integers(-2, 6).map(str), NUMBERS, st.text(max_size=3)),
              st.text(max_size=16)),
    st.text(max_size=16))
EMBEDDING_LINES = st.one_of(
    st.builds(lambda token, values: " ".join([token, *values]),
              st.sampled_from(["alpha", "beta", "<pad>", "<unk>", "zeta", ""]),
              st.lists(NUMBERS, max_size=4)),
    st.text(max_size=16))


@FUZZ
@given(text=st.lists(CONFIG_LINES, max_size=6).map("\n".join))
def test_config_text_parses_or_raises_config_error(text):
    try:
        config = parse_config_text(text)
    except ConfigError as exc:
        assert str(exc)
        return
    config.validate()


@FUZZ
@given(content=lines_with_noise(DATASET_LINES), classes=st.none() | st.integers(1, 5))
def test_dataset_loads_or_raises_dataset_error(tmp_path, content, classes):
    path = tmp_path / "data.tsv"
    path.write_bytes(content)
    try:
        docs, malformed = load_dataset(path, classes=classes)
    except DatasetError as exc:
        assert str(exc).startswith(str(path))
        return
    assert docs and malformed >= 0
    for doc in docs:
        assert doc.tokens and doc.label >= 0
        assert classes is None or doc.label < classes


@FUZZ
@given(content=lines_with_noise(EMBEDDING_LINES), dim=st.none() | st.integers(1, 3))
def test_embeddings_load_or_raise_embedding_file_error(tmp_path, content, dim):
    path = tmp_path / "vectors.txt"
    path.write_bytes(content)
    vocab = Vocabulary.from_tokens(["alpha", "beta"])
    try:
        table = load_embeddings(path, vocab, np.random.default_rng(0), dim=dim)
    except EmbeddingFileError as exc:
        assert str(exc).startswith(str(path))
        return
    assert table.shape[0] == len(vocab) and (dim is None or table.shape[1] == dim)
    assert np.isfinite(table).all()


TINY_CONFIG = "views = 2\nview_dim = 4\nembed_dim = 3\nmax_epochs = 1\nconv_features = false\n"


@pytest.mark.parametrize("role,content,message", [
    ("config", b"views = 2\ndropout = lots\n", ":2: bad value for dropout"),
    ("config", b"views = 2\nviews = 0\n", ":2: bad value for views"),
    ("config", b"views = 2\nview_dim = \xff\n", ":2: not UTF-8 text"),
    ("train", b"0\tred apple\n1\tblue \xc3\x28 sky\n", ":2: not UTF-8 text"),
    ("train", b"0\tred apple\nno tab here\n", "1 of 2 lines malformed"),
    ("embeddings", b"red 0.1 0.2 0.3\nblue 0.1 0.2\n", ":2: expected 3 dimensions"),
    ("embeddings", b"red 0.1 0.2 \xfe\n", ":1: not UTF-8 text"),
])
def test_each_input_error_prints_one_line_and_exits_2(tmp_path, capsys, role, content,
                                                      message):
    paths = {"config": tmp_path / "run.cfg", "train": tmp_path / "train.tsv",
             "dev": tmp_path / "dev.tsv", "embeddings": tmp_path / "vectors.txt"}
    paths["config"].write_text(TINY_CONFIG)
    paths["train"].write_text("0\tred apple\n1\tblue sky\n")
    paths["dev"].write_text("0\tred apple\n1\tblue sky\n")
    paths["embeddings"].write_text("red 0.1 0.2 0.3\n")
    paths[role].write_bytes(content)
    code = main(["train", "--config", str(paths["config"]), "--train", str(paths["train"]),
                 "--dev", str(paths["dev"]), "--embeddings", str(paths["embeddings"]),
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {paths[role]}") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """A valid checkpoint small enough that its header is a fair share of it."""
    config = TrainConfig(views=3, view_dim=2, embed_dim=2, conv_features=False)
    model = MvnModel.create(config, build_vocab([["red", "blue"]]), 2,
                            np.random.default_rng(0))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, model)
    return path.read_bytes()


def corrupt(raw: bytes, keep: int, flips) -> bytes:
    """``raw`` cut to ``keep`` bytes, then each (position, mask) flip xored in."""
    data = bytearray(raw[:keep])
    for position, mask in flips:
        if data:
            data[position % len(data)] ^= mask
    return bytes(data)


@FUZZ
@given(keep=st.integers(0, 10**6), data=st.data(),
       flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4))
def test_corrupt_checkpoint_loads_finite_or_raises_checkpoint_error(
        tmp_path, checkpoint_bytes, keep, data, flips):
    # Half the runs keep the whole file, so byte flips alone are tried too;
    # flips land anywhere, in the header as often as in the tensors.
    if data.draw(st.booleans()):
        keep = len(checkpoint_bytes)
    path = tmp_path / "model.ckpt"
    path.write_bytes(corrupt(checkpoint_bytes, keep, flips))
    try:
        model = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(exc).startswith(str(path))
        return
    for name, array in model.params.items():
        assert np.isfinite(array).all(), name


JSON_VALUES = st.one_of(st.text(max_size=8), st.booleans(), st.integers(), st.floats(),
                        st.none(), st.lists(st.integers(), max_size=3))
# The Python types a loaded config field may hold, by its annotation string.
ANNOTATED_TYPES = {"int": int, "int | None": (int, type(None)), "float": (int, float),
                   "bool": bool, "str": str}


@FUZZ
@given(key=st.sampled_from(KEYS[:-2]), value=JSON_VALUES)
def test_retyped_config_value_loads_typed_or_raises_checkpoint_error(
        tmp_path, checkpoint_bytes, key, value):
    start = len(MAGIC) + 8
    end = start + struct.unpack("<Q", checkpoint_bytes[len(MAGIC):start])[0]
    header = json.loads(checkpoint_bytes[start:end])
    header["config"][key] = value
    blob = json.dumps(header).encode()
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + checkpoint_bytes[end:])
    try:
        model = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(exc).startswith(str(path))
        return
    for field in dataclasses.fields(TrainConfig):
        value = getattr(model.config, field.name)
        assert isinstance(value, ANNOTATED_TYPES[field.type]), field.name
        assert isinstance(value, bool) == (field.type == "bool"), field.name


def test_corrupt_checkpoint_prints_one_line_and_exits_2(tmp_path, capsys,
                                                        checkpoint_bytes):
    checkpoint = tmp_path / "model.ckpt"
    checkpoint.write_bytes(checkpoint_bytes[:-3])
    test = tmp_path / "test.tsv"
    test.write_text("0\tred\n1\tblue\n")
    code = main(["eval", "--checkpoint", str(checkpoint), "--test", str(test),
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def flag_workspace(tmp_path_factory):
    """A tiny corpus and a one-epoch config, so each command line runs fast."""
    root = tmp_path_factory.mktemp("flags")
    for name, docs in zip(("train", "dev", "test"),
                          keyword_corpus(train_size=24, dev_size=8, test_size=8, seed=3)):
        save_dataset(root / f"{name}.tsv", docs)
    (root / "run.cfg").write_text(TINY_CONFIG + "batch_size = 8\n")
    return root


def flag_values(*values):
    return st.sampled_from([str(v) for v in values] + ["", "x", "1.5"])


# --views stays small: a huge view count asks numpy for a huge allocation.
VIEWS = flag_values(*range(-2, 7))
MODEL_FLAGS = {
    "--views": VIEWS,
    "--seed": flag_values(-3, -1, 0, 1, 7, 2**32, 2**64),
    "--variant": flag_values(*VARIANTS, "ring"),
    "--conv-features": flag_values("on", "off"),
}
COMMAND_FLAGS = {
    "train": MODEL_FLAGS,
    "ablate": {**MODEL_FLAGS, "--runs": flag_values(*range(-2, 4))},
    "sweep-views": {"--seed": MODEL_FLAGS["--seed"],
                    "--views": st.lists(VIEWS, min_size=1, max_size=3).map(",".join)},
}


@settings(FUZZ, max_examples=100)
@given(command=st.sampled_from(sorted(COMMAND_FLAGS)), data=st.data())
def test_flags_run_or_fail_with_one_line(tmp_path, capsys, flag_workspace, command, data):
    args = [command, "--config", str(flag_workspace / "run.cfg"),
            "--train", str(flag_workspace / "train.tsv"),
            "--dev", str(flag_workspace / "dev.tsv"), "--out", str(tmp_path / "run")]
    if command != "train":
        args += ["--test", str(flag_workspace / "test.tsv")]
    flags = COMMAND_FLAGS[command]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True), label="flags"):
        args += [flag, data.draw(flags[flag], label=flag)]
    if command == "sweep-views" and "--views" not in args:
        args += ["--views", "1"]
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        assert exc.code == 2  # argparse's usage error
        return
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (
        code == 2 and err.startswith("error: ") and err.count("\n") == 1), err
