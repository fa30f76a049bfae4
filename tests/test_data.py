"""Dataset file loading, malformed-line policy, and synthetic corpora."""

import pytest

from mvnet.data import DatasetError, LabeledDocument, load_dataset, num_classes, save_dataset
from mvnet.synthetic import keyword_corpus, random_label_corpus


def write(tmp_path, text):
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoading:
    def test_parses_label_and_tokens(self, tmp_path):
        docs, malformed = load_dataset(write(tmp_path, "1\tThe cat sat.\n0\tDog!\n"))
        assert malformed == 0
        assert [d.label for d in docs] == [1, 0]
        assert docs[0].tokens == ["the", "cat", "sat"]
        assert docs[0].raw == "The cat sat."

    def test_blank_lines_skipped_silently(self, tmp_path):
        docs, malformed = load_dataset(write(tmp_path, "1\ta\n\n\n0\tb\n"))
        assert len(docs) == 2
        assert malformed == 0

    def test_malformed_lines_counted_and_skipped(self, tmp_path):
        text = "1\tgood one\n" * 400 + "no tab here\nx\talso bad\n-1\tnegative\n2\t...\n"
        docs, malformed = load_dataset(write(tmp_path, text))
        assert len(docs) == 400
        # no tab, non-integer label, negative label, punctuation-only text
        assert malformed == 4

    def test_too_many_malformed_lines_abort(self, tmp_path):
        path = write(tmp_path, "1\tok\nbad line\n")
        with pytest.raises(DatasetError, match="malformed"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(write(tmp_path, ""))

    def test_label_at_the_class_count_names_its_line(self, tmp_path):
        path = write(tmp_path, "3\tred apple\n\n0\tblue sky\n4\tgreen grass\n")
        docs, _ = load_dataset(path, classes=5)
        assert [doc.label for doc in docs] == [3, 0, 4]
        with pytest.raises(DatasetError) as caught:
            load_dataset(path, classes=4)
        assert str(caught.value) == f"{path}:4: label 4 out of range for 4 classes"

    def test_round_trip_through_save(self, tmp_path):
        docs = [LabeledDocument(label=2, tokens=["a", "b"], raw="A b"),
                LabeledDocument(label=0, tokens=["c"], raw="C")]
        path = tmp_path / "out.tsv"
        save_dataset(path, docs)
        loaded, malformed = load_dataset(path)
        assert malformed == 0
        assert [(d.label, d.tokens, d.raw) for d in loaded] == \
            [(d.label, d.tokens, d.raw) for d in docs]

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("1\told text\n", encoding="utf-8")

        def docs_then_failure():
            yield LabeledDocument(label=0, tokens=["new"], raw="new")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            save_dataset(path, docs_then_failure())
        assert path.read_text(encoding="utf-8") == "1\told text\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]

    def test_num_classes_is_max_label_plus_one(self):
        docs = [LabeledDocument(label=label, tokens=["a"], raw="a")
                for label in (0, 3, 1, 1)]
        assert num_classes(docs) == 4

    def test_more_classes_than_documents_rejected(self):
        docs = [LabeledDocument(label=label, tokens=["a"], raw="a")
                for label in (0, 1, 40)]
        with pytest.raises(DatasetError, match="label 40 implies 41 classes"):
            num_classes(docs)


class TestSyntheticCorpora:
    def test_keyword_corpus_shapes_and_balance(self):
        train, dev, test = keyword_corpus(num_classes=4, train_size=2000,
                                          dev_size=400, test_size=400, seed=0)
        assert (len(train), len(dev), len(test)) == (2000, 400, 400)
        for split in (train, dev, test):
            labels = [d.label for d in split]
            assert set(labels) == {0, 1, 2, 3}
            # round-robin assignment keeps splits balanced
            assert labels.count(0) == len(split) // 4

    def test_keyword_documents_contain_class_markers(self):
        train, _, _ = keyword_corpus(train_size=40, dev_size=8, test_size=8, seed=1)
        for doc in train:
            markers = [t for t in doc.tokens if t.startswith(f"class{doc.label}")]
            assert 2 <= len(markers) <= 4
            foreign = [t for t in doc.tokens
                       if t.startswith("class") and not t.startswith(f"class{doc.label}")]
            assert foreign == []

    def test_keyword_corpus_is_deterministic(self):
        a = keyword_corpus(train_size=20, dev_size=4, test_size=4, seed=5)
        b = keyword_corpus(train_size=20, dev_size=4, test_size=4, seed=5)
        assert a == b
        c = keyword_corpus(train_size=20, dev_size=4, test_size=4, seed=6)
        assert a != c

    def test_random_label_corpus_has_no_signal_by_construction(self):
        docs = random_label_corpus(size=50, num_classes=4, seed=0)
        assert len(docs) == 50
        assert {d.label for d in docs} <= {0, 1, 2, 3}
        again = random_label_corpus(size=50, num_classes=4, seed=0)
        assert docs == again
