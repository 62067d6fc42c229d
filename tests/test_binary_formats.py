"""The two binary files, the fact-base snapshot and the transformer weights,
are read by one checked reader: a cut, an extra byte or a wrong magic raises
the format's own ``FormatError`` subclass, naming the path and the section."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from logicdec.kb import FormatError, SnapshotError, load_factbase
from logicdec.transformer import (TinyTransformer, TransformerConfig, WeightsError,
                                  _weight_spec, load_weights, save_weights)

CFG = TransformerConfig(vocab_size=12, n_layers=1, n_heads=2, d_model=4, d_ff=8, max_len=4)


class Format(NamedTuple):
    save: Callable
    load: Callable
    error: type
    sections: list          # (section, bytes) in file order
    magic_section: str
    not_this_format: str


@pytest.fixture(params=["snapshot", "weights"])
def fmt(request, toy_facts) -> Format:
    if request.param == "snapshot":
        n, nnz = len(toy_facts.vocab), 2 * toy_facts.num_edges
        vocab_bytes = len("\n".join(toy_facts.vocab.tokens).encode("utf-8"))
        return Format(toy_facts.save, load_factbase, SnapshotError, [
            ("magic", 4), ("header", 4), ("vocabulary size", 12), ("vocabulary", vocab_bytes),
            ("stem classes", 4), ("stem table", 4 * n), ("edge count", 8),
            ("edge index", 8 * (n + 1)), ("edge rows", 4 * nnz), ("edge weights", 8 * nnz),
        ], "magic", "not a fact-base snapshot")
    model = TinyTransformer(CFG)
    return Format(lambda path: save_weights(model, path), load_weights, WeightsError,
                  [("header", 4), ("header", 26)] + [(f"tensor '{name}'", 8 * math.prod(shape))
                                                     for name, shape in _weight_spec(CFG)],
                  "header", "not a transformer weight file")


def whole_file(fmt: Format, tmp_path) -> bytes:
    path = tmp_path / "whole.bin"
    fmt.save(path)
    blob = path.read_bytes()
    assert sum(size for _, size in fmt.sections) == len(blob)
    fmt.load(path)
    return blob


def assert_refused(fmt: Format, path, blob: bytes, section: str, problem: str) -> None:
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=problem) as err:
        fmt.load(path)
    assert type(err.value) is fmt.error
    assert err.value.section == section
    assert str(err.value).startswith(f"{path}: {section}: ")


def test_a_cut_at_or_one_byte_into_a_section_names_it(fmt, tmp_path):
    blob = whole_file(fmt, tmp_path)
    offset = 0
    for section, size in fmt.sections:
        for cut in {offset, offset + 1} & set(range(offset, offset + size)):
            assert_refused(fmt, tmp_path / "cut.bin", blob[:cut], section,
                           f"truncated: needs {size} bytes at offset {offset}, "
                           f"{cut - offset} left")
        offset += size


def test_an_appended_byte_is_trailing(fmt, tmp_path):
    blob = whole_file(fmt, tmp_path)
    assert_refused(fmt, tmp_path / "long.bin", blob + b"\0", "end", "^.*: 1 trailing bytes$")


def test_another_magic_names_the_format(fmt, tmp_path):
    blob = whole_file(fmt, tmp_path)
    assert_refused(fmt, tmp_path / "other.bin", b"XXXX" + blob[4:], fmt.magic_section,
                   fmt.not_this_format)


def test_loaded_weights_are_read_only_aligned_views_of_one_read(tmp_path):
    path = tmp_path / "weights.bin"
    save_weights(TinyTransformer(CFG), path)
    tensors = list(load_weights(path).weights.values())
    owners = set()
    for base in tensors:
        while isinstance(base, np.ndarray):
            base = base.base
        owners.add(id(base.obj))  # what the read's memoryview views
    assert len(owners) == 1
    assert len(base.obj) == path.stat().st_size
    assert not any(t.flags.writeable for t in tensors)
    assert all(t.flags.aligned and t.ctypes.data % 8 == 0 for t in tensors)
