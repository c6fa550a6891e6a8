import numpy as np
import pytest

from relaycm.channel import NOISELESS_SNR, DmcMatrix, transition_matrix
from relaycm.constellation import Constellation, build_constellation
from relaycm.container import Container, plan_container
from relaycm.demapper import load_llrs_bin, load_llrs_csv, save_llrs_csv
from relaycm.errors import ConfigError
from relaycm.scldpc import build_code


def _write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


def _frame(cut):
    code = build_code(8, 4, 2, seed=0)
    blob = plan_container(code, 0.5, "interleaved").to_bytes("abc")
    return lambda path: Container.from_bytes(code, cut(blob))


# each documented file format, read from a damaged file
_DAMAGED = {
    "dmc-ragged-row": lambda p: DmcMatrix.from_csv(_write(p, "# M=2\n1.0,0.0\n0.0\n")),
    "dmc-non-float": lambda p: DmcMatrix.from_csv(_write(p, "# M=2\n1.0,x\n0.0,1.0\n")),
    "dmc-bad-order": lambda p: DmcMatrix.from_csv(_write(p, "# M=two\n1.0,0.0\n0.0,1.0\n")),
    "llr-csv-bad-header": lambda p: load_llrs_csv(_write(p, "# rows=1 bits\n1.0\n")),
    "llr-csv-ragged": lambda p: load_llrs_csv(_write(p, "1.0,2.0\n3.0\n")),
    # NaN passes both "p < 0" and "err > tol" unnoticed
    "dmc-nan-entry": lambda p: DmcMatrix.from_csv(_write(p, "# M=2\nnan,0.0\n0.0,1.0\n")),
    "dmc-nan-column": lambda p: DmcMatrix.from_csv(_write(p, "# M=2\n1.0,nan\n0.0,nan\n")),
    "llr-bin-short-header": lambda p: load_llrs_bin(_write(p, b"LLRB\x01\x00")),
    # a header of 0xFFFFFFFF x 0xFFFFFFFF once overflowed the read size
    "llr-bin-huge-header": lambda p: load_llrs_bin(_write(p, b"LLRB" + b"\xff" * 8 + b"\0" * 8)),
    "llr-csv-empty-wrong-rows": lambda p: load_llrs_csv(_write(p, "# rows=2 bits=3\n")),
    "table-non-integer-index": lambda p: Constellation.from_table("x 1.0 0.0 0\n1 -1.0 0.0 1\n"),
    "table-ragged-labels": lambda p: Constellation.from_table("0 1.0 0.0 0\n1 -1.0 0.0 10\n"),
    "frame-cut-in-header": _frame(lambda b: b[:12]),
    "frame-cut-in-strategy": _frame(lambda b: b[:24]),
    "frame-cut-in-payload": _frame(lambda b: b[:-1]),
}


@pytest.mark.parametrize("name", sorted(_DAMAGED))
def test_damaged_files_raise_config_error(name, tmp_path):
    with pytest.raises(ConfigError):
        _DAMAGED[name](tmp_path / "damaged")


def test_empty_llr_array_round_trips(tmp_path):
    for bits in (1, 4):
        path = tmp_path / f"empty{bits}.csv"
        save_llrs_csv(path, np.empty((0, bits)))
        back = load_llrs_csv(path)
        assert back.shape == (0, bits) and back.dtype == np.float64


# the writers' layout as each once wrote it by hand; save_table must
# reproduce it byte for byte
def _dmc_csv_text(m):
    lines = [f"# M={m.order}",
             f"# snr_db={'' if m.snr_db is None else repr(float(m.snr_db))}",
             f"# method={m.method}", f"# seed={'' if m.seed is None else m.seed}"]
    lines += [",".join(repr(float(v)) for v in row) for row in m.probs]
    return "\n".join(lines) + "\n"


def _llr_csv_text(llrs):
    llrs = np.atleast_2d(llrs)
    lines = [f"# rows={llrs.shape[0]} bits={llrs.shape[1]}"]
    lines += [",".join(repr(float(v)) for v in row) for row in llrs]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", ["analytic", "mc", "noiseless", "composed"])
def test_dmc_csv_bytes_are_the_hand_written_layout(case, tmp_path):
    c16, c32 = build_constellation("qam16"), build_constellation("qam32")
    m = {"analytic": lambda: transition_matrix(c16, 10 ** 0.8),
         "mc": lambda: transition_matrix(c32, 10 ** 1.2, method="mc", mc_samples=2000, seed=4),
         "noiseless": lambda: transition_matrix(c16, NOISELESS_SNR),
         "composed": lambda: DmcMatrix(probs=np.eye(3), method="composed")}[case]()
    m.to_csv(tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == _dmc_csv_text(m).encode()


@pytest.mark.parametrize("shape", [(1, 5), (37, 4), (0, 3), (6,)])
def test_llr_csv_bytes_are_the_hand_written_layout(shape, tmp_path):
    llrs = np.random.default_rng(3).standard_normal(shape) * 30
    llrs.flat[:1] = -0.0
    save_llrs_csv(tmp_path / "l.csv", llrs)
    assert (tmp_path / "l.csv").read_bytes() == _llr_csv_text(llrs).encode()
