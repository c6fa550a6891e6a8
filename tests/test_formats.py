import pytest

from relaycm.channel import DmcMatrix
from relaycm.constellation import Constellation
from relaycm.container import Container, plan_container
from relaycm.demapper import load_llrs_bin, load_llrs_csv
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
    "llr-bin-short-header": lambda p: load_llrs_bin(_write(p, b"LLRB\x01\x00")),
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

