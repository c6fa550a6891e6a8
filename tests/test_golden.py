"""Golden output bytes of small sweeps of every kind.

Each config below runs through the CLI entry point and every file it
writes is compared by sha256 against a recorded digest.  The digests pin
the whole numeric chain (bit draws, both hops, relay, demapper, rate
estimate, bisection, link budget, code and decoder) and the text form of
the outputs, so a refactor that claims to keep outputs byte-identical is
checked here rather than by eye.  A change that moves bytes on purpose
re-records the digests and says which outputs moved in CHANGES.md.

The digests were recorded with numpy 2.4 on x86-64; another numpy build
may round a last place differently.
"""

import hashlib

import pytest

from relaycm.harness import main

_CONFIGS = {
    "region_all_variants": ("snr-region", """
[run]
kind = snr_region
seed = 3
[link]
variants = hd_matched, hd_legacy_sopt, scale
[sweep]
snr1_db = 16:19:2
f = 0
n_symbols = 2000
tol_db = 0.2
"""),
    "region_qam32_mc": ("snr-region", """
[run]
kind = snr_region
seed = 4
[link]
constellation = qam32
variants = hd_matched, hd_legacy_sopt
[sweep]
snr1_db = 19
f = 0.5
n_symbols = 2000
dmc_method = mc
dmc_samples = 4000
tol_db = 0.2
"""),
    "distance_penalty": ("distance-contour", """
[run]
kind = distance_contour
seed = 5
bus_rate_gbit = 400
[link]
variants = hd_matched, hd_legacy_sopt
snr_ref_db = 25
span_km = 70
relay_penalty_db = 1.5
[sweep]
spans1 = 0, 1, 11, 40, 43
f = 0.4
n_symbols = 2000
tol_db = 0.2
"""),
    "distance_short_budget": ("distance-contour", """
[run]
kind = distance_contour
seed = 8
[link]
variants = scale, hd_matched
snr_ref_db = 12.5
relay_penalty_db = 0.5
[sweep]
spans1 = 0:2
f = 0
n_symbols = 2000
tol_db = 0.2
"""),
    "coded_hd_matched": ("coded-contour", """
[run]
kind = coded_contour
seed = 6
[link]
variants = hd_matched
[sweep]
snr1_db = 12, 16
f = 0.5
snr2_lo_db = 4
[code]
q = 8
chain_len = 8
n_codewords = 2
tol_db = 0.2
"""),
    "coded_scale": ("coded-contour", """
[run]
kind = coded_contour
seed = 7
[link]
variants = scale
[sweep]
snr1_db = 13, 17
f = 0
snr2_lo_db = 4
[code]
q = 8
chain_len = 8
n_codewords = 2
tol_db = 0.2
"""),
}

_GOLDEN = {
    "coded_hd_matched": {
        "coded.dat":
            "3b7ee7a3f732bcfe4f307466ec88062c2874c4031e19f6f94b0f2a9d41e35508",
        "coded_hd_matched_interleaved_w2_f0.5.csv":
            "9ceecf5a540c984420623587342640d1deda85ba48339485ed7645d02c92e775",
        "coded_record.json":
            "5070518b13fe9f24f7029eaf354bd53725b43214b9cc2e6de9cfed3d1cab6a2b",
    },
    "coded_scale": {
        "coded.dat":
            "47802868721819ddb4fa9cdf8ec5353b57c7423746bc6f9c5319efd05f9767e7",
        "coded_scale_interleaved_w2_f0.csv":
            "25748c30d9563a460d7e6f45d6325fb0a74c1b73f0dd880245ed42377080a522",
        "coded_record.json":
            "5981ef766c46c62c944f527d3d33ac9cad271722cd7d1eb7cf283d255cd863d9",
    },
    "distance_penalty": {
        "distance.dat":
            "f2dda3f0d5ed45e730f698eb84b7f9169a21177fda5a2ed4a5d8d1c687b549fb",
        "distance_hd_legacy_sopt_f0.4.csv":
            "7310580599a265b7457f59a0a19fea9e3202318a831ef938e7e44f29a09b93d7",
        "distance_hd_matched_f0.4.csv":
            "c18b2cb43fbaa6e9ecc6841209dbf150ad6bb3b71b21e542290ce3e4a8a8397f",
        "distance_record.json":
            "f63511756d64d76631bbaa6aa9dd052cfe0cbdaeb4cf4f4ab796e66935962c54",
    },
    "distance_short_budget": {
        "distance.dat":
            "de2952c829217e77a3431c2a17c1122826b4d8d57159f50cc70f1a4a851e1489",
        "distance_hd_matched_f0.csv":
            "bfd776928b9cc9834df04e3e111f69cd0424071edb57de19b6a2f6b23e2449c2",
        "distance_record.json":
            "784d8cf71ef9758cd93b138073d65f34fee0f92917b6bd0cd1f28c523ca934f6",
        "distance_scale_f0.csv":
            "001d945cf007dbf39f10016b655213244591cce891a024ebfd57e941f568a53d",
    },
    "region_all_variants": {
        "region.dat":
            "8b790f2f4afebbecb392436a5bc5728193d1ccfb85f85a0f2734a29630824272",
        "region_hd_legacy_sopt_f0.csv":
            "3696376d06e1b90531cd50dfa9cd3443aca40c7f49f1d0cfb193b6496488be0e",
        "region_hd_matched_f0.csv":
            "e0ff6e9a044a5700335e9d9e98e79a740b8b4bc814f6606323c65d08d376a199",
        "region_record.json":
            "9cded581588c087ac2783c8d756f64f30c4d5f94d4328e7f71bb65523b7e47d3",
        "region_scale_f0.csv":
            "e142a912c3f4e35421c39330da3971527231ea2ba204d5362c698a05c690cf40",
    },
    "region_qam32_mc": {
        "region.dat":
            "46b8db8a69062814938043961bb96a215a436df09ac78d1a466e46d41d906da4",
        "region_hd_legacy_sopt_f0.5.csv":
            "93efa97c931756946a8b0db6c2ec49894d2ad6278a2f6499f747860ae99fb8c5",
        "region_hd_matched_f0.5.csv":
            "8291bee72657f0ff9c9d0f88ed50f90b26f1ca9c24e2982aec2412e1832f71f0",
        "region_record.json":
            "e4693378aadc8f771ed06c9affca8592ccc925b4c57b4d6444e46fadff9787a9",
    },
}


def _digests(tmp_path, name):
    verb, ini = _CONFIGS[name]
    path = tmp_path / f"{name}.ini"
    path.write_text(ini)
    out = tmp_path / name
    assert main([verb, "--config", str(path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_outputs_match_golden_bytes(tmp_path, name):
    assert _digests(tmp_path, name) == _GOLDEN[name]
