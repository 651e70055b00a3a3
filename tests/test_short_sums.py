"""Short sums: frozen bits of fixed_k, adaptive, b = 1, J_0-variant and
trig results, and one kernel pass per fixed_k sum, the first omitted term
included.

The float.hex values were recorded before the per-call cost of short sums
was cut (first omitted term taken from the same block, Miller overflow
scan only where it can fire, math.fsum over a list); any change to a bit
of value or tail_bound fails here.
"""

import math
import random

import numpy as np
import pytest

from besselseries import (EvalOptions, SeriesFamily, SeriesSpec, cos_series, engine, eval_at_b1,
                          eval_j0_variant, eval_series, sin_series_1, sin_series_2, special)
from besselseries.engine import _BLOCK, _weights_vec

TRIG = [
    (cos_series, (3.7, 500), "0x1.3f31ce18942cap+2"),
    (sin_series_1, (3.7, 500), "0x1.23f30f8a8f913p+0"),
    (sin_series_2, (3.7, 500), "0x1.24a7b3f5f2ce8p+0"),
]

# (entry point, arguments, (mode, k_max), value.hex(), tail_bound.hex());
# the fixed_k specs put orders n >= 3 at x <= 10, so the Miller branch of
# j_m runs, at K on both sides of the block size
RESULTS = [
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 1), "0x1.3ff6097851ad7p-4", "0x1.60fc1ee34e16ap-5"),
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 8), "0x1.f6fd4f1d3b6cap-6", "0x1.77b910df8c385p-15"),
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 512), "0x1.f7a6f307dd836p-6", "0x1.4d0d1838bb94fp-55"),
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 16383), "0x1.f7a6f307dd836p-6", "0x1.775ff21cbe9b6p-90"),
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 16384), "0x1.f7a6f307dd836p-6", "0x1.f1c5877054b9fp-91"),
    ("eval_series", ("A", 5, 0.7, 6.3), ("fixed_k", 16385), "0x1.f7a6f307dd836p-6", "0x1.0406021a3a76ap-92"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 1), "0x1.15b77413ce5c8p-2", "0x1.87c90f935173fp-4"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 8), "0x1.50e558159d7b1p-4", "0x1.fcf1b1ed0bd56p-11"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 512), "0x1.4bfa74f6a0360p-4", "0x1.916ab61515d4ap-35"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 16383), "0x1.4bfa74dd10a30p-4", "0x1.46a0ffef0a7c9p-53"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 16384), "0x1.4bfa74dd10a26p-4", "0x1.52b9366eebe6dp-53"),
    ("eval_series", ("B", 7, 0.5, 9.5), ("fixed_k", 16385), "0x1.4bfa74dd10a1cp-4", "0x1.23b3acb1b3127p-53"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 1), "0x1.91cf93023b494p-13", "0x1.eaf074615bde6p-15"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 8), "0x1.020c1ac2f8ec6p-13", "0x1.6c85cb6a6a287p-33"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 512), "0x1.020b73b149a78p-13", "0x1.950cd224f86a9p-88"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 16383), "0x1.020b73b149a78p-13", "0x1.8e871c7b69763p-138"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 16384), "0x1.020b73b149a78p-13", "0x1.5e4d6cac28a26p-139"),
    ("eval_series", ("C", 8, 0.9, 3.1), ("fixed_k", 16385), "0x1.020b73b149a78p-13", "0x1.d41392782cf18p-138"),
    # family B at even orders n = 2m: j_(m-1) and j_m both run Miller on u-
    ("eval_series", ("B", 2, 0.6, 7.3), ("fixed_k", 1), "0x1.91d005be769e8p+0", "0x1.13a95ac7f013ep+2"),
    ("eval_series", ("B", 2, 0.6, 7.3), ("fixed_k", 8), "0x1.c641572affb13p+0", "0x1.b38e5678eb8a4p-3"),
    ("eval_series", ("B", 2, 0.6, 7.3), ("fixed_k", 512), "0x1.6cac6544b72bdp+1", "0x1.da33bce94be93p-15"),
    ("eval_series", ("B", 2, 0.6, 7.3), ("fixed_k", 16385), "0x1.6ca4923fcb3fdp+1", "0x1.7f9954c9f09a4p-23"),
    ("eval_series", ("B", 8, 0.45, 9.1), ("fixed_k", 1), "0x1.c2414678270bep+1", "0x1.146bf606613ddp+1"),
    ("eval_series", ("B", 8, 0.45, 9.1), ("fixed_k", 8), "0x1.96a67a7f4febfp-2", "0x1.0845025c176d6p-7"),
    ("eval_series", ("B", 8, 0.45, 9.1), ("fixed_k", 512), "0x1.809090c1c8464p-2", "0x1.ae4b39992a203p-31"),
    ("eval_series", ("B", 8, 0.45, 9.1), ("fixed_k", 16385), "0x1.80909097106dbp-2", "0x1.781128539e6e7p-51"),
    ("eval_at_b1", (4, 7.5), ("fixed_k", 300), "0x1.8657ef0e6ea61p-6", "0x1.0f998861c5e55p-27"),
    ("eval_j0_variant", (-6.25,), ("fixed_k", 300), "0x1.b23c5677bc02ap-3", "0x1.15a5eb896843cp-9"),
    ("eval_at_b1", (4, 7.5), ("adaptive", 10**6), "0x1.8657f3540b7f7p-6", "0x1.1e2ef04c4b000p-38"),
    ("eval_j0_variant", (-6.25,), ("adaptive", 10**6), "0x1.b4688ec8898bdp-3", "0x1.373ad5a000000p-41"),
    # adaptive, runs out of k_max: raw partial sum and first omitted term
    ("eval_series", ("A", 0, 0.05, 20.0), ("adaptive", 200), "0x1.0bf671c978e3cp-2", "0x1.181bea1ca8b4bp-9"),
    ("eval_series", ("A", 3, 0.6, 5.0), ("adaptive", 10**6), "0x1.11705cd73a5d9p-4", "0x1.fe5ccabf66455p-41"),
    ("eval_series", ("B", 6, 0.8, -4.5), ("adaptive", 10**6), "0x1.19631774b4c8cp-1", "0x1.a62b72d81104cp-39"),
    ("eval_series", ("C", 9, 0.4, 8.0), ("adaptive", 10**6), "0x1.491b065ee4588p-25", "0x1.0e082c28bb5c9p-48"),
]


def _result(name, args, mode, k_max):
    opts = EvalOptions(mode, k_max, 1e-10)
    if name == "eval_series":
        return eval_series(SeriesSpec(*args), opts)
    return {"eval_at_b1": eval_at_b1, "eval_j0_variant": eval_j0_variant}[name](*args, opts)


@pytest.mark.parametrize("fn,args,want", TRIG, ids=[fn.__name__ for fn, _, _ in TRIG])
def test_trig_bits(fn, args, want):
    assert fn(*args).hex() == want


@pytest.mark.parametrize("name,args,opts,value,tail", RESULTS,
                         ids=[f"{r[0]}{r[1]}-{r[2][0]}-{r[2][1]}" for r in RESULTS])
def test_result_bits(name, args, opts, value, tail):
    r = _result(name, args, *opts)
    assert (r.value.hex(), r.tail_bound.hex()) == (value, tail)


@pytest.mark.parametrize("family,n", [("A", 5), ("B", 7), ("C", 8)])
@pytest.mark.parametrize("k_max", [1, 512, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_one_kernel_pass_per_fixed_k_sum(monkeypatch, family, n, k_max):
    # the sum and its first omitted term come from the same blocks
    spec = SeriesSpec(family, n, 0.7, 6.3)
    kernel = engine._TERM_VEC[spec.family]
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setitem(engine._TERM_VEC, spec.family, counted)
    r = eval_series(spec, EvalOptions("fixed_k", k_max))
    assert len(calls) == math.ceil((k_max + 1) / _BLOCK)
    assert sum(calls) == k_max + 1
    assert r.terms_used == k_max


def test_float_path_leaves_fixed_k_bits(monkeypatch):
    # short j_m arrays run on Python floats; forcing every array onto the
    # numpy path gives the same bits for random short sums
    rng = random.Random(5)
    calls = []
    for _ in range(60):
        fam = rng.choice("ABC")
        spec = (fam, rng.randint(1 if fam == "B" else 0, 9), 0.2 + 0.8 * rng.random(),
                10.0 * rng.random())
        calls.append((eval_series, (SeriesSpec(*spec),), rng.choice((1, 8, 20, 64))))
    calls += [(eval_j0_variant, (10.0 * rng.random(),), rng.choice((8, 64))) for _ in range(5)]

    def bits():
        return [(r.value.hex(), r.tail_bound.hex())
                for r in (fn(*args, EvalOptions("fixed_k", K)) for fn, args, K in calls)]

    default = bits()
    monkeypatch.setattr(special, "_MILLER_FLOAT_MAX", 0)
    assert bits() == default


@pytest.mark.parametrize("family", list(SeriesFamily))
def test_weights_of_an_empty_block(family):
    assert _weights_vec(family, 0.6, np.arange(0.0)).size == 0
