import numpy as np
import pytest

from rmproduct import OpCounter, product_code_from_descriptor, product_decode_batch

# (descriptor, mode, iterations) -> (add_sub, compare, sign_mult, depth) of one
# frame's decode, as the per-kernel counters counted it before the cost model
# was written once in `ops`.  Every decoder path is here: soft-FHT soft and
# hard, the exhaustive search soft and hard (rm(4,2), rm(3,1):bfmap), the
# single-parity-check closed form (rm(1,0), rm(4,3), and rm(3,2) in a
# product), rm(0,0), the 3-axis cube and the benchmark's rm(11,1)xrm(3,2):bfmap.
PINNED = [
    ("rm(0,0):bfmap", "soft", 1, (1, 0, 0, 2)),
    ("rm(0,0):bfmap", "soft", 3, (3, 0, 0, 6)),
    ("rm(0,0):bfmap", "hard", 1, (0, 1, 0, 1)),
    ("rm(0,0):bfmap", "hard", 3, (0, 3, 0, 3)),
    ("rm(6,1)", "soft", 1, (391, 561, 63, 19)),
    ("rm(6,1)", "soft", 3, (1173, 1683, 189, 57)),
    ("rm(6,1)", "hard", 1, (384, 63, 0, 12)),
    ("rm(6,1)", "hard", 3, (1152, 189, 0, 36)),
    ("rm(6,1)xrm(2,1)", "soft", 1, (2268, 3076, 444, 26)),
    ("rm(6,1)xrm(2,1)", "soft", 3, (6804, 9228, 1332, 78)),
    ("rm(6,1)xrm(2,1)", "hard", 1, (2048, 444, 0, 16)),
    ("rm(6,1)xrm(2,1)", "hard", 3, (6144, 1332, 0, 48)),
    ("rm(4,2):bfmap", "soft", 1, (30736, 32736, 0, 16)),
    ("rm(4,2):bfmap", "soft", 3, (92208, 98208, 0, 48)),
    ("rm(4,2):bfmap", "hard", 1, (30720, 2047, 0, 15)),
    ("rm(4,2):bfmap", "hard", 3, (92160, 6141, 0, 45)),
    ("rm(3,1):bfmap", "soft", 1, (120, 112, 0, 8)),
    ("rm(3,1):bfmap", "soft", 3, (360, 336, 0, 24)),
    ("rm(3,1):bfmap", "hard", 1, (112, 15, 0, 7)),
    ("rm(3,1):bfmap", "hard", 3, (336, 45, 0, 21)),
    ("rm(4,3):bfmap", "soft", 1, (16, 61, 31, 16)),
    ("rm(4,3):bfmap", "soft", 3, (48, 183, 93, 48)),
    ("rm(4,3):bfmap", "hard", 1, (491520, 32767, 0, 19)),
    ("rm(4,3):bfmap", "hard", 3, (1474560, 98301, 0, 57)),
    ("rm(1,0):bfmap", "soft", 1, (2, 5, 3, 2)),
    ("rm(1,0):bfmap", "soft", 3, (6, 15, 9, 6)),
    ("rm(1,0):bfmap", "hard", 1, (2, 1, 0, 2)),
    ("rm(1,0):bfmap", "hard", 3, (6, 3, 0, 6)),
    ("rm(4,1)xrm(3,2):bfmap", "soft", 1, (680, 1272, 360, 21)),
    ("rm(4,1)xrm(3,2):bfmap", "soft", 3, (2040, 3816, 1080, 63)),
    ("rm(4,1)xrm(3,2):bfmap", "hard", 1, (14848, 2152, 0, 18)),
    ("rm(4,1)xrm(3,2):bfmap", "hard", 3, (44544, 6456, 0, 54)),
    ("rm(3,1)xrm(3,1)xrm(3,1)", "soft", 1, (5376, 7488, 1344, 30)),
    ("rm(3,1)xrm(3,1)xrm(3,1)", "soft", 3, (16128, 22464, 4032, 90)),
    ("rm(3,1)xrm(3,1)xrm(3,1)", "hard", 1, (4608, 1344, 0, 18)),
    ("rm(3,1)xrm(3,1)xrm(3,1)", "hard", 3, (13824, 4032, 0, 54)),
    ("rm(11,1)xrm(3,2):bfmap", "soft", 1, (196704, 288568, 47096, 42)),
    ("rm(11,1)xrm(3,2):bfmap", "soft", 3, (590112, 865704, 141288, 126)),
    ("rm(11,1)xrm(3,2):bfmap", "hard", 1, (2015232, 276472, 0, 32)),
    ("rm(11,1)xrm(3,2):bfmap", "hard", 3, (6045696, 829416, 0, 96)),
]


@pytest.mark.parametrize("descriptor, mode, iterations, counts", PINNED)
def test_pinned_operation_counts(descriptor, mode, iterations, counts):
    code = product_code_from_descriptor(descriptor)
    counter = OpCounter()
    product_decode_batch(code, np.zeros((1, code.n_t)), 1.0, iterations, mode, counter)
    assert (counter.add_sub, counter.compare, counter.sign_mult, counter.depth) == counts

