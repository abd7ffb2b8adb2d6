"""Reference numbers transcribed from the paper's tables.

Only the aggregate rows needed to compare the reproduction against the
paper (total kernel time, wall clock time, kernel/wall flop rates, and
the per-stage times of the back substitution tables) are transcribed;
the experiment harness (:mod:`repro.perf.experiments`) reports them
paper-vs-measured side by side.  All times are milliseconds, all
rates gigaflops, exactly as printed in the paper.
"""

from __future__ import annotations

__all__ = [
    "TABLE1_COUNTS",
    "TABLE1_AVERAGES",
    "TABLE3_DD_QR_1024",
    "TABLE4_QR_1024",
    "TABLE5_REAL_COMPLEX_512",
    "TABLE6_QR_DIMENSIONS",
    "TABLE7_BACKSUB_V100",
    "TABLE8_BACKSUB_20480",
    "TABLE9_BACKSUB_QD",
    "TABLE10_ROOFLINE",
    "TABLE11_LSTSQ_1024",
    "PREDICTED_OVERHEAD_FACTORS",
]

#: Table 1 — double precision operation counts per multiple double operation.
TABLE1_COUNTS = {
    2: {"add": 20, "mul": 23, "div": 70},
    4: {"add": 89, "mul": 336, "div": 893},
    8: {"add": 269, "mul": 1742, "div": 5126},
}

#: Averages of the Table 1 rows, used to predict overhead factors.
TABLE1_AVERAGES = {2: 37.7, 4: 439.3, 8: 2379.0}

#: Overhead factors predicted from the Table 1 averages when doubling
#: the precision (2d -> 4d and 4d -> 8d).
PREDICTED_OVERHEAD_FACTORS = {"2d->4d": 11.7, "4d->8d": 5.4}

#: Table 3 — double double QR of a 1,024x1,024 matrix (8 tiles of 128).
TABLE3_DD_QR_1024 = {
    "C2050": {"kernel_ms": 8888.3, "wall_ms": 9083.0, "kernel_gflops": 115.8, "wall_gflops": 113.4},
    "K20C": {"kernel_ms": 5506.1, "wall_ms": 5682.0, "kernel_gflops": 187.0, "wall_gflops": 181.2},
    "P100": {"kernel_ms": 712.4, "wall_ms": 826.0, "kernel_gflops": 1445.3, "wall_gflops": 1247.2},
    "V100": {"kernel_ms": 451.5, "wall_ms": 568.0, "kernel_gflops": 2280.4, "wall_gflops": 1812.7},
    "RTX2080": {"kernel_ms": 3968.2, "wall_ms": 4700.0, "kernel_gflops": 259.5, "wall_gflops": 219.1},
}

#: Table 4 — QR of a 1,024x1,024 matrix in four precisions (kernel time,
#: wall time, kernel gigaflops, wall gigaflops).
TABLE4_QR_1024 = {
    "RTX2080": {
        1: {"kernel_ms": 338.6, "wall_ms": 562.0, "kernel_gflops": 141.5, "wall_gflops": 85.2},
        2: {"kernel_ms": 3999.5, "wall_ms": 4708.0, "kernel_gflops": 257.4, "wall_gflops": 218.7},
        4: {"kernel_ms": 35826.7, "wall_ms": 37087.0, "kernel_gflops": 284.1, "wall_gflops": 274.5},
        8: {"kernel_ms": 160802.8, "wall_ms": 163219.0, "kernel_gflops": 299.7, "wall_gflops": 295.3},
    },
    "P100": {
        1: {"kernel_ms": 256.2, "wall_ms": 311.0, "kernel_gflops": 180.6, "wall_gflops": 154.0},
        2: {"kernel_ms": 712.7, "wall_ms": 827.0, "kernel_gflops": 1444.6, "wall_gflops": 1244.8},
        4: {"kernel_ms": 5187.0, "wall_ms": 5381.0, "kernel_gflops": 1962.4, "wall_gflops": 1891.5},
        8: {"kernel_ms": 20547.5, "wall_ms": 20870.0, "kernel_gflops": 2345.4, "wall_gflops": 2309.2},
    },
    "V100": {
        1: {"kernel_ms": 158.4, "wall_ms": 206.0, "kernel_gflops": 302.5, "wall_gflops": 232.8},
        2: {"kernel_ms": 446.8, "wall_ms": 560.0, "kernel_gflops": 2304.3, "wall_gflops": 1837.3},
        4: {"kernel_ms": 3167.0, "wall_ms": 3356.0, "kernel_gflops": 3214.0, "wall_gflops": 3033.0},
        8: {"kernel_ms": 11754.6, "wall_ms": 12059.0, "kernel_gflops": 4099.9, "wall_gflops": 3996.3},
    },
}

#: Table 5 — real vs complex double double QR at dimension 512 on the
#: V100, for tilings 16x32, 8x64, 4x128, 2x256.
TABLE5_REAL_COMPLEX_512 = {
    "real": {
        (16, 32): {"kernel_ms": 53.2, "wall_ms": 101.0, "kernel_gflops": 428.4, "wall_gflops": 226.6},
        (8, 64): {"kernel_ms": 94.0, "wall_ms": 170.0, "kernel_gflops": 785.9, "wall_gflops": 434.5},
        (4, 128): {"kernel_ms": 100.5, "wall_ms": 155.0, "kernel_gflops": 1089.8, "wall_gflops": 707.4},
        (2, 256): {"kernel_ms": 161.6, "wall_ms": 208.0, "kernel_gflops": 777.3, "wall_gflops": 603.3},
    },
    "complex": {
        (16, 32): {"kernel_ms": 97.4, "wall_ms": 158.0, "kernel_gflops": 628.9, "wall_gflops": 387.2},
        (8, 64): {"kernel_ms": 227.4, "wall_ms": 306.0, "kernel_gflops": 1299.8, "wall_gflops": 967.3},
        (4, 128): {"kernel_ms": 238.5, "wall_ms": 311.0, "kernel_gflops": 1836.7, "wall_gflops": 1407.8},
        (2, 256): {"kernel_ms": 420.8, "wall_ms": 479.0, "kernel_gflops": 1194.8, "wall_gflops": 1050.5},
    },
}

#: Table 6 — QR on the V100 for growing dimensions (tiles of 128).
TABLE6_QR_DIMENSIONS = {
    2: {
        512: {"kernel_ms": 100.5, "wall_ms": 155.0, "kernel_gflops": 1089.7},
        1024: {"kernel_ms": 238.2, "wall_ms": 321.0, "kernel_gflops": 1839.0},
        1536: {"kernel_ms": 1455.8, "wall_ms": 1627.0, "kernel_gflops": 2475.1},
        2048: {"kernel_ms": 26815.0, "wall_ms": 27230.0, "kernel_gflops": 1087.8},
    },
    4: {
        512: {"kernel_ms": 674.3, "wall_ms": 777.0, "kernel_gflops": 1605.7},
        1024: {"kernel_ms": 3136.5, "wall_ms": 3366.0, "kernel_gflops": 3245.3},
        1536: {"kernel_ms": 13431.2, "wall_ms": 13835.0, "kernel_gflops": 2366.8},
        2048: {"kernel_ms": 34372.5, "wall_ms": 34960.0, "kernel_gflops": 2097.0},
    },
    8: {
        512: {"kernel_ms": 2490.8, "wall_ms": 2681.0, "kernel_gflops": 2058.2},
        1024: {"kernel_ms": 12280.1, "wall_ms": 12735.0, "kernel_gflops": 3924.4},
        1536: {"kernel_ms": 44679.8, "wall_ms": 45419.0, "kernel_gflops": 3368.5},
        2048: {"kernel_ms": 107769.2, "wall_ms": 108763.0, "kernel_gflops": 3166.4},
    },
}

#: Table 7 — back substitution on the V100 in four precisions.
#: Keys are (limbs, tile size, number of tiles).
TABLE7_BACKSUB_V100 = {
    (1, 64, 80): {"invert": 0.4, "multiply": 0.8, "update": 1.8, "kernel_ms": 3.0, "wall_ms": 47.0, "kernel_gflops": 14.5},
    (1, 128, 80): {"invert": 5.2, "multiply": 1.5, "update": 2.2, "kernel_ms": 8.9, "wall_ms": 147.0, "kernel_gflops": 28.5},
    (1, 256, 80): {"invert": 30.8, "multiply": 4.3, "update": 5.9, "kernel_ms": 41.0, "wall_ms": 526.0, "kernel_gflops": 39.9},
    (2, 64, 80): {"invert": 1.2, "multiply": 1.7, "update": 7.9, "kernel_ms": 5.0, "wall_ms": 82.0, "kernel_gflops": 190.6},
    (2, 128, 80): {"invert": 9.3, "multiply": 3.3, "update": 4.7, "kernel_ms": 17.3, "wall_ms": 286.0, "kernel_gflops": 318.7},
    (2, 256, 80): {"invert": 46.3, "multiply": 8.9, "update": 12.2, "kernel_ms": 67.4, "wall_ms": 966.0, "kernel_gflops": 525.1},
    (4, 64, 80): {"invert": 6.2, "multiply": 12.2, "update": 13.3, "kernel_ms": 31.7, "wall_ms": 187.0, "kernel_gflops": 299.4},
    (4, 128, 80): {"invert": 38.3, "multiply": 23.8, "update": 26.7, "kernel_ms": 88.8, "wall_ms": 619.0, "kernel_gflops": 614.2},
    (4, 256, 80): {"invert": 137.4, "multiply": 63.1, "update": 112.2, "kernel_ms": 312.7, "wall_ms": 2268.0, "kernel_gflops": 1122.3},
    (8, 64, 80): {"invert": 43.8, "multiply": 47.7, "update": 49.2, "kernel_ms": 140.7, "wall_ms": 465.0, "kernel_gflops": 321.3},
    (8, 128, 80): {"invert": 110.6, "multiply": 97.5, "update": 108.0, "kernel_ms": 316.2, "wall_ms": 1400.0, "kernel_gflops": 820.1},
    (8, 128, 160): {"invert": 133.3, "multiply": 196.0, "update": 283.7, "kernel_ms": 613.1, "wall_ms": 84448.0, "kernel_gflops": 1166.7},
}

#: Table 8 — quad double back substitution at dimension 20,480 for three
#: tilings on the V100.  Keys are (tile size, number of tiles).
TABLE8_BACKSUB_20480 = {
    (64, 320): {"invert": 13.5, "multiply": 49.0, "update": 84.6, "kernel_ms": 147.1, "wall_ms": 2620.0, "kernel_gflops": 683.0},
    (128, 160): {"invert": 35.8, "multiply": 47.5, "update": 91.7, "kernel_ms": 175.0, "wall_ms": 2265.0, "kernel_gflops": 861.1},
    (256, 80): {"invert": 132.3, "multiply": 64.3, "update": 112.3, "kernel_ms": 308.9, "wall_ms": 2071.0, "kernel_gflops": 1136.1},
}

#: Table 9 — quad double tiled back substitution, N = 80 tiles of size n.
#: Keyed by device, then by n.
TABLE9_BACKSUB_QD = {
    "RTX2080": {
        32: {"kernel_ms": 106.8, "wall_ms": 174.0, "kernel_gflops": 17.4},
        64: {"kernel_ms": 267.7, "wall_ms": 420.0, "kernel_gflops": 35.5},
        96: {"kernel_ms": 524.4, "wall_ms": 883.0, "kernel_gflops": 49.6},
        128: {"kernel_ms": 907.2, "wall_ms": 1477.0, "kernel_gflops": 60.1},
        160: {"kernel_ms": 1465.1, "wall_ms": 2318.0, "kernel_gflops": 67.0},
        192: {"kernel_ms": 2170.4, "wall_ms": 3343.0, "kernel_gflops": 73.8},
        224: {"kernel_ms": 3096.3, "wall_ms": 4725.0, "kernel_gflops": 78.6},
        256: {"kernel_ms": 4392.3, "wall_ms": 6726.0, "kernel_gflops": 79.9},
    },
    "P100": {
        32: {"kernel_ms": 24.3, "wall_ms": 111.0, "kernel_gflops": 76.4},
        64: {"kernel_ms": 49.6, "wall_ms": 343.0, "kernel_gflops": 191.5},
        96: {"kernel_ms": 78.7, "wall_ms": 626.0, "kernel_gflops": 330.6},
        128: {"kernel_ms": 119.0, "wall_ms": 2255.0, "kernel_gflops": 458.3},
        160: {"kernel_ms": 176.4, "wall_ms": 1923.0, "kernel_gflops": 556.7},
        192: {"kernel_ms": 259.8, "wall_ms": 4269.0, "kernel_gflops": 616.1},
        224: {"kernel_ms": 332.3, "wall_ms": 3445.0, "kernel_gflops": 732.2},
        256: {"kernel_ms": 431.7, "wall_ms": 4401.0, "kernel_gflops": 813.1},
    },
    "V100": {
        32: {"kernel_ms": 19.6, "wall_ms": 90.0, "kernel_gflops": 94.9},
        64: {"kernel_ms": 37.8, "wall_ms": 251.0, "kernel_gflops": 250.9},
        96: {"kernel_ms": 59.2, "wall_ms": 482.0, "kernel_gflops": 439.6},
        128: {"kernel_ms": 86.4, "wall_ms": 776.0, "kernel_gflops": 631.7},
        160: {"kernel_ms": 145.0, "wall_ms": 1181.0, "kernel_gflops": 677.4},
        192: {"kernel_ms": 184.6, "wall_ms": 1577.0, "kernel_gflops": 867.0},
        224: {"kernel_ms": 237.1, "wall_ms": 2150.0, "kernel_gflops": 1025.9},
        256: {"kernel_ms": 314.5, "wall_ms": 2886.0, "kernel_gflops": 1115.9},
    },
}

#: Table 10 — arithmetic intensity and kernel flop rates of the quad
#: double back substitution on the V100 (dimension 80 x n).
TABLE10_ROOFLINE = {
    32: {"intensity": 58.71, "kernel_gflops": 119.1},
    64: {"intensity": 1500.0, "kernel_gflops": 263.9},
    96: {"intensity": 2740.0, "kernel_gflops": 440.7},
    128: {"intensity": 4308.0, "kernel_gflops": 633.8},
    160: {"intensity": 6203.0, "kernel_gflops": 679.0},
    192: {"intensity": 8427.0, "kernel_gflops": 852.9},
    224: {"intensity": 10980.0, "kernel_gflops": 1036.0},
    256: {"intensity": 13860.0, "kernel_gflops": 1113.6},
}

#: Table 11 — least squares solving of a 1,024 system (8 tiles of 128).
TABLE11_LSTSQ_1024 = {
    "RTX2080": {
        1: {"qr_kernel_ms": 327.4, "bs_kernel_ms": 1.7, "total_kernel_gflops": 145.6, "total_wall_gflops": 84.2},
        2: {"qr_kernel_ms": 4082.2, "bs_kernel_ms": 20.8, "total_kernel_gflops": 251.0, "total_wall_gflops": 214.1},
        4: {"qr_kernel_ms": 36128.9, "bs_kernel_ms": 192.0, "total_kernel_gflops": 280.3, "total_wall_gflops": 271.2},
        8: {"qr_kernel_ms": 164626.8, "bs_kernel_ms": 895.1, "total_kernel_gflops": 291.3, "total_wall_gflops": 287.1},
    },
    "P100": {
        1: {"qr_kernel_ms": 268.9, "bs_kernel_ms": 4.0, "total_kernel_gflops": 175.6, "total_wall_gflops": 147.6},
        2: {"qr_kernel_ms": 707.8, "bs_kernel_ms": 7.5, "total_kernel_gflops": 1439.9, "total_wall_gflops": 1236.2},
        4: {"qr_kernel_ms": 5193.0, "bs_kernel_ms": 40.8, "total_kernel_gflops": 1945.5, "total_wall_gflops": 1878.1},
        8: {"qr_kernel_ms": 20508.2, "bs_kernel_ms": 181.8, "total_kernel_gflops": 2330.1, "total_wall_gflops": 2289.9},
    },
    "V100": {
        1: {"qr_kernel_ms": 157.9, "bs_kernel_ms": 2.0, "total_kernel_gflops": 299.6, "total_wall_gflops": 230.8},
        2: {"qr_kernel_ms": 451.1, "bs_kernel_ms": 4.0, "total_kernel_gflops": 2262.9, "total_wall_gflops": 1797.3},
        4: {"qr_kernel_ms": 3020.6, "bs_kernel_ms": 28.0, "total_kernel_gflops": 3340.0, "total_wall_gflops": 3144.7},
        8: {"qr_kernel_ms": 11924.5, "bs_kernel_ms": 114.5, "total_kernel_gflops": 4004.4, "total_wall_gflops": 3897.0},
    },
}
