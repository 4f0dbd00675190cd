import numpy as np

from anisodiff.manifest import csv_text


def test_csv_text_cell_formats():
    text = csv_text("a,b,c,d", [(np.float64(0.1), np.int64(7), 3, float("nan")),
                                (1.0, np.float32(0.5), -2, np.float64(1e-300))])
    assert text == "a,b,c,d\n0.1,7,3,nan\n1.0,0.5,-2,1e-300\n"


def test_csv_text_no_rows():
    assert csv_text("t,x", []) == "t,x\n"
