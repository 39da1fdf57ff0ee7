"""Hypothesis strategies shared by the tests."""

from hypothesis import strategies as st


@st.composite
def column_pairs(draw, max_entry: int = 12, max_columns: int = 8, zeros: bool = True):
    """Valid exponent pairs (a, b) of 1..max_columns columns, entries at most
    max_entry (small ones, up to 12, as often as large ones).  A column is
    drawn at random, as a multiple of an earlier one (an equal ratio) or,
    with ``zeros``, as zero in a, in b or in both.  Columns come from a
    seeded Random, so long pairs stay within Hypothesis's buffer."""
    n = draw(st.integers(1, max_columns))
    rng = draw(st.randoms(use_true_random=False))

    def entry(low: int = 0) -> int:
        return rng.randint(low, rng.choice((min(12, max_entry), max_entry)))

    columns: list[tuple[int, int]] = []
    for _ in range(n):
        kind = rng.randrange(6 if zeros else 3)
        if kind == 0 and columns:
            x, y = rng.choice(columns)
            m = rng.randint(1, max(1, max_entry // max(x, y, 1)))
            columns.append((m * x, m * y))
        elif kind == 3:
            columns.append((0, 0))
        elif kind == 4:
            columns.append((0, entry(1)))
        elif kind == 5:
            columns.append((entry(1), 0))
        else:
            columns.append((entry(1), entry(1)))
    a, b = [x for x, _ in columns], [y for _, y in columns]
    if not any(a) or not any(b):
        a[0], b[0] = entry(1), entry(1)
    return tuple(a), tuple(b)
