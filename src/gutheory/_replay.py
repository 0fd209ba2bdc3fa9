"""The mixed-family path of :func:`gutheory.algorithms.generate_sequence`:
numpy's scalar draws, replayed from PCG64's raw 64-bit words.

A uniform draw takes one word; numpy's normal and exponential samplers,
Marsaglia and Tsang's ziggurats, take one word for about 99% of draws and
compute the draw from it with the tables in ``_ziggurat.py``.  Such draws
are computed from their words in bulk.  A draw leaves that path only at
its own first word: it is drawn again with one scalar call, the words it
took are read off the generator's state, and every later draw shifts by
its extra words.  The words come twice from a copy of the start state,
``_CHUNK`` at a time: once to find the slow draws, once, a chunk of rows
at a time, to gather each row's picked word, so that no n x k block is
held.  Only this path imports this module and the tables.
"""

from bisect import bisect_left

import numpy as np

from ._ziggurat import KE, KI, WE, WI
from .algorithms import _CHUNK, STANDARD

#: PCG64 steps its 128-bit state to ``state * _PCG64_MULTIPLIER + inc``.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _ziggurat(family: str, words):
    """``(mantissa, layer)`` that numpy's normal or exponential ziggurat
    reads from a draw's first word.  The draw takes that word alone exactly
    when ``mantissa < k[layer]``, and is then ``mantissa * w[layer]``,
    negated for a normal whose bit 8 is set."""
    if family == "normal":
        mantissa = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
        return mantissa, (words & np.uint64(0xFF)).astype(np.intp)
    return words >> np.uint64(11), ((words >> np.uint64(3)) & np.uint64(0xFF)).astype(np.intp)


def replay_mixed(rng, families: list[str], k: int):
    """``(picks, draws)``: the picks and the standard draws of the picked
    candidates that scalar draws row by row, then ``rng.integers(0, n,
    size=k)``, give, with ``rng`` left where they leave it."""
    tables = {
        "normal": (np.array(KI, np.uint64), np.array(WI)),
        "exponential": (np.array(KE, np.uint64), np.array(WE)),
    }
    # Bit 1 of a word's code marks a slow normal draw, bit 2 an exponential.
    bits = {"normal": 1, "uniform": 0, "exponential": 2}
    slot_bits = [bits[family] for family in families]
    draw = {family: getattr(rng, STANDARD[family]) for family in families}
    n = len(families)
    bitgen = rng.bit_generator
    start = bitgen.state
    inc = start["state"]["inc"]
    # Pass 1: scan the words of a copy a chunk at a time, so that bitgen
    # only moves on; only the last chunk's slow words are kept.
    source = np.random.PCG64()
    source.state = start
    slow_at, slow_codes = [], []  # the slow words' positions and codes
    slow = []  # (row, slot, extra words, standard draw) of each slow draw
    # bitgen's words, the draws' words beyond one each, and source's words
    at = shift = i = scanned = 0
    while True:
        # Candidate c starts at word c + shift; find the first slow word
        # from bitgen's word on that is read by a draw of the family it slows.
        i = bisect_left(slow_at, at, i)
        while i < len(slow_at) and not slow_codes[i] & slot_bits[(slow_at[i] - shift) % n]:
            i += 1
        if i < len(slow_at) and slow_at[i] - shift < n * k:
            # Draw it again, and count its words off bitgen's state.
            row, slot = divmod(slow_at[i] - shift, n)
            bitgen.advance(slow_at[i] - at)
            state = bitgen.state["state"]["state"]
            value = draw[families[slot]]()
            after = bitgen.state["state"]["state"]
            at = slow_at[i]
            while state != after:
                state, at = (state * _PCG64_MULTIPLIER + inc) % 2**128, at + 1
            beyond = at - slow_at[i] - 1
            slow.append((row, slot, beyond, value))
            shift += beyond
        elif n * k + shift <= scanned:
            break
        else:
            words = source.random_raw(min(_CHUNK, n * k + shift - scanned))
            codes = np.zeros(len(words), np.uint8)
            for family in tables.keys() & set(families):
                mantissa, layer = _ziggurat(family, words)
                codes[mantissa >= tables[family][0][layer]] |= bits[family]
            found = np.flatnonzero(codes)
            slow_at, slow_codes, i = (found + scanned).tolist(), codes[found].tolist(), 0
            scanned += len(words)
    bitgen.advance(n * k + shift - at)
    picks = rng.integers(0, n, size=k)
    # Pass 2: draw the words again from the start, a chunk of rows at a
    # time, and gather each row's picked word, at n * j + picks[j] plus the
    # extra words of the slow draws before it in the chunk.
    source.state = start
    kinds = np.array(slot_bits, np.int8)
    kept = np.empty(k)
    rows = max(1, _CHUNK // n)
    seen = 0  # the slow draws of the rows before the chunk
    for low in range(0, k, rows):
        high = min(k, low + rows)
        extra = np.zeros(high - low + 1, np.int64)
        while seen < len(slow) and slow[seen][0] < high:
            row, slot, beyond, _ = slow[seen]
            extra[row - low + (slot >= picks[row])] += beyond
            seen += 1
        index = np.cumsum(extra)
        words = source.random_raw(n * (high - low) + int(index[-1]))
        index = index[:-1]
        index += picks[low:high]
        index += np.arange(0, n * (high - low), n)
        words = words[index]
        kind = kinds[picks[low:high]]
        out = kept[low:high]
        np.multiply(words >> np.uint64(11), 2.0**-53, out=out)  # uniform draws
        for family, (_, w) in tables.items():
            chosen = kind == bits[family]
            word = words[chosen]
            mantissa, layer = _ziggurat(family, word)
            draws = mantissa * w[layer]
            if family == "normal":
                np.negative(draws, out=draws, where=(word >> np.uint64(8)) & np.uint64(1) == 1)
            out[chosen] = draws
    for row, slot, _, value in slow:
        if slot == picks[row]:
            kept[row] = value
    return picks, kept
