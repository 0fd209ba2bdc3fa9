"""Write ``src/gutheory/_ziggurat.py``: numpy's ziggurat tables, read back
from the installed numpy.

Usage: ``python3 tools/make_ziggurat.py``, from the root of the repository.

numpy's ``standard_normal`` and ``standard_exponential`` (Marsaglia and
Tsang's ziggurat) read layer ``idx`` and a mantissa from one 64-bit word and
return ``mantissa * w[idx]`` when ``mantissa < k[idx]``, without a second
word.  Each table entry is recovered by drawing from a PCG64 state set so
that its next word is a chosen one: ``w[idx]`` is the draw at mantissa 1,
and ``k[idx]`` is the least mantissa whose draw takes a second word, found
by bisection.
"""

from pathlib import Path

import numpy as np

TARGET = Path(__file__).resolve().parent.parent / "src" / "gutheory" / "_ziggurat.py"

bitgen = np.random.PCG64(0)
rng = np.random.Generator(bitgen)
INC = bitgen.state["state"]["inc"]


def one_word(method: str, word: int) -> tuple[float, bool]:
    """The draw of ``method`` whose first word is ``word``, and whether it
    took that word alone.  PCG64 steps its state and then outputs it, and a
    state below 2**64 outputs itself."""
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": word, "inc": INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen.advance(-1)
    value = getattr(rng, method)()
    return value, bitgen.state["state"]["state"] == word


def tables(method: str, bits: int, word) -> tuple[list[int], list[float]]:
    """``(k, w)`` of one sampler; ``word(idx, mantissa)`` builds its word."""
    k, w = [], []
    for idx in range(256):
        w.append(one_word(method, word(idx, 1))[0])
        low, high = 0, 1 << bits
        while low < high:
            middle = (low + high) // 2
            if one_word(method, word(idx, middle))[1]:
                low = middle + 1
            else:
                high = middle
        k.append(low)
    return k, w


def block(name: str, values, spell) -> str:
    rows = [
        "    " + " ".join(f"{spell(v)}," for v in values[i:i + 4])
        for i in range(0, len(values), 4)
    ]
    return f"{name} = (\n" + "\n".join(rows) + "\n)\n"


def main() -> None:
    # normal: bits 0-7 layer, bit 8 sign, bits 9-60 mantissa.
    ki, wi = tables("standard_normal", 52, lambda idx, m: (m << 9) | idx)
    # exponential: bits 3-10 layer, bits 11-63 mantissa.
    ke, we = tables("standard_exponential", 53, lambda idx, m: (m << 11) | (idx << 3))
    text = (
        '"""numpy\'s ziggurat tables for ``standard_normal`` (``KI``, ``WI``) and\n'
        '``standard_exponential`` (``KE``, ``WE``), 256 layers each.\n\n'
        f"Generated by ``tools/make_ziggurat.py`` from numpy {np.__version__}; do not edit.\n"
        '"""\n\n'
        + block("KI", ki, lambda v: f"0x{v:014X}") + "\n"
        + block("WI", wi, repr) + "\n"
        + block("KE", ke, lambda v: f"0x{v:014X}") + "\n"
        + block("WE", we, repr)
    )
    TARGET.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
