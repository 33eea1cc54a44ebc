"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator
addressed by (master_seed, tag, replicate, draw).  Streams for distinct
addresses are non-overlapping by construction (each address owns a
2^128-block region of the Philox counter space), so results are
bit-reproducible for a given master seed regardless of execution order
or worker count.

Bootstrap weights need one stream per bootstrap replicate.  Rather than
build a generator for each, ``streams`` keys one Philox per call and
moves its counter to each draw's address in turn; ``stream`` is the
first generator of a one-draw ``streams``, so the address has one
encoding.  Because each draw has its own address, draws can be split
among callers in any order and any grouping without changing a bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

# tag values partition the stream space by purpose
TAG_FIELD = 1      # field simulation, one stream per Monte Carlo replicate
TAG_BOOT = 2       # bootstrap weights, one stream per bootstrap replicate
TAG_ORACLE = 3     # long-run oracle simulations
TAG_GENERIC = 4    # ad hoc draws (CLI single-shot commands)

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, tag: int = TAG_GENERIC, replicate: int = 0,
           draw: int = 0) -> np.random.Generator:
    """Return the generator for address (master_seed, tag, replicate, draw)."""
    return next(streams(master_seed, tag, replicate, (draw,)))


def streams(master_seed: int, tag: int, replicate: int,
            draws: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield a generator for each draw index in ``draws``, in that order:
    the one yielded for draw r is keyed (master_seed, tag) and starts at
    counter (0, r, replicate, 0), each word taken modulo 2^64.

    One Philox is re-addressed for every draw, so each yielded generator
    is valid only until the next one is yielded.  Each call owns its
    Philox, so separate calls may run on separate threads.
    """
    key = [master_seed & _MASK64, tag & _MASK64]
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state    # fresh: empty buffer, no cached uint32
    # the state setter reads plain lists about twice as fast as arrays
    counter = [0, 0, replicate & _MASK64, 0]
    state["state"] = {"counter": counter, "key": key}
    state["buffer"] = state["buffer"].tolist()
    for r in draws:
        counter[1] = r & _MASK64
        bitgen.state = state
        yield gen
