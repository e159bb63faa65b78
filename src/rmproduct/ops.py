"""The decoder's cost model: arithmetic-operation and dependency-depth tallies.

The counts are modeled, not measured.  Each step below gives its work on one
fiber of a component code of length n = 2^m and dimension k, and its serial
depth, from the code's size alone: never from the values decoded or their
memory layout.  `product.decode_ops` sums the steps of a decode over its axes
and iterations.
"""

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Work performed by a decoding call tree.

    `add_sub` counts additions/subtractions (butterfly stages, max-log
    differences), `compare` counts pairwise comparisons inside max/min/argmax
    scans, and `sign_mult` counts sign products of the min-sum rule.  `depth`
    is the serial depth of the dependency chain: operations on distinct
    fibers/lanes count once, stages and iterations add up.

    A counter is owned by its caller; there is no global state, so
    concurrent decodes with separate counters never interact.
    """

    add_sub: int = 0
    compare: int = 0
    sign_mult: int = 0
    depth: int = 0

    def total(self) -> int:
        """Counted operations, excluding depth."""
        return self.add_sub + self.compare + self.sign_mult

    def add(self, step: "OpCounter", fibers: int, calls: int = 1) -> None:
        """Count `calls` runs of the per-fiber `step`, each on `fibers` fibers
        side by side: every fiber's work, and the step's depth once a run."""
        self.add_sub += calls * fibers * step.add_sub
        self.compare += calls * fibers * step.compare
        self.sign_mult += calls * fibers * step.sign_mult
        self.depth += calls * step.depth


def fht_step(code) -> OpCounter:
    """The Walsh-Hadamard transform: m butterfly stages of n add/subs."""
    return OpCounter(add_sub=code.n * code.m, depth=code.m)


def info_bit_step(code) -> OpCounter:
    """Max-log LLRs of the m+1 information bits from the spectrum: the best
    positive and negative entries, 2(n-1) compares and an add, then for each
    bit a max over each of the two halves it splits the spectrum into,
    n-2 compares and an add.  The in-place fold reads about 3n entries
    instead, but the maxes over both halves are the work counted."""
    return OpCounter(add_sub=1 + code.m, compare=2 * (code.n - 1) + code.m * (code.n - 2), depth=code.m + 1)


def min_sum_step(code) -> OpCounter:
    """Min-sum re-expansion of the m+1 information LLRs to the n positions:
    n-1 compares and n-1 sign XORs, one prefix doubling per bit."""
    return OpCounter(compare=code.n - 1, sign_mult=code.n - 1, depth=code.m)


def spectrum_search_step(code) -> OpCounter:
    """Hard FHT-ML after the transform: the spectrum entry of largest
    magnitude, n-1 compares in a tree of depth m."""
    return OpCounter(compare=code.n - 1, depth=code.m)


def exhaustive_search_step(code, soft: bool) -> OpCounter:
    """Correlation with all 2^k codewords, 2^k (n-1) add/subs.  Hard ML then
    picks the best, 2^k - 1 compares; soft MAP takes at each position the
    best codeword with a 0 there minus the best with a 1, n (2^k - 2)
    compares and n subtractions."""
    n, words, depth = code.n, 1 << code.k, code.m + code.k
    if soft:
        return OpCounter(add_sub=words * (n - 1) + n, compare=n * (words - 2), depth=depth + 1)
    return OpCounter(add_sub=words * (n - 1), compare=words - 1, depth=depth)


def parity_check_step(code) -> OpCounter:
    """The closed-form max-log MAP of a single-parity-check code: a scan of
    3(n-1) compares and n-1 sign XORs, then at each position a tie test, a
    sign XOR and an add, in a chain of depth n."""
    return OpCounter(add_sub=code.n, compare=4 * code.n - 3, sign_mult=2 * code.n - 1, depth=code.n)
