// Tests for the common kernel: contracts, RNG determinism, integer math.
#include <gtest/gtest.h>

#include <set>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace fastnet {
namespace {

TEST(Expect, PassingCheckIsSilent) {
    EXPECT_NO_THROW(FASTNET_EXPECTS(1 + 1 == 2));
    EXPECT_NO_THROW(FASTNET_ENSURES(true));
}

TEST(Expect, FailingPreconditionThrowsContractViolation) {
    EXPECT_THROW(FASTNET_EXPECTS(false), ContractViolation);
    EXPECT_THROW(FASTNET_EXPECTS_MSG(false, "ctx"), ContractViolation);
}

TEST(Expect, MessageNamesTheExpressionAndContext) {
    try {
        FASTNET_EXPECTS_MSG(2 > 3, "my context");
        FAIL() << "should have thrown";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 > 3"), std::string::npos);
        EXPECT_NE(what.find("my context"), std::string::npos);
    }
}

TEST(Rng, SameSeedSameStream) {
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next()) ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
    Rng r(7);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
    Rng r(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, ChanceZeroAndOne) {
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0, 10));
        EXPECT_TRUE(r.chance(10, 10));
    }
}

TEST(Rng, PermutationIsAPermutation) {
    Rng r(17);
    const auto p = r.permutation(50);
    std::set<std::uint32_t> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), 50u);
    EXPECT_EQ(*s.begin(), 0u);
    EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
    Rng a(23);
    Rng child = a.fork();
    // Child must not replay the parent stream.
    Rng a2(23);
    (void)a2.next();  // same draw the fork consumed
    EXPECT_NE(child.next(), a2.next());
}

// ---- cross-platform stream stability ------------------------------------
// xoshiro256++/splitmix64 are pure 64-bit integer recurrences, so every
// stream is bit-exact on any conforming platform. These golden values pin
// that down: a refactor that silently changes seeding, fork order
// semantics or stream derivation breaks reproducibility of every seeded
// experiment in the repo, and must show up here first.

TEST(Rng, GoldenRawStream) {
    Rng r(123);
    EXPECT_EQ(r.next(), 11913805753561946234ull);
    EXPECT_EQ(r.next(), 15461216248872658478ull);
}

TEST(Rng, GoldenPerNodeForkStreams) {
    // ParallelCluster forks the protocol streams from the master in node
    // order; the first draw of nodes 0 and 1 under master seed 42 is
    // load-bearing for every default-config simulation.
    Rng master(42);
    Rng node0 = master.fork();
    Rng node1 = master.fork();
    EXPECT_EQ(node0.next(), 11061806072122077463ull);
    EXPECT_EQ(node1.next(), 11103674674314088501ull);
}

TEST(Rng, GoldenTaskStreams) {
    Rng s0 = Rng::stream(42, 0);
    EXPECT_EQ(s0.next(), 1173605832601359775ull);
    EXPECT_EQ(s0.next(), 2577965015408705928ull);
    EXPECT_EQ(Rng::stream(42, 1).next(), 5912107648147866747ull);
    EXPECT_EQ(Rng::stream(7, 0).next(), 15877132756158354588ull);
}

TEST(Rng, StreamIsIndependentOfDerivationOrder) {
    // stream() is a pure function: deriving other streams first (in any
    // order, from any thread) cannot change what stream k yields —
    // unlike fork(), which consumes parent draws.
    std::vector<std::uint64_t> forward, backward;
    for (int k = 0; k < 8; ++k) forward.push_back(Rng::stream(99, k).next());
    for (int k = 7; k >= 0; --k)
        backward.insert(backward.begin(), Rng::stream(99, k).next());
    EXPECT_EQ(forward, backward);
    std::set<std::uint64_t> unique(forward.begin(), forward.end());
    EXPECT_EQ(unique.size(), forward.size());
}

TEST(Rng, StreamsDecorrelatedAcrossMasterSeeds) {
    // Task index k under different master seeds must not collide (the
    // classic seed+k pitfall the derivation avoids).
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull})
        for (std::uint64_t k = 0; k < 16; ++k) seen.insert(Rng::stream(seed, k).next());
    EXPECT_EQ(seen.size(), 64u);
}

TEST(Types, FloorLog2) {
    EXPECT_EQ(floor_log2(1), 0u);
    EXPECT_EQ(floor_log2(2), 1u);
    EXPECT_EQ(floor_log2(3), 1u);
    EXPECT_EQ(floor_log2(4), 2u);
    EXPECT_EQ(floor_log2(1023), 9u);
    EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(Types, CeilLog2) {
    EXPECT_EQ(ceil_log2(1), 0u);
    EXPECT_EQ(ceil_log2(2), 1u);
    EXPECT_EQ(ceil_log2(3), 2u);
    EXPECT_EQ(ceil_log2(4), 2u);
    EXPECT_EQ(ceil_log2(5), 3u);
    EXPECT_EQ(ceil_log2(1024), 10u);
    EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Types, ModelPresets) {
    constexpr auto fast = ModelParams::fast_network();
    EXPECT_EQ(fast.hop_delay, 0);
    EXPECT_EQ(fast.ncu_delay, 1);
    constexpr auto trad = ModelParams::traditional();
    EXPECT_EQ(trad.hop_delay, 1);
    EXPECT_EQ(trad.ncu_delay, 0);
}

}  // namespace
}  // namespace fastnet
