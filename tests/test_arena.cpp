// Tests for the scale-oriented storage primitives behind the arena/SoA
// node-state refactor: util::Arena (bump allocation, O(1) reset with
// chunk reuse, stable addresses), util::BlockQueue (the NCU work queues)
// and util::FlatMap64 (the monitors' compact ledger). These are the
// structures a million-node cluster stands on; docs/PERF.md "Memory at
// scale" explains why each exists.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/expect.hpp"
#include "util/arena.hpp"
#include "util/block_queue.hpp"
#include "util/flat_map.hpp"

namespace fastnet::util {
namespace {

// ---- Arena ---------------------------------------------------------------

TEST(Arena, HandsOutDisjointWritableMemory) {
    Arena a;
    auto* x = a.allocate_uninitialized<std::uint64_t>(16);
    auto* y = a.allocate_uninitialized<std::uint64_t>(16);
    for (int i = 0; i < 16; ++i) x[i] = 100 + i;
    for (int i = 0; i < 16; ++i) y[i] = 200 + i;
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(x[i], 100u + i);
        EXPECT_EQ(y[i], 200u + i);
    }
    EXPECT_GE(a.bytes_used(), 32 * sizeof(std::uint64_t));
    EXPECT_GE(a.bytes_reserved(), a.bytes_used());
}

TEST(Arena, RespectsAlignmentRequests) {
    Arena a;
    for (std::size_t align : {1ul, 2ul, 4ul, 8ul, alignof(std::max_align_t)}) {
        a.allocate(1, 1);  // misalign the cursor
        void* p = a.allocate(8, align);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
    }
}

TEST(Arena, RejectsBadAlignment) {
    Arena a;
    EXPECT_THROW(a.allocate(8, 3), fastnet::ContractViolation);
    EXPECT_THROW(a.allocate(8, 0), fastnet::ContractViolation);
    EXPECT_THROW(a.allocate(8, alignof(std::max_align_t) * 2),
                 fastnet::ContractViolation);
}

TEST(Arena, AddressesAreStableAcrossFurtherAllocation) {
    // Chunks never move: growth adds chunks instead of reallocating, so
    // earlier objects keep their addresses (what lets runtimes hold raw
    // pointers into the arena for the cluster's lifetime).
    Arena a(64);  // tiny chunks force many chunk transitions
    std::vector<std::uint32_t*> ptrs;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        auto* p = a.allocate_uninitialized<std::uint32_t>(1);
        *p = i;
        ptrs.push_back(p);
    }
    EXPECT_GT(a.chunk_count(), 1u);
    for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(*ptrs[i], i);
}

TEST(Arena, IndexStabilityOfContiguousArrays) {
    // One allocation = one contiguous block: 32-bit indices into it are
    // stable however much else is allocated afterwards.
    Arena a;
    auto* block = a.allocate_uninitialized<std::uint64_t>(4096);
    for (std::uint32_t i = 0; i < 4096; ++i) block[i] = i;
    a.allocate(1 << 19);  // unrelated pressure
    a.allocate(1 << 19);
    for (std::uint32_t i = 0; i < 4096; ++i) EXPECT_EQ(block[i], i);
}

TEST(Arena, OversizeAllocationGetsDedicatedChunk) {
    Arena a(64);
    void* p = a.allocate(10000);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 10000);
    EXPECT_GE(a.bytes_used(), 10000u);
    EXPECT_GE(a.bytes_reserved(), 10000u);
}

TEST(Arena, ResetRetainsChunksAndReusesThem) {
    Arena a(256);
    for (int i = 0; i < 100; ++i) a.allocate(64);
    const std::size_t reserved = a.bytes_reserved();
    const std::size_t chunks = a.chunk_count();
    EXPECT_GT(chunks, 1u);

    a.reset();
    EXPECT_EQ(a.bytes_used(), 0u);
    EXPECT_EQ(a.bytes_reserved(), reserved);

    // A warm rebuild of the same shape must not grow the reservation.
    for (int i = 0; i < 100; ++i) a.allocate(64);
    EXPECT_EQ(a.bytes_reserved(), reserved);
    EXPECT_EQ(a.chunk_count(), chunks);
}

TEST(Arena, ZeroSizeAllocationYieldsDistinctAddresses) {
    Arena a;
    void* p = a.allocate(0);
    void* q = a.allocate(0);
    EXPECT_NE(p, q);
}

// ---- BlockQueue ----------------------------------------------------------

TEST(BlockQueue, HoldsMemoryOnlyWhileItHoldsWork) {
    using Q = BlockQueue<std::uint64_t>;
    Q q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.memory_bytes(), 0u);
    for (std::uint64_t i = 0; i < Q::kBlock + 1; ++i) q.push_back(i);
    const std::size_t two_blocks = q.memory_bytes();
    EXPECT_GT(two_blocks, 0u);
    for (std::uint32_t i = 0; i < Q::kBlock; ++i) q.pop_front();
    EXPECT_EQ(q.memory_bytes(), two_blocks / 2) << "a drained block goes back at once";
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.memory_bytes(), 0u);
}

TEST(BlockQueue, PreservesFifoOrderAcrossBlocks) {
    BlockQueue<int> q;
    int next_push = 0, next_pop = 0;
    // Bursts that cross many block boundaries, each drained partly, then
    // fully, so blocks are taken, returned and taken again mid-sequence.
    for (int burst = 1; burst <= 40; ++burst) {
        for (int i = 0; i < burst * 3; ++i) q.push_back(next_push++);
        while (q.size() > static_cast<std::size_t>(burst)) {
            ASSERT_EQ(q.front(), next_pop++);
            q.pop_front();
        }
    }
    while (!q.empty()) {
        ASSERT_EQ(q.front(), next_pop++);
        q.pop_front();
    }
    EXPECT_EQ(next_pop, next_push);
}

TEST(BlockQueue, RunsNonTrivialDestructors) {
    auto counter = std::make_shared<int>(0);
    {
        BlockQueue<std::shared_ptr<int>> q;
        for (int i = 0; i < 10; ++i) q.push_back(counter);
        EXPECT_EQ(counter.use_count(), 11);
        q.pop_front();
        q.pop_front();
        EXPECT_EQ(counter.use_count(), 9);
        BlockQueue<std::shared_ptr<int>> cleared;
        cleared.push_back(counter);
        cleared.clear();
        EXPECT_EQ(counter.use_count(), 9);
    }
    EXPECT_EQ(counter.use_count(), 1) << "the destructor destroys what is still queued";
}

TEST(BlockQueue, FrontAndPopOnEmptyAreContractViolations) {
    BlockQueue<int> q;
    EXPECT_THROW(q.front(), fastnet::ContractViolation);
    EXPECT_THROW(q.pop_front(), fastnet::ContractViolation);
}

// ---- FlatMap64 -----------------------------------------------------------

TEST(FlatMap64, InsertFindRoundTrip) {
    FlatMap64<std::uint64_t> m;
    for (std::uint64_t k = 0; k < 1000; ++k) m[k * 0x10001] = k;
    EXPECT_EQ(m.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        auto* v = m.find(k * 0x10001);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
    EXPECT_EQ(m.find(0xdeadbeefULL), nullptr);
}

TEST(FlatMap64, KeyZeroIsAnOrdinaryKey) {
    FlatMap64<int> m;
    EXPECT_EQ(m.find(0), nullptr);
    m[0] = 42;
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 42);
}

TEST(FlatMap64, EraseRemovesOnlyTheRequestedKey) {
    FlatMap64<std::uint64_t> m;
    for (std::uint64_t k = 0; k < 500; ++k) m[k * 0x10001] = k;
    EXPECT_FALSE(m.erase(0xdeadbeefULL));
    EXPECT_EQ(m.size(), 500u);
    for (std::uint64_t k = 0; k < 500; k += 3) EXPECT_TRUE(m.erase(k * 0x10001));
    for (std::uint64_t k = 0; k < 500; ++k) {
        auto* v = m.find(k * 0x10001);
        if (k % 3 == 0) {
            EXPECT_EQ(v, nullptr) << k;
        } else {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, k);
        }
    }
    EXPECT_EQ(m.size(), 500u - 167u);
}

TEST(FlatMap64, EraseBackwardShiftKeepsProbeRunsReachable) {
    // Backward-shift deletion must never strand an entry behind a hole
    // in its probe run. Churn insert/erase through a pseudo-random
    // schedule and audit the survivors against a reference set — any
    // probe-run corruption shows up as a key find() can no longer reach.
    FlatMap64<std::uint64_t> m;
    std::set<std::uint64_t> ref;
    std::uint64_t x = 88172645463325252ULL;
    auto next = [&x] {  // xorshift64: dense keys stress collision runs
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x % 4096;
    };
    for (int round = 0; round < 20000; ++round) {
        const std::uint64_t k = next();
        if (ref.count(k)) {
            EXPECT_TRUE(m.erase(k)) << k;
            ref.erase(k);
        } else {
            m[k] = k ^ 0xabcdULL;
            ref.insert(k);
        }
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const std::uint64_t k : ref) {
        auto* v = m.find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k ^ 0xabcdULL);
    }
    std::size_t occupied = 0;
    for (const auto& e : m.raw_entries())
        if (e.occupied) {
            ++occupied;
            EXPECT_TRUE(ref.count(e.key)) << e.key;
        }
    EXPECT_EQ(occupied, ref.size());
}

TEST(FlatMap64, EraseToEmptyThenReuse) {
    FlatMap64<int> m;
    for (std::uint64_t k = 0; k < 32; ++k) m[k] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 32; ++k) EXPECT_TRUE(m.erase(k));
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.erase(7));
    m[7] = 99;
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 99);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64, RawEntriesExposeExactlyTheOccupiedSet) {
    FlatMap64<std::uint64_t> m;
    std::set<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 64; ++k) {
        m[k * k] = k;
        keys.insert(k * k);
    }
    std::set<std::uint64_t> seen;
    for (const auto& e : m.raw_entries())
        if (e.occupied) seen.insert(e.key);
    EXPECT_EQ(seen, keys);
}

}  // namespace
}  // namespace fastnet::util
