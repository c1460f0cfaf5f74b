// Bump-pointer arena for node-state storage at scale.
//
// A million-node cluster cannot afford one heap object per node: the
// allocator's per-block bookkeeping and the pointer indirection dominate
// the state itself (docs/PERF.md, "Memory at scale"). The Arena packs
// per-node records into large chunks with amortized-one allocation per
// chunk, hands out stable addresses (chunks never move or grow), and
// resets in O(1) by retaining its chunks for the next build. Callers that
// need to reference arena objects across containers use 32-bit indices
// into their own typed spans rather than pointers — half the size, and
// trivially serializable.
//
// The arena is not a general allocator: there is no per-object free.
// Everything allocated between two reset() calls has one common lifetime
// (exactly the shape of cluster construction), and objects with
// non-trivial destructors are the caller's responsibility to destroy
// before reset() — see ParallelCluster's per-shard runtime arrays for the
// idiom.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/expect.hpp"

namespace fastnet::util {

class Arena {
public:
    /// Default chunk payload; allocations larger than this get a
    /// dedicated chunk of exactly their size.
    static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunk_bytes_(chunk_bytes) {
        FASTNET_EXPECTS(chunk_bytes >= 64);
    }

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// Raw allocation. `align` must be a power of two no larger than
    /// alignof(std::max_align_t); chunks are max-aligned, so aligning the
    /// bump cursor suffices.
    void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
        FASTNET_EXPECTS(align != 0 && (align & (align - 1)) == 0);
        FASTNET_EXPECTS(align <= alignof(std::max_align_t));
        if (size == 0) size = 1;
        std::size_t aligned = (cursor_ + align - 1) & ~(align - 1);
        if (current_ == nullptr || aligned + size > current_->size) {
            next_chunk(size < chunk_bytes_ ? chunk_bytes_ : size);
            aligned = 0;
        }
        cursor_ = aligned + size;
        used_ += size;
        return current_->bytes.get() + aligned;
    }

    /// Typed uninitialized array of `count` objects. The caller placement-
    /// news into it (or memset / copies, for trivial T). T must not be
    /// over-aligned beyond max_align_t.
    template <typename T>
    T* allocate_uninitialized(std::size_t count) {
        static_assert(alignof(T) <= alignof(std::max_align_t));
        return static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
    }

    /// O(1) reset: every previous allocation is invalidated, chunks are
    /// retained for reuse (bytes_reserved() is unchanged; bytes_used()
    /// drops to zero). Warm rebuild therefore touches the allocator zero
    /// times until the build outgrows the previous one.
    void reset() {
        next_ = 0;
        current_ = nullptr;
        cursor_ = 0;
        used_ = 0;
    }

    /// Logical bytes handed out since the last reset (excludes alignment
    /// padding — the metered quantity in cost::Metrics).
    std::size_t bytes_used() const { return used_; }
    /// Bytes held from the system across all chunks (>= bytes_used()).
    std::size_t bytes_reserved() const { return reserved_; }
    std::size_t chunk_count() const { return chunks_.size(); }

private:
    struct Chunk {
        std::unique_ptr<std::byte[]> bytes;
        std::size_t size = 0;
    };

    void next_chunk(std::size_t min_size) {
        // Reuse retained chunks in order; allocate only past the end.
        while (next_ < chunks_.size() && chunks_[next_].size < min_size) ++next_;
        if (next_ == chunks_.size()) {
            Chunk c;
            // operator new[] guarantees fundamental (max_align_t) alignment.
            c.bytes = std::make_unique<std::byte[]>(min_size);
            c.size = min_size;
            reserved_ += min_size;
            chunks_.push_back(std::move(c));
        }
        current_ = &chunks_[next_++];
        cursor_ = 0;
    }

    std::size_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    std::size_t next_ = 0;        ///< First retained chunk not yet reused.
    Chunk* current_ = nullptr;
    std::size_t cursor_ = 0;      ///< Bump offset within current_.
    std::size_t used_ = 0;
    std::size_t reserved_ = 0;
};

}  // namespace fastnet::util
