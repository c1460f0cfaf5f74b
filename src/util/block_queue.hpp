// FIFO stored in fixed-size blocks drawn from a per-thread free list.
//
// The NCU work queues of a Section 3 maintenance storm (ROADMAP P1) hold
// ~243k deliveries at the peak of a round's burst, ~500 per node, and are
// empty between bursts. A ring per node keeps the capacity of its
// largest burst for the node's lifetime and leaves every smaller buffer
// it outgrew as a hole; the last rounds' bursts put the largest buffers
// on top of the heap, and releasing the cluster handed ~30 MB back to
// the OS (glibc trims the top of the heap): about 4 ms per P1 cluster on
// a 4-vCPU VM (docs/PERF.md, "An allocation-free message path").
// A BlockQueue takes blocks of kBlock items from a free list kept per
// thread and returns them the moment they drain: a queue holds memory
// only while it holds work, a burst reuses the blocks the last one
// returned, and so does the next cluster the thread builds. The free
// list keeps at most kMaxFreeBlocks blocks; it frees the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/expect.hpp"

namespace fastnet::util {

template <typename T>
class BlockQueue {
public:
    static constexpr std::uint32_t kBlock = 4;
    static constexpr std::size_t kMaxFreeBlocks = std::size_t{1} << 16;

    BlockQueue() = default;
    BlockQueue(const BlockQueue&) = delete;
    BlockQueue& operator=(const BlockQueue&) = delete;
    ~BlockQueue() { clear(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void push_back(T value) {
        if (tail_ == nullptr || tail_used_ == kBlock) {
            Block* b = free_list().take();
            (tail_ == nullptr ? head_ : tail_->next) = b;
            tail_ = b;
            tail_used_ = 0;
        }
        ::new (static_cast<void*>(tail_->slot(tail_used_++))) T(std::move(value));
        ++size_;
    }

    T& front() {
        FASTNET_EXPECTS(size_ != 0);
        return *head_->slot(head_next_);
    }

    void pop_front() {
        FASTNET_EXPECTS(size_ != 0);
        head_->slot(head_next_++)->~T();
        --size_;
        if (size_ == 0) {
            free_list().give(head_);
            head_ = tail_ = nullptr;
            head_next_ = tail_used_ = 0;
        } else if (head_next_ == kBlock) {
            Block* next = head_->next;
            free_list().give(head_);
            head_ = next;
            head_next_ = 0;
        }
    }

    /// Destroys all queued items and returns their blocks.
    void clear() {
        while (size_ != 0) pop_front();
    }

    /// Bytes of the blocks this queue holds, for the memory ledger.
    std::size_t memory_bytes() const {
        return (head_next_ + size_ + kBlock - 1) / kBlock * sizeof(Block);
    }

private:
    struct Block {
        /// Storage for one item, constructed and destroyed by the queue.
        union Slot {
            Slot() {}
            ~Slot() {}
            T item;
        };
        Slot slots[kBlock];
        Block* next = nullptr;
        T* slot(std::uint32_t i) { return &slots[i].item; }
    };

    class FreeList {
    public:
        FreeList() = default;
        FreeList(const FreeList&) = delete;
        FreeList& operator=(const FreeList&) = delete;
        ~FreeList() {
            while (head_ != nullptr) delete std::exchange(head_, head_->next);
        }
        Block* take() {
            if (head_ == nullptr) return new Block;
            Block* b = std::exchange(head_, head_->next);
            --count_;
            b->next = nullptr;
            return b;
        }
        void give(Block* b) {
            if (count_ == kMaxFreeBlocks) {
                delete b;
                return;
            }
            b->next = std::exchange(head_, b);
            ++count_;
        }

    private:
        Block* head_ = nullptr;
        std::size_t count_ = 0;
    };

    /// Blocks move freely between threads: a queue returns its blocks to
    /// the list of whichever thread drains it.
    static FreeList& free_list() {
        thread_local FreeList list;
        return list;
    }

    Block* head_ = nullptr;
    Block* tail_ = nullptr;
    std::uint32_t head_next_ = 0;  ///< Next item to pop in head_.
    std::uint32_t tail_used_ = 0;  ///< Items constructed in tail_.
    std::size_t size_ = 0;
};

}  // namespace fastnet::util
