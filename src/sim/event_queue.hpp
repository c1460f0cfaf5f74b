// Deterministic discrete-event queue, pool-backed.
//
// Events at equal timestamps execute in schedule order (a monotone
// sequence number breaks ties), so a run is a pure function of the seed
// and the protocol code — essential for reproducing the paper's exact
// integer cost accounting and for property tests that replay schedules.
//
// Storage layout (the fast path the benches in bench_sim_core pin):
//   - Event state lives in fixed-size slabs of slots; a slot holds the
//     callback (InlineFn — no per-event allocation for hot captures), the
//     timestamp, the tie-break sequence number and a generation counter.
//     Slots are recycled through a LIFO free list, so steady-state
//     schedule/run cycles never touch the allocator.
//   - EventId packs {generation, slot}: cancel() is an O(1) slot lookup
//     plus a generation check (stale or already-run ids are no-ops), not
//     a scan of a cancelled-list.
//   - Ordering is hybrid (the ladder-queue idea, simplified): schedule()
//     appends a 16-byte {time, seq|slot} record to an *unsorted* staging
//     buffer — O(1), sequential memory. At drain time a large staged
//     batch is std::sort'ed and merged into a sorted run consumed by a
//     cursor (sorting is far more cache-friendly than sifting each
//     record through a big heap), while small interleaved batches go
//     into a 4-ary min-heap of the same records (children share a cache
//     line; half the depth of a binary heap). A pop takes the smaller of
//     the two fronts, so the exact (time, seq) total order is preserved.
//     A record whose seq no longer matches its slot is a cancelled
//     leftover, skipped lazily.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "sim/inline_fn.hpp"

namespace fastnet::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
/// Layout: high 32 bits = slot generation, low 32 bits = slot index.
using EventId = std::uint64_t;

class EventQueue {
public:
    /// Schedules `fn` at absolute time `at` (must be >= the time of the
    /// event currently executing). Returns a handle for cancel().
    EventId schedule(Tick at, InlineFn fn);

    /// Like schedule(), but the caller supplies the tie-break priority
    /// instead of the queue's monotone counter: events at equal `at`
    /// execute in ascending `pri` order. Priorities must be unique across
    /// the queue's lifetime (they double as the slot-liveness check) and
    /// < 2^40. The parallel kernel uses this to give every event a
    /// priority derived from its *scheduling context* rather than from
    /// the global call order, which is what makes a sharded run's event
    /// order independent of how work interleaves across shards. A queue
    /// that has seen one keyed schedule must stay keyed: mixing modes
    /// would collide caller priorities with counter values.
    EventId schedule_keyed(Tick at, std::uint64_t pri, InlineFn fn);

    /// Cancels a pending event in O(1); no-op if it already ran or was
    /// cancelled (the generation tag makes stale handles harmless).
    void cancel(EventId id);

    bool empty() const { return live_count_ == 0; }
    std::size_t size() const { return live_count_; }

    /// Time of the earliest pending event; kNever when empty.
    Tick next_time() const {
        auto* self = const_cast<EventQueue*>(this);
        const HeapRec* front = self->front();
        return front == nullptr ? kNever : front->at;
    }

    /// Pops and runs the earliest event. Returns its timestamp.
    /// Precondition: !empty().
    Tick run_next();

    /// Fused peek+pop for the simulator's run loop: if the earliest event
    /// is at or before `until`, sets `clock` to its timestamp, runs it and
    /// returns that timestamp; otherwise runs nothing and returns kNever.
    /// Touches the heap front once per event instead of twice
    /// (next_time + run_next). `clock` is written *before* the handler
    /// executes so re-entrant reads of the simulation time are exact.
    Tick run_next_bounded(Tick until, Tick& clock);

private:
    // One pooled event. `seq` doubles as the liveness check for heap
    // records (it is globally unique across the queue's lifetime); `gen`
    // validates EventIds across slot reuse.
    struct Slot {
        InlineFn fn;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        bool live = false;
    };

    // Heap record: 16 bytes. `key` packs (seq << kSlotBits) | slot — seq
    // is globally unique, so comparing keys compares seqs, and the slot
    // rides along for free.
    struct HeapRec {
        Tick at;
        std::uint64_t key;
        std::uint32_t slot() const { return static_cast<std::uint32_t>(key & (kMaxSlots - 1)); }
        std::uint64_t seq() const { return key >> kSlotBits; }
        bool before(const HeapRec& o) const {
            return at != o.at ? at < o.at : key < o.key;
        }
    };

    static constexpr std::uint32_t kSlabBits = 8;  // 256 slots per slab
    static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;
    static constexpr std::uint32_t kSlotBits = 24;  // <= 16.7M concurrently pending
    static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
    static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

    Slot& slot(std::uint32_t index) {
        return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
    }
    const Slot& slot(std::uint32_t index) const {
        return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
    }

    std::uint32_t alloc_slot();
    void free_slot(std::uint32_t index);

    // A heap record is current iff its seq still matches its slot's.
    bool stale(const HeapRec& r) const {
        const Slot& s = slot(r.slot());
        return !s.live || s.seq != r.seq();
    }

    void heap_push(HeapRec r);
    void heap_pop();

    /// Moves staged records into an ordered structure (sort+merge for
    /// large batches, heap pushes for small ones).
    void flush_staging();

    /// Exact (at, key) sort of a staging batch: stable radix by time for
    /// large batches (append order already supplies the seq tie-break),
    /// std::sort below the radix break-even point.
    void sort_batch(std::vector<HeapRec>& a);

    /// Flushes, skips stale fronts, and returns a pointer to the earliest
    /// record (inside sorted_ or heap_), or nullptr when drained. Call
    /// pop_front() to consume exactly that record.
    const HeapRec* front();
    void pop_front();

    /// Consumes `top` (which front() just returned): pops it, sets
    /// `clock`, runs its callback in place, then recycles the slot.
    Tick dispatch(HeapRec top, Tick& clock);

    // Slabs give slots stable addresses (no reallocation moves of live
    // callbacks) and allocator-free recycling.
    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::uint32_t> free_slots_;  // LIFO: hot slots stay cache-warm
    std::vector<HeapRec> staging_;           // unsorted, append-only
    std::vector<HeapRec> sorted_;            // ascending; consumed from cursor_
    std::vector<HeapRec> merge_buf_;         // scratch for sort+merge flushes
    std::vector<HeapRec> scratch_;           // radix-sort ping-pong buffer
    std::size_t cursor_ = 0;
    std::vector<HeapRec> heap_;              // 4-ary min-heap by (at, seq)
    std::uint64_t next_seq_ = 0;
    std::size_t live_count_ = 0;
    // Set by the first schedule_keyed(): caller priorities need not follow
    // append order, so sort_batch checks a batch's key order before it
    // relies on the staging order for the tie-break.
    bool keyed_ = false;
};

}  // namespace fastnet::sim
