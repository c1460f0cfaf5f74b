#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace fastnet::sim {

namespace {
constexpr std::uint32_t kSlotMask = 0xffff'ffffu;

constexpr std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id & kSlotMask); }
constexpr std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
constexpr EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
}

// Staged batches at or below this size are sifted into the heap; larger
// ones take the sort+merge path. Small enough that interleaved
// schedule/run traffic (a handler scheduling a handful of events) never
// pays a merge, large enough that mass scheduling amortizes the sort.
constexpr std::size_t kSmallBatch = 32;
}  // namespace

std::uint32_t EventQueue::alloc_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t index = free_slots_.back();
        free_slots_.pop_back();
        return index;
    }
    const auto base = static_cast<std::uint32_t>(slabs_.size() << kSlabBits);
    FASTNET_EXPECTS_MSG(base + kSlabSize <= kMaxSlots, "too many concurrently pending events");
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    // Hand out the new slab's slots low-to-high (push high-to-low so the
    // LIFO free list pops them in index order — keeps ids predictable).
    free_slots_.reserve(free_slots_.size() + kSlabSize - 1);
    for (std::uint32_t i = kSlabSize; i-- > 1;) free_slots_.push_back(base + i);
    return base;
}

void EventQueue::free_slot(std::uint32_t index) {
    Slot& s = slot(index);
    s.live = false;
    s.fn.reset();
    free_slots_.push_back(index);
}

// 4-ary heap: children of i are 4i+1..4i+4. With 16-byte records the four
// children straddle at most two cache lines, and the tree is half as deep
// as a binary heap's, which is what the sift-down pays per level.
void EventQueue::heap_push(HeapRec r) {
    heap_.push_back(r);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!heap_[i].before(heap_[parent])) break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void EventQueue::heap_pop() {
    const HeapRec moved = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (heap_[c].before(heap_[best])) best = c;
        if (!heap_[best].before(moved)) break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = moved;
}

// Sorts `a` into exact (at, key) order. When the batch's keys already
// follow append order — always in counter mode (monotone seqs), and
// usually with caller priorities, since one handler's events share its
// scheduling context and draw increasing counters — a *stable* sort by
// `at` alone is enough, and large batches take a byte-wise LSD radix
// sort. Other batches take the comparison sort. The radix path is
// O(bytes-that-vary * n) sequential passes, no comparison mispredicts,
// which beats std::sort by ~8x on big shuffled batches. `at` is
// guaranteed non-negative (schedule checks), so unsigned byte order
// matches signed order.
void EventQueue::sort_batch(std::vector<HeapRec>& a) {
    const auto by_key = [](const HeapRec& x, const HeapRec& y) { return x.key < y.key; };
    if (a.size() < 512 || (keyed_ && !std::is_sorted(a.begin(), a.end(), by_key))) {
        std::sort(a.begin(), a.end(),
                  [](const HeapRec& x, const HeapRec& y) { return x.before(y); });
        return;
    }
    Tick lo = a.front().at, hi = a.front().at;
    for (const HeapRec& r : a) {
        lo = r.at < lo ? r.at : lo;
        hi = r.at > hi ? r.at : hi;
    }
    // Bytes above the highest bit of lo^hi are identical across the whole
    // batch — only the low `bytes` positions need passes.
    std::uint64_t diff = static_cast<std::uint64_t>(lo) ^ static_cast<std::uint64_t>(hi);
    int bytes = 0;
    while (diff != 0) {
        ++bytes;
        diff >>= 8;
    }
    if (bytes == 0) return;  // all timestamps equal: append order is the answer
    scratch_.resize(a.size());
    std::vector<HeapRec>* src = &a;
    std::vector<HeapRec>* dst = &scratch_;
    for (int b = 0; b < bytes; ++b) {
        const int shift = 8 * b;
        std::size_t count[256] = {};
        for (const HeapRec& r : *src)
            ++count[(static_cast<std::uint64_t>(r.at) >> shift) & 0xff];
        std::size_t pos[256];
        std::size_t run = 0;
        for (int i = 0; i < 256; ++i) {
            pos[i] = run;
            run += count[i];
        }
        if (run == count[(static_cast<std::uint64_t>((*src)[0].at) >> shift) & 0xff])
            continue;  // byte constant across the batch: pass is a no-op
        for (const HeapRec& r : *src)
            (*dst)[pos[(static_cast<std::uint64_t>(r.at) >> shift) & 0xff]++] = r;
        std::swap(src, dst);
    }
    if (src != &a) a.swap(scratch_);
}

void EventQueue::flush_staging() {
    const std::size_t remaining = sorted_.size() - cursor_;
    if (staging_.size() <= kSmallBatch || staging_.size() * 8 < remaining) {
        // Small (or small relative to the sorted run): sift individually.
        for (const HeapRec& r : staging_) heap_push(r);
        staging_.clear();
        return;
    }
    sort_batch(staging_);
    if (remaining == 0) {
        sorted_.swap(staging_);
    } else {
        merge_buf_.clear();
        merge_buf_.reserve(remaining + staging_.size());
        std::merge(sorted_.begin() + static_cast<std::ptrdiff_t>(cursor_), sorted_.end(),
                   staging_.begin(), staging_.end(), std::back_inserter(merge_buf_),
                   [](const HeapRec& a, const HeapRec& b) { return a.before(b); });
        sorted_.swap(merge_buf_);
    }
    cursor_ = 0;
    staging_.clear();  // keeps capacity — steady-state appends stay allocation-free
}

const EventQueue::HeapRec* EventQueue::front() {
    if (!staging_.empty()) flush_staging();
    // Skip cancelled leftovers at both fronts.
    while (cursor_ < sorted_.size() && stale(sorted_[cursor_])) ++cursor_;
    while (!heap_.empty() && stale(heap_.front())) heap_pop();
    const bool have_sorted = cursor_ < sorted_.size();
    if (!have_sorted && heap_.empty()) {
        sorted_.clear();
        cursor_ = 0;
        return nullptr;
    }
    if (have_sorted &&
        (heap_.empty() || sorted_[cursor_].before(heap_.front())))
        return &sorted_[cursor_];
    return &heap_.front();
}

void EventQueue::pop_front() {
    // Precondition: front() just returned non-null; the same winner is
    // still at its front.
    if (cursor_ < sorted_.size() &&
        (heap_.empty() || sorted_[cursor_].before(heap_.front()))) {
        ++cursor_;
        return;
    }
    heap_pop();
}

EventId EventQueue::schedule(Tick at, InlineFn fn) {
    FASTNET_EXPECTS(static_cast<bool>(fn));
    FASTNET_EXPECTS(at >= 0);
    FASTNET_EXPECTS_MSG(next_seq_ < kMaxSeq, "event sequence space exhausted");
    const std::uint32_t index = alloc_slot();
    Slot& s = slot(index);
    s.gen += 1;  // distinguishes this tenancy from any outstanding stale id
    s.seq = next_seq_++;
    s.live = true;
    s.fn = std::move(fn);
    staging_.push_back(HeapRec{at, (s.seq << kSlotBits) | index});
    ++live_count_;
    return make_id(s.gen, index);
}

EventId EventQueue::schedule_keyed(Tick at, std::uint64_t pri, InlineFn fn) {
    FASTNET_EXPECTS(static_cast<bool>(fn));
    FASTNET_EXPECTS(at >= 0);
    FASTNET_EXPECTS_MSG(pri < kMaxSeq, "keyed priority out of range");
    keyed_ = true;
    const std::uint32_t index = alloc_slot();
    Slot& s = slot(index);
    s.gen += 1;
    s.seq = pri;
    s.live = true;
    s.fn = std::move(fn);
    staging_.push_back(HeapRec{at, (pri << kSlotBits) | index});
    ++live_count_;
    return make_id(s.gen, index);
}

void EventQueue::cancel(EventId id) {
    const std::uint32_t index = slot_of(id);
    if (index >= (slabs_.size() << kSlabBits)) return;
    Slot& s = slot(index);
    if (!s.live || s.gen != gen_of(id)) return;  // already ran / cancelled / recycled
    free_slot(index);
    --live_count_;
    // Any staged/sorted/heap record stays behind; the fronts skip it by
    // its now-mismatched seq when it surfaces.
}

// Pops and invokes the record's callback *in place*. The slot is marked
// dead (so a re-entrant cancel of the running event is a no-op) but not
// put back on the free list until after the handler returns, so nothing
// the handler schedules can be assigned this slot while its closure is
// still alive. Slab storage is address-stable, so re-entrant schedule()
// calls cannot move it either. Skipping the move-out saves an indirect
// call plus a 48-byte copy per event.
Tick EventQueue::dispatch(const HeapRec top, Tick& clock) {
    pop_front();
    // Prefetch the *next* winner's slot so its cache-line miss overlaps
    // the current handler's execution (the sorted run makes it known).
    if (cursor_ < sorted_.size())
        __builtin_prefetch(&slot(sorted_[cursor_].slot()));
    else if (!heap_.empty())
        __builtin_prefetch(&slot(heap_.front().slot()));
    Slot& s = slot(top.slot());
    s.live = false;
    --live_count_;
    clock = top.at;  // advance the caller's clock before the handler runs
    s.fn();
    s.fn.reset();
    free_slots_.push_back(top.slot());
    return top.at;
}

Tick EventQueue::run_next() {
    const HeapRec* front_rec = front();
    FASTNET_EXPECTS_MSG(front_rec != nullptr, "run_next on empty queue");
    Tick discard;
    return dispatch(*front_rec, discard);
}

Tick EventQueue::run_next_bounded(Tick until, Tick& clock) {
    const HeapRec* front_rec = front();
    if (front_rec == nullptr || front_rec->at > until) return kNever;
    return dispatch(*front_rec, clock);
}

}  // namespace fastnet::sim
