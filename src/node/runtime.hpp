// Per-node NCU runtime: the serial software processor.
//
// Work items (start requests, packet deliveries, link notifications,
// timer fires) queue at the NCU and are processed one at a time; each
// occupies the processor for P ticks (optionally jittered downwards —
// P is a worst-case bound in the model). The protocol handler executes
// at the *end* of its processing window, so a message received at time t
// has fully taken effect by t + P, matching the accounting Section 5's
// recursion relies on ("the last message must be received no later than
// t - P"). FIFO arrival order is preserved by the queue.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "cost/metrics.hpp"
#include "hw/network.hpp"
#include "node/protocol.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/arena.hpp"
#include "util/block_queue.hpp"

namespace fastnet::node {

class NodeRuntime final : public Context {
public:
    /// `free_multisend` — the model feature validated on PARIS: all
    /// packets injected within one handler leave at once at no extra
    /// processing cost. When false (ablation A1), the i-th send of a
    /// handler leaves i*P later and the NCU stays busy until the last
    /// one has left.
    ///
    /// `arena` backs the link table: the LocalLink array is
    /// bump-allocated with the arena's lifetime, so a runtime holds no
    /// per-node heap object of its own.
    NodeRuntime(NodeId self, hw::Network& net, std::unique_ptr<Protocol> protocol, Rng rng,
                util::Arena& arena, Tick ncu_delay_min = -1, bool free_multisend = true);

    NodeRuntime(const NodeRuntime&) = delete;
    NodeRuntime& operator=(const NodeRuntime&) = delete;

    /// Attaches an observational trace (may be null).
    void set_trace(std::shared_ptr<sim::Trace> trace) { trace_ = std::move(trace); }

    /// Routes this runtime's handler completions into the always-on
    /// profiler (cost::Metrics::profiler) under the given protocol id
    /// (from Profiler::register_protocol). kNoProtocol (the default)
    /// records nothing. Survives crash/restart — the fresh instance
    /// keeps the same protocol name.
    void set_profile_id(std::uint16_t id) { profile_id_ = id; }
    std::uint16_t profile_id() const { return profile_id_; }

    /// Enqueues a spontaneous start at simulated time `at`.
    void request_start(Tick at);

    /// Called by the network fabric (registered as the NCU sink); the
    /// delivery moves into the work queue.
    void on_delivery(hw::Delivery&& d);

    /// Called by the network fabric on data-link notifications.
    void on_link_notification(EdgeId e, bool up);

    Protocol& protocol() { return *protocol_; }
    const Protocol& protocol() const { return *protocol_; }

    /// True when no work is queued or in progress.
    bool ncu_idle() const { return ncu_ == Ncu::kIdle && queue_.empty(); }

    // ---- crash-recovery (driven by ParallelCluster) -------------------
    /// Crash semantics, as opposed to mere link-down: all soft state dies.
    /// Queued work is discarded, pending timers are cancelled, the
    /// in-progress handler (if any) never completes, and anything the
    /// previous incarnation scheduled is suppressed. Idempotent.
    void crash();

    /// Brings the node back with `fresh` as its protocol instance (the
    /// old one is destroyed — crashes don't preserve protocol state).
    /// Re-learns link states from the network (data-link re-init), then
    /// enqueues one restart work item that runs Protocol::on_restart.
    void restart(std::unique_ptr<Protocol> fresh);

    bool crashed() const { return crashed_; }

    /// Fault injection: adds `extra` ticks to every processing delay (an
    /// overloaded/thermally-throttled NCU — inflated P). 0 clears.
    void set_stall(Tick extra);

    /// This node's software footprint: the runtime object, its link
    /// table, queued-work buffer and timer bookkeeping — everything per
    /// node *except* the protocol instance, which cost::Metrics ledgers
    /// separately (see Protocol::memory_bytes). Arena-resident state is
    /// included: the quantity is logical bytes per node, regardless of
    /// which allocator holds them.
    std::size_t memory_bytes() const;

    // ---- Context ------------------------------------------------------
    NodeId self() const override { return self_; }
    Tick now() const override;
    const ModelParams& params() const override { return net_.params(); }
    std::span<const LocalLink> links() const override { return {links_, link_count_}; }
    void send(const hw::AnrHeader& header, std::shared_ptr<const hw::Payload> payload) override;
    void send(const hw::Route& route, std::shared_ptr<const hw::Payload> payload) override;
    void reply(const hw::Delivery& to, std::shared_ptr<const hw::Payload> payload) override;
    TimerId set_timer(Tick delay, std::uint64_t cookie) override;
    void cancel_timer(TimerId id) override;
    Rng& rng() override { return rng_; }
    std::uint64_t incarnation() const override { return incarnation_; }
    void record(sim::TraceKind kind, std::uint64_t a, std::uint64_t b = 0,
                std::uint8_t flag = 0) override {
        if (trace_ && trace_->enabled(kind))
            trace_->record(now(), self_, kind,
                           {.lineage = current_lineage_, .a = a, .b = b, .flag = flag});
    }

private:
    struct StartWork {};
    struct RestartWork {};
    struct TimerWork {
        TimerId id;
        std::uint64_t cookie;
        /// Causal lineage of the invocation that armed the timer (0 if it
        /// was armed outside a handler) — traces link a fire back to it.
        std::uint64_t lineage;
        /// When set_timer ran — the completion instant of the arming
        /// handler; the causal anchor (`c`) of the kTimer record.
        Tick armed_at;
    };
    struct LinkWork {
        std::size_t link_index;
        bool up;
    };
    using Work = std::variant<StartWork, hw::Delivery, LinkWork, TimerWork, RestartWork>;

    /// What the processor is doing. While kServing, the item in service
    /// stays at the front of queue_ until its completion takes it, so the
    /// completion event captures no work item.
    enum class Ncu : std::uint8_t {
        kIdle,
        kServing,
        kSendTail,  ///< Ablation A1: busy with serialized sends, no item.
    };

    void enqueue(Work w);
    void begin_next_if_idle();
    void complete(Work& w, Tick busy);
    Tick processing_delay();
    /// Sends now, or (ablation A1, after the handler's first send) after
    /// index * P.
    template <typename Labels>
    void send_or_defer(const Labels& labels, std::shared_ptr<const hw::Payload> payload);

    NodeId self_;
    hw::Network& net_;
    std::unique_ptr<Protocol> protocol_;
    Rng rng_;
    Tick ncu_delay_min_;
    bool free_multisend_;
    unsigned sends_this_call_ = 0;
    Tick extra_busy_ = 0;
    Tick stall_extra_ = 0;
    bool crashed_ = false;
    std::uint16_t profile_id_ = cost::Profiler::kNoProtocol;
    /// Bumped on every crash. Every scheduled continuation (handler
    /// completion, deferred A1 send, timer fire, scripted start) carries
    /// the incarnation it was scheduled under and is dropped if the node
    /// crashed in between — the previous incarnation's future never runs.
    std::uint64_t incarnation_ = 0;
    std::shared_ptr<sim::Trace> trace_;
    /// Lineage of the work item whose handler is currently executing
    /// (0 outside handlers): the causal parent stamped on sends and
    /// armed timers.
    std::uint64_t current_lineage_ = 0;

    /// Link table, arena-resident.
    LocalLink* links_ = nullptr;
    std::uint32_t link_count_ = 0;
    util::BlockQueue<Work> queue_;
    Ncu ncu_ = Ncu::kIdle;
    TimerId next_timer_ = 1;
    std::vector<TimerId> cancelled_timers_;
    std::vector<std::pair<TimerId, sim::EventId>> pending_timers_;
};

}  // namespace fastnet::node
