#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>

namespace perfbench {

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- spans ---------------------------------------------------------------

int Spans::open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.start_s = since_epoch(Clock::now());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void Spans::close(int id) {
    FASTNET_EXPECTS(!stack_.empty() && stack_.back() == id);
    stack_.pop_back();
    spans_[id].end_s = since_epoch(Clock::now());
}

// ---- handler profile -----------------------------------------------------

const char* module_name(Module m) {
    switch (m) {
        case Module::kTopo: return "topo";
        case Module::kElection: return "election";
        case Module::kParis: return "paris";
    }
    return "?";
}

void NsHistogram::add(std::uint64_t ns) {
    ns = std::max<std::uint64_t>(ns, 1);
    const unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - 1;
    // The two bits below the leading one pick the quarter-octave.
    const unsigned quarter =
        octave >= 2 ? static_cast<unsigned>((ns >> (octave - 2)) & 3) : 0;
    ++buckets_[4 * octave + quarter];
    ++count_;
}

void NsHistogram::merge_from(const NsHistogram& o) {
    for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
}

double NsHistogram::quantile(double q) const {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= std::max<std::uint64_t>(rank, 1)) {
            const double lo = std::ldexp(1.0 + 0.25 * (i % 4), static_cast<int>(i / 4));
            const double hi = std::ldexp(1.0 + 0.25 * (i % 4 + 1), static_cast<int>(i / 4));
            return std::sqrt(lo * hi);
        }
    }
    return 0;
}

void HandlerProfile::bind(const node::ParallelCluster& cluster) {
    shard_of_ = cluster.partition().shard_of;
    lookahead_ = cluster.lookahead();
    threads_ = cluster.thread_count();
    shards_.assign(cluster.shard_count(), ShardLedger{});
}

void HandlerProfile::record(NodeId self, Tick now, Module m, Handler h, Clock::time_point t0,
                            Clock::time_point t1) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ShardLedger& ledger = shards_[shard_of_[self]];
    HandlerStats& st = ledger.by[static_cast<unsigned>(m)][static_cast<unsigned>(h)];
    ++st.calls;
    st.total_ns += ns;
    st.hist.add(ns);

    const std::size_t w =
        lookahead_ == kNever || lookahead_ <= 0 ? 0 : static_cast<std::size_t>(now / lookahead_);
    if (w >= ledger.windows.size()) ledger.windows.resize(w + 1);
    WindowStats& ws = ledger.windows[w];
    if (ws.calls == 0) ws.first = t0;
    ws.last = t1;
    ++ws.calls;
    ws.handler_ns += ns;
}

HandlerStats HandlerProfile::total(Module m, Handler h) const {
    HandlerStats out;
    for (const ShardLedger& s : shards_)
        out.merge_from(s.by[static_cast<unsigned>(m)][static_cast<unsigned>(h)]);
    return out;
}

std::uint64_t HandlerProfile::module_ns(Module m) const {
    std::uint64_t ns = 0;
    for (unsigned h = 0; h < kHandlerCount; ++h)
        ns += total(m, static_cast<Handler>(h)).total_ns;
    return ns;
}

std::uint64_t HandlerProfile::total_ns() const {
    std::uint64_t ns = 0;
    for (unsigned m = 0; m < kModuleCount; ++m) ns += module_ns(static_cast<Module>(m));
    return ns;
}

std::uint64_t HandlerProfile::calls(Handler h) const {
    std::uint64_t n = 0;
    for (unsigned m = 0; m < kModuleCount; ++m) n += total(static_cast<Module>(m), h).calls;
    return n;
}

HandlerProfile::WindowTotals HandlerProfile::window_totals() const {
    std::size_t windows = 0;
    for (const ShardLedger& s : shards_) windows = std::max(windows, s.windows.size());
    WindowTotals out;
    for (std::size_t w = 0; w < windows; ++w) {
        std::uint64_t busiest = 0, total = 0;
        for (const ShardLedger& s : shards_)
            if (w < s.windows.size()) {
                busiest = std::max(busiest, s.windows[w].handler_ns);
                total += s.windows[w].handler_ns;
            }
        out.busiest_ns += busiest;
        out.critical_ns += std::max<std::uint64_t>(busiest, total / threads_);
        if (total > 0) ++out.active;
    }
    return out;
}

namespace {

class ProfiledProtocol final : public node::Protocol {
public:
    ProfiledProtocol(std::unique_ptr<node::Protocol> inner, Module module,
                     HandlerProfile* profile)
        : inner_(std::move(inner)), module_(module), profile_(profile) {}

    const char* name() const override { return inner_->name(); }
    std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

    void on_start(node::Context& ctx) override {
        const auto t0 = Clock::now();
        inner_->on_start(ctx);
        done(ctx, Handler::kStart, t0);
    }
    void on_restart(node::Context& ctx) override {
        const auto t0 = Clock::now();
        inner_->on_restart(ctx);
        done(ctx, Handler::kRestart, t0);
    }
    void on_message(node::Context& ctx, const hw::Delivery& d) override {
        const auto t0 = Clock::now();
        inner_->on_message(ctx, d);
        done(ctx, Handler::kMessage, t0);
    }
    void on_link_state(node::Context& ctx, const node::LocalLink& link, bool up) override {
        const auto t0 = Clock::now();
        inner_->on_link_state(ctx, link, up);
        done(ctx, Handler::kLinkState, t0);
    }
    void on_timer(node::Context& ctx, std::uint64_t cookie) override {
        const auto t0 = Clock::now();
        inner_->on_timer(ctx, cookie);
        done(ctx, Handler::kTimer, t0);
    }

    const node::Protocol& inner() const { return *inner_; }

private:
    void done(node::Context& ctx, Handler h, Clock::time_point t0) {
        profile_->record(ctx.self(), ctx.now(), module_, h, t0, Clock::now());
    }

    std::unique_ptr<node::Protocol> inner_;
    Module module_;
    HandlerProfile* profile_;
};

}  // namespace

node::ProtocolFactory profiled_factory(node::ProtocolFactory inner, Module module,
                                       HandlerProfile* profile) {
    return [inner = std::move(inner), module, profile](NodeId u) -> std::unique_ptr<node::Protocol> {
        return std::make_unique<ProfiledProtocol>(inner(u), module, profile);
    };
}

const node::Protocol& unwrap(const node::Protocol& p) {
    if (const auto* w = dynamic_cast<const ProfiledProtocol*>(&p)) return w->inner();
    return p;
}

// ---- output --------------------------------------------------------------

void add_window_spans(Spans& spans, const HandlerProfile& profile) {
    const auto& shards = profile.shards();
    for (std::size_t s = 0; s < shards.size(); ++s)
        for (std::size_t w = 0; w < shards[s].windows.size(); ++w) {
            const WindowStats& ws = shards[s].windows[w];
            if (ws.calls == 0) continue;
            Span sp;
            sp.name = "handlers";
            sp.start_s = spans.since_epoch(ws.first);
            sp.end_s = spans.since_epoch(ws.last);
            sp.run = spans.run();
            sp.track = 1 + static_cast<int>(s);
            sp.args = "\"window\":" + std::to_string(w) +
                      ",\"calls\":" + std::to_string(ws.calls) +
                      ",\"handler_ns\":" + std::to_string(ws.handler_ns);
            spans.add(std::move(sp));
        }
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Spans& spans, int pid,
                        const std::string& process, unsigned shard_count) {
    os << std::fixed << std::setprecision(3);  // microseconds to the nanosecond
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":0,\"name\":\"process_name\","
       << "\"args\":{\"name\":\"" << json_escape(process) << "\"}}";
    os << ",\n{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"coordinator\"}}";
    for (unsigned s = 0; s < shard_count; ++s)
        os << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << s + 1
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"shard " << s << "\"}}";
    for (std::size_t i = 0; i < spans.all().size(); ++i) {
        const Span& s = spans.all()[i];
        os << ",\n{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.track << ",\"name\":\""
           << json_escape(s.name) << "\",\"ts\":" << s.start_s * 1e6
           << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << ",\"args\":{\"span\":" << i
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run;
        if (!s.args.empty()) os << "," << s.args;
        os << "}}";
    }
    os << "\n]}\n";
}

}  // namespace perfbench
