// Windowed time-series and log-scale histograms for the cost ledger.
//
// The paper's totals (cost::Metrics) say *how much* a run cost; these
// samplers say *when* and *how it was distributed* — per-node load over
// time is the quantity the node-capacitated-clique line plots, and the
// (C, P) split of Section 5 is only visible if hardware and software
// time are attributed separately as the run progresses. Everything here
// is exact integer/tick arithmetic accumulated deterministically, so
// sampled runs stay byte-diffable across thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"

namespace fastnet::cost {

/// Fixed-window accumulator: values are bucketed by sample time into
/// consecutive windows of `window` ticks each ([0,W), [W,2W), ...).
/// Windows are stored densely from window 0; runs are finite, and a
/// hard cap bounds pathological clocks (overflow lands in the last
/// window and is counted).
class TimeSeries {
public:
    struct Window {
        double sum = 0;
        double max = 0;
        std::uint64_t count = 0;
    };

    explicit TimeSeries(Tick window = 1, std::size_t max_windows = 1 << 20)
        : window_(window), max_windows_(max_windows) {
        FASTNET_EXPECTS(window >= 1);
        FASTNET_EXPECTS(max_windows >= 1);
    }

    void add(Tick at, double value) {
        std::size_t idx = static_cast<std::size_t>(at < 0 ? 0 : at / window_);
        if (idx >= max_windows_) {
            idx = max_windows_ - 1;
            ++overflow_;
        }
        if (idx >= windows_.size()) windows_.resize(idx + 1);
        Window& w = windows_[idx];
        w.sum += value;
        if (w.count == 0 || value > w.max) w.max = value;
        w.count += 1;
    }

    /// Window-wise accumulation of another series with the same width —
    /// the parallel kernel's per-shard → merged reduction. All sampled
    /// values in this repo are integral-valued doubles well below 2^53,
    /// so the sums are exact and the merge is order-independent.
    void merge_from(const TimeSeries& o) {
        FASTNET_EXPECTS(o.window_ == window_);
        if (o.windows_.size() > windows_.size()) windows_.resize(o.windows_.size());
        for (std::size_t i = 0; i < o.windows_.size(); ++i) {
            const Window& from = o.windows_[i];
            if (from.count == 0) continue;
            Window& into = windows_[i];
            if (into.count == 0 || from.max > into.max) into.max = from.max;
            into.sum += from.sum;
            into.count += from.count;
        }
        overflow_ += o.overflow_;
    }

    Tick window() const { return window_; }
    const std::vector<Window>& windows() const { return windows_; }
    std::uint64_t overflow() const { return overflow_; }

    std::uint64_t total_count() const {
        std::uint64_t n = 0;
        for (const Window& w : windows_) n += w.count;
        return n;
    }

private:
    Tick window_;
    std::size_t max_windows_;
    std::uint64_t overflow_ = 0;
    std::vector<Window> windows_;
};

/// Power-of-two bucketed histogram for long-tailed integer quantities
/// (queue depths, latencies, header lengths). Bucket 0 holds value 0;
/// bucket k >= 1 holds values in [2^(k-1), 2^k).
class LogHistogram {
public:
    static constexpr unsigned kBuckets = 64;

    void add(std::uint64_t value) {
        buckets_[bucket_of(value)] += 1;
        sum_ += value;
        if (count_ == 0 || value > max_) max_ = value;
        if (count_ == 0 || value < min_) min_ = value;
        count_ += 1;
    }

    static unsigned bucket_of(std::uint64_t value) {
        if (value == 0) return 0;
        const unsigned b = floor_log2(value) + 1;
        return b < kBuckets ? b : kBuckets - 1;
    }

    /// Smallest value belonging to bucket `b` (0, 1, 2, 4, 8, ...).
    static std::uint64_t bucket_floor(unsigned b) {
        return b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
    }

    /// Bucket-wise accumulation of another histogram (exact and
    /// order-independent: everything is integer arithmetic).
    void merge_from(const LogHistogram& o) {
        if (o.count_ == 0) return;
        for (unsigned b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
        if (count_ == 0 || o.max_ > max_) max_ = o.max_;
        if (count_ == 0 || o.min_ < min_) min_ = o.min_;
        count_ += o.count_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucket(unsigned b) const { return buckets_[b]; }
    unsigned highest_bucket() const {
        for (unsigned b = kBuckets; b-- > 0;)
            if (buckets_[b] != 0) return b;
        return 0;
    }

    /// Upper bound of the first bucket whose cumulative count reaches
    /// `q` (0 < q <= 1) of the total — an order-of-magnitude quantile.
    std::uint64_t quantile_bound(double q) const {
        if (count_ == 0) return 0;
        const double target = q * static_cast<double>(count_);
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (static_cast<double>(seen) >= target)
                return b == 0 ? 0 : bucket_floor(b + 1) - 1;
        }
        return max_;
    }

private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

}  // namespace fastnet::cost
