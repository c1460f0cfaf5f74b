// Growable array of a trivially copyable type with room for N elements
// in place.
//
// Label tracks are short on the hot paths: a broadcast relay's reverse
// track holds one or two labels, a one-hop send's whole route three.
// SmallVec keeps those in the object itself, so neither a pooled packet
// cursor nor a queued delivery owns a heap block for them; longer tracks
// move to one heap array. clear() keeps the capacity, so a pooled owner
// that once held a long track reuses its array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/expect.hpp"

namespace fastnet::util {

template <typename T, std::uint32_t N>
class SmallVec {
    static_assert(std::is_trivially_copyable_v<T> && N > 0);

public:
    SmallVec() = default;
    explicit SmallVec(std::span<const T> items) { assign(items); }
    SmallVec(const SmallVec& o) { assign(o.span()); }
    SmallVec(SmallVec&& o) noexcept : size_(o.size_), cap_(o.cap_), buf_(o.buf_) {
        o.size_ = 0;
        o.cap_ = N;
    }
    SmallVec& operator=(const SmallVec& o) {
        if (this != &o) assign(o.span());
        return *this;
    }
    SmallVec& operator=(SmallVec&& o) noexcept {
        if (this != &o) {
            release();
            size_ = o.size_;
            cap_ = o.cap_;
            buf_ = o.buf_;
            o.size_ = 0;
            o.cap_ = N;
        }
        return *this;
    }
    ~SmallVec() { release(); }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T* data() const { return cap_ > N ? buf_.heap : buf_.in; }
    const T& operator[](std::uint32_t i) const { return data()[i]; }
    std::span<const T> span() const { return {data(), size_}; }

    /// Empties the array; its capacity stays.
    void clear() { size_ = 0; }
    void push_back(T v) {
        if (size_ == cap_) grow_to(std::size_t{2} * cap_);
        mutable_data()[size_++] = v;
    }
    void assign(std::span<const T> items) {
        size_ = 0;
        reserve(items.size());
        std::copy(items.begin(), items.end(), mutable_data());
        size_ = static_cast<std::uint32_t>(items.size());
    }

    /// Heap bytes held (0 while the elements fit in place).
    std::size_t heap_bytes() const { return cap_ > N ? std::size_t{cap_} * sizeof(T) : 0; }

private:
    T* mutable_data() { return cap_ > N ? buf_.heap : buf_.in; }
    void reserve(std::size_t n) {
        if (n > cap_) grow_to(n);
    }
    void grow_to(std::size_t n) {
        FASTNET_EXPECTS_MSG(n <= 0xffff'ffffu, "SmallVec capacity exceeds 2^32");
        T* fresh = new T[n];
        std::copy(data(), data() + size_, fresh);
        release();
        buf_.heap = fresh;
        cap_ = static_cast<std::uint32_t>(n);
    }
    void release() {
        if (cap_ > N) delete[] buf_.heap;
    }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;  ///< N while in place.
    union Buf {
        Buf() : heap(nullptr) {}
        T in[N];
        T* heap;
    } buf_;
};

}  // namespace fastnet::util
