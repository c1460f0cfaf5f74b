// FNV-1a (64-bit): a compact fingerprint of a canonical export, so a
// pinned-schedule test compares one number instead of the whole trace.
#pragma once

#include <cstdint>
#include <string>

namespace fastnet::test_util {

inline std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char ch : bytes) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace fastnet::test_util
