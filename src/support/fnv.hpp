/**
 * @file
 * FNV-1a hashing over 64-bit lanes: the one hash function the
 * scheduler's memo layers share (context-cache keys, block-shape
 * keys). Feeding each datum as a full 64-bit lane instead of
 * byte-at-a-time keeps the mix loop out of the profile while retaining
 * FNV's avalanche behaviour for small structured keys.
 */

#ifndef CS_SUPPORT_FNV_HPP
#define CS_SUPPORT_FNV_HPP

#include <cstdint>

namespace cs {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** One FNV-1a round absorbing a 64-bit lane. */
constexpr std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ lane) * kFnvPrime;
}

/** Accumulating FNV-1a hasher over 64-bit lanes. */
struct FnvHasher
{
    std::uint64_t state = kFnvOffsetBasis;

    void u64(std::uint64_t v) { state = fnvMix(state, v); }
    void i32(int v)
    {
        u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    }
    void boolean(bool v) { u64(v ? 1 : 0); }
};

} // namespace cs

#endif // CS_SUPPORT_FNV_HPP
