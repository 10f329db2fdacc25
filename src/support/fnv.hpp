/**
 * @file
 * 64-bit FNV-1a, the one hash function the repository shares.
 *
 * Two feeds over the same offset basis and prime:
 *  - fnv1aBytes(), the published byte-at-a-time FNV-1a: job keys
 *    (pipeline/job.cpp), shard record checksums
 *    (pipeline/persistent_cache.cpp) and the golden-listing
 *    fingerprints of the tests;
 *  - FnvHasher, which absorbs each datum as a full 64-bit lane
 *    instead of byte-at-a-time, for the scheduler's in-memory memo
 *    keys (context-cache keys, block-shape keys). That keeps the mix
 *    loop out of the profile while retaining FNV's avalanche
 *    behaviour for small structured keys.
 */

#ifndef CS_SUPPORT_FNV_HPP
#define CS_SUPPORT_FNV_HPP

#include <cstddef>
#include <cstdint>

namespace cs {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** One FNV-1a round absorbing a 64-bit lane. */
constexpr std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ lane) * kFnvPrime;
}

/**
 * Byte-wise FNV-1a of @p size bytes at @p data, continuing from
 * @p state (the offset basis starts a fresh hash).
 */
inline std::uint64_t
fnv1aBytes(const void *data, std::size_t size,
           std::uint64_t state = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        state = fnvMix(state, p[i]);
    return state;
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
