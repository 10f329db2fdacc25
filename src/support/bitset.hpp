/**
 * @file
 * A dynamically-sized bitset with inline storage, used for the
 * scheduler's occupancy masks (buses, ports, functional units) and the
 * machine's route-feasibility masks (register-file reachability).
 * Machines in this codebase have at most a few hundred of any one
 * resource, so the common case needs no heap allocation at all; larger
 * machines transparently spill to the heap.
 *
 * Only the operations the hot path needs are provided: set/reset/test,
 * intersection tests, popcount, and clear. All are O(words) or O(1).
 */

#ifndef CS_SUPPORT_BITSET_HPP
#define CS_SUPPORT_BITSET_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cs {

/** Bitset sized at construction; inline up to kInlineBits bits. */
class InlineBitset
{
  public:
    static constexpr std::size_t kInlineWords = 4;
    static constexpr std::size_t kInlineBits = kInlineWords * 64;

    InlineBitset() = default;

    explicit InlineBitset(std::size_t numBits) { resize(numBits); }

    InlineBitset(const InlineBitset &other) { *this = other; }

    InlineBitset &
    operator=(const InlineBitset &other)
    {
        if (this == &other)
            return *this;
        numBits_ = other.numBits_;
        numWords_ = other.numWords_;
        heap_ = other.heap_;
        if (!usesHeap())
            std::memcpy(inline_, other.inline_, sizeof inline_);
        return *this;
    }

    InlineBitset(InlineBitset &&other) noexcept { *this = std::move(other); }

    InlineBitset &
    operator=(InlineBitset &&other) noexcept
    {
        if (this == &other)
            return *this;
        numBits_ = other.numBits_;
        numWords_ = other.numWords_;
        heap_ = std::move(other.heap_);
        if (!usesHeap())
            std::memcpy(inline_, other.inline_, sizeof inline_);
        return *this;
    }

    /** Resize to @p numBits, clearing every bit. */
    void
    resize(std::size_t numBits)
    {
        numBits_ = numBits;
        numWords_ = (numBits + 63) / 64;
        if (usesHeap())
            heap_.assign(numWords_, 0);
        else
            std::memset(inline_, 0, sizeof inline_);
    }

    std::size_t size() const { return numBits_; }

    void
    set(std::size_t bit)
    {
        words()[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }

    void
    reset(std::size_t bit)
    {
        words()[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
    }

    bool
    test(std::size_t bit) const
    {
        return (words()[bit / 64] >> (bit % 64)) & 1u;
    }

    void
    clear()
    {
        if (usesHeap())
            std::memset(heap_.data(), 0, numWords_ * sizeof(std::uint64_t));
        else
            std::memset(inline_, 0, sizeof inline_);
    }

    bool
    any() const
    {
        const std::uint64_t *w = words();
        for (std::size_t i = 0; i < numWords_; ++i) {
            if (w[i])
                return true;
        }
        return false;
    }

    bool
    none() const
    {
        return !any();
    }

    /** True when this and @p other share at least one set bit. */
    bool
    intersects(const InlineBitset &other) const
    {
        const std::uint64_t *a = words();
        const std::uint64_t *b = other.words();
        std::size_t n = numWords_ < other.numWords_ ? numWords_
                                                    : other.numWords_;
        for (std::size_t i = 0; i < n; ++i) {
            if (a[i] & b[i])
                return true;
        }
        return false;
    }

    /** Set every bit that is set in @p other (sizes must match). */
    void
    orWith(const InlineBitset &other)
    {
        std::uint64_t *a = words();
        const std::uint64_t *b = other.words();
        std::size_t n = numWords_ < other.numWords_ ? numWords_
                                                    : other.numWords_;
        for (std::size_t i = 0; i < n; ++i)
            a[i] |= b[i];
    }

    /** Number of set bits. */
    int
    count() const
    {
        int total = 0;
        const std::uint64_t *w = words();
        for (std::size_t i = 0; i < numWords_; ++i)
            total += std::popcount(w[i]);
        return total;
    }

  private:
    bool usesHeap() const { return numWords_ > kInlineWords; }

    std::uint64_t *
    words()
    {
        return usesHeap() ? heap_.data() : inline_;
    }

    const std::uint64_t *
    words() const
    {
        return usesHeap() ? heap_.data() : inline_;
    }

    std::size_t numBits_ = 0;
    std::size_t numWords_ = 0;
    std::uint64_t inline_[kInlineWords] = {};
    std::vector<std::uint64_t> heap_;
};

} // namespace cs

#endif // CS_SUPPORT_BITSET_HPP
