/**
 * @file
 * Adaptive layer over the speculative II search: a cheap block
 * classifier, a cross-job portfolio memory, and a per-search plan
 * that together choose *how* the (ii, variant) wavefront is explored
 * — serial or speculative, and how wide — without ever changing
 * *what* it returns. Attempts always launch in ascending index order.
 *
 * Exactness argument (DESIGN.md section 5g): the search's commit rule
 * is "smallest successful attempt index k", and an attempt's outcome
 * is a pure function of (ii, variant) over the shared immutable
 * context. The plan only bounds how far past the (unknown) winner the
 * search speculates; every attempt below the winner still runs, so
 * the winner — and its byte-identical listing — cannot change.
 * Adaptivity buys wall clock and wasted-attempt reduction, never a
 * different schedule.
 *
 * The plan's only input is a PortfolioStats memory of previous
 * searches' winning attempt indices, keyed by block shape (cross-job,
 * cross-thread).
 */

#ifndef CS_PIPELINE_ADAPTIVE_HPP
#define CS_PIPELINE_ADAPTIVE_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/sched_context.hpp"

namespace cs {

/**
 * Cheap per-block features, derived from analysis the context already
 * paid for (DDG size, MII bounds, class pressure). Used two ways: as
 * the classifier input for the serial-vs-speculative decision, and —
 * bucketed — as the PortfolioStats shape key, so blocks that look
 * alike share learned attempt statistics.
 */
struct BlockFeatures
{
    /** Operations in the block. */
    int numOps = 0;
    /** Maximum result fan-out (uses of the most-used value). */
    int maxFanOut = 0;
    int resMii = 0;
    int recMii = 0;
    /** Operation count per class (the opclass mix). */
    std::array<std::uint16_t, kNumOpClasses> classCounts{};
    /** Machine coarse shape (units/files/buses), so one portfolio
     *  never mixes observations across machines of different scale. */
    std::uint32_t machineUnits = 0;
    std::uint32_t machineFiles = 0;
    std::uint32_t machineBuses = 0;

    /**
     * FNV-1a over the bucketed features (log2 buckets for sizes, a
     * coarse RecMII/ResMII-ratio bucket, exact machine shape). The
     * key only routes statistics; a colliding bucket merely blends
     * two blocks' histories and can never affect results.
     */
    std::uint64_t shapeKey() const;
};

/** Derive the features from a built scheduling context. */
BlockFeatures classifyBlock(const BlockSchedulingContext &context);

/** What PortfolioStats remembers about one block shape. */
struct PortfolioProfile
{
    /** Completed (successful) searches recorded for this shape. */
    std::uint64_t jobs = 0;
    /** Largest winning attempt index ever observed. */
    std::uint32_t maxWinnerK = 0;
};

/**
 * Cross-job attempt-portfolio memory: one PortfolioProfile per block
 * shape, shared by every search in the process (batch jobs, serving
 * requests, speculative workers). Purely advisory — readers use it to
 * bound attempt launches, so a stale, empty, or cleared profile can
 * cost wall clock but never changes a schedule.
 *
 * Thread-safe (one mutex; a lookup and a record per *search*, nothing
 * per attempt). Bounded: once kMaxShapes distinct shapes exist, new
 * shapes are no longer recorded (existing ones keep learning).
 */
class PortfolioStats
{
  public:
    static constexpr std::size_t kMaxShapes = 4096;

    /** The process-wide instance the II search consults. */
    static PortfolioStats &global();

    /** Snapshot the profile for @p shapeKey (empty when unknown). */
    PortfolioProfile lookup(std::uint64_t shapeKey) const;

    /**
     * Record one completed search by its winning attempt index, or -1
     * when it failed. A failed search records nothing: it says nothing
     * about how deep a winner lies.
     */
    void record(std::uint64_t shapeKey, int winnerK);

    /** Forget everything (test isolation). */
    void clear();

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, PortfolioProfile> shapes_;
};

/** The up-front launch decision for one search. */
struct AttemptPlan
{
    /** Run attempts inline on the calling thread (window 1). */
    bool serialInline = false;
    /** Speculation window actually used (<= requested). */
    int window = 1;
};

/**
 * Choose serial vs speculative and the window, given the shape's
 * profile and the window the caller requested (the pool's size). A
 * shape whose history says "the first attempt always wins" runs
 * serial — speculation could only waste attempts; a multi-attempt
 * shape keeps a window sized to its observed worst case plus one
 * attempt of headroom. Under two recorded searches (an unknown shape
 * included), the requested window stands.
 */
AttemptPlan planAttempts(const PortfolioProfile &profile,
                         int requestedWindow);

} // namespace cs

#endif // CS_PIPELINE_ADAPTIVE_HPP
