/**
 * @file
 * Adaptive layer over the speculative II search: a cheap block
 * classifier, a cross-job portfolio memory, and a per-search attempt
 * planner that together choose *how* the (ii, variant) wavefront is
 * explored — serial or speculative, how wide, and in what launch
 * order — without ever changing *what* it returns.
 *
 * Exactness argument (DESIGN.md section 5g): the search's commit rule
 * is "smallest successful attempt index k", and an attempt's outcome
 * is a pure function of (ii, variant) over the shared immutable
 * context. The planner merely permutes the order attempts are
 * handed to the pool and bounds how far past the (unknown) winner the
 * search speculates; every attempt below the winner still runs, so
 * the winner — and its byte-identical listing — cannot change.
 * Adaptivity buys wall clock and wasted-attempt reduction, never a
 * different schedule.
 *
 * The planner's inputs are exactly the signals PR 4-5 built: the
 * closed RejectReason mix and dfs_nodes of earlier attempts (within
 * the current search), and a PortfolioStats memory of previous
 * searches keyed by block shape (cross-job, cross-thread).
 */

#ifndef CS_PIPELINE_ADAPTIVE_HPP
#define CS_PIPELINE_ADAPTIVE_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/reject.hpp"
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
    /** Sum of winning attempt indices (mean = sum / jobs). */
    std::uint64_t winnerKSum = 0;
    /** Wins per retry-variant index (iiRetryVariants order). */
    std::array<std::uint64_t, 3> variantWins{};
    /** Accumulated reject-reason mix across all recorded attempts. */
    std::array<std::uint64_t, kNumRejectReasons> rejects{};
    /** Accumulated DFS expansion steps (search effort). */
    std::uint64_t dfsNodes = 0;
};

/**
 * Cross-job attempt-portfolio memory: one PortfolioProfile per block
 * shape, shared by every search in the process (batch jobs, serving
 * requests, speculative workers). Purely advisory — readers use it to
 * order and bound attempt launches, so a stale, empty, or cleared
 * profile can cost wall clock but never changes a schedule.
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
     * Record one completed search: the winning attempt index (or -1
     * when the search failed), and the reject/effort totals summed
     * over every attempt that ran.
     */
    void record(std::uint64_t shapeKey, int winnerK, int numVariants,
                const std::array<std::uint64_t, kNumRejectReasons>
                    &rejects,
                std::uint64_t dfsNodes);

    /** Forget everything (test isolation). */
    void clear();

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, PortfolioProfile> shapes_;
};

/**
 * Per-search attempt planner. Owned by one schedulePipelinedParallel
 * call and driven under its controller mutex (so it needs no locking
 * of its own): nextLaunch() hands out attempt indices in adaptive
 * order, onAttemptDone() feeds observed outcomes back, and plan()
 * makes the up-front serial/speculative and window decision.
 *
 * Ordering policy: ii slack strictly ascending (attempts at lower II
 * dominate the critical path — all of them must complete for any
 * higher winner to commit), variants *within* a slack ordered by a
 * score that starts from the portfolio's per-variant win history and
 * shifts as this search's own reject mix accumulates: route/bus/stub
 * starvation favors the wide-window variant, port-permutation
 * conflicts favor the flipped scheduling order. See DESIGN.md 5g.
 */
class AttemptPlanner
{
  public:
    AttemptPlanner(int totalAttempts, int numVariants,
                   const PortfolioProfile &profile);

    /** The up-front decision for this search. */
    struct Plan
    {
        /** Run attempts inline on the calling thread (window 1). */
        bool serialInline = false;
        /** Speculation window actually used (<= requested). */
        int window = 1;
    };

    /**
     * Choose serial vs speculative and the window, given the window
     * the caller requested (pool-derived). A shape whose history says
     * "the first attempt always wins" runs serial — speculation could
     * only waste attempts; an unknown or multi-attempt shape keeps a
     * window sized to its observed worst case plus slack.
     */
    Plan plan(int requestedWindow) const;

    /**
     * Next attempt index to launch: the best-ranked unlaunched k with
     * k < bound (the current best-so-far winner caps speculation).
     * Returns -1 when nothing below the bound remains. Marks the
     * returned index launched.
     */
    int nextLaunch(int bound);

    /** Whether any unlaunched attempt with k < bound remains (the
     *  controller's completion test; does not mark anything). */
    bool hasLaunchable(int bound) const;

    /** Feed one completed attempt's outcome back into the ordering. */
    void onAttemptDone(int k, bool success,
                       const std::array<std::uint64_t,
                                        kNumRejectReasons> &rejects,
                       std::uint64_t dfsNodes);

    /** Totals for the portfolio record at search end. */
    const std::array<std::uint64_t, kNumRejectReasons> &
    rejectTotals() const
    {
        return rejectTotals_;
    }
    std::uint64_t dfsNodeTotal() const { return dfsNodeTotal_; }

  private:
    /** Variant indices of one slack, best first, under the current
     *  scores (stable: ties keep ascending variant order). */
    void rankVariants(std::array<int, 3> &order) const;

    int total_;
    int numVariants_;
    PortfolioProfile profile_;
    std::vector<bool> launched_;
    /** Live variant scores (portfolio prior + observed reject mix). */
    std::array<double, 3> variantScore_{};
    std::array<std::uint64_t, kNumRejectReasons> rejectTotals_{};
    std::uint64_t dfsNodeTotal_ = 0;
};

} // namespace cs

#endif // CS_PIPELINE_ADAPTIVE_HPP
