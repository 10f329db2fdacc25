/**
 * @file
 * Unified metrics surface for the front-ends and benches: one
 * registry holding the shared counters (a SharedCounterSet) and
 * streaming histograms behind a single snapshot/JSON API, plus the
 * low-level JSON writers the front-ends use so nobody hand-rolls stats
 * blocks.
 *
 * Counters are monotonically increasing integers declared in
 * support/stats.hpp ("serve.requests"), bumped with relaxed atomic
 * adds. Streaming histograms (support/histogram.hpp) hold sample
 * distributions in a fixed footprint: wait-free to record,
 * snapshot-able from a sampler thread while workers keep recording.
 */

#ifndef CS_SUPPORT_METRICS_HPP
#define CS_SUPPORT_METRICS_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "support/histogram.hpp"
#include "support/stats.hpp"

namespace cs {

class MetricsRegistry
{
  public:
    /** Bump a shared counter; safe from any thread. */
    void bump(CounterId id, std::uint64_t d = 1) { counters_.bump(id, d); }

    /** Add a whole set in, such as a pipeline's totals. */
    void merge(const CounterSet &set) { counters_.merge(set); }

    /** Snapshot of the shared counters. */
    CounterSet counters() const { return counters_.snapshot(); }

    /**
     * Named streaming histogram, created on first use. The reference
     * is stable for the registry's lifetime (unique_ptr storage), so
     * hot paths resolve the name once and record lock-free after.
     */
    StreamingHistogram &streamingHistogram(const std::string &name);

    /** Snapshots of every streaming histogram, keyed by name. */
    std::map<std::string, StreamingHistogram::Snapshot>
    streamingSnapshot() const;

    /**
     * Emit the whole registry as one JSON object:
     *
     *   {"counters":{...},
     *    "streaming":{"name":{"count":..,"mean":..,"p50":..,"p90":..,
     *                         "p99":..,"p999":..,"max":..},...}}
     */
    void writeJson(std::ostream &os) const;

  private:
    SharedCounterSet counters_;
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<StreamingHistogram>>
        streaming_;
};

/** JSON-escape and quote @p s onto @p os. */
void writeJsonQuoted(std::ostream &os, const std::string &s);

/**
 * Write counters @p ids (in name order, as counterGroup() and
 * counters() give them) as `"name":value` JSON fields, each name less
 * its leading @p strip; unlisted ones print 0. Pinned by
 * MetricsJson.CounterObjectSortsKeys.
 */
void writeCounterFields(std::ostream &os, const CounterSet &stats,
                        std::span<const CounterId> ids,
                        std::string_view strip = {});

/** writeCounterFields as one JSON object: {"a":1,"b":2}. */
void writeCounterObject(std::ostream &os, const CounterSet &stats,
                        std::span<const CounterId> ids,
                        std::string_view strip = {});

/** Write every listed counter of @p stats, in name order, as a JSON
 *  object keyed by the full names. */
void writeAllCounters(std::ostream &os, const CounterSet &stats);

/**
 * Write one streaming-histogram summary as a JSON object:
 * {"count":..,"mean":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
 * (quantiles in the histogram's recorded unit, integers).
 */
void writeHistogramSummary(std::ostream &os,
                           const HistogramSummary &summary);

} // namespace cs

#endif // CS_SUPPORT_METRICS_HPP
