/**
 * @file
 * Unified metrics surface for the front-ends and benches: one
 * registry holding named counters (a CounterSet), streaming
 * histograms and gauges behind a single snapshot/JSON API, plus the
 * low-level JSON writers the front-ends use so nobody hand-rolls
 * stats blocks.
 *
 * Counters are monotonically increasing integers ("ops_scheduled").
 * Streaming histograms (support/histogram.hpp) hold sample
 * distributions in a fixed footprint: wait-free to record,
 * snapshot-able from a sampler thread while workers keep recording.
 * Gauges are point-in-time signed levels ("serve.inflight") read and
 * written atomically.
 */

#ifndef CS_SUPPORT_METRICS_HPP
#define CS_SUPPORT_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/histogram.hpp"
#include "support/stats.hpp"

namespace cs {

class MetricsRegistry
{
  public:
    /** The counter side; bump via counters().bump(...) or merge a
     * scheduler's CounterSet in wholesale. */
    CounterSet &counters() { return counters_; }
    const CounterSet &counters() const { return counters_; }

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
     * Named gauge (signed level, e.g. in-flight depth), created on
     * first use at 0. Stable reference; read/write with atomic ops.
     */
    std::atomic<std::int64_t> &gauge(const std::string &name);

    /** Current value of every gauge, keyed by name. */
    std::map<std::string, std::int64_t> gaugeSnapshot() const;

    /**
     * Emit the whole registry as one JSON object:
     *
     *   {"counters":{...},
     *    "streaming":{"name":{"count":..,"mean":..,"p50":..,"p90":..,
     *                         "p99":..,"p999":..,"max":..},...},
     *    "gauges":{"name":value,...}}
     */
    void writeJson(std::ostream &os) const;

  private:
    CounterSet counters_;
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<StreamingHistogram>>
        streaming_;
    std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>>
        gauges_;
};

/** JSON-escape and quote @p s onto @p os. */
void writeJsonQuoted(std::ostream &os, const std::string &s);

/**
 * Write the named counters of @p stats as a JSON object in sorted
 * key order: {"a":1,"b":2}. Absent counters print as 0. Sorting is
 * deliberate: every call site (cs_serve statsJson, cs_batch/cs_sweep
 * --json) emits the same byte layout for the same name set regardless
 * of the order the caller listed them in, so diffs of stats dumps
 * never churn on emission order. Pinned by
 * MetricsJson.CounterObjectSortsKeys.
 */
void writeCounterObject(std::ostream &os, const CounterSet &stats,
                        const char *const *names, std::size_t count);

template <std::size_t N>
void
writeCounterObject(std::ostream &os, const CounterSet &stats,
                   const char *const (&names)[N])
{
    writeCounterObject(os, stats, names, N);
}

/** Write every counter of @p stats, in name order, as a JSON object. */
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
