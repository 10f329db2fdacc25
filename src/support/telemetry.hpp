/**
 * @file
 * Time-series telemetry sampler: a background thread that appends one
 * JSONL snapshot of a process's counters and resource footprint to a
 * file every N ms, so a long soak can be watched (and asserted on)
 * instead of inspected post-hoc.
 *
 * Each line is one self-contained JSON object:
 *
 *   {"seq":3,"t_ms":750,"rss_kb":41288,
 *    "counters":{...cumulative, sorted...},
 *    "deltas":{...only the counters that changed since the previous
 *              line...}
 *    <extra fields from the owner: shard sizes, quantiles, gauges>}
 *
 * The counter snapshot comes from a caller-supplied closure, so one
 * sampler works for the server (serve + pipeline + cache counters),
 * cs_batch, and cs_sweep alike; the optional extras closure appends
 * leading-comma JSON fields for owner-specific state. Both closures
 * run on the sampler thread — they must be safe to call concurrently
 * with the workers (SharedCounterSet snapshots and the registry's
 * streaming histograms are).
 *
 * Shutdown contract: stop() (and the destructor) wakes the thread,
 * writes one final sample, flushes, and joins — the last line of the
 * file always reflects the end state, and no partial line is ever
 * left behind (every sample is written and flushed whole).
 */

#ifndef CS_SUPPORT_TELEMETRY_HPP
#define CS_SUPPORT_TELEMETRY_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "support/stats.hpp"

namespace cs {

/** Resident set size in KiB from /proc/self/statm (0 on failure). */
std::uint64_t readRssKb();

struct TelemetryConfig
{
    std::string path;        ///< JSONL output file (truncated).
    unsigned intervalMs = 250; ///< Sample period.
};

class TelemetrySampler
{
  public:
    /** Cumulative counter snapshot (called on the sampler thread). */
    using CounterFn = std::function<CounterSet()>;
    /** Extra per-line JSON fields; must write leading commas:
     *  `,"key":value`. */
    using ExtraFn = std::function<void(std::ostream &)>;

    TelemetrySampler() = default;
    ~TelemetrySampler() { stop(); }
    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /**
     * Open @p config.path and start sampling. Returns false (without
     * starting) if the file cannot be opened. @p extra may be empty.
     */
    bool start(const TelemetryConfig &config, CounterFn counters,
               ExtraFn extra = {});

    /** Final sample + flush + join. Idempotent; the destructor calls
     *  it. */
    void stop();

    bool running() const { return thread_.joinable(); }

  private:
    void loop();
    void writeSample();

    TelemetryConfig config_;
    CounterFn counters_;
    ExtraFn extra_;
    std::ofstream out_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_;
    CounterSet previous_;
};

} // namespace cs

#endif // CS_SUPPORT_TELEMETRY_HPP
