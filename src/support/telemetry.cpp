#include "support/telemetry.hpp"

#include <cstdio>

#include <unistd.h>

#include "support/metrics.hpp"

namespace cs {

std::uint64_t
readRssKb()
{
    // /proc/self/statm: "size resident shared text lib data dt" in
    // pages; field 2 is the resident set.
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long size = 0, resident = 0;
    int matched = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (matched != 2)
        return 0;
    long pageSize = ::sysconf(_SC_PAGESIZE);
    if (pageSize <= 0)
        pageSize = 4096;
    return static_cast<std::uint64_t>(resident) *
           static_cast<std::uint64_t>(pageSize) / 1024u;
}

bool
TelemetrySampler::start(const TelemetryConfig &config,
                        CounterFn counters, ExtraFn extra)
{
    stop();
    out_.open(config.path, std::ios::trunc);
    if (!out_)
        return false;
    config_ = config;
    counters_ = std::move(counters);
    extra_ = std::move(extra);
    stop_ = false;
    seq_ = 0;
    previous_ = CounterSet();
    start_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
TelemetrySampler::stop()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    out_.close();
}

void
TelemetrySampler::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        bool stopping = cv_.wait_for(
            lock, std::chrono::milliseconds(config_.intervalMs),
            [this] { return stop_; });
        // One sample per wake, including the final one on stop, so
        // the file always ends with the end state.
        writeSample();
        if (stopping)
            return;
    }
}

void
TelemetrySampler::writeSample()
{
    auto now = std::chrono::steady_clock::now();
    auto tMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                   now - start_)
                   .count();
    CounterSet counters = counters_ ? counters_() : CounterSet();

    out_ << "{\"seq\":" << seq_++ << ",\"t_ms\":" << tMs
         << ",\"rss_kb\":" << readRssKb() << ",\"counters\":";
    writeAllCounters(out_, counters);
    out_ << ",\"deltas\":{";
    bool first = true;
    for (CounterId id : kAllCounters) {
        std::uint64_t value = counters.get(id);
        std::uint64_t before = previous_.get(id);
        if (!counters.listed(id) || value == before)
            continue;
        out_ << (first ? "\"" : ",\"") << counterName(id) << "\":";
        first = false;
        // Counters are monotone in practice, but a snapshot race can
        // present a transient decrease; clamp at 0 so deltas stay
        // non-negative.
        out_ << (value > before ? value - before : 0);
    }
    out_ << "}";
    previous_ = counters;
    if (extra_)
        extra_(out_);
    out_ << "}\n" << std::flush;
}

} // namespace cs
