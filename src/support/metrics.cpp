#include "support/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <vector>

namespace cs {

StreamingHistogram &
MetricsRegistry::streamingHistogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = streaming_[name];
    if (!slot)
        slot = std::make_unique<StreamingHistogram>();
    return *slot;
}

std::map<std::string, StreamingHistogram::Snapshot>
MetricsRegistry::streamingSnapshot() const
{
    std::map<std::string, StreamingHistogram::Snapshot> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, histogram] : streaming_)
        out.emplace(name, histogram->snapshot());
    return out;
}

std::atomic<std::int64_t> &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<std::atomic<std::int64_t>>(0);
    return *slot;
}

std::map<std::string, std::int64_t>
MetricsRegistry::gaugeSnapshot() const
{
    std::map<std::string, std::int64_t> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, value] : gauges_)
        out.emplace(name, value->load(std::memory_order_relaxed));
    return out;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\":";
    writeAllCounters(os, counters_);
    os << ",\"streaming\":{";
    bool first = true;
    for (const auto &[name, snapshot] : streamingSnapshot()) {
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        os << ":";
        writeHistogramSummary(os, summarizeHistogram(snapshot));
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gaugeSnapshot()) {
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        os << ":" << value;
    }
    os << "}}";
}

void
writeJsonQuoted(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeCounterObject(std::ostream &os, const CounterSet &stats,
                   const char *const *names, std::size_t count)
{
    // Sort a copy of the name list so the byte layout depends only on
    // the name set, never on call-site declaration order.
    std::vector<const char *> sorted(names, names + count);
    std::sort(sorted.begin(), sorted.end(),
              [](const char *a, const char *b) {
                  return std::strcmp(a, b) < 0;
              });
    os << "{";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << sorted[i] << "\":" << stats.get(sorted[i]);
    }
    os << "}";
}

void
writeHistogramSummary(std::ostream &os, const HistogramSummary &summary)
{
    os << "{\"count\":" << summary.count << ",\"mean\":" << summary.mean
       << ",\"p50\":" << summary.p50 << ",\"p90\":" << summary.p90
       << ",\"p99\":" << summary.p99 << ",\"p999\":" << summary.p999
       << ",\"max\":" << summary.max << "}";
}

void
writeAllCounters(std::ostream &os, const CounterSet &stats)
{
    os << "{";
    bool first = true;
    stats.forEach([&](const std::string &name, std::uint64_t value) {
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        os << ":" << value;
    });
    os << "}";
}

} // namespace cs
