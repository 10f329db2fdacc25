#include "support/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "support/logging.hpp"

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

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\":";
    writeAllCounters(os, counters());
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
writeCounterFields(std::ostream &os, const CounterSet &stats,
                   std::span<const CounterId> ids, std::string_view strip)
{
    CS_ASSERT(std::is_sorted(ids.begin(), ids.end()),
              "counter fields must be listed in name order");
    for (std::size_t i = 0; i < ids.size(); ++i) {
        os << (i ? ",\"" : "\"") << counterName(ids[i]).substr(strip.size())
           << "\":" << stats.get(ids[i]);
    }
}

void
writeCounterObject(std::ostream &os, const CounterSet &stats,
                   std::span<const CounterId> ids, std::string_view strip)
{
    os << "{";
    writeCounterFields(os, stats, ids, strip);
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
    stats.forEach([&](std::string_view name, std::uint64_t value) {
        os << (first ? "\"" : ",\"") << name << "\":" << value;
        first = false;
    });
    os << "}";
}

} // namespace cs
