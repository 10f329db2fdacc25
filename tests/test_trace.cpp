/**
 * @file
 * Span tracer tests: ring-buffer wraparound semantics, the disabled
 * path emitting nothing, Chrome trace_event JSON validity for a real
 * scheduled batch (the cs_batch --trace surface, in process), and a
 * TSan-gated concurrent-drain stress (suite TraceTsan*, which the
 * sanitizer builds select — see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {
namespace {

/** Enable tracing for one test, restoring the previous state. */
struct ScopedTracing
{
    explicit ScopedTracing(bool on) : previous(trace::enabled())
    {
        trace::setEnabled(on);
        trace::clear();
    }
    ~ScopedTracing() { trace::setEnabled(previous); }
    bool previous;
};

std::vector<trace::Event>
eventsNamed(const std::vector<trace::Event> &events,
            const std::string &name)
{
    std::vector<trace::Event> out;
    for (const trace::Event &e : events) {
        if (trace::nameOf(e.name) == name)
            out.push_back(e);
    }
    return out;
}

// The macro-driven cases only exist when tracing is compiled in; a
// -DCS_TRACING=OFF build still runs the direct-API tests below them.
#ifndef CS_TRACE_DISABLED

TEST(TraceBuffer, DisabledEmitsNothing)
{
    ScopedTracing tracing(false);
    {
        CS_TRACE_SPAN1("trace_test.disabled_span", "x", 1);
        CS_TRACE_INSTANT1("trace_test.disabled_instant", "x", 2);
    }
    EXPECT_TRUE(trace::drain().empty());
}

TEST(TraceBuffer, SpanRoundTripWithArgs)
{
    ScopedTracing tracing(true);
    {
        CS_TRACE_SPAN2("trace_test.span", "alpha", 7, "beta", -3);
        CS_TRACE_INSTANT1("trace_test.instant", "gamma", 42);
    }
    trace::setEnabled(false);

    std::vector<trace::Event> events = trace::drain();
    std::vector<trace::Event> spans =
        eventsNamed(events, "trace_test.span");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].kind, trace::EventKind::Span);
    EXPECT_GE(spans[0].durNs, 0);
    ASSERT_EQ(spans[0].argCount, 2);
    EXPECT_EQ(trace::nameOf(spans[0].args[0].first), "alpha");
    EXPECT_EQ(spans[0].args[0].second, 7);
    EXPECT_EQ(trace::nameOf(spans[0].args[1].first), "beta");
    EXPECT_EQ(spans[0].args[1].second, -3);

    std::vector<trace::Event> instants =
        eventsNamed(events, "trace_test.instant");
    ASSERT_EQ(instants.size(), 1u);
    EXPECT_EQ(instants[0].kind, trace::EventKind::Instant);
    EXPECT_EQ(instants[0].durNs, 0);
    ASSERT_EQ(instants[0].argCount, 1);
    EXPECT_EQ(instants[0].args[0].second, 42);

    // The instant happened inside the span's interval.
    EXPECT_GE(instants[0].tsNs, spans[0].tsNs);
    EXPECT_LE(instants[0].tsNs, spans[0].tsNs + spans[0].durNs);
}

TEST(TraceBuffer, MidSpanEnableEmitsNothing)
{
    ScopedTracing tracing(false);
    {
        CS_TRACE_SPAN("trace_test.half_observed");
        trace::setEnabled(true);
    }
    trace::setEnabled(false);
    EXPECT_TRUE(
        eventsNamed(trace::drain(), "trace_test.half_observed").empty());
}

#endif // CS_TRACE_DISABLED

TEST(TraceBuffer, WraparoundKeepsNewest)
{
    ScopedTracing tracing(true);
    const std::uint16_t name = trace::internName("trace_test.wrap");
    const std::uint16_t argName = trace::internName("i");
    const std::size_t capacity = trace::threadBufferCapacity();
    const std::size_t total = capacity + capacity / 2;
    for (std::size_t i = 0; i < total; ++i)
        trace::emitInstant(name, 1, argName,
                           static_cast<std::int64_t>(i));
    trace::setEnabled(false);

    std::vector<trace::Event> events =
        eventsNamed(trace::drain(), "trace_test.wrap");
    ASSERT_FALSE(events.empty());
    EXPECT_LE(events.size(), capacity);
    // Everything that survives is from the newest `capacity` emissions,
    // and the very last emission always survives.
    std::int64_t minSeen = events.front().args[0].second;
    std::int64_t maxSeen = minSeen;
    for (const trace::Event &e : events) {
        minSeen = std::min(minSeen, e.args[0].second);
        maxSeen = std::max(maxSeen, e.args[0].second);
    }
    EXPECT_EQ(maxSeen, static_cast<std::int64_t>(total - 1));
    EXPECT_GE(minSeen, static_cast<std::int64_t>(total - capacity));
}

TEST(TraceBuffer, ClearForgetsBufferedEvents)
{
    ScopedTracing tracing(true);
    trace::emitInstant(trace::internName("trace_test.before_clear"));
    trace::clear();
    trace::emitInstant(trace::internName("trace_test.after_clear"));
    trace::setEnabled(false);

    std::vector<trace::Event> events = trace::drain();
    EXPECT_TRUE(eventsNamed(events, "trace_test.before_clear").empty());
    EXPECT_EQ(eventsNamed(events, "trace_test.after_clear").size(), 1u);
}

/**
 * Minimal JSON well-formedness checker (objects, arrays, strings,
 * numbers, literals) — enough to certify the Chrome trace export
 * without a JSON dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        return value() && (skipWs(), pos_ == text_.size());
    }

  private:
    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == '-' || (c >= '0' && c <= '9'))
            return number();
        return literal("true") || literal("false") || literal("null");
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}')
            return ++pos_, true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}')
                return ++pos_, true;
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']')
            return ++pos_, true;
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']')
                return ++pos_, true;
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

#ifndef CS_TRACE_DISABLED

TEST(TraceChrome, ValidJsonWithSpansInEveryPhase)
{
    setVerboseLogging(false);
    ScopedTracing tracing(true);

    // The cs_batch --trace surface, in process: a small pipelined
    // batch on the central machine with a parallel II search, so the
    // trace must cover every instrumented phase including the
    // speculative ii_attempt spans.
    Machine machine = makeCentral();
    std::vector<ScheduleJob> batch;
    for (const char *name : {"FIR-INT", "FFT"}) {
        ScheduleJob job;
        job.label = std::string(name) + "@central";
        job.kernel = kernelByName(name).build();
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = true;
        batch.push_back(std::move(job));
    }
    PipelineConfig config;
    config.numThreads = 2;
    config.iiSearchWorkers = 2;
    SchedulingPipeline pipeline(config);
    std::vector<JobResult> results = pipeline.run(batch);
    trace::setEnabled(false);
    for (const JobResult &r : results)
        EXPECT_TRUE(r.success);

    std::vector<trace::Event> events = trace::drain();
    std::map<std::string, int> spanCounts;
    for (const trace::Event &e : events) {
        if (e.kind == trace::EventKind::Span)
            ++spanCounts[trace::nameOf(e.name)];
    }
    for (const char *phase :
         {"block_analysis", "ii_attempt", "schedule_block",
          "schedule_op", "perm_search.read", "perm_search.write"}) {
        EXPECT_GE(spanCounts[phase], 1) << "no '" << phase << "' span";
    }
    EXPECT_GE(spanCounts["schedule_job:FIR-INT@central"], 1);

    std::ostringstream json;
    trace::exportChromeTrace(json, events);
    const std::string text = json.str();
    EXPECT_TRUE(JsonChecker(text).valid())
        << "Chrome trace is not well-formed JSON";
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    // Every event carries the Chrome-required keys.
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"pid\":"), std::string::npos);
    EXPECT_NE(text.find("\"tid\":"), std::string::npos);
    EXPECT_NE(text.find("\"dur\":"), std::string::npos);
}

#endif // CS_TRACE_DISABLED

TEST(TraceAggregate, SpanStatsSummarizeDurations)
{
    ScopedTracing tracing(true);
    const std::uint16_t name = trace::internName("trace_test.agg");
    const std::int64_t ms = 1000000;
    // Synthetic spans with known durations: 1ms .. 10ms.
    for (int i = 1; i <= 10; ++i)
        trace::emitSpan(name, trace::nowNs(),
                        static_cast<std::int64_t>(i) * ms);

    // Nesting, a second past the spans above: parent [0, 10) holds
    // siblings [1, 3) and [4, 7), and the second holds a grandchild
    // [5, 6). Emitted innermost first, as RAII spans close. A span of
    // another thread inside the parent's interval is not its child.
    const std::int64_t base = trace::nowNs() + 1000 * ms;
    auto span = [](const char *spanName, std::int64_t ts,
                   std::int64_t dur) {
        trace::emitSpan(trace::internName(spanName), ts, dur);
    };
    span("trace_test.child", base + 1 * ms, 2 * ms);
    span("trace_test.grandchild", base + 5 * ms, 1 * ms);
    span("trace_test.child", base + 4 * ms, 3 * ms);
    span("trace_test.parent", base, 10 * ms);
    std::thread other(
        [&] { span("trace_test.other", base + 2 * ms, 4 * ms); });
    other.join();
    trace::setEnabled(false);

    std::map<std::string, trace::SpanStats> byName;
    for (trace::SpanStats &s : trace::aggregateSpans(trace::drain()))
        byName[s.name] = s;
    ASSERT_EQ(byName.count("trace_test.agg"), 1u);
    const trace::SpanStats &agg = byName["trace_test.agg"];
    EXPECT_EQ(agg.count, 10u);
    EXPECT_NEAR(agg.totalMs, 55.0, 1e-9);
    EXPECT_NEAR(agg.maxMs, 10.0, 1e-9);
    EXPECT_GE(agg.p95Ms, agg.p50Ms);
    EXPECT_GE(agg.maxMs, agg.p95Ms);
    // Overlapping without nesting: none is another's child.
    EXPECT_NEAR(agg.selfMs, 55.0, 1e-9);

    EXPECT_NEAR(byName["trace_test.parent"].totalMs, 10.0, 1e-9);
    EXPECT_NEAR(byName["trace_test.parent"].selfMs, 5.0, 1e-9);
    EXPECT_EQ(byName["trace_test.child"].count, 2u);
    EXPECT_NEAR(byName["trace_test.child"].totalMs, 5.0, 1e-9);
    EXPECT_NEAR(byName["trace_test.child"].selfMs, 4.0, 1e-9);
    EXPECT_NEAR(byName["trace_test.grandchild"].selfMs, 1.0, 1e-9);
    EXPECT_NEAR(byName["trace_test.other"].totalMs, 4.0, 1e-9);
    EXPECT_NEAR(byName["trace_test.other"].selfMs, 4.0, 1e-9);
    for (const auto &[spanName, stats] : byName)
        EXPECT_EQ(stats.selfSuspect, 0u) << spanName;
}

TEST(TraceAggregate, OverflowCountsLostEventsAndFlagsSelfTime)
{
    ScopedTracing tracing(true);
    // One parent span over more children than the ring holds, on a
    // thread of its own: children close (and are emitted) first, so
    // the oldest ones are overwritten before the parent is emitted.
    const std::size_t capacity = trace::threadBufferCapacity();
    const std::size_t children = capacity + 10;
    const std::uint16_t parent = trace::internName("trace_test.lossy");
    const std::uint16_t child =
        trace::internName("trace_test.lossy_child");
    const std::int64_t base = trace::nowNs();
    std::thread writer([&] {
        for (std::size_t i = 0; i < children; ++i) {
            trace::emitSpan(child, base + static_cast<std::int64_t>(i) * 10,
                            5);
        }
        trace::emitSpan(parent, base,
                        static_cast<std::int64_t>(children) * 10);
    });
    writer.join();
    trace::setEnabled(false);

    std::vector<std::uint64_t> lost;
    std::vector<trace::Event> events = trace::drain(&lost);
    std::uint64_t lostTotal = 0;
    for (std::uint64_t n : lost)
        lostTotal += n;
    // children + 1 events emitted into `capacity` slots.
    EXPECT_EQ(lostTotal, children + 1 - capacity);

    std::map<std::string, trace::SpanStats> byName;
    for (trace::SpanStats &s : trace::aggregateSpans(events, lost))
        byName[s.name] = s;
    const trace::SpanStats &p = byName["trace_test.lossy"];
    const trace::SpanStats &c = byName["trace_test.lossy_child"];
    EXPECT_EQ(p.count, 1u);
    EXPECT_EQ(c.count, capacity - 1);
    // The parent outlived its lost children, so its self time absorbs
    // theirs and is flagged. Of the children only the oldest survivor
    // started before the oldest surviving emission (its own end).
    EXPECT_EQ(p.selfSuspect, 1u);
    EXPECT_EQ(c.selfSuspect, 1u);
    // Without the loss vector nothing is flagged.
    for (trace::SpanStats &s : trace::aggregateSpans(events))
        EXPECT_EQ(s.selfSuspect, 0u) << s.name;
}

TEST(TraceTsan, ConcurrentWritersAndDrainers)
{
    // Writers keep emitting while two drainers snapshot and one thread
    // toggles clear(): every payload access is atomic, so TSan must
    // stay quiet and decoded events must never be torn (a torn decode
    // would surface as an arg that doesn't match its event index).
    ScopedTracing tracing(true);
    constexpr int kWriters = 4;
    constexpr int kEvents = 20000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([w] {
            const std::uint16_t name =
                trace::internName("trace_test.tsan");
            const std::uint16_t argName = trace::internName("v");
            for (int i = 0; i < kEvents; ++i) {
                std::int64_t v =
                    static_cast<std::int64_t>(w) * kEvents + i;
                // The two args always agree; a torn slot would not.
                trace::emitInstant(name, 2, argName, v, argName, v);
            }
        });
    }
    std::vector<std::thread> drainers;
    for (int d = 0; d < 2; ++d) {
        drainers.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                for (const trace::Event &e : trace::drain()) {
                    if (trace::nameOf(e.name) == "trace_test.tsan" &&
                        e.argCount == 2) {
                        ASSERT_EQ(e.args[0].second, e.args[1].second)
                            << "torn slot decoded";
                    }
                }
            }
        });
    }
    std::thread clearer([&stop] {
        while (!stop.load(std::memory_order_relaxed))
            trace::clear();
    });

    for (std::thread &t : writers)
        t.join();
    stop.store(true);
    for (std::thread &t : drainers)
        t.join();
    clearer.join();
    trace::setEnabled(false);

    // Quiescent: a final drain still decodes cleanly.
    for (const trace::Event &e : trace::drain()) {
        if (trace::nameOf(e.name) == "trace_test.tsan") {
            EXPECT_EQ(e.args[0].second, e.args[1].second);
        }
    }
}

} // namespace
} // namespace cs
