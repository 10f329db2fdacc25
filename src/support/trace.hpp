/**
 * @file
 * Low-overhead structured tracing for the scheduler: per-thread
 * lock-free ring buffers of fixed-size span/instant events, drained
 * into a process-wide collector and exported as Chrome trace_event
 * JSON (loads in chrome://tracing or Perfetto) or aggregated into
 * per-span timing statistics.
 *
 * Design:
 *
 *  - Each thread owns one ring buffer. The owning thread is the only
 *    writer; emission is a handful of relaxed atomic stores plus one
 *    release store publishing the slot — no locks, no allocation.
 *  - Every slot is a per-slot seqlock (a generation counter plus
 *    atomic payload words), so any thread may drain concurrently with
 *    live writers: a drain that races an overwrite simply discards
 *    that slot. All payload accesses go through atomics — the drain
 *    is data-race-free by construction (the TSan drain test pins
 *    this).
 *  - The ring wraps: when a buffer fills, the oldest events are
 *    overwritten and the newest are kept.
 *  - Event names and argument names are interned 16-bit ids; the
 *    CS_TRACE_* macros intern once per call site via a static local.
 *  - Runtime toggle: trace::setEnabled(true). When disabled (the
 *    default) every instrumentation point costs one relaxed load and
 *    a predictable branch. Every untraced perfbench run times this
 *    build, so that cost is part of each commit-to-commit comparison
 *    (DESIGN.md section 5e).
 *  - Compile-out: configure with -DCS_TRACING=OFF (which defines
 *    CS_TRACE_DISABLED) and the macros compile to nothing.
 *
 * Tracing is a pure observer: instrumentation only reads scheduler
 * state, so schedules with tracing enabled are byte-identical to
 * schedules with it disabled (tests/test_trace_equivalence.cpp holds
 * all 80 golden listings both ways).
 */

#ifndef CS_SUPPORT_TRACE_HPP
#define CS_SUPPORT_TRACE_HPP

#include <atomic>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cs {
namespace trace {

/** What one trace record describes. */
enum class EventKind : std::uint8_t {
    /** A closed interval: timestamp + duration (Chrome phase "X"). */
    Span = 0,
    /** A point in time (Chrome phase "i"). */
    Instant = 1,
};

/** One decoded event, as returned by drain(). */
struct Event
{
    EventKind kind = EventKind::Instant;
    /** Collector-assigned id of the emitting thread (dense from 0). */
    std::uint32_t tid = 0;
    /** Interned event name (nameOf() decodes). */
    std::uint16_t name = 0;
    /** Nanoseconds since the process trace epoch. */
    std::int64_t tsNs = 0;
    /** Span duration in nanoseconds (0 for instants). */
    std::int64_t durNs = 0;
    /** Typed integer arguments: (interned arg name, value). */
    std::uint8_t argCount = 0;
    std::array<std::pair<std::uint16_t, std::int64_t>, 2> args{};
};

/** Aggregated timing of one span name across a drained event set. */
struct SpanStats
{
    std::string name;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double maxMs = 0.0;
};

/** @name Runtime toggle */
/// @{

/** Enable/disable event emission process-wide (default: disabled). */
void setEnabled(bool on);

inline std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

/** The hot-path check: one relaxed load. */
inline bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}
/// @}

/** @name Name interning */
/// @{

/**
 * Intern a name, returning its stable 16-bit id. Thread-safe; the id
 * space saturates at 65534 distinct names (further names all map to
 * the shared "<overflow>" id rather than failing).
 */
std::uint16_t internName(std::string_view name);

/** Decode an interned id (valid for the life of the process). */
const std::string &nameOf(std::uint16_t id);
/// @}

/** @name Emission (called by the macros and RAII span below) */
/// @{

/** Nanoseconds since the process trace epoch (steady clock). */
std::int64_t nowNs();

/** Number of event slots in each per-thread ring buffer. */
std::size_t threadBufferCapacity();

void emitSpan(std::uint16_t name, std::int64_t tsNs, std::int64_t durNs,
              std::uint8_t argCount = 0, std::uint16_t argName0 = 0,
              std::int64_t arg0 = 0, std::uint16_t argName1 = 0,
              std::int64_t arg1 = 0);

void emitInstant(std::uint16_t name, std::uint8_t argCount = 0,
                 std::uint16_t argName0 = 0, std::int64_t arg0 = 0,
                 std::uint16_t argName1 = 0, std::int64_t arg1 = 0);
/// @}

/** @name Collection */
/// @{

/**
 * Snapshot every currently buffered event across all threads, sorted
 * by timestamp. Safe to call while other threads keep emitting:
 * events overwritten mid-read are discarded, newly emitted events may
 * or may not make the snapshot. Draining does not consume — two
 * quiescent drains return the same events.
 */
std::vector<Event> drain();

/**
 * Forget everything buffered so far (a floor per thread buffer; no
 * synchronization with live writers is needed). Events emitted after
 * clear() are unaffected.
 */
void clear();

/**
 * Serialize events as a Chrome trace_event JSON document
 * ({"traceEvents":[...]}): spans as phase "X" with microsecond
 * timestamps/durations, instants as thread-scoped phase "i",
 * arguments as an "args" object. Loads directly in chrome://tracing
 * and Perfetto.
 */
void exportChromeTrace(std::ostream &os, const std::vector<Event> &events);

/** drain() + exportChromeTrace() in one call. */
void exportChromeTrace(std::ostream &os);

/**
 * Per-name timing summary of the spans in @p events (instants are
 * ignored), sorted by total time descending — the "hottest span"
 * order the cs_explain front-end prints.
 */
std::vector<SpanStats> aggregateSpans(const std::vector<Event> &events);
/// @}

/**
 * RAII span: records the start time on construction, emits one Span
 * event covering the enclosing scope on destruction. When tracing is
 * disabled at construction the destructor emits nothing — including
 * when tracing got enabled mid-span (a half-observed span would lie).
 */
class Scope
{
  public:
    explicit Scope(std::uint16_t name)
    {
        if (enabled()) {
            name_ = name;
            start_ = nowNs();
        }
    }

    Scope(std::uint16_t name, std::uint16_t argName0, std::int64_t arg0)
        : Scope(name)
    {
        argCount_ = 1;
        argName0_ = argName0;
        arg0_ = arg0;
    }

    Scope(std::uint16_t name, std::uint16_t argName0, std::int64_t arg0,
          std::uint16_t argName1, std::int64_t arg1)
        : Scope(name)
    {
        argCount_ = 2;
        argName0_ = argName0;
        arg0_ = arg0;
        argName1_ = argName1;
        arg1_ = arg1;
    }

    ~Scope()
    {
        if (start_ >= 0) {
            emitSpan(name_, start_, nowNs() - start_, argCount_,
                     argName0_, arg0_, argName1_, arg1_);
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int64_t start_ = -1; ///< -1: disabled at construction
    std::uint16_t name_ = 0;
    std::uint8_t argCount_ = 0;
    std::uint16_t argName0_ = 0;
    std::uint16_t argName1_ = 0;
    std::int64_t arg0_ = 0;
    std::int64_t arg1_ = 0;
};

} // namespace trace
} // namespace cs

/**
 * Call-site macros. Each interns its (literal) names once via a
 * function-local static, then pays one relaxed load per pass when
 * tracing is disabled. Names must be string literals or otherwise
 * stable for the first invocation.
 */
#ifndef CS_TRACE_DISABLED

#define CS_TRACE_CAT2(a, b) a##b
#define CS_TRACE_CAT(a, b) CS_TRACE_CAT2(a, b)

/** Span covering the rest of the enclosing scope. */
#define CS_TRACE_SPAN(name_lit)                                              \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_n, __LINE__) =             \
        ::cs::trace::internName(name_lit);                                   \
    ::cs::trace::Scope CS_TRACE_CAT(cs_tr_s, __LINE__)(                      \
        CS_TRACE_CAT(cs_tr_n, __LINE__))

/** Span with one integer argument. */
#define CS_TRACE_SPAN1(name_lit, arg_lit, value)                             \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_n, __LINE__) =             \
        ::cs::trace::internName(name_lit);                                   \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_a, __LINE__) =             \
        ::cs::trace::internName(arg_lit);                                    \
    ::cs::trace::Scope CS_TRACE_CAT(cs_tr_s, __LINE__)(                      \
        CS_TRACE_CAT(cs_tr_n, __LINE__),                                     \
        CS_TRACE_CAT(cs_tr_a, __LINE__),                                     \
        static_cast<std::int64_t>(value))

/** Span with two integer arguments. */
#define CS_TRACE_SPAN2(name_lit, arg0_lit, v0, arg1_lit, v1)                 \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_n, __LINE__) =             \
        ::cs::trace::internName(name_lit);                                   \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_a, __LINE__) =             \
        ::cs::trace::internName(arg0_lit);                                   \
    static const std::uint16_t CS_TRACE_CAT(cs_tr_b, __LINE__) =             \
        ::cs::trace::internName(arg1_lit);                                   \
    ::cs::trace::Scope CS_TRACE_CAT(cs_tr_s, __LINE__)(                      \
        CS_TRACE_CAT(cs_tr_n, __LINE__),                                     \
        CS_TRACE_CAT(cs_tr_a, __LINE__), static_cast<std::int64_t>(v0),      \
        CS_TRACE_CAT(cs_tr_b, __LINE__), static_cast<std::int64_t>(v1))

/** Instant event with one integer argument. */
#define CS_TRACE_INSTANT1(name_lit, arg_lit, value)                          \
    do {                                                                     \
        if (::cs::trace::enabled()) {                                        \
            static const std::uint16_t cs_tr_n =                             \
                ::cs::trace::internName(name_lit);                           \
            static const std::uint16_t cs_tr_a =                             \
                ::cs::trace::internName(arg_lit);                            \
            ::cs::trace::emitInstant(cs_tr_n, 1, cs_tr_a,                    \
                                     static_cast<std::int64_t>(value));      \
        }                                                                    \
    } while (0)

/** Instant event with two integer arguments. */
#define CS_TRACE_INSTANT2(name_lit, arg0_lit, v0, arg1_lit, v1)              \
    do {                                                                     \
        if (::cs::trace::enabled()) {                                        \
            static const std::uint16_t cs_tr_n =                             \
                ::cs::trace::internName(name_lit);                           \
            static const std::uint16_t cs_tr_a =                             \
                ::cs::trace::internName(arg0_lit);                           \
            static const std::uint16_t cs_tr_b =                             \
                ::cs::trace::internName(arg1_lit);                           \
            ::cs::trace::emitInstant(cs_tr_n, 2, cs_tr_a,                    \
                                     static_cast<std::int64_t>(v0),          \
                                     cs_tr_b,                                \
                                     static_cast<std::int64_t>(v1));         \
        }                                                                    \
    } while (0)

#else // CS_TRACE_DISABLED: compile the instrumentation out entirely.

#define CS_TRACE_SPAN(name_lit) do {} while (0)
#define CS_TRACE_SPAN1(name_lit, arg_lit, value) do {} while (0)
#define CS_TRACE_SPAN2(name_lit, a0, v0, a1, v1) do {} while (0)
#define CS_TRACE_INSTANT1(name_lit, arg_lit, value) do {} while (0)
#define CS_TRACE_INSTANT2(name_lit, a0, v0, a1, v1) do {} while (0)

#endif // CS_TRACE_DISABLED

#endif // CS_SUPPORT_TRACE_HPP
