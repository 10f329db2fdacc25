#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace cs {
namespace trace {

namespace {

/**
 * One ring-buffer slot, a per-slot seqlock. The owning thread writes
 * seq = 0 (claim), then the payload words, then seq = ticket + 1
 * (publish, release). A drainer accepts the slot only if seq reads
 * ticket + 1 both before and after copying the payload; an overwrite
 * racing the copy flips seq and the drainer discards. Payload words
 * are themselves atomics so the race window is defined behavior.
 */
struct Slot
{
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> word[5];
};

constexpr std::size_t kCapacity = 1u << 16; // 64Ki events/thread, ~3.1 MiB

/**
 * Payload encoding (5 x u64):
 *   word[0]  bits 0-7   EventKind
 *            bits 8-23  name id
 *            bits 24-31 arg count
 *            bits 32-47 arg0 name id
 *            bits 48-63 arg1 name id
 *   word[1]  tsNs   word[2] durNs   word[3] arg0   word[4] arg1
 */
std::uint64_t
packHeader(EventKind kind, std::uint16_t name, std::uint8_t argCount,
           std::uint16_t argName0, std::uint16_t argName1)
{
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(name) << 8) |
           (static_cast<std::uint64_t>(argCount) << 24) |
           (static_cast<std::uint64_t>(argName0) << 32) |
           (static_cast<std::uint64_t>(argName1) << 48);
}

struct ThreadBuffer
{
    explicit ThreadBuffer(std::uint32_t tid)
        : tid(tid), slots(new Slot[kCapacity])
    {}

    const std::uint32_t tid;
    std::unique_ptr<Slot[]> slots;
    /** Next write ticket; monotonically increasing. Writer-owned,
     * drained with acquire so published slots are visible. */
    std::atomic<std::uint64_t> head{0};
    /** Tickets below this are logically cleared (drain-side only). */
    std::atomic<std::uint64_t> drainFloor{0};

    void
    emit(EventKind kind, std::uint16_t name, std::int64_t tsNs,
         std::int64_t durNs, std::uint8_t argCount, std::uint16_t argName0,
         std::int64_t arg0, std::uint16_t argName1, std::int64_t arg1)
    {
        std::uint64_t ticket = head.load(std::memory_order_relaxed);
        Slot &slot = slots[ticket & (kCapacity - 1)];
        // Claim: invalidates the old generation for concurrent drains.
        // Each payload store is a release, so it carries the claim with
        // it (pairing with the acquire loads in decodeSlot): a drainer
        // that observed any new payload word is guaranteed to see
        // seq != old generation on its re-check.
        slot.seq.store(0, std::memory_order_relaxed);
        slot.word[0].store(
            packHeader(kind, name, argCount, argName0, argName1),
            std::memory_order_release);
        slot.word[1].store(static_cast<std::uint64_t>(tsNs),
                           std::memory_order_release);
        slot.word[2].store(static_cast<std::uint64_t>(durNs),
                           std::memory_order_release);
        slot.word[3].store(static_cast<std::uint64_t>(arg0),
                           std::memory_order_release);
        slot.word[4].store(static_cast<std::uint64_t>(arg1),
                           std::memory_order_release);
        // Publish payload under the new generation, then advance head.
        slot.seq.store(ticket + 1, std::memory_order_release);
        head.store(ticket + 1, std::memory_order_release);
    }
};

/**
 * Process-wide collector. Owns every thread buffer for the life of
 * the process (threads may die while their events are still
 * undrained, so buffers are never reclaimed).
 */
struct Collector
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;

    ThreadBuffer *
    registerThread()
    {
        std::lock_guard<std::mutex> lock(mutex);
        buffers.push_back(std::make_unique<ThreadBuffer>(
            static_cast<std::uint32_t>(buffers.size())));
        return buffers.back().get();
    }
};

Collector &
collector()
{
    static Collector c;
    return c;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buffer = collector().registerThread();
    return *buffer;
}

/** Interning table: id -> name lookup is lock-free after insert via a
 * stable deque-like store; string -> id goes through the mutex. */
struct InternTable
{
    static constexpr std::uint16_t kOverflowId = 0;

    InternTable()
    {
        names.reserve(256);
        names.push_back(
            std::make_unique<std::string>("<overflow>"));
    }

    std::mutex mutex;
    std::vector<std::unique_ptr<std::string>> names;
    std::unordered_map<std::string_view, std::uint16_t> ids;

    std::uint16_t
    intern(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = ids.find(name);
        if (it != ids.end())
            return it->second;
        if (names.size() > 0xfffe)
            return kOverflowId;
        names.push_back(std::make_unique<std::string>(name));
        std::uint16_t id = static_cast<std::uint16_t>(names.size() - 1);
        ids.emplace(*names.back(), id);
        return id;
    }

    const std::string &
    lookup(std::uint16_t id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (id >= names.size())
            return *names[kOverflowId];
        return *names[id];
    }
};

InternTable &
internTable()
{
    static InternTable table;
    return table;
}

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

void
decodeSlot(const ThreadBuffer &buffer, std::uint64_t ticket, Event &out,
           bool &ok)
{
    const Slot &slot = buffer.slots[ticket & (kCapacity - 1)];
    if (slot.seq.load(std::memory_order_acquire) != ticket + 1) {
        ok = false;
        return;
    }
    std::uint64_t w0 = slot.word[0].load(std::memory_order_acquire);
    std::uint64_t w1 = slot.word[1].load(std::memory_order_acquire);
    std::uint64_t w2 = slot.word[2].load(std::memory_order_acquire);
    std::uint64_t w3 = slot.word[3].load(std::memory_order_acquire);
    std::uint64_t w4 = slot.word[4].load(std::memory_order_acquire);
    // Re-check the generation: if an overwrite raced the copy above,
    // the payload words may be torn across generations — discard. A
    // word read from a newer writer was an acquire of its release
    // store, so that writer's claim is visible here.
    if (slot.seq.load(std::memory_order_relaxed) != ticket + 1) {
        ok = false;
        return;
    }
    out.kind = static_cast<EventKind>(w0 & 0xff);
    out.name = static_cast<std::uint16_t>((w0 >> 8) & 0xffff);
    out.argCount = static_cast<std::uint8_t>((w0 >> 24) & 0xff);
    out.args[0] = {static_cast<std::uint16_t>((w0 >> 32) & 0xffff),
                   static_cast<std::int64_t>(w3)};
    out.args[1] = {static_cast<std::uint16_t>((w0 >> 48) & 0xffff),
                   static_cast<std::int64_t>(w4)};
    out.tsNs = static_cast<std::int64_t>(w1);
    out.durNs = static_cast<std::int64_t>(w2);
    out.tid = buffer.tid;
    ok = true;
}

void
writeJsonString(std::ostream &os, const std::string &s)
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

} // namespace

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

std::uint16_t
internName(std::string_view name)
{
    return internTable().intern(name);
}

const std::string &
nameOf(std::uint16_t id)
{
    return internTable().lookup(id);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - traceEpoch())
        .count();
}

std::size_t
threadBufferCapacity()
{
    return kCapacity;
}

void
emitSpan(std::uint16_t name, std::int64_t tsNs, std::int64_t durNs,
         std::uint8_t argCount, std::uint16_t argName0, std::int64_t arg0,
         std::uint16_t argName1, std::int64_t arg1)
{
    threadBuffer().emit(EventKind::Span, name, tsNs, durNs, argCount,
                        argName0, arg0, argName1, arg1);
}

void
emitInstant(std::uint16_t name, std::uint8_t argCount,
            std::uint16_t argName0, std::int64_t arg0,
            std::uint16_t argName1, std::int64_t arg1)
{
    threadBuffer().emit(EventKind::Instant, name, nowNs(), 0, argCount,
                        argName0, arg0, argName1, arg1);
}

std::vector<Event>
drain(std::vector<std::uint64_t> *lost)
{
    // Snapshot the buffer list under the registry lock; the buffers
    // themselves are drained lock-free.
    std::vector<ThreadBuffer *> buffers;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        buffers.reserve(c.buffers.size());
        for (auto &b : c.buffers)
            buffers.push_back(b.get());
    }

    std::vector<Event> events;
    if (lost != nullptr)
        lost->assign(buffers.size(), 0);
    for (ThreadBuffer *buffer : buffers) {
        std::uint64_t head = buffer->head.load(std::memory_order_acquire);
        std::uint64_t floor =
            buffer->drainFloor.load(std::memory_order_acquire);
        std::uint64_t first =
            head > kCapacity ? head - kCapacity : 0;
        first = std::max(first, floor);
        // Tickets in [floor, first) were overwritten before this drain;
        // a slot that fails to decode is being overwritten during it.
        std::uint64_t missing = first - floor;
        for (std::uint64_t t = first; t < head; ++t) {
            Event event;
            bool ok = false;
            decodeSlot(*buffer, t, event, ok);
            if (ok)
                events.push_back(event);
            else
                ++missing;
        }
        if (lost != nullptr)
            (*lost)[buffer->tid] = missing;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.tsNs < b.tsNs;
                     });
    return events;
}

void
clear()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    for (auto &buffer : c.buffers) {
        buffer->drainFloor.store(
            buffer->head.load(std::memory_order_acquire),
            std::memory_order_release);
    }
}

void
exportChromeTrace(std::ostream &os, const std::vector<Event> &events)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":";
        writeJsonString(os, nameOf(e.name));
        os << ",\"ph\":\""
           << (e.kind == EventKind::Span ? 'X' : 'i') << '"';
        // Chrome wants microseconds; keep sub-microsecond precision as
        // a fraction (the viewer accepts doubles).
        os << ",\"ts\":" << (e.tsNs / 1000) << '.' << ((e.tsNs % 1000) / 100);
        if (e.kind == EventKind::Span)
            os << ",\"dur\":" << (e.durNs / 1000) << '.'
               << ((e.durNs % 1000) / 100);
        else
            os << ",\"s\":\"t\"";
        os << ",\"pid\":1,\"tid\":" << e.tid;
        if (e.argCount > 0) {
            os << ",\"args\":{";
            for (std::uint8_t i = 0; i < e.argCount && i < 2; ++i) {
                if (i)
                    os << ",";
                writeJsonString(os, nameOf(e.args[i].first));
                os << ":" << e.args[i].second;
            }
            os << "}";
        }
        os << "}";
    }
    os << "]}\n";
}

void
exportChromeTrace(std::ostream &os)
{
    exportChromeTrace(os, drain());
}

std::vector<SpanStats>
aggregateSpans(const std::vector<Event> &events,
               const std::vector<std::uint64_t> &lost)
{
    std::map<std::uint16_t, std::vector<std::int64_t>> byName;
    std::vector<const Event *> spans;
    // Per lossy thread, when its oldest surviving event was emitted (a
    // span is emitted as it closes): anything emitted earlier is gone.
    std::map<std::uint32_t, std::int64_t> oldestEmit;
    for (const Event &e : events) {
        if (e.kind == EventKind::Span) {
            byName[e.name].push_back(e.durNs);
            spans.push_back(&e);
        }
        if (e.tid < lost.size() && lost[e.tid] > 0) {
            std::int64_t emitted = e.tsNs + e.durNs;
            auto [it, fresh] = oldestEmit.try_emplace(e.tid, emitted);
            if (!fresh)
                it->second = std::min(it->second, emitted);
        }
    }
    std::map<std::uint16_t, std::uint64_t> suspectByName;
    for (const Event *e : spans) {
        auto it = oldestEmit.find(e->tid);
        if (it != oldestEmit.end() && e->tsNs < it->second)
            ++suspectByName[e->name];
    }

    // Self time: walk each thread's spans in start order (an enclosing
    // span before the spans it contains) keeping the chain of open
    // spans; the innermost open span containing a span is its parent.
    std::sort(spans.begin(), spans.end(),
              [](const Event *a, const Event *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->tsNs != b->tsNs)
                      return a->tsNs < b->tsNs;
                  return a->durNs > b->durNs;
              });
    auto endOf = [](const Event *e) { return e->tsNs + e->durNs; };
    std::map<std::uint16_t, std::int64_t> selfByName;
    std::vector<const Event *> open;
    for (const Event *e : spans) {
        while (!open.empty() && (open.back()->tid != e->tid ||
                                 e->tsNs >= endOf(open.back()))) {
            open.pop_back();
        }
        selfByName[e->name] += e->durNs;
        if (!open.empty() && endOf(e) <= endOf(open.back()))
            selfByName[open.back()->name] -= e->durNs;
        open.push_back(e);
    }

    std::vector<SpanStats> stats;
    stats.reserve(byName.size());
    for (auto &[name, durations] : byName) {
        std::sort(durations.begin(), durations.end());
        SpanStats s;
        s.name = nameOf(name);
        s.count = durations.size();
        std::int64_t total = 0;
        for (std::int64_t d : durations)
            total += d;
        auto pct = [&](double p) {
            std::size_t idx = static_cast<std::size_t>(
                p * static_cast<double>(durations.size() - 1) + 0.5);
            return static_cast<double>(durations[idx]) * 1e-6;
        };
        s.totalMs = static_cast<double>(total) * 1e-6;
        s.selfMs = static_cast<double>(selfByName[name]) * 1e-6;
        s.selfSuspect = suspectByName[name];
        s.p50Ms = pct(0.50);
        s.p95Ms = pct(0.95);
        s.maxMs = static_cast<double>(durations.back()) * 1e-6;
        stats.push_back(std::move(s));
    }
    std::sort(stats.begin(), stats.end(),
              [](const SpanStats &a, const SpanStats &b) {
                  return a.totalMs > b.totalMs;
              });
    return stats;
}

} // namespace trace
} // namespace cs
