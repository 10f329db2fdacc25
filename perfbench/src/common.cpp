#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <sys/resource.h>
#include <thread>

#include "machine/builders.hpp"
#include "sim/datapath_sim.hpp"
#include "support/metrics.hpp"

namespace csbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

CpuTicks
CpuTicks::now()
{
    // "cpu  user nice system idle iowait irq softirq steal guest ..."
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    for (int field = 0; field < 8 && in; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v))
            break;
        if (field != 3 && field != 4)
            t.busy += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const CpuTicks &a, const CpuTicks &b)
{
    if (b.busy <= a.busy)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.busy - a.busy);
}

std::vector<std::size_t>
quietIntervals(const std::vector<double> &steal, std::size_t minimum,
               bool *fellBack)
{
    std::vector<std::size_t> quiet, all;
    for (std::size_t i = 0; i < steal.size(); ++i) {
        all.push_back(i);
        if (steal[i] <= kQuietStealShare)
            quiet.push_back(i);
    }
    *fellBack = quiet.size() < minimum;
    return *fellBack ? all : quiet;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        checkFailed("metric " + name + " is not finite");
        value = -1.0;
    }
    if (metrics_.find(name) == metrics_.end())
        order_.push_back(name);
    metrics_[name] = Value{value, unit};
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    if (failures_.size() < 8)
        failures_.push_back(why);
}

void
Report::checkFailed(const std::string &why)
{
    checkFailures_.push_back(why);
}

void
Report::listings(const std::vector<std::string> &listings)
{
    std::vector<std::uint64_t> hashes;
    for (const std::string &listing : listings)
        hashes.push_back(std::hash<std::string>{}(listing));
    listingsDigest_ = hex64(hashKeys(hashes));
}

void
Report::printTable(const std::string &title) const
{
    if (!listingsDigest_.empty())
        std::cout << "{\"listings_digest\": \"" << listingsDigest_
                  << "\"}\n";
    std::cout << "== " << title << " ==\n";
    for (const std::string &name : order_) {
        const Value &v = metrics_.at(name);
        std::cout << "  " << std::left << std::setw(44) << name << " "
                  << std::right << std::setw(14) << std::setprecision(6)
                  << v.value << " " << v.unit << "\n";
    }
    std::cout << "  operations: " << attempted_ << " attempted, "
              << failed_ << " failed\n";
    for (const std::string &why : failures_)
        std::cout << "  FAILED: " << why << "\n";
    for (const std::string &why : checkFailures_)
        std::cout << "  CHECK FAILED: " << why << "\n";
}

std::string
Report::resultJson() const
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    bool correct = failed_ == 0 && checkFailures_.empty();
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : order_) {
        const Value &v = metrics_.at(name);
        os << (first ? "" : ", ");
        first = false;
        cs::writeJsonQuoted(os, name);
        os << ": {\"value\": " << v.value << ", \"unit\": ";
        cs::writeJsonQuoted(os, v.unit);
        os << "}";
    }
    os << "}}";
    return os.str();
}

int
finish(const RunConfig &config, const Report &report)
{
    report.printTable(config.workload + (config.trace ? " (traced run)"
                                                      : " (untraced run)"));
    if (report.attempted() == 0 ||
        report.attempted() == report.failed()) {
        std::cerr << "csbench: workload '" << config.workload
                  << "' completed no operation\n";
        return 1;
    }
    std::cout << report.resultJson() << std::endl;
    return 0;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

std::vector<double>
pick(const std::vector<double> &values,
     const std::vector<std::size_t> &indices)
{
    std::vector<double> out;
    for (std::size_t i : indices)
        out.push_back(values[i]);
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

Percentile
percentile(const std::vector<double> &values, double q)
{
    Percentile p;
    p.requestedQ = q;
    p.samples = values.size();
    double n = static_cast<double>(values.size());
    double supported = n > 0.0 ? 1.0 - 10.0 / n : 0.0;
    p.reportedQ = std::max(0.0, std::min(q, supported));
    p.value = quantile(values, p.reportedQ);
    return p;
}

std::string
Percentile::label(const std::string &unit, int digits) const
{
    std::ostringstream os;
    os << "p" << std::setprecision(4) << reportedQ * 100.0 << "="
       << std::fixed << std::setprecision(digits) << value << " " << unit
       << " (n=" << samples << ")";
    if (!supported()) {
        os << " [p" << std::defaultfloat << std::setprecision(4)
           << requestedQ * 100.0
           << " needs >= " << static_cast<int>(10.0 / (1.0 - requestedQ))
           << " samples]";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

int
SpanLog::add(const std::string &name, Clock::time_point start,
             Clock::time_point end, int parent, std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, usBetween(origin_, start),
                          usBetween(origin_, end), parent, id});
    return static_cast<int>(spans_.size()) - 1;
}

int
SpanLog::open(const std::string &name, Clock::time_point start,
              int parent, std::uint64_t id)
{
    return add(name, start, start, parent, id);
}

void
SpanLog::close(int index, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.endUs = std::max(span.endUs, usBetween(origin_, end));
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<double>
SpanLog::selfTimesUs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.startUs, s.endUs});
        }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double cursor = s.startUs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, cursor);
            hi = std::min(hi, s.endUs);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[i] = (s.endUs - s.startUs) - covered;
    }
    return self;
}

std::map<std::string, SpanLog::NameTotals>
SpanLog::totalsUnder(const std::string &rootName) const
{
    std::vector<double> self = selfTimesUs();
    std::lock_guard<std::mutex> lock(mutex_);
    // A span belongs to the section of its root.
    std::vector<int> root(spans_.size(), -1);
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        int p = spans_[i].parent;
        root[i] = p < 0 ? static_cast<int>(i)
                        : root[static_cast<std::size_t>(p)];
        if (spans_[static_cast<std::size_t>(root[i])].name != rootName)
            continue;
        NameTotals &t = totals[spans_[i].name];
        t.selfUs += self[i];
        t.totalUs += spans_[i].endUs - spans_[i].startUs;
        ++t.count;
    }
    return totals;
}

std::vector<double>
SpanLog::durationsUs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.endUs - s.startUs);
    return out;
}

std::vector<double>
SpanLog::selfUs(const std::string &name) const
{
    std::vector<double> self = selfTimesUs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            out.push_back(self[i]);
    return out;
}

std::vector<std::string>
SpanLog::verify() const
{
    std::vector<double> self = selfTimesUs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> problems;
    auto note = [&problems](const std::string &what) {
        if (problems.size() < 5)
            problems.push_back(what);
    };
    std::vector<double> subtreeSelf(spans_.size(), 0.0);
    // Parents precede children in the log, so a reverse walk folds
    // every subtree into its root.
    for (std::size_t i = spans_.size(); i-- > 0;) {
        const Span &s = spans_[i];
        subtreeSelf[i] += self[i];
        if (self[i] < -1e-6)
            note("span " + std::to_string(i) + " has negative self time");
        if (s.parent < 0)
            continue;
        const Span &p = spans_[static_cast<std::size_t>(s.parent)];
        if (static_cast<std::size_t>(s.parent) >= i)
            note("span " + std::to_string(i) + " precedes its parent");
        if (s.startUs < p.startUs || s.endUs > p.endUs)
            note("span " + std::to_string(i) + " (" + s.name +
                 ") escapes its parent " + p.name);
        if (s.id != p.id)
            note("span " + std::to_string(i) + " id differs from parent");
        subtreeSelf[static_cast<std::size_t>(s.parent)] += subtreeSelf[i];
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            continue;
        double duration = spans_[i].endUs - spans_[i].startUs;
        if (std::fabs(subtreeSelf[i] - duration) > 1e-3 + 1e-9 * duration)
            note("self times under root " + std::to_string(i) +
                 " do not sum to its duration");
    }
    return problems;
}

bool
SpanLog::write(const std::string &path) const
{
    std::vector<double> self = selfTimesUs();
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::setprecision(15);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"i\":" << i << ",\"name\":";
        cs::writeJsonQuoted(out, s.name);
        out << ",\"start_us\":" << s.startUs << ",\"end_us\":" << s.endUs
            << ",\"parent\":" << s.parent << ",\"id\":" << s.id
            << ",\"self_us\":" << self[i] << "}\n";
    }
    return static_cast<bool>(out);
}

void
reportEndToEnd(Report &report, const EndToEnd &e)
{
    report.metric("setup_s", e.setupS, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("latency_ms", e.latencyMs, "ms");
    report.metric("throughput_per_s", e.throughputPerS, "1/s");
    report.metric("schedule_cycles_geomean", e.cyclesGeomean, "cycles");
    report.metric("schedule_copies", e.copies, "ops");
}

// ---------------------------------------------------------------------
// Scheduler work counters
// ---------------------------------------------------------------------

void
CoreCounts::add(const cs::CounterSet &s)
{
    dfsNodes += s.get("dfs_nodes");
    placementAttempts += s.get("placement_attempts");
    probes += s.get("probe_reads") + s.get("probe_writes");
    tableOps += s.get("table_acquires") + s.get("table_releases");
    permBacktracks += s.get("perm_backtracks");
    permBudgetExhausted += s.get("perm_budget_exhausted");
    copiesInserted += s.get("copies_inserted");
    copiesUnwound += s.get("copies_unwound");
    iiCancelLatencyUs += s.get("ii_search.cancel_latency_us");
}

void
reportCoreCounts(Report &report, const CoreCounts &c)
{
    auto count = [&report](const char *name, std::uint64_t v) {
        report.metric(name, static_cast<double>(v), "count");
    };
    count("core.dfs_nodes", c.dfsNodes);
    count("core.placement_attempts", c.placementAttempts);
    count("core.probes", c.probes);
    count("core.table_ops", c.tableOps);
    count("core.perm_backtracks", c.permBacktracks);
    count("core.perm_budget_exhausted", c.permBudgetExhausted);
    count("core.copies_inserted", c.copiesInserted);
    count("core.copies_unwound", c.copiesUnwound);
    report.metric("core.copy_waste_ratio",
                  c.copiesInserted ? static_cast<double>(c.copiesUnwound) /
                                         c.copiesInserted
                                   : 0.0,
                  "ratio");
    count("pipeline.ii_attempts", c.iiAttempts);
    count("pipeline.ii_attempts_wasted", c.iiWasted);
    count("pipeline.ii_attempts_useful", c.iiAttempts - c.iiWasted);
    report.metric("pipeline.ii_waste_ratio",
                  c.iiAttempts ? static_cast<double>(c.iiWasted) /
                                     c.iiAttempts
                               : 0.0,
                  "ratio");
    report.metric("pipeline.ii_cancel_latency_us",
                  static_cast<double>(c.iiCancelLatencyUs), "us");
    std::cout << "  core.copy_waste_ratio base: " << c.copiesUnwound
              << " unwound / " << c.copiesInserted
              << " inserted; pipeline.ii_waste_ratio base: " << c.iiWasted
              << " wasted / " << c.iiAttempts << " attempts\n";
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

std::string
checkSchedule(const cs::KernelSpec &spec, const cs::Machine &machine,
              const cs::JobResult &result)
{
    if (!result.success)
        return "not scheduled: " + result.sched.failure;
    const cs::Kernel &kernel = result.sched.kernel;
    const cs::BlockSchedule &schedule = result.sched.schedule;
    std::vector<std::string> errors =
        cs::validateSchedule(kernel, machine, schedule);
    if (!errors.empty())
        return "validateSchedule: " + errors.front();

    cs::MemoryImage image;
    cs::Rng rng(42);
    spec.init(image, rng);
    cs::MemoryImage expected = image;
    spec.reference(expected, spec.testIterations);
    cs::SimResult sim = cs::simulateBlock(kernel, machine, schedule, image,
                                          spec.testIterations);
    if (!sim.ok) {
        return "simulateBlock: " +
               (sim.problems.empty() ? std::string("failed")
                                     : sim.problems.front());
    }
    for (const auto &[address, word] : expected.cells()) {
        if (!(sim.memory.load(address) == word))
            return "memory differs from reference at " +
                   std::to_string(address);
    }
    for (const auto &[address, word] : sim.memory.cells()) {
        if (!(expected.load(address) == word))
            return "unexpected write at " + std::to_string(address);
    }
    return {};
}

// ---------------------------------------------------------------------
// Inputs and environment
// ---------------------------------------------------------------------

std::uint64_t
hashKeys(std::vector<std::uint64_t> keys)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t key : keys) {
        for (int b = 0; b < 8; ++b) {
            h ^= (key >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? ""
                                                  : line.substr(start);
            }
        }
    }
    return "unknown";
}

} // namespace

void
printEnvironment(const RunConfig &config, const std::string &inputsHash,
                 std::size_t inputCount)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("g++ ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
    sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
    sanitizers += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
    sanitizers += "address ";
#endif
#if __has_feature(thread_sanitizer)
    sanitizers += "thread ";
#endif
#endif
#ifdef CS_TRACE_DISABLED
    const char *tracing = "OFF (compiled out)";
#else
    const char *tracing = "ON (compiled in, runtime disabled)";
#endif
    if (!optimized || !ndebug || !sanitizers.empty()) {
        std::cerr << "csbench: WARNING: timing a "
                  << (sanitizers.empty() ? "debug" : "sanitizer")
                  << " build (optimized=" << optimized
                  << ", NDEBUG=" << ndebug << ", sanitizers='"
                  << sanitizers << "'); numbers are not comparable\n";
    }

    std::ostringstream os;
    os << "{\"env\": {\"workload\": ";
    cs::writeJsonQuoted(os, config.workload);
    os << ", \"seed\": " << config.seed << ", \"seconds\": "
       << config.seconds << ", \"trace\": " << (config.trace ? 1 : 0)
       << ", \"nproc\": " << hardwareThreads() << ", \"cpu_model\": ";
    cs::writeJsonQuoted(os, cpuModel());
    os << ", \"compiler\": ";
    cs::writeJsonQuoted(os, compiler);
    os << ", \"optimized\": " << (optimized ? "true" : "false")
       << ", \"ndebug\": " << (ndebug ? "true" : "false")
       << ", \"sanitizers\": ";
    cs::writeJsonQuoted(os, sanitizers.empty() ? "none" : sanitizers);
    os << ", \"cs_tracing\": ";
    cs::writeJsonQuoted(os, tracing);
    os << ", \"source_id\": ";
    cs::writeJsonQuoted(os, config.sourceId);
    os << ", \"inputs\": " << inputCount << ", \"inputs_hash\": ";
    cs::writeJsonQuoted(os, inputsHash);
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::vector<std::size_t>
shuffledIndices(std::size_t n, cs::Rng &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    rng.shuffle(order);
    return order;
}

std::vector<NamedMachine>
evaluationMachines()
{
    std::vector<NamedMachine> machines;
    machines.push_back({"central", cs::makeCentral()});
    machines.push_back({"clustered2", cs::makeClustered({}, 2)});
    machines.push_back({"clustered4", cs::makeClustered({}, 4)});
    machines.push_back({"distributed", cs::makeDistributed()});
    return machines;
}

} // namespace csbench
