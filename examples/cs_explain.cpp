/**
 * @file
 * Diagnostic front-end: schedule one kernel on one machine with the
 * span tracer enabled and explain what the scheduler did —
 *
 *   - per-operation placement (cycle, unit) with per-op scheduling
 *     effort reconstructed from the "schedule_op" trace spans,
 *   - placement rejections broken down by the closed RejectReason
 *     taxonomy (reject.* counters),
 *   - every inserted copy: which register-file pair it bridges, where
 *     it landed, and which consumption it feeds,
 *   - the top-k hottest trace spans (count/total/p50/p95/max).
 *
 *   cs_explain [KERNEL] [MACHINE] [--plain] [--top K] [--list]
 *
 *   KERNEL     Table-1 kernel name, e.g. FIR-FP (default: first kernel)
 *   MACHINE    central | clustered2 | clustered4 | distributed
 *              (default: distributed — the machine that forces copies)
 *   --plain    plain block schedule instead of software pipelining
 *   --top K    how many hottest spans to print (default 8)
 *   --list     list kernel and machine names and exit
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/reject.hpp"
#include "core/sched_context.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "machine/opclass.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/job.hpp"
#include "support/logging.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace {

struct Args
{
    std::string kernel;
    std::string machine = "distributed";
    bool pipelined = true;
    int top = 8;
    bool list = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--plain") {
            args.pipelined = false;
        } else if (arg == "--top") {
            if (i + 1 >= argc)
                CS_FATAL("--top needs a value");
            args.top = std::atoi(argv[++i]);
        } else if (arg == "--list") {
            args.list = true;
        } else if (!arg.empty() && arg[0] == '-') {
            CS_FATAL("unknown argument '", arg, "'");
        } else if (positional == 0) {
            args.kernel = arg;
            ++positional;
        } else if (positional == 1) {
            args.machine = arg;
            ++positional;
        } else {
            CS_FATAL("too many positional arguments");
        }
    }
    return args;
}

bool
knownMachine(const std::string &name)
{
    return name == "central" || name == "clustered2" ||
           name == "clustered4" || name == "distributed";
}

cs::Machine
buildMachine(const std::string &name)
{
    using namespace cs;
    if (name == "central")
        return makeCentral();
    if (name == "clustered2")
        return makeClustered({}, 2);
    if (name == "clustered4")
        return makeClustered({}, 4);
    return makeDistributed();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cs;
    setVerboseLogging(false);
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const FatalError &) {
        std::cerr << "usage: cs_explain [KERNEL] [MACHINE] [--plain] "
                     "[--top K] [--list]\n";
        return 2;
    }

    if (args.list) {
        std::cout << "kernels:\n";
        for (const KernelSpec &spec : allKernels())
            std::cout << "  " << spec.name << "  (" << spec.description
                      << ")\n";
        std::cout << "machines: central clustered2 clustered4 "
                     "distributed\n";
        return 0;
    }

    const KernelSpec *spec = nullptr;
    for (const KernelSpec &candidate : allKernels()) {
        if (args.kernel.empty() || candidate.name == args.kernel) {
            spec = &candidate;
            break;
        }
    }
    if (spec == nullptr) {
        std::cerr << "cs_explain: unknown kernel '" << args.kernel
                  << "' (try --list)\n";
        return 2;
    }

    if (!knownMachine(args.machine)) {
        std::cerr << "cs_explain: unknown machine '" << args.machine
                  << "' (central, clustered2, clustered4, "
                     "distributed)\n";
        return 2;
    }
    Machine machine = buildMachine(args.machine);

    ScheduleJob job;
    job.label = spec->name + "@" + args.machine;
    job.kernel = spec->build();
    job.block = BlockId(0);
    job.machine = &machine;
    job.pipelined = args.pipelined;

    trace::setEnabled(true);
    JobResult result = runScheduleJob(job);
    std::vector<trace::Event> events = trace::drain();

    printBanner(std::cout, "Explain: " + job.label);
    std::cout << (args.pipelined ? "modulo schedule" : "block schedule")
              << ": "
              << (result.success ? "SUCCESS" : "FAILED — " +
                                                   result.sched.failure)
              << "\n";
    if (result.success) {
        if (args.pipelined) {
            std::cout << "II " << result.ii << " (MII "
                      << std::max(result.resMii, result.recMii)
                      << ": res " << result.resMii << ", rec "
                      << result.recMii << "), " << result.iiAttempts
                      << " II attempt(s)\n";
        } else {
            std::cout << "length " << result.length << " cycle(s)\n";
        }
        std::cout << result.copiesInserted << " cop"
                  << (result.copiesInserted == 1 ? "y" : "ies")
                  << " inserted, verifier "
                  << (result.verifierErrors.empty() ? "clean"
                                                    : "REJECTED")
                  << ", " << TextTable::num(result.wallMs, 2)
                  << " ms\n";
    }

    const Kernel &kernel = result.sched.kernel;
    const BlockSchedule &sched = result.sched.schedule;
    const CounterSet &stats = result.sched.stats;

    // Per-op scheduling effort from the trace: total span time and
    // visit count per op index (re-visits across II attempts count).
    std::map<std::int64_t, std::pair<std::uint64_t, double>> opEffort;
    const std::uint16_t scheduleOpName = trace::internName("schedule_op");
    for (const trace::Event &e : events) {
        if (e.kind == trace::EventKind::Span &&
            e.name == scheduleOpName && e.argCount >= 1) {
            auto &[count, ms] = opEffort[e.args[0].second];
            ++count;
            ms += static_cast<double>(e.durNs) / 1e6;
        }
    }

    if (result.success) {
        std::cout << "\n";
        TextTable table(
            {"op", "opcode", "kind", "cycle", "unit", "visits", "ms"});
        const std::size_t numOriginal = kernel.numOriginalOperations();
        for (OperationId opId : kernel.block(job.block).operations) {
            const Operation &op = kernel.operation(opId);
            const Placement &p = sched.placement(opId);
            auto effort = opEffort.find(
                static_cast<std::int64_t>(opId.index()));
            table.addRow({
                "#" + std::to_string(opId.index()),
                std::string(opcodeName(op.opcode)),
                opId.index() < numOriginal ? "orig" : "copy",
                p.scheduled ? std::to_string(p.cycle) : "-",
                p.scheduled ? "fu" + std::to_string(p.fu.index()) : "-",
                effort == opEffort.end()
                    ? "-"
                    : std::to_string(effort->second.first),
                effort == opEffort.end()
                    ? "-"
                    : TextTable::num(effort->second.second, 3),
            });
        }
        table.print(std::cout);
    }

    // Rejection taxonomy: why placements were refused along the way.
    std::cout << "\nplacement rejections by reason:\n";
    std::uint64_t totalRejects = 0;
    for (std::size_t i = 0; i < kNumRejectReasons; ++i) {
        std::uint64_t n =
            stats.get(std::string("reject.") + kRejectReasonNames[i]);
        totalRejects += n;
        if (n > 0)
            std::cout << "  " << kRejectReasonNames[i] << ": " << n
                      << "\n";
    }
    if (totalRejects == 0)
        std::cout << "  (none — every placement held first try)\n";

    // The adaptive II search's decisions for this block (pipelined
    // runs): the classifier features that key the portfolio, the mode
    // the planner chose, and the (ii, variant) attempt order actually
    // launched — reconstructed from the ii_attempt trace spans.
    // Nothing here is freshly instrumented: the features recompute
    // from the public context, the rest reads the spans and the
    // ii_search.* counters the search already emits.
    if (args.pipelined) {
        std::cout << "\nadaptive II search:\n";
        BlockSchedulingContext context(job.kernel, job.block, machine);
        BlockFeatures features = classifyBlock(context);
        std::cout << "  block shape: " << features.numOps
                  << " ops, max fan-out " << features.maxFanOut
                  << ", ResMII " << features.resMii << ", RecMII "
                  << features.recMii << ", shape key 0x" << std::hex
                  << features.shapeKey() << std::dec << "\n  class mix:";
        for (std::size_t c = 0; c < kNumOpClasses; ++c) {
            if (features.classCounts[c] > 0)
                std::cout << " "
                          << opClassName(static_cast<OpClass>(c)) << "="
                          << features.classCounts[c];
        }
        std::cout << "\n";
        if (stats.get("ii_search.serial_inline") > 0) {
            std::cout << "  mode: serial-inline (portfolio says the "
                         "first attempt wins this shape)\n";
        } else if (stats.get("ii_search.window") > 0) {
            std::cout << "  mode: speculative, window "
                      << stats.get("ii_search.window") << "\n";
        } else {
            std::cout << "  mode: serial sweep (no II worker pool)\n";
        }
        std::cout << "  attempt launch order:";
        const std::uint16_t iiAttemptName =
            trace::internName("ii_attempt");
        int printed = 0;
        for (const trace::Event &e : events) {
            if (e.kind != trace::EventKind::Span ||
                e.name != iiAttemptName || e.argCount < 2)
                continue;
            std::cout << " (ii " << e.args[0].second << ", v"
                      << e.args[1].second << ")";
            if (++printed == 12 && result.iiAttempts > 12) {
                std::cout << " ... +"
                          << (result.iiAttempts - printed) << " more";
                break;
            }
        }
        if (printed == 0)
            std::cout << " (cache hit — no attempts ran)";
        std::cout << "\n";
    }

    // Copies: which register-file pair each one bridges and why it
    // exists (the consumption it feeds).
    if (result.success && result.copiesInserted > 0) {
        std::cout << "\ninserted copies:\n";
        const std::size_t numOriginal = kernel.numOriginalOperations();
        for (OperationId opId : kernel.block(job.block).operations) {
            if (opId.index() < numOriginal)
                continue;
            const Placement &p = sched.placement(opId);
            std::cout << "  copy #" << opId.index();
            if (p.scheduled)
                std::cout << " @ cycle " << p.cycle << " on fu"
                          << p.fu.index();
            // The route the copy reads tells the source file; the
            // route(s) it feeds tell the destination and the consumer.
            for (const RouteRecord &r : sched.routes()) {
                if (r.reader == opId) {
                    std::cout << ", reads rf"
                              << machine
                                     .readPortRegFile(r.readStub.readPort)
                                     .index()
                              << " (value v" << r.value.index() << ")";
                }
            }
            for (const RouteRecord &r : sched.routes()) {
                if (r.writer == opId && r.writeStub) {
                    std::cout << ", writes rf"
                              << machine
                                     .writePortRegFile(
                                         r.writeStub->writePort)
                                     .index()
                              << " feeding op #" << r.reader.index()
                              << " slot " << r.slot;
                    if (r.distance != 0)
                        std::cout << " (distance " << r.distance << ")";
                }
            }
            std::cout << "\n";
        }
    }

    // Hottest spans across the whole run.
    std::vector<trace::SpanStats> spans = trace::aggregateSpans(events);
    std::cout << "\ntop " << args.top << " hottest spans ("
              << events.size() << " events buffered):\n";
    TextTable spanTable(
        {"span", "count", "total ms", "p50 ms", "p95 ms", "max ms"});
    int shown = 0;
    for (const trace::SpanStats &s : spans) {
        if (shown++ >= args.top)
            break;
        spanTable.addRow({
            s.name,
            std::to_string(s.count),
            TextTable::num(s.totalMs, 3),
            TextTable::num(s.p50Ms, 4),
            TextTable::num(s.p95Ms, 4),
            TextTable::num(s.maxMs, 4),
        });
    }
    spanTable.print(std::cout);

    if (!result.verifierErrors.empty()) {
        std::cout << "\nverifier errors:\n";
        for (const std::string &err : result.verifierErrors)
            std::cout << "  " << err << "\n";
    }

    return result.success && result.verifierErrors.empty() ? 0 : 1;
}
