/**
 * @file
 * Serialization suite (DESIGN.md §5f): text and binary round-trips for
 * every Table-1 kernel and all four evaluation machines, golden-listing
 * byte-equivalence for schedules computed from *parsed* descriptions,
 * the scheduled-kernel round trip (copy-chain forward references), and
 * malformed-input fuzzing — truncations and random mutations of valid
 * documents must fail cleanly, never crash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "ir/serialize.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "machine/serialize.hpp"
#include "serve/proto.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"
#include "support/wire.hpp"

#ifndef CS_TEST_DATA_DIR
#define CS_TEST_DATA_DIR "."
#endif

namespace cs {
namespace {

Machine
machineByName(const std::string &name)
{
    if (name == "central")
        return makeCentral();
    if (name == "clustered2")
        return makeClustered({}, 2);
    if (name == "clustered4")
        return makeClustered({}, 4);
    CS_ASSERT(name == "distributed", "unknown machine ", name);
    return makeDistributed();
}

const char *const kMachineNames[] = {"central", "clustered2",
                                     "clustered4", "distributed"};

std::vector<std::uint8_t>
machineBytes(const Machine &machine)
{
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    encodeMachine(writer, machine);
    return bytes;
}

std::vector<std::uint8_t>
kernelBytes(const Kernel &kernel)
{
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    encodeKernel(writer, kernel);
    return bytes;
}

// ---------------------------------------------------------------------
// Round trips: text and binary, every machine and every kernel
// ---------------------------------------------------------------------

TEST(SerializeMachine, TextRoundTripsAllEvaluationMachines)
{
    for (const char *name : kMachineNames) {
        SCOPED_TRACE(name);
        Machine machine = machineByName(name);
        std::string text = printMachineToString(machine);

        std::optional<Machine> parsed;
        std::string error;
        ASSERT_TRUE(parseMachineText(text, &parsed, &error)) << error;
        // Fixed point: re-printing the parsed machine reproduces the
        // document byte for byte, and the binary encodings agree (the
        // strongest structural-equality check we have).
        EXPECT_EQ(printMachineToString(*parsed), text);
        EXPECT_EQ(machineBytes(*parsed), machineBytes(machine));
    }
}

TEST(SerializeMachine, BinaryRoundTripsAllEvaluationMachines)
{
    for (const char *name : kMachineNames) {
        SCOPED_TRACE(name);
        Machine machine = machineByName(name);
        std::vector<std::uint8_t> bytes = machineBytes(machine);

        wire::ByteReader reader(bytes);
        std::optional<Machine> decoded;
        ASSERT_TRUE(decodeMachine(reader, &decoded)) << reader.error();
        EXPECT_TRUE(reader.atEnd());
        EXPECT_EQ(machineBytes(*decoded), bytes);
        EXPECT_EQ(printMachineToString(*decoded),
                  printMachineToString(machine));
    }
}

TEST(SerializeKernel, TextRoundTripsAllTableOneKernels)
{
    for (const KernelSpec &spec : allKernels()) {
        SCOPED_TRACE(spec.name);
        Kernel kernel = spec.build();
        std::string text = printKernelToString(kernel);

        std::optional<Kernel> parsed;
        std::string error;
        ASSERT_TRUE(parseKernelText(text, &parsed, &error)) << error;
        EXPECT_EQ(printKernelToString(*parsed), text);
        EXPECT_EQ(kernelBytes(*parsed), kernelBytes(kernel));
    }
}

TEST(SerializeKernel, BinaryRoundTripsAllTableOneKernels)
{
    for (const KernelSpec &spec : allKernels()) {
        SCOPED_TRACE(spec.name);
        Kernel kernel = spec.build();
        std::vector<std::uint8_t> bytes = kernelBytes(kernel);

        wire::ByteReader reader(bytes);
        std::optional<Kernel> decoded;
        ASSERT_TRUE(decodeKernel(reader, &decoded)) << reader.error();
        EXPECT_TRUE(reader.atEnd());
        EXPECT_EQ(kernelBytes(*decoded), bytes);
    }
}

TEST(SerializeKernel, BinaryRoundTripsScheduledKernelWithCopies)
{
    // The distributed machine forces inserted copies; copy insertion
    // retargets consumers to copy results with *higher* value ids, so
    // the encoded kernel contains forward references that only the
    // copy-chain rule of the decoder can accept. This is the exact
    // shape every persistent-cache record has.
    setVerboseLogging(false);
    Machine machine = makeDistributed();
    Kernel kernel = kernelByName("FIR-INT").build();
    ScheduleResult result = scheduleBlock(kernel, BlockId(0), machine);
    ASSERT_TRUE(result.success);

    std::vector<std::uint8_t> bytes = kernelBytes(result.kernel);
    wire::ByteReader reader(bytes);
    std::optional<Kernel> decoded;
    ASSERT_TRUE(decodeKernel(reader, &decoded)) << reader.error();
    // Identical ids, operands, and block order: the re-encoding and
    // the exported listing are byte-identical.
    EXPECT_EQ(kernelBytes(*decoded), bytes);
    EXPECT_EQ(exportListing(*decoded, machine, result.schedule),
              exportListing(result.kernel, machine, result.schedule));
}

TEST(SerializeJobSet, TextAndBinaryRoundTrip)
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.machines.push_back(makeDistributed());
    set.kernels.push_back(kernelByName("DCT").build());
    set.kernels.push_back(kernelByName("FIR-INT").build());
    set.kernels.push_back(kernelByName("FFT-U4").build());

    for (std::uint32_t m = 0; m < 2; ++m) {
        for (std::uint32_t k = 0; k < 3; ++k) {
            serve::JobDescription job;
            job.label = "job m" + std::to_string(m) + " k\"quoted\"" +
                        std::to_string(k);
            job.machineIndex = m;
            job.kernelIndex = k;
            job.pipelined = (k % 2) == 0;
            job.maxIiSlack = 8 + static_cast<int>(k);
            job.options.maxDelay = 1024 + static_cast<int>(m);
            job.options.permutationBudget += static_cast<int>(k);
            set.jobs.push_back(std::move(job));
        }
    }

    std::string text = serve::printJobSetToString(set);
    std::optional<serve::JobSet> parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobSetText(text, &parsed, &error)) << error;
    EXPECT_EQ(serve::printJobSetToString(*parsed), text);
    ASSERT_EQ(parsed->jobs.size(), set.jobs.size());
    EXPECT_EQ(parsed->jobs[4].label, set.jobs[4].label);
    EXPECT_EQ(parsed->jobs[4].pipelined, set.jobs[4].pipelined);
    EXPECT_EQ(parsed->jobs[4].options.maxDelay,
              set.jobs[4].options.maxDelay);

    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    serve::encodeJobSet(writer, set);
    wire::ByteReader reader(bytes);
    std::optional<serve::JobSet> decoded;
    ASSERT_TRUE(serve::decodeJobSet(reader, &decoded))
        << reader.error();
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(serve::printJobSetToString(*decoded), text);
}

TEST(SerializeJobSet, CrossReferencesValidated)
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.kernels.push_back(kernelByName("DCT").build());
    serve::JobDescription job;
    job.machineIndex = 7; // dangling
    set.jobs.push_back(job);

    std::string text = serve::printJobSetToString(set);
    std::optional<serve::JobSet> parsed;
    std::string error;
    EXPECT_FALSE(serve::parseJobSetText(text, &parsed, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Retired option keys: the three failure-learning switches the search
// no longer has stay readable in both forms, and the binary layout
// keeps their bytes, so older daemons sharing a cache directory still
// decode what new clients send.
// ---------------------------------------------------------------------

/** A two-job set (block and pipelined) with default options. */
serve::JobSet
retiredKeySet()
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.kernels.push_back(kernelByName("DCT").build());
    for (bool pipelined : {false, true}) {
        serve::JobDescription job;
        job.label = pipelined ? "modulo" : "block";
        job.pipelined = pipelined;
        set.jobs.push_back(std::move(job));
    }
    return set;
}

/** The text form with the retired keys written into every options
 *  block, as job sets printed before their removal carry them. */
std::string
withRetiredKeys(std::string text, const std::string &value)
{
    const std::string anchor = "retry_variants true\n";
    const std::string retired = "      no_good_cache " + value +
                                "\n      conflict_backjumping " + value +
                                "\n      cross_attempt_no_goods " +
                                value + "\n";
    for (std::size_t at = text.find(anchor); at != std::string::npos;
         at = text.find(anchor, at)) {
        at += anchor.size();
        text.insert(at, retired);
        at += retired.size();
    }
    return text;
}

std::vector<std::uint64_t>
jobKeysOf(const serve::JobSet &set)
{
    std::vector<std::uint64_t> keys;
    for (const ScheduleJob &job : serve::jobSetToScheduleJobs(set))
        keys.push_back(scheduleJobKey(job));
    return keys;
}

/** The binary form in the option layout that still had the three
 *  failure-learning switches, each written as @p retired. */
std::vector<std::uint8_t>
legacyJobSetBytes(const serve::JobSet &set, bool retired)
{
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter w(bytes);
    w.u32(1); // jobset format version
    w.u32(static_cast<std::uint32_t>(set.machines.size()));
    for (const Machine &machine : set.machines)
        encodeMachine(w, machine);
    w.u32(static_cast<std::uint32_t>(set.kernels.size()));
    for (const Kernel &kernel : set.kernels)
        encodeKernel(w, kernel);
    w.u32(static_cast<std::uint32_t>(set.jobs.size()));
    for (const serve::JobDescription &job : set.jobs) {
        w.str(job.label);
        w.u32(job.machineIndex);
        w.u32(job.kernelIndex);
        w.u32(job.blockIndex);
        w.boolean(job.pipelined);
        w.i32(job.maxIiSlack);
        const SchedulerOptions &o = job.options;
        w.boolean(o.operationOrder);
        w.boolean(o.commCostHeuristic);
        w.i32(o.maxDelay);
        w.i32(o.moduloWindowFactor);
        w.i32(o.permutationBudget);
        w.i32(o.maxCopyDepth);
        w.u64(o.perOpAttemptBudget);
        w.u64(o.copyAttemptBudget);
        w.boolean(o.retryVariants);
        w.boolean(retired); // no_good_cache
        w.boolean(retired); // conflict_backjumping
        w.boolean(retired); // cross_attempt_no_goods
    }
    return bytes;
}

TEST(SerializeJobSet, RetiredTextKeysParseAndAreIgnored)
{
    serve::JobSet set = retiredKeySet();
    const std::string text = serve::printJobSetToString(set);
    EXPECT_EQ(text.find("no_good_cache"), std::string::npos);

    for (const char *value : {"true", "false"}) {
        std::string legacy = withRetiredKeys(text, value);
        ASSERT_NE(legacy, text);
        std::optional<serve::JobSet> parsed;
        std::string error;
        ASSERT_TRUE(serve::parseJobSetText(legacy, &parsed, &error))
            << value << ": " << error;
        EXPECT_EQ(serve::printJobSetToString(*parsed), text) << value;
        EXPECT_EQ(jobKeysOf(*parsed), jobKeysOf(set)) << value;
    }

    // Still typed: a retired key takes a boolean or nothing.
    std::optional<serve::JobSet> parsed;
    std::string error;
    std::string bad = text;
    bad.insert(bad.find("retry_variants"), "no_good_cache 1\n      ");
    EXPECT_FALSE(serve::parseJobSetText(bad, &parsed, &error));
    EXPECT_NE(error.find("true"), std::string::npos) << error;
}

TEST(SerializeJobSet, BinaryKeepsTheRetiredOptionBytes)
{
    serve::JobSet set = retiredKeySet();

    // A new client's frame is byte for byte what the old codec wrote
    // for the same defaults, so request sizes and older readers are
    // unaffected.
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    serve::encodeJobSet(writer, set);
    EXPECT_EQ(bytes, legacyJobSetBytes(set, true));

    // Frames from old clients decode, whatever the retired bytes held.
    for (bool retired : {true, false}) {
        std::vector<std::uint8_t> legacy =
            legacyJobSetBytes(set, retired);
        wire::ByteReader reader(legacy);
        std::optional<serve::JobSet> decoded;
        ASSERT_TRUE(serve::decodeJobSet(reader, &decoded))
            << reader.error();
        EXPECT_TRUE(reader.atEnd());
        EXPECT_EQ(serve::printJobSetToString(*decoded),
                  serve::printJobSetToString(set));
        EXPECT_EQ(jobKeysOf(*decoded), jobKeysOf(set));
    }
}

// ---------------------------------------------------------------------
// Golden-listing equivalence from parsed descriptions
// ---------------------------------------------------------------------

struct GoldenRecord
{
    int ii = 0;
    std::size_t bytes = 0;
    std::uint64_t hash = 0;
};

/** The committed fingerprints of tests/golden_listings.txt, keyed
 *  "kernel|machine|mode" exactly as in test_sched_equivalence.cpp. */
const std::map<std::string, GoldenRecord> &
goldenTable()
{
    static const std::map<std::string, GoldenRecord> table = [] {
        std::map<std::string, GoldenRecord> out;
        std::ifstream in(std::string(CS_TEST_DATA_DIR) +
                         "/golden_listings.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key;
            GoldenRecord record;
            fields >> key >> record.ii >> record.bytes >> std::hex >>
                record.hash >> std::dec;
            if (!key.empty())
                out[key] = record;
        }
        return out;
    }();
    return table;
}

std::string
goldenKey(const std::string &kernelName, const std::string &machineName,
          bool pipelined)
{
    std::string kernelKey = kernelName;
    for (char &c : kernelKey) {
        if (c == ' ')
            c = '_';
    }
    return kernelKey + "|" + machineName + "|" +
           (pipelined ? "modulo" : "block");
}

void
expectGolden(const std::string &key, int ii, const std::string &listing)
{
    auto it = goldenTable().find(key);
    ASSERT_NE(it, goldenTable().end()) << "no golden for " << key;
    EXPECT_EQ(ii, it->second.ii) << key;
    EXPECT_EQ(listing.size(), it->second.bytes) << key;
    EXPECT_EQ(fnv1aBytes(listing.data(), listing.size()),
              it->second.hash)
        << key << ": schedule from parsed description diverged from "
                  "the in-process builders";
}

/** Round-trip the machine and every kernel through the *text* format,
 *  schedule from the parsed descriptions only, and compare against the
 *  committed golden fingerprints (which were captured from in-process
 *  builders) — the end-to-end byte-equivalence contract a jobs file
 *  relies on. */
class SerializeParsedGolden
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(SerializeParsedGolden, BlockListingsMatchGoldens)
{
    setVerboseLogging(false);
    const std::string machineName = GetParam();

    std::optional<Machine> machine;
    std::string error;
    ASSERT_TRUE(parseMachineText(
        printMachineToString(machineByName(machineName)), &machine,
        &error))
        << error;

    for (const KernelSpec &spec : allKernels()) {
        SCOPED_TRACE(spec.name);
        std::optional<Kernel> kernel;
        ASSERT_TRUE(parseKernelText(printKernelToString(spec.build()),
                                    &kernel, &error))
            << error;
        ScheduleResult result =
            scheduleBlock(*kernel, BlockId(0), *machine);
        ASSERT_TRUE(result.success);
        expectGolden(goldenKey(spec.name, machineName, false), 0,
                     exportListing(result.kernel, *machine,
                                   result.schedule));
    }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, SerializeParsedGolden,
                         ::testing::Values("central", "clustered2",
                                           "clustered4", "distributed"),
                         [](const auto &info) { return info.param; });

TEST(SerializeParsedGoldenModulo, CentralListingsMatchGoldens)
{
    // One modulo sample keeps the parsed-description contract covered
    // on the software-pipelined path without repeating the full perf
    // sweep (SchedEquivalence owns that).
    setVerboseLogging(false);
    std::optional<Machine> machine;
    std::string error;
    ASSERT_TRUE(parseMachineText(printMachineToString(makeCentral()),
                                 &machine, &error))
        << error;

    for (const char *name : {"DCT", "FIR-INT", "FFT-U4"}) {
        SCOPED_TRACE(name);
        std::optional<Kernel> kernel;
        ASSERT_TRUE(parseKernelText(
            printKernelToString(kernelByName(name).build()), &kernel,
            &error))
            << error;
        PipelineResult result =
            schedulePipelined(*kernel, BlockId(0), *machine);
        ASSERT_TRUE(result.success);
        expectGolden(goldenKey(name, "central", true), result.ii,
                     exportListing(result.inner.kernel, *machine,
                                   result.inner.schedule));
    }
}

// ---------------------------------------------------------------------
// Malformed-input fuzzing: fail cleanly, never crash
// ---------------------------------------------------------------------

/** Evenly spaced prefix lengths, always including the empty and the
 *  almost-complete document. */
std::vector<std::size_t>
prefixLengths(std::size_t size, std::size_t samples)
{
    std::vector<std::size_t> lengths;
    for (std::size_t i = 0; i < samples; ++i)
        lengths.push_back(size * i / samples);
    if (size > 0)
        lengths.push_back(size - 1);
    return lengths;
}

TEST(SerializeFuzz, TruncatedTextFailsCleanly)
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.kernels.push_back(kernelByName("DCT").build());
    serve::JobDescription job;
    set.jobs.push_back(job);

    const std::string docs[] = {
        printMachineToString(set.machines[0]),
        printKernelToString(set.kernels[0]),
        serve::printJobSetToString(set),
    };
    for (const std::string &doc : docs) {
        // Stop short of doc.size() - 1: stripping only the trailing
        // newline leaves a complete document, which parses fine.
        for (std::size_t length : prefixLengths(doc.size() - 1, 64)) {
            std::string truncated = doc.substr(0, length);
            std::string error;
            std::optional<Machine> machine;
            std::optional<Kernel> kernel;
            std::optional<serve::JobSet> jobs;
            // A strict prefix can never be a complete document, so
            // every parse must fail — with a diagnostic, not a crash.
            EXPECT_FALSE(
                parseMachineText(truncated, &machine, &error));
            EXPECT_FALSE(parseKernelText(truncated, &kernel, &error));
            EXPECT_FALSE(
                serve::parseJobSetText(truncated, &jobs, &error));
        }
    }
}

TEST(SerializeFuzz, MutatedTextNeverCrashes)
{
    const std::string doc =
        printKernelToString(kernelByName("FIR-INT").build());
    std::mt19937 rng(0xC0FFEE);
    std::uniform_int_distribution<std::size_t> pos(0, doc.size() - 1);
    std::uniform_int_distribution<int> ch(32, 126);
    for (int round = 0; round < 200; ++round) {
        std::string mutated = doc;
        int edits = 1 + round % 8;
        for (int e = 0; e < edits; ++e)
            mutated[pos(rng)] = static_cast<char>(ch(rng));
        std::optional<Kernel> kernel;
        std::string error;
        if (!parseKernelText(mutated, &kernel, &error))
            EXPECT_FALSE(error.empty());
    }
}

TEST(SerializeFuzz, MutatedNumbersRejectedInRange)
{
    // Splice hostile magnitudes into every integer slot of a valid
    // document: the parser must bound-check before any builder call.
    const std::string doc =
        printKernelToString(kernelByName("DCT").build());
    const char *bombs[] = {"99999999999999999999", "4294967295",
                           "-1", "1048577"};
    for (const char *bomb : bombs) {
        std::string mutated;
        bool inNumber = false;
        for (char c : doc) {
            bool digit = c >= '0' && c <= '9';
            if (digit && !inNumber) {
                mutated += bomb;
                inNumber = true;
            } else if (!digit) {
                inNumber = false;
            }
            if (!digit)
                mutated += c;
        }
        std::optional<Kernel> kernel;
        std::string error;
        EXPECT_FALSE(parseKernelText(mutated, &kernel, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(SerializeFuzz, TruncatedAndFlippedBinaryNeverCrashes)
{
    serve::JobSet set;
    set.machines.push_back(makeCentral());
    set.kernels.push_back(kernelByName("FFT-U4").build());
    serve::JobDescription job;
    set.jobs.push_back(job);
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    serve::encodeJobSet(writer, set);

    auto tryDecode = [](const std::vector<std::uint8_t> &data) {
        wire::ByteReader reader(data);
        std::optional<serve::JobSet> out;
        if (!serve::decodeJobSet(reader, &out))
            EXPECT_FALSE(reader.error().empty());
    };

    for (std::size_t length : prefixLengths(bytes.size(), 128)) {
        tryDecode(std::vector<std::uint8_t>(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(
                                                    length)));
    }

    std::mt19937 rng(0xFEED);
    std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 500; ++round) {
        std::vector<std::uint8_t> mutated = bytes;
        int edits = 1 + round % 4;
        for (int e = 0; e < edits; ++e)
            mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
        tryDecode(mutated);
    }
}

TEST(SerializeFuzz, MalformedRequestsAndResponsesNeverCrash)
{
    serve::Request request;
    request.type = serve::RequestType::Schedule;
    request.requestId = 42;
    request.jobs.machines.push_back(makeCentral());
    request.jobs.kernels.push_back(kernelByName("DCT").build());
    request.jobs.jobs.emplace_back();
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    serve::encodeRequest(writer, request);

    std::mt19937 rng(0xBEEF);
    std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 300; ++round) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
        wire::ByteReader reader(mutated);
        serve::Request out;
        (void)serve::decodeRequest(reader, &out);
        wire::ByteReader asResponse(mutated);
        serve::Response response;
        (void)serve::decodeResponse(asResponse, &response);
    }

    // Round trip sanity on the untouched bytes.
    wire::ByteReader reader(bytes);
    serve::Request out;
    ASSERT_TRUE(serve::decodeRequest(reader, &out)) << reader.error();
    EXPECT_EQ(out.requestId, 42u);
    EXPECT_EQ(out.type, serve::RequestType::Schedule);
    ASSERT_EQ(out.jobs.jobs.size(), 1u);
}

} // namespace
} // namespace cs
