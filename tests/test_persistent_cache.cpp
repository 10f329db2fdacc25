/**
 * @file
 * Persistent schedule-cache suite: restart survival (disk-tier hits
 * after reopening the shard directory), crash safety (torn tails and
 * corrupt records degrade to truncation or a miss, never a crash),
 * duplicate-key last-wins semantics, reads of records appended after
 * the open, the shared cache-counter JSON emitters, and round-trip +
 * fuzz coverage of the JobResult codec the shard records are built
 * from; shards and records of older builds included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "ir/builder.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "pipeline/persistent_cache.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/result_io.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace cs {
namespace {

namespace fs = std::filesystem;

#ifndef CS_TEST_DATA_DIR
#define CS_TEST_DATA_DIR "."
#endif

/** Fresh empty shard directory under the test's temp root. */
std::string
freshCacheDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** A real (small) schedule result to store: DCT on central. */
const std::shared_ptr<const JobResult> &
sampleResult()
{
    static const auto result = [] {
        setVerboseLogging(false);
        static Machine machine = makeCentral();
        ScheduleJob job;
        job.label = "sample";
        job.kernel = kernelByName("DCT").build();
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = false;
        JobResult r = runScheduleJob(job);
        CS_ASSERT(r.success, "sample job failed");
        return std::make_shared<const JobResult>(std::move(r));
    }();
    return result;
}

/** A second, distinct result (different listing) for last-wins tests. */
const std::shared_ptr<const JobResult> &
otherResult()
{
    static const auto result = [] {
        setVerboseLogging(false);
        static Machine machine = makeCentral();
        ScheduleJob job;
        job.label = "other";
        job.kernel = kernelByName("FIR-INT").build();
        job.block = BlockId(0);
        job.machine = &machine;
        job.pipelined = false;
        JobResult r = runScheduleJob(job);
        CS_ASSERT(r.success, "other job failed");
        return std::make_shared<const JobResult>(std::move(r));
    }();
    return result;
}

std::vector<fs::path>
shardFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.push_back(entry.path());
    return files;
}

TEST(PersistentCache, SurvivesReopenWithWarmDiskHits)
{
    std::string dir = freshCacheDir("cache_reopen");
    {
        PersistentScheduleCache cache(16, dir, 4);
        for (std::uint64_t key = 1; key <= 8; ++key)
            cache.insert(key, sampleResult());
        EXPECT_EQ(cache.diskStats().writes, 8u);
        EXPECT_EQ(cache.diskStats().writeErrors, 0u);
    } // "restart": the in-memory tier is gone, the shard files remain

    PersistentScheduleCache cache(16, dir, 4);
    EXPECT_EQ(cache.diskStats().loadedEntries, 8u);
    EXPECT_EQ(cache.diskStats().truncatedBytes, 0u);
    for (std::uint64_t key = 1; key <= 8; ++key) {
        std::shared_ptr<const JobResult> hit = cache.lookup(key);
        ASSERT_NE(hit, nullptr) << "key " << key;
        EXPECT_EQ(hit->listing, sampleResult()->listing);
        EXPECT_EQ(hit->ii, sampleResult()->ii);
        EXPECT_EQ(hit->length, sampleResult()->length);
    }
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.hits, 8u);
    EXPECT_EQ(disk.misses, 0u);
    EXPECT_EQ(disk.readErrors, 0u);
    // A disk hit promotes into the memory tier: the second lookup is
    // answered there and the disk counters do not move.
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.diskStats().hits, 8u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PersistentCache, TornTailTruncatedOnReopen)
{
    std::string dir = freshCacheDir("cache_torn");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
        cache.insert(2, sampleResult());
    }
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::uintmax_t validBytes = fs::file_size(files[0]);

    // Simulate a crash mid-append: a record header with a payload that
    // never made it to disk.
    {
        std::ofstream out(files[0],
                          std::ios::binary | std::ios::app);
        const std::uint8_t torn[] = {0x43, 0x52, 0x53, 0x43, // magic
                                     0x07, 0x00, 0x00, 0x00, // key...
                                     0x00, 0x00, 0x00, 0x00,
                                     0xff, 0x00, 0x00, 0x00}; // length
        out.write(reinterpret_cast<const char *>(torn), sizeof torn);
    }

    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.loadedEntries, 2u);
    EXPECT_EQ(disk.truncatedBytes, 16u);
    // The torn tail was cut off the file itself (self-heal), so the
    // next append starts from a clean record boundary.
    EXPECT_EQ(fs::file_size(files[0]), validBytes);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(2), nullptr);
    EXPECT_EQ(cache.lookup(7), nullptr);
}

TEST(PersistentCache, CorruptRecordDetectedOnReopen)
{
    std::string dir = freshCacheDir("cache_corrupt_open");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
    }
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::uintmax_t size = fs::file_size(files[0]);
    ASSERT_GT(size, 64u);
    {
        // Flip one payload byte mid-record: the checksum no longer
        // holds, so the open scan truncates the shard there.
        std::fstream f(files[0], std::ios::binary | std::ios::in |
                                     std::ios::out);
        f.seekp(static_cast<std::streamoff>(size / 2));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(size / 2));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&byte, 1);
    }

    // The open scan finds the corruption, truncates the shard there,
    // and self-heals.
    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.loadedEntries, 0u);
    EXPECT_GT(disk.truncatedBytes, 0u);
    EXPECT_EQ(cache.lookup(1), nullptr);
    // The cache stays writable after healing.
    cache.insert(2, sampleResult());
    EXPECT_EQ(cache.diskStats().writes, 1u);
    PersistentScheduleCache reopened(16, dir, 1);
    EXPECT_EQ(reopened.diskStats().loadedEntries, 1u);
    EXPECT_NE(reopened.lookup(2), nullptr);
}

TEST(PersistentCache, CorruptionAfterOpenDegradesToMiss)
{
    std::string dir = freshCacheDir("cache_corrupt_read");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
    }
    PersistentScheduleCache cache(16, dir, 1);
    ASSERT_EQ(cache.diskStats().loadedEntries, 1u);

    // Corrupt the record *after* the index was built: the read-time
    // checksum still catches it and the lookup degrades to a miss.
    std::vector<fs::path> files = shardFiles(dir);
    std::uintmax_t size = fs::file_size(files[0]);
    {
        std::fstream f(files[0], std::ios::binary | std::ios::in |
                                     std::ios::out);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write("\x00", 1);
        f.seekp(static_cast<std::streamoff>(size / 2 + 1));
        f.write("\xff", 1);
    }
    std::shared_ptr<const JobResult> hit = cache.lookup(1);
    if (hit != nullptr) {
        // The two overwritten bytes happened to match the original.
        SUCCEED();
        return;
    }
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.readErrors, 1u);
    EXPECT_EQ(disk.misses, 1u);
}

TEST(PersistentCache, RecordAppendedAfterOpenReadsFromDisk)
{
    std::string dir = freshCacheDir("cache_append_after_open");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
    }
    // A one-entry memory tier over a shard that already holds key 1:
    // key 2 is appended after the open, and inserting key 3 evicts it
    // from memory, so the next lookup of key 2 must read the record
    // this process appended.
    PersistentScheduleCache cache(1, dir, 1);
    ASSERT_EQ(cache.diskStats().loadedEntries, 1u);
    cache.insert(2, otherResult());
    cache.insert(3, sampleResult());
    ASSERT_EQ(cache.stats().evictions, 1u);

    std::shared_ptr<const JobResult> two = cache.lookup(2);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(two->listing, otherResult()->listing);
    std::shared_ptr<const JobResult> one = cache.lookup(1);
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(one->listing, sampleResult()->listing);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.hits, 2u);
    EXPECT_EQ(disk.misses, 0u);
    EXPECT_EQ(disk.readErrors, 0u);
}

TEST(PersistentCache, DuplicateKeysKeepLastRecord)
{
    std::string dir = freshCacheDir("cache_dup");
    {
        PersistentScheduleCache cache(16, dir, 2);
        cache.insert(5, sampleResult());
        cache.insert(5, otherResult()); // re-insertion appends
    }
    PersistentScheduleCache cache(16, dir, 2);
    std::shared_ptr<const JobResult> hit = cache.lookup(5);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->listing, otherResult()->listing);
}

TEST(PersistentCache, MemoryOnlyWhenDirectoryEmpty)
{
    PersistentScheduleCache cache(4, "");
    EXPECT_FALSE(cache.persistent());
    cache.insert(1, sampleResult());
    EXPECT_NE(cache.lookup(1), nullptr);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.writes, 0u);
    EXPECT_EQ(disk.hits + disk.misses, 0u);
}

TEST(PersistentCache, ZeroCapacityDisablesCaching)
{
    PersistentScheduleCache cache(0, "");
    cache.insert(1, sampleResult());
    EXPECT_EQ(cache.lookup(1), nullptr);
}

TEST(PersistentCache, WarmRestartServesBatchFromDisk)
{
    // The serving acceptance bar: restart with a populated shard
    // directory and replay the batch — at least 90% (here: all) of
    // the lookups must be answered by the disk tier, byte-identically.
    setVerboseLogging(false);
    std::string dir = freshCacheDir("cache_pipeline");
    Machine central = makeCentral();
    const char *names[] = {"DCT", "FFT-U4", "FIR-INT",
                           "Block Warp-U2", "Triangle Transform"};
    std::vector<ScheduleJob> jobs;
    for (const char *name : names) {
        ScheduleJob job;
        job.label = name;
        job.kernel = kernelByName(name).build();
        job.block = BlockId(0);
        job.machine = &central;
        job.pipelined = false;
        jobs.push_back(std::move(job));
    }

    std::vector<JobResult> cold;
    {
        SchedulingPipeline pipeline({.numThreads = 2,
                                     .cacheCapacity = 64,
                                     .cacheDirectory = dir,
                                     .cacheShards = 4});
        cold = pipeline.run(jobs);
        for (const JobResult &result : cold)
            ASSERT_TRUE(result.success);
        EXPECT_EQ(pipeline.cache().diskStats().writes, jobs.size());
    } // restart

    SchedulingPipeline pipeline({.numThreads = 2,
                                 .cacheCapacity = 64,
                                 .cacheDirectory = dir,
                                 .cacheShards = 4});
    EXPECT_EQ(pipeline.cache().diskStats().loadedEntries, jobs.size());
    std::vector<JobResult> warm = pipeline.run(jobs);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        EXPECT_TRUE(warm[i].cacheHit);
        EXPECT_EQ(warm[i].listing, cold[i].listing);
        EXPECT_EQ(warm[i].length, cold[i].length);
        EXPECT_EQ(warm[i].copiesInserted, cold[i].copiesInserted);
    }
    PersistentScheduleCache::DiskStats disk =
        pipeline.cache().diskStats();
    std::uint64_t lookups = disk.hits + disk.misses;
    ASSERT_EQ(lookups, jobs.size());
    EXPECT_GE(static_cast<double>(disk.hits) /
                  static_cast<double>(lookups),
              0.9);
    EXPECT_EQ(disk.hits, jobs.size());
    EXPECT_EQ(disk.readErrors, 0u);
}

TEST(CacheCounterEmitters, SharedWritersMatchHandCounts)
{
    ScheduleCache::Stats memory;
    memory.hits = 3;
    memory.misses = 2;
    memory.evictions = 1;
    memory.entries = 4;
    memory.capacity = 16;
    CounterSet memorySet;
    memory.addTo(memorySet);
    std::ostringstream memoryJson;
    writeCounterObject(memoryJson, memorySet, counterGroup("cache.memory."),
                       "cache.memory.");
    // writeCounterObject emits sorted key order everywhere.
    EXPECT_EQ(memoryJson.str(),
              "{\"capacity\":16,\"entries\":4,\"evictions\":1,"
              "\"hits\":3,\"misses\":2}");

    // The disk tier counts in cache.disk.* directly; a memory-only
    // cache still lists every one, at 0.
    std::vector<std::string> listed;
    PersistentScheduleCache(4, "").diskCounters().forEach(
        [&listed](std::string_view name, std::uint64_t value) {
            EXPECT_EQ(value, 0u) << name;
            listed.emplace_back(name);
        });
    EXPECT_EQ(listed.size(), counterGroup("cache.disk.").size());
    CounterSet diskSet;
    diskSet.bump(counter("cache.disk.loaded_entries"), 7);
    diskSet.bump(counter("cache.disk.truncated_bytes"), 24);
    diskSet.bump(counter("cache.disk.owned_shards"), 4);
    diskSet.bump(counter("cache.disk.hits"), 5);
    diskSet.bump(counter("cache.disk.misses"), 1);
    diskSet.bump(counter("cache.disk.read_errors"), 1);
    diskSet.bump(counter("cache.disk.writes"), 9);
    diskSet.bump(counter("cache.disk.dropped_read_only"), 2);
    diskSet.bump(counter("cache.disk.ownership_promotions"), 1);
    std::ostringstream diskJson;
    writeCounterObject(diskJson, diskSet, counterGroup("cache.disk."),
                       "cache.disk.");
    EXPECT_EQ(diskJson.str(),
              "{\"dropped_read_only\":2,\"hits\":5,"
              "\"loaded_entries\":7,\"misses\":1,"
              "\"owned_shards\":4,\"ownership_promotions\":1,"
              "\"read_errors\":1,\"truncated_bytes\":24,"
              "\"write_errors\":0,\"writes\":9}");
}

/** The Figure-4 motivating kernel block-scheduled on @p machine, as
 *  the hex fixtures in tests/ hold it (wallMs zeroed). */
JobResult
figure4Result(const Machine &machine)
{
    KernelBuilder b("figure4");
    b.block("body");
    Val bb = b.iadd(1, 2, "b");
    Val aa = b.load(100, 0, "a");
    Val cc = b.iadd(3, 4, "c");
    Val t = b.iadd(aa, bb, "t");
    Val u = b.iadd(aa, cc, "u");
    b.store(200, t);
    b.store(201, u);
    ScheduleJob job;
    job.label = "figure4";
    job.kernel = b.take();
    job.block = BlockId(0);
    job.machine = &machine;
    job.pipelined = false;
    JobResult result = runScheduleJob(job);
    result.wallMs = 0.0;
    return result;
}

std::vector<std::uint8_t>
encodeRecord(const JobResult &result)
{
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    encodeJobResult(writer, result);
    return bytes;
}

/** One shard record holding @p payload under @p key. */
std::vector<std::uint8_t>
shardRecord(std::uint64_t key, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> record;
    wire::appendU32le(record, kShardRecordMagic);
    wire::appendU64le(record, key);
    wire::appendU32le(record, static_cast<std::uint32_t>(payload.size()));
    record.insert(record.end(), payload.begin(), payload.end());
    wire::appendU64le(record, fnv1aBytes(payload.data(), payload.size()));
    return record;
}

/** Every field a result record holds is equal. */
void
expectSameReply(const JobResult &decoded, const JobResult &expected)
{
    EXPECT_EQ(decoded.success, expected.success);
    EXPECT_EQ(decoded.cacheHit, expected.cacheHit);
    EXPECT_EQ(decoded.cancelled, expected.cancelled);
    EXPECT_EQ(decoded.ii, expected.ii);
    EXPECT_EQ(decoded.resMii, expected.resMii);
    EXPECT_EQ(decoded.recMii, expected.recMii);
    EXPECT_EQ(decoded.iiAttempts, expected.iiAttempts);
    EXPECT_EQ(decoded.iiAttemptsWasted, expected.iiAttemptsWasted);
    EXPECT_EQ(decoded.length, expected.length);
    EXPECT_EQ(decoded.copiesInserted, expected.copiesInserted);
    EXPECT_EQ(decoded.wallMs, expected.wallMs);
    EXPECT_EQ(decoded.listing, expected.listing);
    EXPECT_EQ(decoded.verifierErrors, expected.verifierErrors);
    EXPECT_EQ(decoded.sched.success, expected.sched.success);
    EXPECT_EQ(decoded.sched.cancelled, expected.sched.cancelled);
    EXPECT_EQ(decoded.sched.failure, expected.sched.failure);
}

/** The bytes of tests/@p name, a hex dump whose '#' lines are
 *  comments; empty if the file is missing. */
std::vector<std::uint8_t>
hexFixture(const std::string &name)
{
    std::ifstream in(std::string(CS_TEST_DATA_DIR) + "/" + name);
    std::string hex;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            hex += line;
    }
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        bytes.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    }
    return bytes;
}

std::vector<std::uint8_t>
fileBytes(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(PersistentCache, OpensShardWithIndexFooterFromOlderBuild)
{
    // A shard that a build with index footers closed cleanly: two
    // records, then the 72-byte footer (magic, count, two entries,
    // dataEnd, checksum, tail magic). The scan stops at the footer's
    // magic, as it would at any torn tail.
    const std::vector<std::uint8_t> shard =
        hexFixture("shard_with_footer.hex");
    constexpr std::size_t kFooterBytes = 4 + 8 + 2 * 20 + 8 + 8 + 4;
    ASSERT_GT(shard.size(), kFooterBytes)
        << "missing tests/shard_with_footer.hex";
    std::string dir = freshCacheDir("cache_older_footer");
    const fs::path file = fs::path(dir) / "shard-0.bin";
    {
        std::ofstream out(file, std::ios::binary);
        out.write(reinterpret_cast<const char *>(shard.data()),
                  static_cast<std::streamsize>(shard.size()));
    }
    static const Machine figure5 = makeFigure5Machine();
    static const Machine central = makeCentral();
    const std::string firstListing = figure4Result(figure5).listing;
    const std::string secondListing = figure4Result(central).listing;

    {
        // Hold the flock as a live owner of the older build would,
        // without cutting the footer: this cache opens read-only,
        // indexes both records and writes nothing.
        int holder = ::open(file.c_str(), O_RDWR | O_CLOEXEC);
        ASSERT_GE(holder, 0);
        ASSERT_EQ(::flock(holder, LOCK_EX | LOCK_NB), 0);
        {
            PersistentScheduleCache reader(16, dir, 1);
            PersistentScheduleCache::DiskStats disk = reader.diskStats();
            EXPECT_EQ(disk.ownedShards, 0u);
            EXPECT_EQ(disk.loadedEntries, 2u);
            EXPECT_EQ(disk.truncatedBytes, 0u);
            std::shared_ptr<const JobResult> one = reader.lookup(1);
            std::shared_ptr<const JobResult> two = reader.lookup(2);
            ASSERT_NE(one, nullptr);
            ASSERT_NE(two, nullptr);
            EXPECT_EQ(one->listing, firstListing);
            EXPECT_EQ(two->listing, secondListing);
        }
        ::close(holder);
        EXPECT_EQ(fileBytes(file), shard);
    }

    // An owner cuts exactly the footer off and keeps both records.
    PersistentScheduleCache owner(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = owner.diskStats();
    EXPECT_EQ(disk.ownedShards, 1u);
    EXPECT_EQ(disk.loadedEntries, 2u);
    EXPECT_EQ(disk.truncatedBytes, kFooterBytes);
    EXPECT_EQ(fs::file_size(file), shard.size() - kFooterBytes);
    EXPECT_EQ(fileBytes(file),
              std::vector<std::uint8_t>(shard.begin(),
                                        shard.end() - kFooterBytes));
    std::shared_ptr<const JobResult> one = owner.lookup(1);
    std::shared_ptr<const JobResult> two = owner.lookup(2);
    ASSERT_NE(one, nullptr);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(one->listing, firstListing);
    EXPECT_EQ(two->listing, secondListing);
    EXPECT_EQ(owner.diskStats().readErrors, 0u);
}

TEST(PersistentCache, ServesVersion1AndVersion2RecordsInOneShard)
{
    // A shard an older build began, with its version-1 record (the
    // fixture) under key 1, to which this build appends a version-2
    // record under key 2.
    const std::vector<std::uint8_t> v1 = hexFixture("result_record_v1.hex");
    ASSERT_FALSE(v1.empty()) << "missing tests/result_record_v1.hex";
    std::string dir = freshCacheDir("cache_v1_then_v2");
    const fs::path file = fs::path(dir) / "shard-0.bin";
    {
        std::vector<std::uint8_t> shard = shardRecord(1, v1);
        std::ofstream out(file, std::ios::binary);
        out.write(reinterpret_cast<const char *>(shard.data()),
                  static_cast<std::streamsize>(shard.size()));
    }
    static const Machine figure5 = makeFigure5Machine();
    static const Machine central = makeCentral();
    const JobResult first = figure4Result(figure5);
    const auto second =
        std::make_shared<const JobResult>(figure4Result(central));
    ASSERT_NE(first.listing, second->listing);
    {
        PersistentScheduleCache appender(16, dir, 1);
        ASSERT_EQ(appender.diskStats().loadedEntries, 1u);
        appender.insert(2, second);
        ASSERT_EQ(appender.diskStats().writes, 1u);
    }

    auto servesBoth = [&](PersistentScheduleCache &cache) {
        std::shared_ptr<const JobResult> one = cache.lookup(1);
        std::shared_ptr<const JobResult> two = cache.lookup(2);
        ASSERT_NE(one, nullptr);
        ASSERT_NE(two, nullptr);
        EXPECT_EQ(one->listing, first.listing);
        EXPECT_EQ(two->listing, second->listing);
        PersistentScheduleCache::DiskStats disk = cache.diskStats();
        EXPECT_EQ(disk.loadedEntries, 2u);
        EXPECT_EQ(disk.hits, 2u);
        EXPECT_EQ(disk.readErrors, 0u);
    };
    {
        PersistentScheduleCache owner(16, dir, 1);
        EXPECT_EQ(owner.diskStats().ownedShards, 1u);
        servesBoth(owner);
    }
    {
        // A live owner holds the flock, so this opener is read-only.
        int holder = ::open(file.c_str(), O_RDWR | O_CLOEXEC);
        ASSERT_GE(holder, 0);
        ASSERT_EQ(::flock(holder, LOCK_EX | LOCK_NB), 0);
        PersistentScheduleCache reader(16, dir, 1);
        EXPECT_EQ(reader.diskStats().ownedShards, 0u);
        servesBoth(reader);
        ::close(holder);
    }

    // The decoder skips the version-1 record's schedule tail, but the
    // checksum still covers it: one byte flipped there after the open
    // turns the lookup into a read error and a miss.
    PersistentScheduleCache owner(16, dir, 1);
    ASSERT_EQ(owner.diskStats().loadedEntries, 2u);
    const std::size_t tail =
        kShardRecordHeaderBytes + encodeRecord(first).size() + 4;
    ASSERT_LT(tail, kShardRecordHeaderBytes + v1.size());
    {
        std::fstream f(file, std::ios::binary | std::ios::in |
                                 std::ios::out);
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(tail));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(static_cast<std::streamoff>(tail));
        f.write(&byte, 1);
    }
    EXPECT_EQ(owner.lookup(1), nullptr);
    PersistentScheduleCache::DiskStats disk = owner.diskStats();
    EXPECT_EQ(disk.readErrors, 1u);
    EXPECT_EQ(disk.misses, 1u);
    EXPECT_EQ(disk.hits, 0u);
    EXPECT_NE(owner.lookup(2), nullptr);
}

TEST(ResultIo, RoundTripPreservesEveryField)
{
    // A scheduled result, and one with every field away from its
    // default.
    JobResult synthetic;
    synthetic.cacheHit = true;
    synthetic.cancelled = true;
    synthetic.ii = 7;
    synthetic.resMii = 5;
    synthetic.recMii = 6;
    synthetic.iiAttempts = 4;
    synthetic.iiAttemptsWasted = 3;
    synthetic.length = 21;
    synthetic.copiesInserted = 2;
    synthetic.wallMs = 1.25;
    synthetic.listing = "cycle 0:\n";
    synthetic.verifierErrors = {"first", "second"};
    synthetic.sched.cancelled = true;
    synthetic.sched.failure = "cancelled";
    const JobResult *originals[] = {sampleResult().get(), &synthetic};
    for (const JobResult *original : originals) {
        std::vector<std::uint8_t> bytes = encodeRecord(*original);
        JobResult decoded;
        std::string error;
        ASSERT_TRUE(decodeJobResult(bytes, &decoded, &error)) << error;
        expectSameReply(decoded, *original);
        // Re-encoding the decoded result reproduces the bytes: the
        // codec is a bijection on valid records.
        EXPECT_EQ(encodeRecord(decoded), bytes);

        // A version-2 record ends after sched.failure.
        bytes.push_back(0);
        EXPECT_FALSE(decodeJobResult(bytes, &decoded, &error));
        EXPECT_FALSE(error.empty());
    }

    // What no reply reads stays out of the record.
    JobResult decoded;
    ASSERT_TRUE(decodeJobResult(encodeRecord(*sampleResult()), &decoded));
    EXPECT_GT(sampleResult()->sched.kernel.numOperations(), 0u);
    EXPECT_EQ(decoded.sched.kernel.numOperations(), 0u);
    EXPECT_TRUE(decoded.sched.schedule.routes().empty());
    EXPECT_EQ(decoded.sched.stats.get("dfs_nodes"), 0u);
}

TEST(ResultIo, Version2IsThePrefixOfVersion1)
{
    // The fixture is a version-1 record of the Figure-4 kernel on the
    // Figure-5 machine. Apart from the version word, the version-2
    // record of a fresh run is its first part, cut after
    // sched.failure.
    const std::vector<std::uint8_t> v1 = hexFixture("result_record_v1.hex");
    ASSERT_FALSE(v1.empty()) << "missing tests/result_record_v1.hex";
    static const Machine figure5 = makeFigure5Machine();
    const JobResult fresh = figure4Result(figure5);
    ASSERT_TRUE(fresh.success);
    const std::vector<std::uint8_t> v2 = encodeRecord(fresh);
    ASSERT_LT(v2.size(), v1.size());
    EXPECT_EQ(wire::loadU32le(v1.data()), 1u);
    EXPECT_EQ(wire::loadU32le(v2.data()), 2u);
    EXPECT_TRUE(std::equal(v2.begin() + 4, v2.end(), v1.begin() + 4));

    // The fixture still decodes to the fresh run's reply fields and
    // listing; the rest of it is skipped.
    JobResult decoded;
    std::string error;
    ASSERT_TRUE(decodeJobResult(v1, &decoded, &error)) << error;
    expectSameReply(decoded, fresh);
    EXPECT_EQ(decoded.sched.kernel.numOperations(), 0u);
}

TEST(ResultIo, TruncatedAndFlippedRecordsNeverCrash)
{
    const std::vector<std::uint8_t> bytes = encodeRecord(*sampleResult());

    for (std::size_t length = 0; length < bytes.size();
         length += 1 + bytes.size() / 256) {
        JobResult out;
        EXPECT_FALSE(decodeJobResult(
            std::span<const std::uint8_t>(bytes.data(), length), &out));
    }

    std::mt19937 rng(0xD15C);
    std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 400; ++round) {
        std::vector<std::uint8_t> mutated = bytes;
        int edits = 1 + round % 4;
        for (int e = 0; e < edits; ++e)
            mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
        JobResult out;
        (void)decodeJobResult(mutated, &out); // must not crash
    }
}

} // namespace
} // namespace cs
