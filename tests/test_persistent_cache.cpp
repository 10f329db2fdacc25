/**
 * @file
 * Persistent schedule-cache suite: restart survival (disk-tier hits
 * after reopening the shard directory), crash safety (torn tails and
 * corrupt records degrade to truncation or a miss, never a crash),
 * duplicate-key last-wins semantics, the shared cache-counter JSON
 * emitters, and round-trip + fuzz coverage of the JobResult codec the
 * shard records are built from.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

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
const JobResult &
sampleResult()
{
    static const JobResult result = [] {
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
        return r;
    }();
    return result;
}

/** A second, distinct result (different listing) for last-wins tests. */
const JobResult &
otherResult()
{
    static const JobResult result = [] {
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
        return r;
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
        std::optional<JobResult> hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << "key " << key;
        EXPECT_EQ(hit->listing, sampleResult().listing);
        EXPECT_EQ(hit->ii, sampleResult().ii);
        EXPECT_EQ(hit->length, sampleResult().length);
    }
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.hits, 8u);
    EXPECT_EQ(disk.misses, 0u);
    EXPECT_EQ(disk.readErrors, 0u);
    // A disk hit promotes into the memory tier: the second lookup is
    // answered there and the disk counters do not move.
    EXPECT_TRUE(cache.lookup(1).has_value());
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
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.lookup(2).has_value());
    EXPECT_FALSE(cache.lookup(7).has_value());
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

    {
        // The footer survived (the flip hit the payload), so the O(1)
        // reopen trusts it — but the read-time checksum catches the
        // damage and the lookup degrades to a miss.
        PersistentScheduleCache cache(16, dir, 1);
        PersistentScheduleCache::DiskStats disk = cache.diskStats();
        EXPECT_EQ(disk.footerLoads, 1u);
        EXPECT_EQ(disk.loadedEntries, 1u);
        EXPECT_FALSE(cache.lookup(1).has_value());
        EXPECT_EQ(cache.diskStats().readErrors, 1u);
    }

    // A crashed daemon leaves no footer: the fallback scan finds the
    // corruption at open, truncates the shard there, and self-heals.
    ASSERT_EQ(PersistentScheduleCache::stripIndexFooters(dir), 1);
    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.scanLoads, 1u);
    EXPECT_EQ(disk.loadedEntries, 0u);
    EXPECT_GT(disk.truncatedBytes, 0u);
    EXPECT_FALSE(cache.lookup(1).has_value());
    // The cache stays writable after healing.
    cache.insert(2, sampleResult());
    EXPECT_EQ(cache.diskStats().writes, 1u);
    PersistentScheduleCache reopened(16, dir, 1);
    EXPECT_EQ(reopened.diskStats().loadedEntries, 1u);
    EXPECT_TRUE(reopened.lookup(2).has_value());
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
    std::optional<JobResult> hit = cache.lookup(1);
    if (hit.has_value()) {
        // The two overwritten bytes happened to match the original.
        SUCCEED();
        return;
    }
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.readErrors, 1u);
    EXPECT_EQ(disk.misses, 1u);
}

/** Raw shard-record bytes for @p key, as a crashed or foreign writer
 *  would append them (no footer maintenance). */
std::vector<std::uint8_t>
rawRecord(std::uint64_t key, const JobResult &result)
{
    std::vector<std::uint8_t> payload;
    wire::ByteWriter writer(payload);
    encodeJobResult(writer, result);
    std::vector<std::uint8_t> record;
    wire::appendU32le(record, kShardRecordMagic);
    wire::appendU64le(record, key);
    wire::appendU32le(record,
                      static_cast<std::uint32_t>(payload.size()));
    record.insert(record.end(), payload.begin(), payload.end());
    wire::appendU64le(record,
                      fnv1aBytes(payload.data(), payload.size()));
    return record;
}

void
appendBytes(const fs::path &file, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(file, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(PersistentCache, TornFooterFallsBackToScan)
{
    std::string dir = freshCacheDir("cache_torn_footer");
    {
        PersistentScheduleCache cache(16, dir, 1);
        for (std::uint64_t key = 1; key <= 3; ++key)
            cache.insert(key, sampleResult());
    } // clean close appends the index footer
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::uintmax_t sizeWithFooter = fs::file_size(files[0]);

    // A crash mid-footer-write: the tail (and its magic) never landed.
    fs::resize_file(files[0], sizeWithFooter - 3);

    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.footerLoads, 0u);
    EXPECT_EQ(disk.scanLoads, 1u);
    EXPECT_EQ(disk.loadedEntries, 3u);
    EXPECT_GT(disk.truncatedBytes, 0u); // the torn footer was cut off
    for (std::uint64_t key = 1; key <= 3; ++key) {
        std::optional<JobResult> hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << "key " << key;
        EXPECT_EQ(hit->listing, sampleResult().listing);
    }
    EXPECT_EQ(cache.diskStats().readErrors, 0u);
}

TEST(PersistentCache, FlippedFooterChecksumFallsBackToScan)
{
    std::string dir = freshCacheDir("cache_footer_checksum");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
        cache.insert(2, otherResult());
    }
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::uintmax_t size = fs::file_size(files[0]);
    {
        // Flip one bit of the footer checksum (8 bytes before the tail
        // magic): geometry and magics still hold, the checksum doesn't.
        std::fstream f(files[0], std::ios::binary | std::ios::in |
                                     std::ios::out);
        f.seekg(static_cast<std::streamoff>(size - 12));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(static_cast<std::streamoff>(size - 12));
        f.write(&byte, 1);
    }

    {
        PersistentScheduleCache cache(16, dir, 1);
        PersistentScheduleCache::DiskStats disk = cache.diskStats();
        EXPECT_EQ(disk.footerLoads, 0u);
        EXPECT_EQ(disk.scanLoads, 1u);
        EXPECT_EQ(disk.loadedEntries, 2u);
        EXPECT_GT(disk.truncatedBytes, 0u);
        std::optional<JobResult> one = cache.lookup(1);
        std::optional<JobResult> two = cache.lookup(2);
        ASSERT_TRUE(one.has_value());
        ASSERT_TRUE(two.has_value());
        EXPECT_EQ(one->listing, sampleResult().listing);
        EXPECT_EQ(two->listing, otherResult().listing);
    } // clean close writes a fresh, valid footer

    PersistentScheduleCache reopened(16, dir, 1);
    EXPECT_EQ(reopened.diskStats().footerLoads, 1u);
    EXPECT_EQ(reopened.diskStats().loadedEntries, 2u);
}

TEST(PersistentCache, FooterEntryPastDataEndFallsBackToScan)
{
    std::string dir = freshCacheDir("cache_footer_bounds");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
        cache.insert(2, sampleResult());
    }
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::uintmax_t size = fs::file_size(files[0]);

    // A correctly checksummed footer whose entry points past the
    // records region: every field validates except the entry bounds,
    // so trusting it blindly would index into nothing. The open must
    // reject it and fall back to the scan.
    std::vector<std::uint8_t> fake;
    wire::appendU32le(fake, kShardFooterMagic);
    wire::appendU64le(fake, 1); // one entry
    wire::appendU64le(fake, 99);
    wire::appendU64le(fake, size + 4096); // offset past EOF
    wire::appendU32le(fake, 16);
    wire::appendU64le(fake, size); // dataEnd: this footer's position
    wire::appendU64le(fake, fnv1aBytes(fake.data(), fake.size()));
    wire::appendU32le(fake, kShardFooterTailMagic);
    appendBytes(files[0], fake);

    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.footerLoads, 0u);
    EXPECT_EQ(disk.scanLoads, 1u);
    EXPECT_EQ(disk.loadedEntries, 2u);
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.lookup(2).has_value());
    EXPECT_FALSE(cache.lookup(99).has_value());
    EXPECT_EQ(cache.diskStats().readErrors, 0u);
}

TEST(PersistentCache, AppendAfterCleanCloseKeepsEveryRecord)
{
    std::string dir = freshCacheDir("cache_append_after_close");
    {
        PersistentScheduleCache cache(16, dir, 1);
        cache.insert(1, sampleResult());
    } // [rec1][footer]

    {
        // Reopen warm (O(1) footer load) and append: the stale footer
        // is truncated before the new record lands, so the records
        // region stays contiguous.
        PersistentScheduleCache cache(16, dir, 1);
        EXPECT_EQ(cache.diskStats().footerLoads, 1u);
        cache.insert(2, sampleResult());
        EXPECT_EQ(cache.diskStats().writes, 1u);
    } // [rec1][rec2][footer]

    {
        PersistentScheduleCache cache(16, dir, 1);
        EXPECT_EQ(cache.diskStats().footerLoads, 1u);
        EXPECT_EQ(cache.diskStats().loadedEntries, 2u);
        EXPECT_TRUE(cache.lookup(1).has_value());
        EXPECT_TRUE(cache.lookup(2).has_value());
    }

    // A crashed foreign writer that appended past the footer without
    // truncating it: the scan must skip the (valid, in-place) stale
    // footer and keep both the old and the appended records.
    std::vector<fs::path> files = shardFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    appendBytes(files[0], rawRecord(3, otherResult()));

    PersistentScheduleCache cache(16, dir, 1);
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.footerLoads, 0u);
    EXPECT_EQ(disk.scanLoads, 1u);
    EXPECT_EQ(disk.loadedEntries, 3u);
    EXPECT_EQ(disk.truncatedBytes, 0u); // nothing was lost
    std::optional<JobResult> one = cache.lookup(1);
    std::optional<JobResult> three = cache.lookup(3);
    ASSERT_TRUE(one.has_value());
    ASSERT_TRUE(cache.lookup(2).has_value());
    ASSERT_TRUE(three.has_value());
    EXPECT_EQ(one->listing, sampleResult().listing);
    EXPECT_EQ(three->listing, otherResult().listing);
}

TEST(PersistentCache, StripIndexFootersForcesScanThenHeals)
{
    std::string dir = freshCacheDir("cache_strip");
    {
        PersistentScheduleCache cache(16, dir, 2);
        for (std::uint64_t key = 1; key <= 3; ++key)
            cache.insert(key, sampleResult());
    }
    // Both shards carry a footer; stripping emulates a crash that
    // never reached the clean close.
    EXPECT_EQ(PersistentScheduleCache::stripIndexFooters(dir), 2);
    EXPECT_EQ(PersistentScheduleCache::stripIndexFooters(dir), 0);

    {
        PersistentScheduleCache cache(16, dir, 2);
        PersistentScheduleCache::DiskStats disk = cache.diskStats();
        EXPECT_EQ(disk.footerLoads, 0u);
        EXPECT_EQ(disk.scanLoads, 2u);
        EXPECT_EQ(disk.loadedEntries, 3u);
        EXPECT_EQ(disk.truncatedBytes, 0u);
        for (std::uint64_t key = 1; key <= 3; ++key) {
            std::optional<JobResult> hit = cache.lookup(key);
            ASSERT_TRUE(hit.has_value()) << "key " << key;
            EXPECT_EQ(hit->listing, sampleResult().listing);
        }
    } // the clean close restores both footers

    PersistentScheduleCache cache(16, dir, 2);
    EXPECT_EQ(cache.diskStats().footerLoads, 2u);
    EXPECT_EQ(cache.diskStats().scanLoads, 0u);
    EXPECT_EQ(cache.diskStats().loadedEntries, 3u);
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
    std::optional<JobResult> hit = cache.lookup(5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->listing, otherResult().listing);
}

TEST(PersistentCache, MemoryOnlyWhenDirectoryEmpty)
{
    PersistentScheduleCache cache(4, "");
    EXPECT_FALSE(cache.persistent());
    cache.insert(1, sampleResult());
    EXPECT_TRUE(cache.lookup(1).has_value());
    PersistentScheduleCache::DiskStats disk = cache.diskStats();
    EXPECT_EQ(disk.writes, 0u);
    EXPECT_EQ(disk.hits + disk.misses, 0u);
}

TEST(PersistentCache, ZeroCapacityDisablesCaching)
{
    PersistentScheduleCache cache(0, "");
    cache.insert(1, sampleResult());
    EXPECT_FALSE(cache.lookup(1).has_value());
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
    CounterSet memorySet = toCounterSet(memory);
    std::ostringstream memoryJson;
    writeCounterObject(memoryJson, memorySet, kMemoryCacheCounters);
    // writeCounterObject emits sorted key order everywhere.
    EXPECT_EQ(memoryJson.str(),
              "{\"capacity\":16,\"entries\":4,\"evictions\":1,"
              "\"hits\":3,\"misses\":2}");

    PersistentScheduleCache::DiskStats disk;
    disk.loadedEntries = 7;
    disk.truncatedBytes = 24;
    disk.footerLoads = 3;
    disk.scanLoads = 1;
    disk.ownedShards = 4;
    disk.hits = 5;
    disk.misses = 1;
    disk.readErrors = 1;
    disk.writes = 9;
    disk.writeErrors = 0;
    disk.droppedReadOnly = 2;
    disk.remaps = 6;
    disk.ownershipPromotions = 1;
    CounterSet diskSet = toCounterSet(disk);
    std::ostringstream diskJson;
    writeCounterObject(diskJson, diskSet, kDiskCacheCounters);
    EXPECT_EQ(diskJson.str(),
              "{\"dropped_read_only\":2,\"footer_loads\":3,"
              "\"hits\":5,\"loaded_entries\":7,\"misses\":1,"
              "\"owned_shards\":4,\"ownership_promotions\":1,"
              "\"read_errors\":1,\"remaps\":6,\"scan_loads\":1,"
              "\"truncated_bytes\":24,\"write_errors\":0,"
              "\"writes\":9}");
}

TEST(ResultIo, RoundTripPreservesEveryField)
{
    const JobResult &original = sampleResult();
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    encodeJobResult(writer, original);

    wire::ByteReader reader(bytes);
    JobResult decoded;
    ASSERT_TRUE(decodeJobResult(reader, &decoded)) << reader.error();
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(decoded.success, original.success);
    EXPECT_EQ(decoded.ii, original.ii);
    EXPECT_EQ(decoded.length, original.length);
    EXPECT_EQ(decoded.copiesInserted, original.copiesInserted);
    EXPECT_EQ(decoded.listing, original.listing);
    EXPECT_EQ(decoded.verifierErrors, original.verifierErrors);

    // Re-encoding the decoded result reproduces the bytes: the codec
    // is a bijection on valid records.
    std::vector<std::uint8_t> again;
    wire::ByteWriter rewriter(again);
    encodeJobResult(rewriter, decoded);
    EXPECT_EQ(again, bytes);
}

TEST(ResultIo, TruncatedAndFlippedRecordsNeverCrash)
{
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter writer(bytes);
    encodeJobResult(writer, sampleResult());

    for (std::size_t length = 0; length < bytes.size();
         length += 1 + bytes.size() / 256) {
        std::vector<std::uint8_t> truncated(
            bytes.begin(), bytes.begin() + static_cast<long>(length));
        wire::ByteReader reader(truncated);
        JobResult out;
        EXPECT_FALSE(decodeJobResult(reader, &out));
    }

    std::mt19937 rng(0xD15C);
    std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 400; ++round) {
        std::vector<std::uint8_t> mutated = bytes;
        int edits = 1 + round % 4;
        for (int e = 0; e < edits; ++e)
            mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
        wire::ByteReader reader(mutated);
        JobResult out;
        (void)decodeJobResult(reader, &out); // must not crash
    }
}

} // namespace
} // namespace cs
