/**
 * @file
 * Disk-backed, sharded schedule cache: the in-memory LRU ScheduleCache
 * stays the fast front tier, and a directory of shard files holds every
 * result so the cache survives restarts and loads warm.
 *
 * On-disk layout: N shard files named shard-<i>.bin; a key routes to
 * shard key % N. Each shard is a sequence of appended records:
 *
 *   magic   u32  (0x43535243, "CSRC")
 *   key     u64  content hash (scheduleJobKey)
 *   length  u32  payload byte count
 *   payload      encodeJobResult bytes
 *   check   u64  FNV-1a over the payload
 *
 * On clean close an *index footer* is appended after the records so the
 * next open can rebuild the key -> offset index without scanning (or
 * even faulting in) the payload bytes — reopen cost is O(entries), not
 * O(cache bytes):
 *
 *   fmagic  u32  (0x58495343, "CSIX")
 *   count   u64
 *   entry[count]: key u64, payload offset u64, payload length u32
 *   dataEnd u64  file offset where the footer begins (= records end)
 *   check   u64  FNV-1a over fmagic..dataEnd
 *   tmagic  u32  (0x58464f4f, "OOFX")
 *
 * The tail (dataEnd/check/tmagic) is fixed-size, so the footer is
 * located from EOF, validated (magics, geometry, checksum, every entry
 * inside [0, dataEnd)), and trusted only when all of it holds. A
 * missing or torn footer falls back to the original sequential record
 * scan, which skips well-formed stale footers mid-file; either path
 * indexes the same records. The footer is lazily dropped (ftruncate to
 * dataEnd) before the first append so records stay contiguous; a clean
 * close rewrites it.
 *
 * Reads are served from a read-only mmap of the shard
 * (support/mmap_file.hpp): a warm hit checksums and decodes the record
 * straight out of the page-cache-backed mapping, with no intermediate
 * payload copy. Records appended after the mapping was taken trigger a
 * remap (tracked by the `remaps` counter); if mmap is unavailable the
 * shard degrades to pread(2).
 *
 * Crash safety without a journal: records are append-only, and a torn
 * or corrupt tail is detected by the fallback scan — it stops at the
 * first record whose magic, length, or checksum does not hold,
 * truncates the shard there (owners only), and indexes the valid
 * prefix. Reads validate the checksum (and decode) again, so even a
 * record corrupted after open degrades to a miss, never a crash.
 * Duplicate keys are legal (re-insertions append); both index builds
 * keep the last occurrence, matching insertion order.
 *
 * Multi-daemon sharing: each shard is guarded by flock(2). The open
 * path takes LOCK_EX | LOCK_NB per shard; winners *own* the shard
 * (append, self-heal, write the footer on close) for the cache's
 * lifetime, losers open it read-only — their lookups serve the records
 * valid at open time and their inserts keep only the memory tier
 * (counted as dropped_read_only). Owners never truncate below the
 * records region a read-only opener could have indexed, so concurrent
 * daemons on one cache directory cannot corrupt each other.
 *
 * Owner failover: with ownershipRetryMs > 0, a read-only shard retries
 * the flock (rate-limited, piggybacked on lookup/insert traffic) and —
 * since the kernel releases a dead owner's lock with its last fd —
 * promotes itself when the owner has exited: it re-indexes the shard
 * to pick up whatever the owner appended after our open, then starts
 * appending. Counted as ownership_promotions.
 *
 * Thread safety: all operations are safe from any thread. Each shard
 * has its own mutex, so concurrent traffic to different shards does
 * not serialize; the memory tier has its own lock.
 */

#ifndef CS_PIPELINE_PERSISTENT_CACHE_HPP
#define CS_PIPELINE_PERSISTENT_CACHE_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/schedule_cache.hpp"
#include "support/mmap_file.hpp"

namespace cs {

/** @name Shard file format constants (tests and tools build on them) */
/// @{
inline constexpr std::uint32_t kShardRecordMagic = 0x43535243u; // CSRC
inline constexpr std::size_t kShardRecordHeaderBytes = 4 + 8 + 4;
inline constexpr std::size_t kShardRecordTrailerBytes = 8;
inline constexpr std::uint32_t kShardFooterMagic = 0x58495343u; // CSIX
inline constexpr std::uint32_t kShardFooterTailMagic = 0x58464f4fu;
/** Footer tail: dataEnd u64 + checksum u64 + tail magic u32. */
inline constexpr std::size_t kShardFooterTailBytes = 8 + 8 + 4;
/** Footer entry: key u64 + payload offset u64 + payload length u32. */
inline constexpr std::size_t kShardFooterEntryBytes = 8 + 8 + 4;
/// @}

/** Two-tier (memory LRU + sharded disk) schedule cache. */
class PersistentScheduleCache
{
  public:
    /**
     * @param memoryCapacity  front-tier LRU entries; 0 disables both
     *                        tiers (every lookup misses, inserts drop)
     * @param directory       shard directory, created if missing;
     *                        empty disables the disk tier (the cache
     *                        degenerates to the plain memory LRU)
     * @param shards          shard file count (clamped to >= 1)
     * @param ownershipRetryMs  non-owned shards retry the flock at
     *                        most every this many milliseconds (on
     *                        lookup/insert traffic) and promote to
     *                        owner when it succeeds — i.e. when the
     *                        owning daemon has exited and its lock was
     *                        released. Promotion re-indexes the shard
     *                        (the dead owner may have appended records
     *                        or a footer since our open) and counts
     *                        ownership_promotions. 0 never retries
     *                        (the PR 8 behavior).
     */
    PersistentScheduleCache(std::size_t memoryCapacity,
                            std::string directory, int shards = 8,
                            int ownershipRetryMs = 0);

    /** Clean close: owned shards get their index footer appended. */
    ~PersistentScheduleCache();

    /**
     * Memory tier first, then disk; null on a miss. A memory hit is
     * the shared stored result. A disk hit validates and decodes the
     * record once into a new shared result and promotes that pointer
     * into the memory tier. Counts one hit or miss on the tier that
     * answered (a disk hit counts a memory miss too: per-tier counters
     * stay truthful); with @p countMiss false, no tier counts a miss.
     */
    std::shared_ptr<const JobResult> lookup(std::uint64_t key,
                                            bool countMiss = true);

    /**
     * Insert into both tiers. The disk write is a single append on the
     * owned shard, completed before the call returns; a record that
     * fails to write (disk full, directory vanished) or routes to a
     * shard owned by another daemon is dropped with the corresponding
     * counter — the memory tier still holds it, and correctness never
     * depends on the disk tier.
     */
    void insert(std::uint64_t key, std::shared_ptr<const JobResult> result);

    /** Front-tier (memory LRU) counters, as before. */
    ScheduleCache::Stats stats() const { return memory_.stats(); }

    /** Disk-tier counters. */
    struct DiskStats
    {
        /** Valid records indexed when the shards were opened. */
        std::uint64_t loadedEntries = 0;
        /** Bytes truncated from torn/corrupt shard tails on open. */
        std::uint64_t truncatedBytes = 0;
        /** Shards whose reopen trusted an index footer (O(1) path). */
        std::uint64_t footerLoads = 0;
        /** Non-empty shards indexed by the fallback record scan. */
        std::uint64_t scanLoads = 0;
        /** Shards this cache holds the flock on (appendable). */
        std::uint64_t ownedShards = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Disk-hit records that failed checksum/decode on read (each
         *  also counts a miss, except on a re-probe). */
        std::uint64_t readErrors = 0;
        std::uint64_t writes = 0;
        std::uint64_t writeErrors = 0;
        /** Inserts dropped because another daemon owns the shard. */
        std::uint64_t droppedReadOnly = 0;
        /** Mapping refreshes forced by reading post-open appends. */
        std::uint64_t remaps = 0;
        /** Read-only shards that took the flock after the owner died
         *  (ownershipRetryMs > 0) and became appendable. */
        std::uint64_t ownershipPromotions = 0;
    };

    DiskStats diskStats() const;

    /** The same as the cache.disk.* counters, every one listed. */
    CounterSet diskCounters() const { return counters_.snapshot(); }

    /**
     * Point-in-time view of one shard file, for telemetry: bytes is
     * the records region (the next append offset, excluding any index
     * footer), records is the *indexed* count — last-wins per key, so
     * overwritten duplicates are not counted.
     */
    struct ShardInfo
    {
        std::string path;
        std::uint64_t bytes = 0;
        std::uint64_t records = 0;
        bool owned = false;
    };

    /** Snapshot every shard (empty when the disk tier is disabled).
     *  Takes each shard mutex briefly; safe against live traffic. */
    std::vector<ShardInfo> shardInfos() const;

    /** Whether a disk tier is configured. */
    bool persistent() const { return !shards_.empty(); }

    /** The shard directory ("" when the disk tier is disabled). */
    const std::string &directory() const { return directory_; }

    /** Drop memory entries and the disk index (files are kept). */
    void clear();

    /**
     * Remove valid index footers from every shard file in
     * @p directory, leaving only the records — the state a crashed
     * daemon (which never reached its clean close) leaves behind.
     * Test hook for exercising the scan fallback; returns how
     * many footers were stripped. Must not race a live cache on the
     * same directory.
     */
    static int stripIndexFooters(const std::string &directory);

  private:
    struct Shard
    {
        std::mutex mutex;
        std::string path;
        int fd = -1;
        /** flock(LOCK_EX) winner: may append/heal/write the footer. */
        bool owned = false;
        /** A valid footer currently sits at EOF (dropped on append). */
        bool footerIntact = false;
        /** clear() was called: skip the close-time footer so the next
         *  open rediscovers the kept records by scan. */
        bool suppressFooter = false;
        /** End of the records region == next append offset. */
        std::uint64_t appendPos = 0;
        /** Last flock-ownership retry (read-only shards only). */
        std::chrono::steady_clock::time_point lastOwnershipTry{};
        MmapFile map;
        /** key -> (payload offset, payload length) of the last valid
         *  record for that key. */
        std::unordered_map<std::uint64_t, std::pair<std::uint64_t,
                                                    std::uint32_t>>
            index;
    };

    Shard &shardFor(std::uint64_t key);
    void openShards();
    void openOne(Shard &shard);
    /** Ownership-retry check; shard.mutex must be held. */
    void maybePromote(Shard &shard);
    bool loadFromFooter(Shard &shard, const std::uint8_t *bytes,
                        std::size_t size);
    void loadFromScan(Shard &shard, const std::uint8_t *bytes,
                      std::size_t size);
    void writeFooter(Shard &shard);

    ScheduleCache memory_;
    std::string directory_;
    int ownershipRetryMs_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** The cache.disk.* counters (relaxed atomics, no lock). */
    SharedCounterSet counters_;
};

} // namespace cs

#endif // CS_PIPELINE_PERSISTENT_CACHE_HPP
