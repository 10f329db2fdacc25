/**
 * @file
 * Disk-backed, sharded schedule cache: the in-memory LRU ScheduleCache
 * stays the fast front tier, and a directory of shard files holds every
 * result so the cache survives restarts and loads warm.
 *
 * On-disk layout: N shard files named shard-<i>.bin; a key routes to
 * shard key % N. Each shard is an append-only log of records:
 *
 *   magic   u32  (0x43535243, "CSRC")
 *   key     u64  content hash (scheduleJobKey)
 *   length  u32  payload byte count
 *   payload      encodeJobResult bytes: what a reply reads of the
 *                result (pipeline/result_io.hpp)
 *   check   u64  FNV-1a over the payload
 *
 * Index: open reads the records in order with pread(2), one at a time,
 * and keeps key -> (payload offset, length) of the last valid record
 * per key (re-insertion appends, so the last record wins). The scan
 * stops at the first bytes that are not a valid record: a torn tail, a
 * damaged record, or the index footer that older builds appended on a
 * clean close. An owner truncates the shard there, so the next append
 * starts on a record boundary; the records before it stay indexed.
 *
 * Read: a disk hit preads the indexed record's payload and checksum,
 * checks the checksum again and decodes; any failure is a miss.
 *
 * Crash safety without a journal: records are only appended, and every
 * read re-checks its checksum.
 *
 * Multi-daemon sharing: each shard is guarded by flock(2). The open
 * path takes LOCK_EX | LOCK_NB per shard; winners *own* the shard
 * (append, self-heal) for the cache's lifetime, losers open it
 * read-only — their lookups serve the records valid at open time and
 * their inserts keep only the memory tier (counted as
 * dropped_read_only). Owners never truncate below the
 * records region a read-only opener could have indexed, so concurrent
 * daemons on one cache directory cannot corrupt each other.
 *
 * Owner failover: with ownershipRetryMs > 0, a read-only shard retries
 * the flock (rate-limited, piggybacked on lookup/insert traffic) and —
 * since the kernel releases a dead owner's lock with its last fd —
 * promotes itself when the owner has exited: it re-scans the shard
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

namespace cs {

/** @name Shard file format constants (tests and tools build on them) */
/// @{
inline constexpr std::uint32_t kShardRecordMagic = 0x43535243u; // CSRC
inline constexpr std::size_t kShardRecordHeaderBytes = 4 + 8 + 4;
inline constexpr std::size_t kShardRecordTrailerBytes = 8;
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
     *                        released. Promotion re-scans the shard
     *                        (the dead owner may have appended records
     *                        since our open) and counts
     *                        ownership_promotions. 0 never retries
     *                        (the PR 8 behavior).
     */
    PersistentScheduleCache(std::size_t memoryCapacity,
                            std::string directory, int shards = 8,
                            int ownershipRetryMs = 0);

    ~PersistentScheduleCache();

    /**
     * Memory tier first, then disk; null on a miss. A memory hit is
     * the shared stored result. A disk hit validates and decodes the
     * record once into a new shared result and promotes that pointer
     * into the memory tier. A decoded result holds the reply fields
     * only: its sched keeps success, cancelled and failure, with an
     * empty kernel, schedule and counter set, while an inserted one
     * is kept whole in memory. Counts one hit or miss on the tier that
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
        /** Read-only shards that took the flock after the owner died
         *  (ownershipRetryMs > 0) and became appendable. */
        std::uint64_t ownershipPromotions = 0;
    };

    DiskStats diskStats() const;

    /** The same as the cache.disk.* counters, every one listed. */
    CounterSet diskCounters() const { return counters_.snapshot(); }

    /**
     * Point-in-time view of one shard file, for telemetry: bytes is
     * the records region (the next append offset), records is the
     * *indexed* count — last-wins per key, so overwritten duplicates
     * are not counted.
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

  private:
    struct Shard
    {
        std::mutex mutex;
        std::string path;
        int fd = -1;
        /** flock(LOCK_EX) winner: may append and heal. */
        bool owned = false;
        /** End of the records region == next append offset. */
        std::uint64_t appendPos = 0;
        /** Last flock-ownership retry (read-only shards only). */
        std::chrono::steady_clock::time_point lastOwnershipTry{};
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
    /** Index the shard's valid record prefix; an owner truncates
     *  whatever follows it. */
    void scan(Shard &shard);

    ScheduleCache memory_;
    std::string directory_;
    int ownershipRetryMs_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** The cache.disk.* counters (relaxed atomics, no lock). */
    SharedCounterSet counters_;
};

} // namespace cs

#endif // CS_PIPELINE_PERSISTENT_CACHE_HPP
