#include "pipeline/persistent_cache.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "pipeline/result_io.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"

namespace cs {

namespace {

/** Cap a single record's payload; shields the open-scan and reads
 *  from hostile/corrupt lengths. */
constexpr std::uint32_t kMaxPayload = 256u << 20;

/** write(2) until done; false on any error (EINTR retried). */
bool
writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** pread(2) until done; false on error or short file. */
bool
preadAll(int fd, std::uint8_t *out, std::size_t size,
         std::uint64_t offset)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::pread(fd, out + done, size - done,
                            static_cast<off_t>(offset + done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

std::uint64_t
fileSize(int fd)
{
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/**
 * Read the payload and checksum of the record whose payload starts at
 * @p offset into @p buffer and check the FNV-1a; false on a short read
 * or a mismatch. The payload is the first @p length bytes of @p buffer.
 */
bool
readRecord(int fd, std::uint64_t offset, std::uint32_t length,
           std::vector<std::uint8_t> &buffer)
{
    buffer.resize(length + kShardRecordTrailerBytes);
    return preadAll(fd, buffer.data(), buffer.size(), offset) &&
           fnv1aBytes(buffer.data(), length) ==
               wire::loadU64le(buffer.data() + length);
}

} // namespace

PersistentScheduleCache::PersistentScheduleCache(
    std::size_t memoryCapacity, std::string directory, int shards,
    int ownershipRetryMs)
    : memory_(memoryCapacity), directory_(std::move(directory)),
      ownershipRetryMs_(ownershipRetryMs)
{
    for (CounterId id : counterGroup("cache.disk."))
        counters_.bump(id, 0); // listed, even with no disk tier
    if (directory_.empty() || memoryCapacity == 0)
        return;
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        CS_WARN("schedule cache: cannot create '", directory_, "': ",
                ec.message(), "; disk tier disabled");
        directory_.clear();
        return;
    }
    shards_.reserve(static_cast<std::size_t>(std::max(shards, 1)));
    for (int i = 0; i < std::max(shards, 1); ++i) {
        auto shard = std::make_unique<Shard>();
        shard->path =
            directory_ + "/shard-" + std::to_string(i) + ".bin";
        shards_.push_back(std::move(shard));
    }
    openShards();
}

PersistentScheduleCache::~PersistentScheduleCache()
{
    for (auto &shard : shards_) {
        if (shard->fd >= 0)
            ::close(shard->fd);
    }
}

void
PersistentScheduleCache::openShards()
{
    for (auto &shard : shards_)
        openOne(*shard);
}

void
PersistentScheduleCache::openOne(Shard &shard)
{
    shard.fd = ::open(shard.path.c_str(),
                      O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (shard.fd >= 0) {
        shard.owned = ::flock(shard.fd, LOCK_EX | LOCK_NB) == 0;
    } else {
        // No write permission (or similar): serve it read-only.
        shard.fd = ::open(shard.path.c_str(), O_RDONLY | O_CLOEXEC);
        shard.owned = false;
    }
    if (shard.fd < 0) {
        CS_WARN("schedule cache: cannot open '", shard.path,
                "': ", std::strerror(errno));
        return;
    }

    if (shard.owned)
        counters_.bump(counter("cache.disk.owned_shards"));
    else
        shard.lastOwnershipTry = std::chrono::steady_clock::now();
    scan(shard);
}

void
PersistentScheduleCache::maybePromote(Shard &shard)
{
    if (shard.owned || shard.fd < 0 || ownershipRetryMs_ <= 0)
        return;
    auto now = std::chrono::steady_clock::now();
    if (now - shard.lastOwnershipTry <
        std::chrono::milliseconds(ownershipRetryMs_))
        return;
    shard.lastOwnershipTry = now;
    if (::flock(shard.fd, LOCK_EX | LOCK_NB) != 0)
        return; // the owner is still alive

    // The lock is released with the dead owner's last fd, so holding
    // it means no other daemon can append any more: re-scan to pick up
    // every record the owner wrote after our open, then take over
    // appending. The scan may now self-heal a torn tail the owner left
    // — we own the shard.
    shard.owned = true;
    shard.index.clear();
    counters_.bump(counter("cache.disk.owned_shards"));
    counters_.bump(counter("cache.disk.ownership_promotions"));
    scan(shard);
}

void
PersistentScheduleCache::scan(Shard &shard)
{
    std::uint64_t size = fileSize(shard.fd);
    std::uint64_t pos = 0;
    std::uint64_t loaded = 0;
    std::uint8_t header[kShardRecordHeaderBytes];
    std::vector<std::uint8_t> record;
    while (pos + kShardRecordHeaderBytes + kShardRecordTrailerBytes <=
               size &&
           preadAll(shard.fd, header, sizeof header, pos) &&
           wire::loadU32le(header) == kShardRecordMagic) {
        std::uint64_t key = wire::loadU64le(header + 4);
        std::uint32_t length = wire::loadU32le(header + 12);
        std::uint64_t offset = pos + kShardRecordHeaderBytes;
        if (length > kMaxPayload ||
            offset + length + kShardRecordTrailerBytes > size ||
            !readRecord(shard.fd, offset, length, record))
            break; // torn tail or damaged record
        shard.index[key] = {offset, length};
        ++loaded;
        pos = offset + length + kShardRecordTrailerBytes;
    }
    if (pos < size && shard.owned) {
        // Self-heal: drop the invalid tail so the next append starts
        // from a clean record boundary. Read-only openers must not
        // touch the file — the owner will heal it.
        if (::ftruncate(shard.fd, static_cast<off_t>(pos)) != 0) {
            CS_WARN("schedule cache: cannot truncate torn tail of '",
                    shard.path, "': ", std::strerror(errno));
        }
        counters_.bump(counter("cache.disk.truncated_bytes"), size - pos);
    }
    shard.appendPos = pos;
    counters_.bump(counter("cache.disk.loaded_entries"), loaded);
}

PersistentScheduleCache::Shard &
PersistentScheduleCache::shardFor(std::uint64_t key)
{
    return *shards_[key % shards_.size()];
}

std::shared_ptr<const JobResult>
PersistentScheduleCache::lookup(std::uint64_t key, bool countMiss)
{
    std::shared_ptr<const JobResult> hit = memory_.lookup(key, countMiss);
    if (hit != nullptr || shards_.empty())
        return hit;

    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    maybePromote(shard);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        if (countMiss)
            counters_.bump(counter("cache.disk.misses"));
        return nullptr;
    }
    auto [offset, length] = it->second;

    // Check the record again at read time: the scan vouched for it
    // once, but the file may have been damaged since. Any failure
    // degrades to a miss.
    std::vector<std::uint8_t> record;
    auto result = std::make_shared<JobResult>();
    if (!readRecord(shard.fd, offset, length, record) ||
        !decodeJobResult({record.data(), length}, result.get())) {
        shard.index.erase(it);
        counters_.bump(counter("cache.disk.read_errors"));
        if (countMiss)
            counters_.bump(counter("cache.disk.misses"));
        return nullptr;
    }
    counters_.bump(counter("cache.disk.hits"));
    memory_.insert(key, result); // promote the one decoded result
    return result;
}

void
PersistentScheduleCache::insert(std::uint64_t key,
                                std::shared_ptr<const JobResult> result)
{
    memory_.insert(key, result);
    if (shards_.empty())
        return;

    std::vector<std::uint8_t> payload;
    {
        wire::ByteWriter writer(payload);
        encodeJobResult(writer, *result);
    }
    if (payload.size() > kMaxPayload) {
        CS_WARN("schedule cache: result too large to persist (",
                payload.size(), " bytes)");
        return;
    }

    std::vector<std::uint8_t> record;
    record.reserve(kShardRecordHeaderBytes + payload.size() +
                   kShardRecordTrailerBytes);
    wire::appendU32le(record, kShardRecordMagic);
    wire::appendU64le(record, key);
    wire::appendU32le(record,
                      static_cast<std::uint32_t>(payload.size()));
    record.insert(record.end(), payload.begin(), payload.end());
    wire::appendU64le(record, fnv1aBytes(payload.data(), payload.size()));

    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    maybePromote(shard);
    if (!shard.owned || shard.fd < 0) {
        counters_.bump(shard.fd < 0 ? counter("cache.disk.write_errors")
                                    : counter("cache.disk.dropped_read_only"));
        return;
    }
    bool ok = writeAll(shard.fd, record.data(), record.size());
    if (!ok) {
        counters_.bump(counter("cache.disk.write_errors"));
        CS_WARN("schedule cache: failed to append to '", shard.path,
                "'");
        // Heal the possibly-torn tail in place; if even that fails,
        // stop appending so indexed records stay reachable.
        if (::ftruncate(shard.fd,
                        static_cast<off_t>(shard.appendPos)) != 0)
            shard.owned = false;
        return;
    }
    counters_.bump(counter("cache.disk.writes"));
    shard.index[key] = {shard.appendPos + kShardRecordHeaderBytes,
                        static_cast<std::uint32_t>(payload.size())};
    shard.appendPos += record.size();
}

PersistentScheduleCache::DiskStats
PersistentScheduleCache::diskStats() const
{
    CounterSet c = counters_.snapshot();
    DiskStats s;
    s.loadedEntries = c.get(counter("cache.disk.loaded_entries"));
    s.truncatedBytes = c.get(counter("cache.disk.truncated_bytes"));
    s.ownedShards = c.get(counter("cache.disk.owned_shards"));
    s.hits = c.get(counter("cache.disk.hits"));
    s.misses = c.get(counter("cache.disk.misses"));
    s.readErrors = c.get(counter("cache.disk.read_errors"));
    s.writes = c.get(counter("cache.disk.writes"));
    s.writeErrors = c.get(counter("cache.disk.write_errors"));
    s.droppedReadOnly = c.get(counter("cache.disk.dropped_read_only"));
    s.ownershipPromotions = c.get(counter("cache.disk.ownership_promotions"));
    return s;
}

std::vector<PersistentScheduleCache::ShardInfo>
PersistentScheduleCache::shardInfos() const
{
    std::vector<ShardInfo> out;
    out.reserve(shards_.size());
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        ShardInfo info;
        info.path = shard->path;
        info.bytes = shard->appendPos;
        info.records = shard->index.size();
        info.owned = shard->owned;
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace cs
