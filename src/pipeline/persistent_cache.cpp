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
 * Validate the index-footer block at [dataEnd, size) of @p bytes
 * (geometry, magics, checksum). Returns the entry count on success.
 */
bool
footerBlockValid(const std::uint8_t *bytes, std::size_t size,
                 std::uint64_t dataEnd, std::uint64_t *countOut)
{
    constexpr std::size_t kHead = 4 + 8; // fmagic + count
    if (size < kHead + kShardFooterTailBytes ||
        dataEnd > size - kHead - kShardFooterTailBytes)
        return false;
    const std::uint8_t *footer = bytes + dataEnd;
    std::size_t footerBytes = size - static_cast<std::size_t>(dataEnd);
    if (wire::loadU32le(footer) != kShardFooterMagic)
        return false;
    std::uint64_t count = wire::loadU64le(footer + 4);
    if (count > (footerBytes - kHead - kShardFooterTailBytes) /
                    kShardFooterEntryBytes ||
        kHead + count * kShardFooterEntryBytes + kShardFooterTailBytes !=
            footerBytes)
        return false;
    if (wire::loadU32le(bytes + size - 4) != kShardFooterTailMagic)
        return false;
    if (wire::loadU64le(bytes + size - 20) != dataEnd)
        return false;
    std::uint64_t check = wire::loadU64le(bytes + size - 12);
    if (fnv1aBytes(footer, footerBytes - 12) != check)
        return false;
    *countOut = count;
    return true;
}

} // namespace

PersistentScheduleCache::PersistentScheduleCache(
    std::size_t memoryCapacity, std::string directory, int shards,
    int ownershipRetryMs)
    : memory_(memoryCapacity), directory_(std::move(directory)),
      ownershipRetryMs_(ownershipRetryMs)
{
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
        std::lock_guard<std::mutex> lock(shard->mutex);
        if (shard->fd < 0)
            continue;
        if (shard->owned && !shard->footerIntact &&
            !shard->suppressFooter)
            writeFooter(*shard);
        shard->map.reset();
        ::close(shard->fd);
        shard->fd = -1;
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

    // Read path for the index build: the mapping when available, a
    // one-shot pread of the whole file otherwise.
    std::vector<std::uint8_t> fallback;
    const std::uint8_t *bytes = nullptr;
    std::size_t size = 0;
    if (shard.map.map(shard.fd)) {
        bytes = shard.map.data();
        size = shard.map.size();
    } else {
        std::uint64_t fsize = fileSize(shard.fd);
        fallback.resize(fsize);
        if (fsize > 0 &&
            !preadAll(shard.fd, fallback.data(), fallback.size(), 0)) {
            CS_WARN("schedule cache: cannot read '", shard.path, "'");
            fallback.clear();
        }
        bytes = fallback.data();
        size = fallback.size();
    }

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        if (shard.owned)
            ++diskStats_.ownedShards;
    }
    if (!shard.owned)
        shard.lastOwnershipTry = std::chrono::steady_clock::now();
    if (size == 0)
        return; // fresh shard
    if (loadFromFooter(shard, bytes, size))
        return;
    loadFromScan(shard, bytes, size);
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
    // it means no other daemon can append any more: re-index to pick
    // up every record (and possibly a close footer) the owner wrote
    // after our open, then take over appending. The scan path may now
    // self-heal a torn tail the owner left — we own the shard.
    shard.owned = true;
    shard.index.clear();
    shard.appendPos = 0;
    shard.footerIntact = false;
    std::vector<std::uint8_t> fallback;
    const std::uint8_t *bytes = nullptr;
    std::size_t size = 0;
    if (shard.map.valid())
        shard.map.remap(shard.fd);
    else
        shard.map.map(shard.fd);
    if (shard.map.valid()) {
        bytes = shard.map.data();
        size = shard.map.size();
    } else {
        std::uint64_t fsize = fileSize(shard.fd);
        fallback.resize(fsize);
        if (fsize > 0 &&
            !preadAll(shard.fd, fallback.data(), fallback.size(), 0))
            fallback.clear();
        bytes = fallback.data();
        size = fallback.size();
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++diskStats_.ownedShards;
        ++diskStats_.ownershipPromotions;
    }
    if (size != 0 && !loadFromFooter(shard, bytes, size))
        loadFromScan(shard, bytes, size);
}

bool
PersistentScheduleCache::loadFromFooter(Shard &shard,
                                        const std::uint8_t *bytes,
                                        std::size_t size)
{
    if (size < kShardFooterTailBytes)
        return false;
    std::uint64_t dataEnd = wire::loadU64le(bytes + size - 20);
    std::uint64_t count = 0;
    if (!footerBlockValid(bytes, size, dataEnd, &count))
        return false;

    const std::uint8_t *entry = bytes + dataEnd + 4 + 8;
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t,
                                                std::uint32_t>>
        index;
    index.reserve(count);
    for (std::uint64_t i = 0; i < count;
         ++i, entry += kShardFooterEntryBytes) {
        std::uint64_t key = wire::loadU64le(entry);
        std::uint64_t offset = wire::loadU64le(entry + 8);
        std::uint32_t length = wire::loadU32le(entry + 16);
        // Every entry must describe a record wholly inside the records
        // region; a footer that points past dataEnd is treated as torn.
        if (length > kMaxPayload || offset < kShardRecordHeaderBytes ||
            offset + length + kShardRecordTrailerBytes > dataEnd)
            return false;
        index[key] = {offset, length};
    }

    shard.index = std::move(index);
    shard.appendPos = dataEnd;
    shard.footerIntact = true;
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++diskStats_.footerLoads;
    diskStats_.loadedEntries += count;
    return true;
}

void
PersistentScheduleCache::loadFromScan(Shard &shard,
                                      const std::uint8_t *bytes,
                                      std::size_t size)
{
    std::size_t pos = 0;
    std::uint64_t loaded = 0;
    while (pos + 4 <= size) {
        const std::uint8_t *p = bytes + pos;
        if (wire::loadU32le(p) == kShardFooterMagic) {
            // A stale footer from an earlier clean close with records
            // appended after it. Skip it — but only when the whole
            // block validates in place; anything else is corruption.
            constexpr std::size_t kHead = 4 + 8;
            if (pos + kHead + kShardFooterTailBytes > size)
                break;
            std::uint64_t count = wire::loadU64le(p + 4);
            if (count > (size - pos - kHead - kShardFooterTailBytes) /
                            kShardFooterEntryBytes)
                break;
            std::size_t blockBytes = kHead +
                count * kShardFooterEntryBytes + kShardFooterTailBytes;
            std::uint64_t blockEnd = pos + blockBytes;
            std::uint64_t cnt = 0;
            if (!footerBlockValid(bytes, blockEnd, pos, &cnt))
                break;
            pos = blockEnd;
            continue;
        }
        if (pos + kShardRecordHeaderBytes + kShardRecordTrailerBytes >
                size ||
            wire::loadU32le(p) != kShardRecordMagic)
            break;
        std::uint64_t key = wire::loadU64le(p + 4);
        std::uint32_t length = wire::loadU32le(p + 12);
        if (length > kMaxPayload ||
            pos + kShardRecordHeaderBytes + length +
                    kShardRecordTrailerBytes >
                size)
            break; // torn tail: record written partially
        const std::uint8_t *payload = p + kShardRecordHeaderBytes;
        std::uint64_t check = wire::loadU64le(payload + length);
        if (fnv1aBytes(payload, length) != check)
            break;
        shard.index[key] = {pos + kShardRecordHeaderBytes, length};
        ++loaded;
        pos += kShardRecordHeaderBytes + length +
               kShardRecordTrailerBytes;
    }
    if (pos < size && shard.owned) {
        // Self-heal: drop the invalid tail so the next append starts
        // from a clean record boundary. Read-only openers must not
        // touch the file — the owner will heal it.
        if (::ftruncate(shard.fd, static_cast<off_t>(pos)) != 0) {
            CS_WARN("schedule cache: cannot truncate torn tail of '",
                    shard.path, "': ", std::strerror(errno));
        }
        std::lock_guard<std::mutex> lock(statsMutex_);
        diskStats_.truncatedBytes += size - pos;
    }
    shard.appendPos = pos;
    shard.footerIntact = false;
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++diskStats_.scanLoads;
    diskStats_.loadedEntries += loaded;
}

void
PersistentScheduleCache::writeFooter(Shard &shard)
{
    std::vector<std::uint8_t> footer;
    footer.reserve(4 + 8 +
                   shard.index.size() * kShardFooterEntryBytes +
                   kShardFooterTailBytes);
    wire::appendU32le(footer, kShardFooterMagic);
    wire::appendU64le(footer, shard.index.size());
    for (const auto &[key, span] : shard.index) {
        wire::appendU64le(footer, key);
        wire::appendU64le(footer, span.first);
        wire::appendU32le(footer, span.second);
    }
    wire::appendU64le(footer, shard.appendPos); // dataEnd
    wire::appendU64le(footer, fnv1aBytes(footer.data(), footer.size()));
    wire::appendU32le(footer, kShardFooterTailMagic);
    // O_APPEND lands the footer at EOF == appendPos. A torn footer
    // write is harmless: the next open fails its validation and falls
    // back to the scan, which skips or truncates it.
    if (writeAll(shard.fd, footer.data(), footer.size()))
        shard.footerIntact = true;
    else
        CS_WARN("schedule cache: cannot write index footer of '",
                shard.path, "': ", std::strerror(errno));
}

PersistentScheduleCache::Shard &
PersistentScheduleCache::shardFor(std::uint64_t key)
{
    return *shards_[key % shards_.size()];
}

std::optional<JobResult>
PersistentScheduleCache::lookup(std::uint64_t key)
{
    std::optional<JobResult> hit = memory_.lookup(key);
    if (hit.has_value() || shards_.empty())
        return hit;

    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    maybePromote(shard);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        std::lock_guard<std::mutex> slock(statsMutex_);
        ++diskStats_.misses;
        return std::nullopt;
    }
    auto [offset, length] = it->second;
    std::size_t span = length + kShardRecordTrailerBytes;

    // Zero-copy path: checksum and decode straight out of the mapping.
    // A record appended after the last (re)map lies past the mapped
    // length; remap once to cover it. Safe against SIGBUS: offsets in
    // the index are bounded by the records region, which no writer
    // ever truncates below (only the footer after it is ever cut).
    const std::uint8_t *payload = nullptr;
    if (shard.map.valid() && offset + span > shard.map.size() &&
        shard.fd >= 0) {
        shard.map.remap(shard.fd);
        std::lock_guard<std::mutex> slock(statsMutex_);
        ++diskStats_.remaps;
    }
    std::vector<std::uint8_t> copy;
    bool ok = true;
    if (shard.map.valid() && offset + span <= shard.map.size()) {
        payload = shard.map.data() + offset;
    } else if (shard.fd >= 0) {
        copy.resize(span);
        ok = preadAll(shard.fd, copy.data(), span, offset);
        payload = copy.data();
    } else {
        ok = false;
    }

    // Validate again at read time: the open-path index vouched for the
    // record once, but the file may have been rewritten or damaged
    // since. Any failure degrades to a miss.
    JobResult result;
    if (ok) {
        std::uint64_t check = wire::loadU64le(payload + length);
        ok = fnv1aBytes(payload, length) == check;
    }
    if (ok) {
        wire::ByteReader reader(
            std::span<const std::uint8_t>(payload, length));
        ok = decodeJobResult(reader, &result) && reader.atEnd();
    }
    std::lock_guard<std::mutex> slock(statsMutex_);
    if (!ok) {
        shard.index.erase(it);
        ++diskStats_.readErrors;
        ++diskStats_.misses;
        return std::nullopt;
    }
    ++diskStats_.hits;
    memory_.insert(key, result); // promote to the front tier
    return result;
}

void
PersistentScheduleCache::insert(std::uint64_t key,
                                const JobResult &result)
{
    memory_.insert(key, result);
    if (shards_.empty())
        return;

    std::vector<std::uint8_t> payload;
    {
        wire::ByteWriter writer(payload);
        encodeJobResult(writer, result);
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
        std::lock_guard<std::mutex> slock(statsMutex_);
        if (shard.fd < 0)
            ++diskStats_.writeErrors;
        else
            ++diskStats_.droppedReadOnly;
        return;
    }
    if (shard.footerIntact) {
        // First append since the clean close: cut the footer off so
        // records stay contiguous (the close path rewrites it).
        if (::ftruncate(shard.fd,
                        static_cast<off_t>(shard.appendPos)) != 0) {
            // Keep appending at the real EOF; the scan path skips the
            // now-mid-file footer on the next open.
            shard.appendPos = fileSize(shard.fd);
        }
        shard.footerIntact = false;
    }
    bool ok = writeAll(shard.fd, record.data(), record.size());
    std::lock_guard<std::mutex> slock(statsMutex_);
    if (!ok) {
        ++diskStats_.writeErrors;
        CS_WARN("schedule cache: failed to append to '", shard.path,
                "'");
        // Heal the possibly-torn tail in place; if even that fails,
        // stop appending so indexed records stay reachable.
        if (::ftruncate(shard.fd,
                        static_cast<off_t>(shard.appendPos)) != 0)
            shard.owned = false;
        return;
    }
    ++diskStats_.writes;
    shard.index[key] = {shard.appendPos + kShardRecordHeaderBytes,
                        static_cast<std::uint32_t>(payload.size())};
    shard.appendPos += record.size();
}

PersistentScheduleCache::DiskStats
PersistentScheduleCache::diskStats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return diskStats_;
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

void
PersistentScheduleCache::clear()
{
    memory_.clear();
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->index.clear();
        // Files are kept, and the next open must still find every
        // record — so a clear()ed shard must not write a (now empty)
        // footer at close that would mask them.
        shard->suppressFooter = true;
    }
}

int
PersistentScheduleCache::stripIndexFooters(const std::string &directory)
{
    namespace fs = std::filesystem;
    int stripped = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(directory, ec)) {
        const fs::path &path = entry.path();
        if (path.extension() != ".bin")
            continue;
        int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd < 0)
            continue;
        std::uint64_t size = fileSize(fd);
        std::vector<std::uint8_t> bytes(size);
        std::uint64_t count = 0;
        if (size >= kShardFooterTailBytes &&
            preadAll(fd, bytes.data(), bytes.size(), 0) &&
            footerBlockValid(bytes.data(), bytes.size(),
                             wire::loadU64le(bytes.data() + size - 20),
                             &count) &&
            ::ftruncate(fd, static_cast<off_t>(wire::loadU64le(
                                bytes.data() + size - 20))) == 0)
            ++stripped;
        ::close(fd);
    }
    return stripped;
}

CounterSet
toCounterSet(const PersistentScheduleCache::DiskStats &stats)
{
    CounterSet out;
    out.bump("loaded_entries", stats.loadedEntries);
    out.bump("truncated_bytes", stats.truncatedBytes);
    out.bump("footer_loads", stats.footerLoads);
    out.bump("scan_loads", stats.scanLoads);
    out.bump("owned_shards", stats.ownedShards);
    out.bump("hits", stats.hits);
    out.bump("misses", stats.misses);
    out.bump("read_errors", stats.readErrors);
    out.bump("writes", stats.writes);
    out.bump("write_errors", stats.writeErrors);
    out.bump("dropped_read_only", stats.droppedReadOnly);
    out.bump("remaps", stats.remaps);
    out.bump("ownership_promotions", stats.ownershipPromotions);
    return out;
}

} // namespace cs
