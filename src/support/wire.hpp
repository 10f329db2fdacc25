/**
 * @file
 * Encoding toolkit shared by every serializable description (kernels,
 * machines, job sets, cached results): a tokenizing text scanner for
 * the human-readable format and bounds-checked little-endian byte
 * readers/writers for the compact binary format.
 *
 * Error discipline: parsers must never crash on malformed input, so
 * both scanner and byte reader are *monadic* — the first failure
 * latches an error message (with position) and every subsequent
 * operation becomes a no-op returning false/zero. Parse code can
 * therefore read straight-line and check failed() once per section.
 */

#ifndef CS_SUPPORT_WIRE_HPP
#define CS_SUPPORT_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cs::wire {

/** @name Raw little-endian loads/stores
 *  Shared by every fixed-layout on-disk/on-wire structure that is not
 *  written through ByteWriter (shard records in
 *  pipeline/persistent_cache, frame headers in serve/proto). Byte-wise,
 *  so they are endian- and alignment-safe on any host.
 */
/// @{
inline std::uint32_t
loadU32le(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline std::uint64_t
loadU64le(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

inline void
storeU32le(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void
storeU64le(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void
appendU32le(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
appendU64le(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
/// @}

/**
 * Whitespace-separated token scanner. Tokens are words, quoted
 * strings ("..." with \\ \" \n \t escapes, decoded), or single
 * punctuation characters from {}[](),=. A '#' starts a comment that
 * runs to end of line. Line numbers are tracked for diagnostics.
 */
class TextScanner
{
  public:
    explicit TextScanner(std::string_view text);

    /** True once a scan/expect error latched; all ops are no-ops. */
    bool failed() const { return failed_; }
    /** The latched diagnostic, e.g. "line 7: expected '{', got 'x'". */
    const std::string &error() const { return error_; }
    /** Latch an error (keeps the first one). */
    void fail(const std::string &message);

    /** True at end of input (or after a failure). */
    bool atEnd();

    /** Current token without consuming ("" at end). */
    std::string_view peek();
    /** Consume and return the current token ("" at end). */
    std::string_view next();

    /** Consume the token iff it equals @p token. */
    bool accept(std::string_view token);
    /** Consume the token; latch an error unless it equals @p token. */
    bool expect(std::string_view token);

    /** Expect a quoted string token; decode into @p out. */
    bool quoted(std::string *out);
    /** Expect a (possibly signed) decimal integer. */
    bool integer(std::int64_t *out);
    /** Expect an unsigned decimal integer. */
    bool unsignedInt(std::uint64_t *out);
    /** Expect an integer in [lo, hi]; message names @p what. */
    bool intInRange(const char *what, std::int64_t lo, std::int64_t hi,
                    std::int64_t *out);
    /** Expect a float: decimal, hexfloat (%a), inf or nan. */
    bool floating(double *out);
    /** Expect "true" or "false". */
    bool boolean(bool *out);

    /** Was the most recent peek()/next() token a quoted string? */
    bool lastWasQuoted() const { return lastQuoted_; }

    int line() const { return line_; }

  private:
    void skipSpace();
    bool scanToken(); ///< fill current_ from input; false at end

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    bool haveToken_ = false;
    bool lastQuoted_ = false;
    std::string current_; ///< decoded token (escapes resolved)
    bool failed_ = false;
    std::string error_;
};

/** Quote and escape @p s for the text format. */
std::string quoteString(std::string_view s);

/** Print a double so it round-trips exactly (printf %a hexfloat). */
std::string exactFloat(double v);

/** Append-only little-endian binary writer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** u32 length prefix + raw bytes. */
    void str(std::string_view s);

    std::size_t size() const { return out_.size(); }

  private:
    std::vector<std::uint8_t> &out_;
};

/**
 * Bounds-checked little-endian binary reader. Reads past the end (or
 * after a failure) return zero values and latch an error; length
 * prefixes are validated against the remaining input before any
 * allocation, so hostile lengths cannot trigger huge reserves.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> data)
        : data_(data)
    {}

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    void fail(const std::string &message);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return failed_ || pos_ == data_.size(); }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool boolean();
    /** u32 length prefix + raw bytes (validated against remaining). */
    std::string str();

    /**
     * Read a u32 element count and validate count * minBytesPerElem
     * fits in the remaining input (so reserve(count) is safe).
     */
    std::uint32_t arrayCount(std::size_t minBytesPerElem);

  private:
    const std::uint8_t *take(std::size_t n);

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace cs::wire

#endif // CS_SUPPORT_WIRE_HPP
